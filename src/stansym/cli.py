"""Command-line frontend.

Subcommands compute single objects (Stanley symmetric functions, expansions,
EG insertion, Little moves, k-Schur and j-basis elements) or run the named
verification suites.  Output is text or JSON; exit status is 0 on success,
1 on a verification failure, 2 on usage errors, and 141 (128 + SIGPIPE, as a
shell reports it) when the reader of stdout closes it before the output ends.
"""

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from math import comb

from .affine import AffinePermutation, CorootVector, elements_of_length
from .partition import as_partition
from .permutation import Permutation, count_reduced_words, symmetric_group
from .symfunc import change_basis, k_schur
from .tableaux import MarkedWord, little_move_chain

DEFAULT_CAPS = {
    "max_rank_finite": 5,
    "max_rank_affine": 4,
}
# the smallest rank each suite can check anything at
MIN_CAPS = {
    "max_rank_finite": 2,
    "max_rank_affine": 3,
}


def load_caps():
    """The caps: defaults, then the config file, then the environment.

    The file must be a readable JSON object whose caps are JSON integers,
    and an environment value must be a decimal integer; anything else, or a
    cap below its minimum, raises ValueError.
    """
    caps = dict(DEFAULT_CAPS)
    path = os.environ.get("STANSYM_CONFIG", os.path.expanduser("~/.config/stansym.json"))
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object of caps")
        for key in sorted(caps.keys() & data.keys()):
            if type(data[key]) is not int:
                raise ValueError(f"{path}: {key} must be an integer, got {data[key]!r}")
            caps[key] = data[key]
    for key in caps:
        env = os.environ.get(f"STANSYM_{key.upper()}")
        if env is not None:
            if not re.fullmatch(r"-?[0-9]+", env):
                raise ValueError(f"STANSYM_{key.upper()} must be an integer, got {env!r}")
            caps[key] = int(env)
    for key, least in MIN_CAPS.items():
        if caps[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {caps[key]}")
    return caps


def _json_integers(text):
    """A JSON array of integers; any other entry is a usage error."""
    items = json.loads(text)
    if not isinstance(items, list):
        raise ValueError(f"not a JSON array: {text}")
    bad = [x for x in items if type(x) is not int]  # a bool is an int too
    if bad:
        raise ValueError(f"not an integer: {bad[0]!r} in {text}")
    return items


def parse_permutation(text):
    """One-line digit string (n <= 9) or a JSON array."""
    text = text.strip()
    if text.startswith("["):
        return Permutation(_json_integers(text))
    if not text.isdigit():
        raise ValueError(f"not a one-line permutation or JSON array: {text!r}")
    return Permutation([int(c) for c in text])


def parse_word(text):
    text = text.strip()
    if text.startswith("["):
        return tuple(_json_integers(text))
    if not text.isdigit():
        raise ValueError(f"not a generator word: {text!r}")
    return tuple(int(c) for c in text)


def parse_affine(text, n, mode):
    """A generator word (digits, residues mod n) or a window (JSON array)."""
    text = text.strip()
    if mode == "auto":
        mode = "window" if text.startswith("[") else "word"
    if mode == "window":
        return AffinePermutation(n, _json_integers(text))
    return AffinePermutation.from_word(parse_word(text), n)


def parse_partition(text):
    text = text.strip()
    if text.startswith("["):
        return as_partition(_json_integers(text))
    if not text:
        return ()
    return as_partition([int(p) for p in text.split(",")])


def emit(as_json, fmt, as_text):
    """Print one of the two forms; each is a callable, so only the printed
    one is rendered."""
    if fmt == "json":
        print(json.dumps(as_json(), sort_keys=True))
    else:
        print(as_text())


# -- verification suites ------------------------------------------------------


class Suite:
    def __init__(self):
        self.checks = []

    def check(self, name, ok, witness=None):
        """Record a check; a failing one keeps ``witness``, what it failed on."""
        entry = {"name": name, "ok": bool(ok)}
        if not ok and witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)


def _suite_examples(suite, caps):
    from .partition import count_standard_tableaux, partitions_of
    from .stanley import affine_schur_expand, affine_stanley, schur_expand, stanley_fn
    from .symfunc import SymFunc, change_basis
    from .tableaux import Tableau, eg_insert

    w0 = Permutation([4, 3, 2, 1])
    suite.check(
        "reduced word count of the longest element of S4",
        len(w0.reduced_words()) == 16 == count_standard_tableaux((3, 2, 1)),
    )
    f = stanley_fn(Permutation([2, 4, 3, 1]))
    suite.check(
        "F_2431 = m_211 + 3 m_1111 = s_211",
        f == SymFunc(4, "m", {(2, 1, 1): 1, (1, 1, 1, 1): 3})
        and schur_expand(Permutation([2, 4, 3, 1])) == SymFunc(4, "s", {(2, 1, 1): 1}),
    )
    P, Q = eg_insert((2, 1, 2, 3, 2))
    suite.check(
        "EG insertion of 21232",
        P == Tableau([[1, 2, 3], [2, 3]]) and Q == Tableau([[1, 3, 4], [2, 5]]),
    )
    chain = little_move_chain(MarkedWord((2, 1, 3, 4, 3, 2, 1), 5))
    suite.check(
        "Little move chain 2134321 -> 3245321",
        [c.word for c in chain]
        == [(2, 1, 3, 4, 3, 2, 1), (2, 1, 3, 4, 2, 2, 1), (2, 1, 3, 4, 2, 1, 1), (3, 2, 4, 5, 3, 2, 1)],
    )
    w = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
    suite.check(
        "affine Stanley of 21202",
        affine_stanley(w)
        == SymFunc(5, "m", {(2, 2, 1): 1, (2, 1, 1, 1): 2, (1, 1, 1, 1, 1): 3}),
    )
    suite.check(
        "affine Schur expansion of 21202",
        affine_schur_expand(w).coeffs
        == {(2, 2, 1): 1, (2, 1, 1, 1): 1},
    )
    schurs = [SymFunc.monomial("s", la) for d in range(7) for la in partitions_of(d)]
    suite.check(
        "s -> h and s -> e by the Kostka peel expand back to m by margin counts (degree <= 6)",
        all(change_basis(s, b).to_m().coeffs == s.to_m().coeffs for s in schurs for b in ("h", "e")),
    )


def _suite_symmetry(suite, caps):
    from .stanley import check_symmetry_affine, check_symmetry_finite, stanley_fn

    nf = min(5, caps["max_rank_finite"])
    suite.check(
        f"F_w symmetric and definition-independent on S_{nf}",
        all(
            check_symmetry_finite(w)
            and stanley_fn(w, "original") == stanley_fn(w, "decreasing") == stanley_fn(w, "quasisym")
            for w in symmetric_group(nf)
        ),
    )
    na = min(3, caps["max_rank_affine"])
    ok = all(
        check_symmetry_affine(w)
        for l in range(6)
        for w in elements_of_length(na, l)
    )
    suite.check(f"affine F~ symmetric on rank-{na} elements of length <= 5", ok)


def _suite_eg(suite, caps):
    from .partition import count_standard_tableaux
    from .stanley import schur_expand, stanley_fn
    from .symfunc import change_basis
    from .tableaux import coxeter_knuth_classes, eg_insert, eg_tableaux_by_shape, word_descents

    ok_des = True
    ok_fiber = True
    for w in symmetric_group(4):
        fibers = {}
        for word in w.reduced_words():
            P, Q = eg_insert(word, 4)
            if word_descents(word) != Q.descent_set():
                ok_des = False
            fibers.setdefault(P, set()).add(word)
        if set(map(frozenset, fibers.values())) != set(coxeter_knuth_classes(w)):
            ok_fiber = False
    suite.check("Des(i) = Des(Q(i)) on S4", ok_des)
    suite.check("Coxeter-Knuth classes are P-fibers on S4", ok_fiber)

    # the transition tree against #R(w) (each reduced word inserts to one EG
    # tableau P and one standard Q), against F_w peeled into s by Kostka
    # numbers, and, on the smaller group, against the EG-tableau count, which
    # lists R(w^-1)
    nf = min(7, caps["max_rank_finite"])
    ne = min(5, nf)
    ok_eg = True
    ok_count = True
    ok_peel = True
    for w in symmetric_group(ne):
        by_shape = {la: len(tabs) for la, tabs in eg_tableaux_by_shape(w.inverse()).items()}
        ok_eg = ok_eg and schur_expand(w).coeffs == by_shape
    for w in symmetric_group(nf):
        s = schur_expand(w)
        total = sum(c * count_standard_tableaux(la) for la, c in s.coeffs.items())
        ok_count = ok_count and total == count_reduced_words(w)
        peeled = change_basis(stanley_fn(w), "s")
        ok_peel = ok_peel and peeled.basis == "s" and s.coeffs == peeled.coeffs
    suite.check(f"transition-tree Schur expansion = EG-tableau count on S_{ne}", ok_eg)
    suite.check(f"sum of c_la f^la = #R(w) on S_{nf}", ok_count)
    suite.check(f"transition-tree Schur expansion = Kostka peel of F_w on S_{nf}", ok_peel)


def _suite_transition(suite, caps):
    from .stanley import transition_check
    from .tableaux import little_move, little_move_backward
    from .permutation import is_reduced

    suite.check(
        "transition identity on S4",
        all(transition_check(w, r) for w in symmetric_group(4) for r in range(1, 5)),
    )
    ok = True
    for w in symmetric_group(4):
        for word in w.reduced_words():
            for a in range(1, len(word) + 1):
                if not is_reduced(word[: a - 1] + word[a:]):
                    continue
                y = little_move(MarkedWord(word, a))
                if little_move(little_move_backward(y)) != y:
                    ok = False
    suite.check("Little move invertible on its image over S4 marked words", ok)


def _suite_nilcoxeter(suite, caps):
    from .nilcoxeter import h_element, noncommutative_schur, product_expansion_check
    from .nilcoxeter import NilCoxeterElement
    from .stanley import stanley_fn

    nf = caps["max_rank_finite"]
    suite.check(
        f"h product expansion for n <= {nf}",
        all(product_expansion_check(n) for n in range(2, nf + 1)),
    )
    ok = True
    for n in range(2, nf + 1):
        hs = [h_element(n, k) for k in range(n)]
        ok = ok and all(a * b == b * a for a in hs for b in hs)
    suite.check(f"finite h-elements commute for n <= {nf}", ok)
    na = caps["max_rank_affine"]
    ok = True
    for n in range(3, na + 1):
        hs = [h_element(n, k, affine=True) for k in range(n)]
        ok = ok and all(a * b == b * a for a in hs for b in hs)
    suite.check(f"affine h-elements commute for n <= {na}", ok)
    ok = True
    for w in symmetric_group(4):
        f = stanley_fn(w)
        for la, c in f.coeffs.items():
            prod = NilCoxeterElement.one(4)
            for part in la:
                prod = prod * h_element(4, part)
            if prod.coeffs.get(w.embed(4), 0) != c:
                ok = False
    suite.check("h products recover monomial coefficients of F_w on S4", ok)
    suite.check(
        "noncommutative Schur spot checks",
        noncommutative_schur(4, (2, 2)).to_json()[0]["word"] == [2, 1, 3, 2]
        and len(noncommutative_schur(4, (2, 1)).coeffs) == 4,
    )


def _suite_nilhecke(suite, caps):
    from .nilhecke import (
        NilHeckeElement,
        ScalarPoly,
        chevalley,
        commute_past,
        embed_group,
        hopf_generator_check,
        phi0,
        tensor_act,
    )

    n = 3
    x = lambda i: ScalarPoly.x(n, i)
    e = AffinePermutation.identity(n)
    s1 = AffinePermutation.simple(1, n)
    s0 = AffinePermutation.simple(0, n)
    suite.check(
        "commutation table A_j x_i",
        commute_past(1, x(1)) == NilHeckeElement(n, {s1: x(2), e: 1})
        and commute_past(1, x(2)) == NilHeckeElement(n, {s1: x(1), e: -1})
        and commute_past(0, x(1)) == NilHeckeElement(n, {s0: x(3), e: -1}),
    )
    a1, a2 = ScalarPoly.alpha(n, 1), ScalarPoly.alpha(n, 2)
    suite.check(
        "constant term projection",
        phi0(3 * (a1 * a1 * a2) + a2 + ScalarPoly.const(n, 5)) == 5,
    )
    unit = {e: NilHeckeElement.one(n)}
    ok = True
    for l in range(5):
        for w in elements_of_length(n, l):
            if embed_group(w) * embed_group(w.inverse()) != NilHeckeElement.one(n):
                ok = False
            # A_w acts as A_i A_{s_i w} for each left descent i, so all reduced words agree
            base = tensor_act(NilHeckeElement.basis(w), unit)
            for i in w.inverse().right_descents():
                si = AffinePermutation.simple(i, n)
                rest = tensor_act(NilHeckeElement.basis(si * w), unit)
                if tensor_act(NilHeckeElement.basis(si), rest) != base:
                    ok = False
            for i in (1, 2, 3):
                if chevalley(w, x(i)) != NilHeckeElement.basis(w) * NilHeckeElement.from_scalar(x(i)):
                    ok = False
    suite.check("group embedding, coproduct and Chevalley engine (rank 3)", ok)
    suite.check(
        "Hopf generator identity for n in {3, 4}",
        all(hopf_generator_check(3, k) for k in range(3))
        and all(hopf_generator_check(4, k) for k in range(4)),
    )


def _suite_conjectures(suite, caps):
    from .nilcoxeter import conjecture_52_report
    from .nilhecke import j_basis_element, kappa, translation_centralizer_check

    for n in range(4, min(caps["max_rank_finite"], 7) + 1):
        r = conjecture_52_report(n)
        catalan = comb(2 * n, n) // (n + 1)
        suite.check(f"h-elements generate a commutative algebra (n={n})", r["h_commutes"])
        suite.check(f"B has dimension {catalan} with independent Schur basis (n={n})",
                    r["dimension"] == catalan and r["linearly_independent"])
        suite.check(f"Hilbert series matches root-poset order ideals (n={n})", r["hilbert_matches"])
        suite.check(
            f"Schur elements nonnegative; LR constants equal direct products on "
            f"{r['structure_pairs_compared']} pairs (n={n})",
            r["nonnegative"] and r["structure_mismatch"] is None,
            r["structure_mismatch"],
        )
    ok_pos = True
    disagreement = None
    na = caps["max_rank_affine"]
    for n in range(3, na + 1):
        for l in range(7):
            for w in elements_of_length(n, l):
                if not w.is_grassmannian():
                    continue
                try:
                    jw = j_basis_element(n, w)
                except AssertionError as exc:
                    if disagreement is None:
                        disagreement = str(exc) or f"AssertionError at {w!r}"
                    continue
                if any(c < 0 for c in kappa(jw).coeffs.values()):
                    ok_pos = False
    ranks = f"ranks 3..{na}" if na > 3 else "rank 3"
    suite.check(f"j-basis algorithms agree ({ranks}, length <= 6)", disagreement is None, disagreement)
    suite.check(f"kappa of j-basis elements observed nonnegative ({ranks}, length <= 6)", ok_pos)
    suite.check(
        "translation orbit sums centralize the scalars (rank 3)",
        translation_centralizer_check(3, CorootVector((-1, 0, 1))),
    )


SUITES = {
    "examples": _suite_examples,
    "symmetry": _suite_symmetry,
    "eg": _suite_eg,
    "transition": _suite_transition,
    "nilcoxeter": _suite_nilcoxeter,
    "nilhecke": _suite_nilhecke,
    "conjectures": _suite_conjectures,
}


def run_verify(names, fmt, caps):
    results = []
    for name in names:
        suite = Suite()
        SUITES[name](suite, caps)
        results.append({"suite": name, "ok": suite.ok, "checks": suite.checks})
    if fmt == "json":
        print(json.dumps(results, sort_keys=True, default=str))
    else:
        for r in results:
            for c in r["checks"]:
                witness = f"; witness {c['witness']}" if "witness" in c else ""
                print(f"{'PASS' if c['ok'] else 'FAIL'} [{r['suite']}] {c['name']}{witness}")
    return 0 if all(r["ok"] for r in results) else 1


# -- entry point --------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    p = argparse.ArgumentParser(prog="stansym", parents=[common])
    sub = p.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    sp = sub.add_parser("stanley")
    sp.add_argument("perm")
    sp.add_argument("--method", choices=("original", "decreasing", "quasisym"), default="decreasing")

    sp = sub.add_parser("schur-expand")
    sp.add_argument("perm")

    for name in ("affine-stanley", "affine-schur-expand"):
        sp = sub.add_parser(name)
        sp.add_argument("-n", "--rank", type=int, required=True)
        sp.add_argument("element")
        sp.add_argument("--as", dest="input_mode", choices=("word", "window", "auto"), default="auto")

    sp = sub.add_parser("eg-insert")
    sp.add_argument("word")

    sp = sub.add_parser("reduced-words")
    sp.add_argument("perm")
    sp.add_argument("-n", "--rank", type=int, help="affine rank; finite if omitted")
    sp.add_argument("--as", dest="input_mode", choices=("word", "window", "auto"), default="auto")
    sp.add_argument("--count", action="store_true", help="print #R(w) and list no word (finite only)")

    sp = sub.add_parser("little-move")
    sp.add_argument("word")
    sp.add_argument("mark", type=int)

    for name in ("kschur", "jbasis"):
        sp = sub.add_parser(name)
        sp.add_argument("-n", "--rank", type=int, required=True)
        sp.add_argument("partition")

    sp = sub.add_parser("verify")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    return p


@lru_cache(maxsize=1)
def _parser():
    """The parser, built on first use and kept for the life of the process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        status = dispatch(args, fmt, load_caps())
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a cross-check between independent routes failed
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left early: the interpreter's flush at exit goes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


def dispatch(args, fmt, caps):
    from .stanley import affine_schur_expand, affine_stanley, schur_expand, stanley_fn

    cmd = args.command
    if cmd == "stanley":
        w = parse_permutation(args.perm)
        f = stanley_fn(w, args.method)
        emit(f.to_json, fmt, lambda: repr(f))
    elif cmd == "schur-expand":
        f = schur_expand(parse_permutation(args.perm))
        emit(f.to_json, fmt, lambda: repr(f))
    elif cmd == "affine-stanley":
        w = parse_affine(args.element, args.rank, args.input_mode)
        f = affine_stanley(w)
        emit(f.to_json, fmt, lambda: repr(f))
    elif cmd == "affine-schur-expand":
        w = parse_affine(args.element, args.rank, args.input_mode)
        f = affine_schur_expand(w)
        emit(f.to_json, fmt, lambda: repr(f))
    elif cmd == "eg-insert":
        from .tableaux import eg_insert

        P, Q = eg_insert(parse_word(args.word))
        emit(
            lambda: {"P": P.to_json(), "Q": Q.to_json()},
            fmt,
            lambda: f"P:\n{P.render()}\nQ:\n{Q.render()}",
        )
    elif cmd == "reduced-words" and args.count:
        if args.rank is not None:
            raise ValueError("--count is finite-only: it takes no -n/--rank")
        count = count_reduced_words(parse_permutation(args.perm))
        emit(lambda: count, fmt, lambda: str(count))
    elif cmd == "reduced-words":
        if args.rank is not None:
            w = parse_affine(args.perm, args.rank, args.input_mode)
        else:
            w = parse_permutation(args.perm)
        words = w.reduced_words()
        emit(
            lambda: [list(word) for word in words],
            fmt,
            lambda: "\n".join("".join(map(str, word)) for word in words),
        )
    elif cmd == "little-move":
        mw = MarkedWord(parse_word(args.word), args.mark)
        chain = little_move_chain(mw)
        emit(
            lambda: [{"word": list(c.word), "mark": c.mark} for c in chain],
            fmt,
            lambda: "\n".join(f"{''.join(map(str, c.word))} (mark {c.mark})" for c in chain),
        )
    elif cmd == "kschur":
        f = k_schur(args.rank, parse_partition(args.partition))
        emit(f.to_json, fmt, lambda: repr(f))
    elif cmd == "jbasis":
        from .affine import grassmannian_from_partition
        from .nilhecke import j_basis_element

        w = grassmannian_from_partition(args.rank, parse_partition(args.partition))
        a = j_basis_element(args.rank, w)
        emit(a.to_json, fmt, lambda: repr(a))
    elif cmd == "verify":
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
        return run_verify(names, fmt, caps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
