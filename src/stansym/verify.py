"""The verification suites behind ``stansym verify``.

Each suite checks results of Lam's notes against each other.  A suite is a
generator of checks, and a check is a name and an iterable, mostly lazy, of
the witnesses of its failure, ``(w or la, ..., expected, got)`` where it
compares two values.  Each suite imports what it checks when it runs.
"""

from math import comb, prod

from .affine import AffinePermutation, CorootVector, elements_of_length
from .permutation import Permutation, count_reduced_words, symmetric_group
from .tableaux import MarkedWord, little_move_chain


def check(name, witnesses):
    """The result of one check: ``{"name", "ok"}``, and ``"witness"`` when it
    fails.

    Only the first item of ``witnesses`` is pulled: it is the witness, and
    none is a pass.  An AssertionError raised while pulling, such as a
    library cross-check that fails, is the witness by its text; any other
    exception propagates, the TypeError of a bool among them: a bool names
    no witness.
    """
    try:
        for witness in witnesses:
            return {"name": name, "ok": False, "witness": witness}
    except AssertionError as exc:
        return {"name": name, "ok": False, "witness": str(exc) or repr(exc)}
    return {"name": name, "ok": True}


def verify(suite, caps):
    """The checks of one suite, or of every suite for ``"all"``, as a list of
    ``{"suite", "ok", "checks"}`` in suite-name order."""
    results = []
    for name in sorted(SUITES) if suite == "all" else [suite]:
        checks = [check(*pair) for pair in SUITES[name](caps)]
        results.append({"suite": name, "ok": all(c["ok"] for c in checks), "checks": checks})
    return results


def _differences(cases):
    """The cases ``(..., expected, got)`` whose last two values differ."""
    return (case for case in cases if case[-2] != case[-1])


def _terms(coeffs):
    """The items of a coefficient dict, key-decreasing: a witness that JSON
    can print, where a dict with tuple keys is not."""
    return tuple(sorted(coeffs.items(), reverse=True))


def _examples(caps):
    from .partition import count_standard_tableaux, partitions_of
    from .stanley import affine_schur_expand, affine_stanley, schur_expand, stanley_fn
    from .symfunc import SymFunc, change_basis
    from .tableaux import Tableau, eg_insert

    yield "reduced word count of the longest element of S4", _differences(
        (w.window, (16, 16), (len(w.reduced_words()), count_standard_tableaux((3, 2, 1))))
        for w in [Permutation([4, 3, 2, 1])]
    )
    yield "F_2431 = m_211 + 3 m_1111 = s_211", _differences(
        (w.window, (SymFunc(4, "m", {(2, 1, 1): 1, (1, 1, 1, 1): 3}), SymFunc(4, "s", {(2, 1, 1): 1})),
         (stanley_fn(w), schur_expand(w)))
        for w in [Permutation([2, 4, 3, 1])]
    )
    yield "EG insertion of 21232", _differences(
        (word, (Tableau([[1, 2, 3], [2, 3]]), Tableau([[1, 3, 4], [2, 5]])), eg_insert(word))
        for word in [(2, 1, 2, 3, 2)]
    )
    yield "Little move chain 2134321 -> 3245321", _differences(
        (word, [(2, 1, 3, 4, 3, 2, 1), (2, 1, 3, 4, 2, 2, 1), (2, 1, 3, 4, 2, 1, 1), (3, 2, 4, 5, 3, 2, 1)],
         [c.word for c in little_move_chain(MarkedWord(word, 5))])
        for word in [(2, 1, 3, 4, 3, 2, 1)]
    )
    u = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
    yield "affine Stanley of 21202", _differences(
        (w.window, SymFunc(5, "m", {(2, 2, 1): 1, (2, 1, 1, 1): 2, (1, 1, 1, 1, 1): 3}), affine_stanley(w))
        for w in [u]
    )
    yield "affine Schur expansion of 21202", _differences(
        (w.window, _terms({(2, 2, 1): 1, (2, 1, 1, 1): 1}), _terms(affine_schur_expand(w).coeffs)) for w in [u]
    )

    def round_trips():
        """(la, basis, s_la in m, its change to basis back in m), as terms."""
        for d in range(7):
            for la in partitions_of(d):
                s = SymFunc.monomial("s", la)
                expected = _terms(s.to_m().coeffs)
                for b in ("h", "e"):
                    yield la, b, expected, _terms(change_basis(s, b).to_m().coeffs)

    yield (
        "s -> h and s -> e by the Kostka peel expand back to m by margin counts (degree <= 6)",
        _differences(round_trips()),
    )


def _symmetry(caps):
    from .partition import partitions_of
    from .stanley import (
        affine_asymmetry, affine_stanley, check_symmetry_affine, check_symmetry_finite, stanley_fn,
    )
    from .symfunc import _kostka_table, _lex_index, affine_schur

    nf = min(5, caps["max_rank_finite"])

    def finite_routes():
        """(w, "symmetric", True, whether F_w is), and (w, route, F_w by
        compatible pairs, F_w by route)."""
        for w in symmetric_group(nf):
            yield w.window, "symmetric", True, check_symmetry_finite(w)
            expected = stanley_fn(w, "original")
            for route in ("decreasing", "quasisym"):
                yield w.window, route, expected, stanley_fn(w, route)

    yield f"F_w symmetric and definition-independent on S_{nf}", _differences(finite_routes())

    def affine_on_finite():
        """(w, la, [m_la] F_w, [m_la] F~_w) over w in S_nf, F_w by compatible
        pairs and F~_w of w in S~_n."""
        n = max(nf, 3)
        for w in symmetric_group(nf):
            expected, got = stanley_fn(w, "original"), affine_stanley(AffinePermutation(n, w.embed(n).window))
            for la in partitions_of(w.length()):
                yield w.window, la, expected[la], got[la]

    yield f"affine F~_w = F_w on S_{nf}", _differences(affine_on_finite())
    na = min(3, caps["max_rank_affine"])
    yield f"affine F~ symmetric on rank-{na} elements of length <= 5", (
        (w.window, *affine_asymmetry(w)) for l in range(6) for w in elements_of_length(na, l) if not check_symmetry_affine(w)
    )

    def k_kostka():
        """(n, la, mu, [m_mu] F~_la, K^(k)(la, mu)) over the bounded la of
        degree <= 8 at ranks up to the affine cap, F~_la counted by
        factorizations and the k-Kostka table by weak strips."""
        for n in range(3, caps["max_rank_affine"] + 1):
            for d in range(9):
                order, position = _lex_index(d)
                columns = _kostka_table(d, n)[1]
                for la in partitions_of(d, n - 1):
                    expected = affine_schur(n, la).coeffs
                    got = {order[j]: k for j, k in zip(*columns[position[la]])}
                    for mu in sorted(expected.keys() | got.keys(), reverse=True):
                        yield n, la, mu, expected.get(mu, 0), got.get(mu, 0)

    yield (
        f"k-Kostka numbers by weak strips = [m_mu] F~_la, ranks 3..{caps['max_rank_affine']}, degree <= 8",
        _differences(k_kostka()),
    )


def _eg(caps):
    from .partition import count_standard_tableaux
    from .stanley import schur_expand, stanley_fn
    from .symfunc import change_basis
    from .tableaux import coxeter_knuth_classes, eg_insert, eg_tableaux_by_shape, word_descents

    s4 = symmetric_group(4)
    yield "Des(i) = Des(Q(i)) on S4", _differences(
        (word, word_descents(word), eg_insert(word, 4)[1].descent_set()) for w in s4 for word in w.reduced_words()
    )

    def p_fibers(w):
        """The reduced words of w, grouped by their EG tableau P."""
        fibers = {}
        for word in w.reduced_words():
            fibers.setdefault(eg_insert(word, 4)[0], set()).add(word)
        return set(map(frozenset, fibers.values()))

    yield "Coxeter-Knuth classes are P-fibers on S4", _differences(
        (w.window, set(coxeter_knuth_classes(w)), p_fibers(w)) for w in s4
    )

    # the transition tree against #R(w) (each reduced word inserts to one EG
    # tableau P and one standard Q), against F_w peeled into s by Kostka
    # numbers, and, on the smaller group, against the EG-tableau count, which
    # lists R(w^-1)
    nf = min(7, caps["max_rank_finite"])
    ne = min(5, nf)
    # by length, lex within each (the sort is stable), so the peel meets each
    # degree's Kostka table once
    group = sorted(symmetric_group(nf), key=Permutation.length)

    def peel(w):
        """F_w peeled into s by Kostka numbers, as (basis, terms)."""
        f = change_basis(stanley_fn(w), "s")
        return f.basis, _terms(f.coeffs)

    yield f"transition-tree Schur expansion = EG-tableau count on S_{ne}", _differences(
        (
            w.window,
            _terms({la: len(tabs) for la, tabs in eg_tableaux_by_shape(w.inverse()).items()}),
            _terms(schur_expand(w).coeffs),
        )
        for w in symmetric_group(ne)
    )
    yield f"sum of c_la f^la = #R(w) on S_{nf}", _differences(
        (w.window, count_reduced_words(w), sum(c * count_standard_tableaux(la) for la, c in schur_expand(w).coeffs.items()))
        for w in group
    )
    yield f"transition-tree Schur expansion = Kostka peel of F_w on S_{nf}", _differences(
        (w.window, ("s", _terms(schur_expand(w).coeffs)), peel(w)) for w in group
    )


def _transition(caps):
    from .permutation import is_reduced
    from .stanley import transition_check
    from .tableaux import little_move, little_move_backward

    s4 = symmetric_group(4)
    yield "transition identity on S4", ((w.window, r) for w in s4 for r in range(1, 5) if not transition_check(w, r))

    def round_trips():
        """(word, a, y, y moved back and forth again) for each marked word
        (word, a) of S4 whose unmarked word is reduced, y its Little move."""
        for w in s4:
            for word in w.reduced_words():
                for a in range(1, len(word) + 1):
                    if is_reduced(word[: a - 1] + word[a:]):
                        y = little_move(MarkedWord(word, a))
                        yield word, a, y, little_move(little_move_backward(y))

    yield "Little move invertible on its image over S4 marked words", _differences(round_trips())


def _nilcoxeter(caps):
    from .nilcoxeter import NilCoxeterElement, _product_expansion, h_element, noncommutative_schur
    from .stanley import stanley_fn

    nf, na = caps["max_rank_finite"], caps["max_rank_affine"]

    def expansions():
        """(n, k, h_k, [t^k] (1 + t A_{n-1}) ... (1 + t A_1)), as JSON."""
        for n in range(2, nf + 1):
            for k, got in enumerate(_product_expansion(n)):
                yield n, k, h_element(n, k).to_json(), got.to_json()

    yield f"h product expansion for n <= {nf}", _differences(expansions())

    def commutators(ranks, affine):
        """(n, j, k, h_j h_k, h_k h_j) over the h-elements of each rank."""
        for n in ranks:
            hs = [h_element(n, k, affine=affine) for k in range(n)]
            for j in range(n):
                for k in range(n):
                    yield n, j, k, hs[j] * hs[k], hs[k] * hs[j]

    yield f"finite h-elements commute for n <= {nf}", _differences(commutators(range(2, nf + 1), False))
    yield f"affine h-elements commute for n <= {na}", _differences(commutators(range(3, na + 1), True))

    def h_products():
        """(w, la, [m_la] F_w, [A_w] h_la1 h_la2 ...) over w in S4."""
        for w in symmetric_group(4):
            for la, c in stanley_fn(w).coeffs.items():
                h = prod((h_element(4, part) for part in la), start=NilCoxeterElement.one(4))
                yield w.window, la, c, h.coeffs.get(w.embed(4), 0)

    yield "h products recover monomial coefficients of F_w on S4", _differences(h_products())
    yield "noncommutative Schur spot checks", _differences(
        (la, expected, read(noncommutative_schur(4, la)))
        for la, expected, read in (
            ((2, 2), [2, 1, 3, 2], lambda s: s.to_json()[0]["word"]),
            ((2, 1), 4, lambda s: len(s.coeffs)),
        )
    )


def _nilhecke(caps):
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
    yield "commutation table A_j x_i", _differences(
        (j, i, expected, commute_past(j, x(i)))
        for j, i, expected in (
            (1, 1, NilHeckeElement(n, {s1: x(2), e: 1})),
            (1, 2, NilHeckeElement(n, {s1: x(1), e: -1})),
            (0, 1, NilHeckeElement(n, {s0: x(3), e: -1})),
        )
    )
    a1, a2 = ScalarPoly.alpha(n, 1), ScalarPoly.alpha(n, 2)
    yield "constant term projection", _differences(
        (f, 5, phi0(f)) for f in [3 * (a1 * a1 * a2) + a2 + ScalarPoly.const(n, 5)]
    )
    unit = {e: NilHeckeElement.one(n)}

    def engine():
        """(w, "embedding"), (w, "word", i) or (w, "chevalley", i), l(w) < 5."""
        for l in range(5):
            for w in elements_of_length(n, l):
                if embed_group(w) * embed_group(w.inverse()) != NilHeckeElement.one(n):
                    yield w.window, "embedding"
                # A_w acts as A_i A_{s_i w} for each left descent i, so all reduced words agree
                base = tensor_act(NilHeckeElement.basis(w), unit)
                for i in w.inverse().right_descents():
                    si = AffinePermutation.simple(i, n)
                    rest = tensor_act(NilHeckeElement.basis(si * w), unit)
                    if tensor_act(NilHeckeElement.basis(si), rest) != base:
                        yield w.window, "word", i
                for i in (1, 2, 3):
                    if chevalley(w, x(i)) != NilHeckeElement.basis(w) * NilHeckeElement.from_scalar(x(i)):
                        yield w.window, "chevalley", i

    yield "group embedding, coproduct and Chevalley engine (rank 3)", engine()
    yield "Hopf generator identity for n in {3, 4}", (
        (n, k) for n in (3, 4) for k in range(n) if not hopf_generator_check(n, k)
    )


def _conjectures(caps):
    from .nilcoxeter import conjecture_52_report
    from .nilhecke import j_basis_element, kappa, translation_centralizer_check

    for n in range(4, min(caps["max_rank_finite"], 7) + 1):
        r = conjecture_52_report(n)
        catalan = comb(2 * n, n) // (n + 1)
        yield f"h-elements generate a commutative algebra (n={n})", _differences([(n, True, r["h_commutes"])])
        yield f"B has dimension {catalan} with independent Schur basis (n={n})", _differences(
            [(n, (catalan, True), (r["dimension"], r["linearly_independent"]))]
        )
        yield f"Hilbert series matches root-poset order ideals (n={n})", _differences([(n, True, r["hilbert_matches"])])
        yield (
            f"Schur elements nonnegative; LR constants equal direct products on "
            f"{r['structure_pairs_compared']} pairs (n={n})",
            [r["structure_mismatch"]] if r["structure_mismatch"] is not None else _differences([(n, True, r["nonnegative"])]),
        )
    # j_basis_element raises AssertionError where its two constructions
    # disagree; the kappa signs are read on every element built without one
    na = caps["max_rank_affine"]
    built, disagreements = [], []
    for n in range(3, na + 1):
        for l in range(7):
            for w in elements_of_length(n, l):
                if w.is_grassmannian():
                    try:
                        built.append((w, j_basis_element(n, w)))
                    except AssertionError as exc:
                        disagreements.append(str(exc) or f"AssertionError at {w!r}")
    ranks = f"ranks 3..{na}" if na > 3 else "rank 3"
    yield f"j-basis algorithms agree ({ranks}, length <= 6)", disagreements
    yield f"kappa of j-basis elements observed nonnegative ({ranks}, length <= 6)", (
        (w.window, v.window, c) for w, jw in built for v, c in kappa(jw).coeffs.items() if c < 0
    )
    yield "translation orbit sums centralize the scalars (rank 3)", (
        (3, la) for la in [(-1, 0, 1)] if not translation_centralizer_check(3, CorootVector(la))
    )


SUITES = {
    "examples": _examples,
    "symmetry": _symmetry,
    "eg": _eg,
    "transition": _transition,
    "nilcoxeter": _nilcoxeter,
    "nilhecke": _nilhecke,
    "conjectures": _conjectures,
}
