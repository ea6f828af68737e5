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

from . import nilhecke, stanley
from .affine import AffinePermutation, grassmannian_from_partition
from .partition import as_partition
from .permutation import Permutation, count_reduced_words
from .symfunc import k_schur
from .tableaux import MarkedWord, eg_insert, little_move_chain
from .verify import SUITES, verify

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


# The ASCII forms of an integer argument besides a JSON array.  int() alone
# would also read '+2', '1_0', ' 2' and non-ASCII digits such as '٢'.
_FORMS = {
    "digits": re.compile("[0-9]+"),  # one integer per letter
    "parts": re.compile("(?:-?[0-9]+(?: *, *-?[0-9]+)*)?"),  # between commas; none when empty
    "decimal": re.compile("-?[0-9]+"),  # one integer, and never a JSON array
}


def _integers(text, form=None, what="an integer"):
    """The integers of an argument, as a JSON array or, unless ``form`` is
    None, in that form of _FORMS; space around the whole is ignored.  Any
    other text raises ValueError, naming ``what`` was expected."""
    text = text.strip()
    if form is None or text.startswith("[") and form != "decimal":
        items = json.loads(text)
        if not isinstance(items, list):
            raise ValueError(f"not a JSON array: {text}")
        bad = [x for x in items if type(x) is not int]  # a bool is an int too
        if bad:
            raise ValueError(f"not an integer: {bad[0]!r} in {text}")
        return items
    if not _FORMS[form].fullmatch(text):
        raise ValueError(f"not {what}: {text!r}")
    parts = text if form == "digits" else text.split(",")  # a digit is a part
    return [int(p) for p in parts if p]


def parse_permutation(text):
    """One-line digit string (n <= 9) or a JSON array."""
    return Permutation(_integers(text, "digits", "a one-line permutation or JSON array"))


def parse_word(text):
    return tuple(_integers(text, "digits", "a generator word"))


def parse_affine(text, n, mode):
    """A generator word (digits, residues mod n) or a window (JSON array)."""
    if mode == "window" or mode == "auto" and text.strip().startswith("["):
        return AffinePermutation(n, _integers(text))
    return AffinePermutation.from_word(parse_word(text), n)


def parse_partition(text):
    """Comma-separated parts, empty for the empty partition, or a JSON array."""
    return as_partition(_integers(text, "parts", "a partition"))


def emit(as_json, fmt, as_text):
    """Print one of the two forms; each is a callable, so only the printed
    one is rendered."""
    if fmt == "json":
        print(json.dumps(as_json(), sort_keys=True, default=str))  # default: a witness of a failed check
    else:
        print(as_text())


# -- entry point --------------------------------------------------------------
#
# Each subcommand carries its handler(args, fmt, caps): it prints the output and
# returns the exit status, None for 0.  It looks up what it calls when it runs.


def _shows(compute, as_json=lambda value: value.to_json(), as_text=repr):
    """The handler of a command that prints ``value = compute(args)``:
    ``as_json(value)`` under --format json, else ``as_text(value)``."""

    def handler(args, fmt, caps):
        value = compute(args)
        emit(lambda: as_json(value), fmt, lambda: as_text(value))

    return handler


def _reduced_words(args, fmt, caps):
    if args.count:
        if args.rank is not None:
            raise ValueError("--count is finite-only: it takes no -n/--rank")
        count = count_reduced_words(parse_permutation(args.perm))
        return emit(lambda: count, fmt, lambda: str(count))
    w = parse_permutation(args.perm) if args.rank is None else parse_affine(args.perm, args.rank, args.input_mode)
    words = w.reduced_words()
    emit(
        lambda: [list(word) for word in words],
        fmt,
        lambda: "\n".join("".join(map(str, word)) for word in words),
    )


def _verify(args, fmt, caps):
    results = verify(args.suite, caps)
    lines = (
        f"{'PASS' if c['ok'] else 'FAIL'} [{r['suite']}] {c['name']}" + (f"; witness {c['witness']}" if "witness" in c else "")
        for r in results
        for c in r["checks"]
    )
    emit(lambda: results, fmt, lambda: "\n".join(lines))
    return 0 if all(r["ok"] for r in results) else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    p = argparse.ArgumentParser(prog="stansym", parents=[common])
    sub = p.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def command(name, handler, *positionals):
        sp = sub.add_parser(name)
        sp.set_defaults(handler=handler)
        for arg in positionals:
            sp.add_argument(arg)
        return sp

    def integer(text):  # -n/--rank and the mark; argparse makes a ValueError a usage error
        [k] = _integers(text, "decimal")
        return k

    sp = command("stanley", _shows(lambda a: stanley.stanley_fn(parse_permutation(a.perm), a.method)), "perm")
    sp.add_argument("--method", choices=("original", "decreasing", "quasisym"), default="decreasing")

    command("schur-expand", _shows(lambda a: stanley.schur_expand(parse_permutation(a.perm))), "perm")

    for name, compute in (
        ("affine-stanley", lambda a: stanley.affine_stanley(parse_affine(a.element, a.rank, a.input_mode))),
        ("affine-schur-expand", lambda a: stanley.affine_schur_expand(parse_affine(a.element, a.rank, a.input_mode))),
    ):
        sp = command(name, _shows(compute), "element")
        sp.add_argument("-n", "--rank", type=integer, required=True)
        sp.add_argument("--as", dest="input_mode", choices=("word", "window", "auto"), default="auto")

    command("eg-insert", _shows(
        lambda a: eg_insert(parse_word(a.word)),
        lambda PQ: {"P": PQ[0].to_json(), "Q": PQ[1].to_json()},
        lambda PQ: f"P:\n{PQ[0].render()}\nQ:\n{PQ[1].render()}",
    ), "word")

    sp = command("reduced-words", _reduced_words, "perm")
    sp.add_argument("-n", "--rank", type=integer, help="affine rank; finite if omitted")
    sp.add_argument("--as", dest="input_mode", choices=("word", "window", "auto"), default="auto")
    sp.add_argument("--count", action="store_true", help="print #R(w) and list no word (finite only)")

    sp = command("little-move", _shows(
        lambda a: little_move_chain(MarkedWord(parse_word(a.word), a.mark)),
        lambda chain: [{"word": list(c.word), "mark": c.mark} for c in chain],
        lambda chain: "\n".join(f"{''.join(map(str, c.word))} (mark {c.mark})" for c in chain),
    ), "word")
    sp.add_argument("mark", type=integer)

    for name, compute in (
        ("kschur", lambda a: k_schur(a.rank, parse_partition(a.partition))),
        ("jbasis", lambda a: nilhecke.j_basis_element(a.rank, grassmannian_from_partition(a.rank, parse_partition(a.partition)))),
    ):
        sp = command(name, _shows(compute), "partition")
        sp.add_argument("-n", "--rank", type=integer, required=True)

    sp = command("verify", _verify)
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
        status = args.handler(args, fmt, load_caps())
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status or 0
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


if __name__ == "__main__":
    sys.exit(main())
