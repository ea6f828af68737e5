"""Op implementations, imported only inside the measured child.

Each op kind has three steps:

- ``decode`` runs during set-up and only builds input objects, so it warms
  no cache;
- ``run`` is the timed work;
- ``check`` runs untimed and untraced.  It compares independent routes,
  raises ``CheckFailed`` on a mismatch, and returns the canonical result that
  goes into the digest, plus any data the parent checks on its own.

Import this module only after the tracer is installed, so that the names
below bind to the traced wrappers.
"""

import contextlib
import hashlib
import io
import json

from stansym import cli
from stansym.affine import AffinePermutation
from stansym.nilhecke import NilHeckeElement, ScalarPoly, chevalley
from stansym.permutation import Permutation
from stansym.stanley import affine_schur_expand, affine_stanley, schur_expand, stanley_fn
from stansym.symfunc import SymFunc, change_basis, coproduct, hall_inner_product


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def digest(obj):
    """sha256 of the canonical JSON of a result."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _terms(f):
    return sorted([list(la), c] for la, c in f.coeffs.items())


def _nh_terms(a):
    return sorted([list(w.window), p.to_json()] for w, p in a.coeffs.items())


# -- finite_stanley -----------------------------------------------------------


def _stanley_decode(op):
    return Permutation(op["w"])


def _stanley_run(w):
    words = w.reduced_words()
    routes = [stanley_fn(w, m) for m in ("original", "decreasing", "quasisym")]
    return len(words), routes, schur_expand(w)


def _stanley_check(w, raw):
    nwords, (original, decreasing, quasisym), schur = raw
    _require(original == decreasing == quasisym, f"F_w routes disagree for {w}")
    # s -> m is checked in the parent with its own Kostka numbers
    data = {"w": list(w.window), "nwords": nwords, "F": _terms(decreasing), "s": _terms(schur)}
    return data, data


# -- sym_basis ----------------------------------------------------------------


def _sym_decode(op):
    return tuple(op["la"])


def _sym_run(la):
    s = SymFunc.monomial("s", la)
    m = s.to_m()
    back = change_basis(m, "s")
    h = change_basis(s, "h")
    e = change_basis(s, "e")
    return m, back, h, e, hall_inner_product(s, s), coproduct(s)


def _sym_check(la, raw):
    m, back, h, e, inner, delta = raw
    _require(back.basis == "s" and back.coeffs == {la: 1}, f"s -> m -> s is not the identity on {la}")
    _require(inner == 1, f"<s_{la}, s_{la}> = {inner}")
    _require(h.to_m().coeffs == m.coeffs, f"h-expansion of s_{la} disagrees with m")
    _require(e.to_m().coeffs == m.coeffs, f"e-expansion of s_{la} disagrees with m")
    # the counit on the left factor gives back the h-expansion
    left_unit = {mu: c for (left, mu), c in delta.items() if left == ()}
    _require(left_unit == h.coeffs, f"coproduct of s_{la} fails the counit")
    result = {
        "la": list(la),
        "m": _terms(m),
        "h": _terms(h),
        "e": _terms(e),
        "coproduct": sorted([list(a), list(b), c] for (a, b), c in delta.items()),
    }
    return result, None


# -- affine_jbasis ------------------------------------------------------------


def _jbasis_decode(op):
    return op["n"], tuple(op["la"])


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _jbasis_run(args):
    # `stansym jbasis` runs j_basis_element with cross_check=True
    n, la = args
    return _cli(["jbasis", "-n", str(n), ",".join(map(str, la)), "--format", "json"])


def _jbasis_check(args, raw):
    code, text = raw
    _require(code == 0, f"stansym jbasis -n {args[0]} {args[1]} exited {code}")
    terms = sorted([t["window"], t["coeff"]] for t in json.loads(text))
    grassmannian = [c for w, c in terms if all(a < b for a, b in zip(w, w[1:]))]
    _require(grassmannian == [1], f"j-basis element for {args[1]} has Grassmannian part {grassmannian}")
    return {"n": args[0], "la": list(args[1]), "j": terms}, None


def _affine_decode(op):
    return AffinePermutation(op["n"], op["w"]), op["x"]


def _affine_run(args):
    w, i = args
    xi = ScalarPoly.x(w.n, i)
    expansion = affine_schur_expand(w)
    f = affine_stanley(w)
    by_formula = chevalley(w, xi)
    by_product = NilHeckeElement.basis(w) * NilHeckeElement.from_scalar(xi)
    return expansion, f, by_formula, by_product


def _affine_check(args, raw):
    w, i = args
    expansion, f, by_formula, by_product = raw
    _require(expansion.to_m() == f, f"affine Schur expansion of {w!r} does not expand back to F~_w")
    _require(by_formula == by_product, f"Chevalley formula disagrees with the product for {w!r}, x_{i}")
    return {
        "w": list(w.window),
        "affine_schur": _terms(expansion),
        "F": _terms(f),
        "chevalley": _nh_terms(by_formula),
    }, None


KINDS = {
    "stanley": (_stanley_decode, _stanley_run, _stanley_check),
    "sym": (_sym_decode, _sym_run, _sym_check),
    "jbasis": (_jbasis_decode, _jbasis_run, _jbasis_check),
    "affine": (_affine_decode, _affine_run, _affine_check),
}

