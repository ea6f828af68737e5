"""Results built inside the package skip the public constructors' checks;
each must still be exactly what the public constructor would build, and the
length and hash a group element keeps must be those computed afresh."""

from stansym.affine import AffinePermutation, elements_of_length
from stansym.nilcoxeter import _layer
from stansym.nilhecke import NilHeckeElement, ScalarPoly, _level_zero_target
from stansym.partition import bounded_partitions, partitions_of
from stansym.permutation import Permutation, symmetric_group
from stansym.stanley import affine_stanley, schur_expand, stanley_fn
from stansym.symfunc import SymFunc, change_basis, k_schur

SIZES = ((3, 5), (4, 4))


def _elements():
    for n, top in SIZES:
        for l in range(top + 1):
            yield from elements_of_length(n, l)


def _assert_rebuilds(p):
    assert ScalarPoly(p.n, p.coeffs) == p
    assert all(p.coeffs.values()), p.coeffs


def test_affine_group_results_rebuild():
    for w in _elements():
        n = w.n
        results = [w.inverse(), w * w, w * w.inverse()]
        results += [w.right_mult_generator(i) for i in range(n)]
        for r in results:
            assert type(r.window) is tuple and r.n == n
            assert AffinePermutation(n, r.window) == r
            _assert_keeps_fresh_values(r, AffinePermutation(n, r.window), _shi_length)


def test_permutation_results_rebuild():
    for n in range(1, 6):
        longer = Permutation.longest(n + 1)
        for w in symmetric_group(n):
            results = [w.inverse(), w * w, w * w.inverse(), w * longer, longer * w]
            results += [w.embed(n + 2)]
            for r in results:
                assert type(r.window) is tuple and r.n == len(r.window)
                assert all(type(x) is int for x in r.window)
                assert Permutation(r.window).window == r.window
                _assert_keeps_fresh_values(r, Permutation(r.window), _inversion_count)
        for degree in range(n * (n - 1) // 2 + 1):
            for x in _layer(n, degree):
                assert type(x) is tuple and len(x) == n and all(type(v) is int for v in x)
                assert Permutation(x).length() == degree


def _shi_length(w):
    n = w.n
    return sum(abs((w(j) - w(i)) // n) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _inversion_count(w):
    return sum(1 for i in range(w.n) for j in range(i + 1, w.n) if w.window[i] > w.window[j])


def _assert_keeps_fresh_values(w, fresh, length):
    """w's kept length and hash, asked for twice, equal those of a fresh copy."""
    for _ in range(2):
        assert w.length() == fresh.length() == length(w)
        assert hash(w) == hash(fresh)
    assert w._length == length(w)
    assert w._hash == hash(fresh)


def test_group_elements_keep_their_length_and_hash():
    for w in _elements():
        _assert_keeps_fresh_values(w, AffinePermutation(w.n, w.window), _shi_length)
    for n in range(1, 6):
        for w in symmetric_group(n):
            for r in (w, w.inverse(), w * w, w.embed(n + 1)):
                _assert_keeps_fresh_values(r, Permutation(r.window), _inversion_count)
        assert hash(Permutation.identity(n)) == hash(Permutation.identity(n + 2))


def test_scalar_poly_results_rebuild_without_zeros():
    for w in _elements():
        n = w.n
        f = ScalarPoly.x(n, 1) * ScalarPoly.x(n, 2) - 3 * ScalarPoly.x(n, 3)
        product = NilHeckeElement.basis(w) * NilHeckeElement.from_scalar(f)
        for p in [f, *product.coeffs.values()]:
            results = [p + p, p - p, p * p, 2 * p, 0 * p, p.swap(1, 2)]
            results.append(p.permute_variables(_level_zero_target(w)))
            results += [p.divided_difference(i) for i in range(n)]
            for r in results:
                _assert_rebuilds(r)


def _assert_symfunc_rebuilds(f):
    assert SymFunc(f.degree, f.basis, f.coeffs).coeffs == f.coeffs
    assert all(type(c) is int and c for c in f.coeffs.values()), f.coeffs


def test_symfunc_results_rebuild_without_zeros():
    for d in range(7):
        for la in partitions_of(d):
            for basis in ("m", "h", "e", "s"):
                f = SymFunc.monomial(basis, la)
                g = SymFunc(d, basis, {la: 2, partitions_of(d)[-1]: -1})
                results = [f.to_m(), f + g, f - f, f * 3, f * 0, 2 * g, g.to_m()]
                results += [change_basis(g, target) for target in ("m", "h", "e", "s")]
                if d <= 4:
                    results += [f * g, g * SymFunc.monomial("s", (2, 1))]
                for r in results:
                    _assert_symfunc_rebuilds(r)
    for n in (3, 4):
        for d in range(6):
            for la in bounded_partitions(n, d):
                k = k_schur(n, la)
                results = [k, k.to_m(), change_basis(k, "kSchur", n), change_basis(k, "e")]
                for r in results:
                    _assert_symfunc_rebuilds(r)
    for w in _elements():
        _assert_symfunc_rebuilds(change_basis(affine_stanley(w), "affineSchur", w.n))


def test_stanley_results_rebuild_without_zeros():
    for n in range(1, 6):
        for w in symmetric_group(n):
            for method in ("original", "decreasing", "quasisym"):
                _assert_symfunc_rebuilds(stanley_fn(w, method))
            _assert_symfunc_rebuilds(schur_expand(w))
    for w in _elements():
        _assert_symfunc_rebuilds(affine_stanley(w))
