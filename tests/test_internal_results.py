"""Results built inside the package skip the public constructors' checks;
each must still be exactly what the public constructor would build."""

from stansym.affine import AffinePermutation, elements_of_length
from stansym.nilhecke import NilHeckeElement, ScalarPoly, _level_zero_target

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
