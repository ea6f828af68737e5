"""The nilCoxeter product runs letter by letter on bare windows.

``NilCoxeterElement.__mul__`` applies the letters of each left term's least
reduced word to the right factor's windows by ``affine._left_raise``.  It
multiplies no two group elements and reads no length; this guard keeps the
product from quietly going back to the pair loop that
``oracles.nilcoxeter_product_by_objects`` keeps.  The finite tables that
the Fomin-Stanley report reads hold windows, and the report multiplies its
rows by ``nilcoxeter._product`` on them, so neither builds a permutation.
"""

import oracles
import pytest

from stansym import nilcoxeter, stanley
from stansym.affine import AffinePermutation
from stansym.nilcoxeter import NilCoxeterElement, h_element, noncommutative_schur
from stansym.partition import bounded_partitions, partitions_inside, staircase
from stansym.permutation import Permutation


class ObjectRoute(Exception):
    pass


def _refuse_objects(patch):
    """Make every product and every length of finite and affine
    permutations raise, for as long as ``patch`` holds."""

    def refuse(*args):
        raise ObjectRoute(args)

    for group in (Permutation, AffinePermutation):
        patch.setattr(group, "__mul__", refuse)
        patch.setattr(group, "length", refuse)


def _factors():
    """Pairs of finite and affine elements, the products checked by objects
    first: the Schur elements of the report at n = 4 and the noncommutative
    k-Schur functions at n = 4 up to degree 4, with h-elements of both."""
    n = 4
    finite = [noncommutative_schur(n, la) for la in partitions_inside(staircase(n - 1))]
    finite += [h_element(n, k) for k in range(n)]
    affine = [noncommutative_schur(n, la, affine=True) for d in range(5) for la in bounded_partitions(n, d)]
    affine += [h_element(n, k, affine=True) for k in range(n)]
    return [(a, b) for group in (finite, affine) for a in group for b in group]


def test_the_guard_sees_the_object_route():
    a = NilCoxeterElement.basis(Permutation([2, 1, 3]), 3)
    with pytest.MonkeyPatch.context() as patch:
        _refuse_objects(patch)
        with pytest.raises(ObjectRoute):
            oracles.nilcoxeter_product_by_objects(a, a)


def test_the_nilcoxeter_product_makes_no_group_product_and_reads_no_length():
    pairs = _factors()
    expected = [oracles.nilcoxeter_product_by_objects(a, b) for a, b in pairs]
    with pytest.MonkeyPatch.context() as patch:
        _refuse_objects(patch)
        got = [a * b for a, b in pairs]
    assert got == expected


def test_the_finite_tables_and_the_report_products_build_no_permutation():
    n = 5
    top = staircase(n - 1)
    shapes = partitions_inside(top)
    pairs = [(la, mu) for i, la in enumerate(shapes) for mu in shapes[i:] if sum(la) + sum(mu) <= sum(top)]
    assert len(pairs) == 319  # the report's pairs at n = 5
    schur = {la: noncommutative_schur(n, la) for la in shapes}
    expected = [oracles.nilcoxeter_product_by_objects(schur[la], schur[mu]) for la, mu in pairs]
    for cached in (nilcoxeter._layer, nilcoxeter._schur_table, stanley._transition_tree):
        cached.cache_clear()

    def refuse(*args, **kwargs):
        raise ObjectRoute(args)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__init__", "_from_valid", "__hash__"):
            patch.setattr(Permutation, name, refuse)
        tables = {
            (m, d): nilcoxeter._schur_table(m, d, False) for m in range(1, n + 1) for d in range(m * (m - 1) // 2 + 1)
        }
        rows = {la: tables[n, sum(la)].get(la, {}) for la in shapes}
        got = [nilcoxeter._product(n, rows[la], rows[mu]) for la, mu in pairs]
    for (m, d), table in tables.items():
        for x in nilcoxeter._layer(m, d).union(*table.values()):
            assert type(x) is tuple and len(x) == m and all(type(v) is int for v in x), (m, d, x)
    assert [{v: c for v, c in p.items() if c} for p in got] == [
        {w.window: c for w, c in e.coeffs.items()} for e in expected
    ]
