"""The nilCoxeter product runs letter by letter on bare windows.

``NilCoxeterElement.__mul__`` applies the letters of each left term's least
reduced word to the right factor's windows by ``affine._left_raise``.  It
multiplies no two group elements and reads no length; this guard keeps the
product from quietly going back to the pair loop that
``oracles.nilcoxeter_product_by_objects`` keeps.
"""

import oracles
import pytest

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
