"""Comparing a value with an object of another type is False, not an error."""

import pytest

from stansym.affine import AffinePermutation, CorootVector
from stansym.nilcoxeter import NilCoxeterElement
from stansym.nilhecke import NilHeckeElement, ScalarPoly
from stansym.permutation import Permutation
from stansym.symfunc import QuasiSymFunc, SymFunc
from stansym.tableaux import MarkedWord, Tableau

VALUES = {
    "Permutation": lambda: Permutation([2, 1]),
    "AffinePermutation": lambda: AffinePermutation(3, [-2, 2, 6]),
    "CorootVector": lambda: CorootVector((1, 0, -1)),
    "SymFunc": lambda: SymFunc.monomial("m", (1,)),
    "QuasiSymFunc": lambda: QuasiSymFunc(2, {(1, 1): 1}),
    "NilCoxeterElement": lambda: NilCoxeterElement.basis(Permutation([2, 1])),
    "ScalarPoly": lambda: ScalarPoly.alpha(3, 1),
    "NilHeckeElement": lambda: NilHeckeElement.one(3),
    "Tableau": lambda: Tableau([[1, 2], [3]]),
    "MarkedWord": lambda: MarkedWord((2, 1, 2), 1),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_a_foreign_operand_compares_unequal(make):
    x = make()
    assert x != None  # noqa: E711 -- the comparison itself is under test
    assert x != "x"
    assert x in [None, x]
    assert not x == 0
