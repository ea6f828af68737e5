"""Comparing a value with an object of another type is False, not an error,
and arithmetic with one is a TypeError: for symmetric functions, for finite
and affine permutations and coroot vectors, and for nilCoxeter elements,
nilHecke elements and their scalars.  A nilHecke element takes no scalar of
another rank, and a coroot vector no vector of another rank."""

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


SYM = SymFunc.monomial("s", (2, 1))
NILCOXETER = NilCoxeterElement.basis(Permutation([2, 1]))
NILHECKE = NilHeckeElement.one(3)
SCALAR = ScalarPoly.alpha(3, 1)
FOREIGN_ARITHMETIC = {
    "SymFunc + 3": lambda: SYM + 3,
    "SymFunc - 'x'": lambda: SYM - "x",
    "SymFunc * 2.5": lambda: SYM * 2.5,
    "2.5 * SymFunc": lambda: 2.5 * SYM,
    "SymFunc * None": lambda: SYM * None,
    "QuasiSymFunc + None": lambda: QuasiSymFunc(2, {(1, 1): 1}) + None,
    "NilCoxeterElement * 2.5": lambda: NILCOXETER * 2.5,
    "NilCoxeterElement * None": lambda: NILCOXETER * None,
    "NilCoxeterElement + None": lambda: NILCOXETER + None,
    "2.5 * NilCoxeterElement": lambda: 2.5 * NILCOXETER,
    "NilHeckeElement + None": lambda: NILHECKE + None,
    "2.5 * NilHeckeElement": lambda: 2.5 * NILHECKE,
    "ScalarPoly + None": lambda: SCALAR + None,
    "2.5 * ScalarPoly": lambda: 2.5 * SCALAR,
    "AffinePermutation * Permutation": lambda: AffinePermutation(3, [-2, 2, 6]) * Permutation([2, 1, 3]),
    "Permutation * AffinePermutation": lambda: Permutation([2, 1, 3]) * AffinePermutation(3, [-2, 2, 6]),
    "Permutation * 2": lambda: Permutation([2, 1]) * 2,
    "CorootVector + None": lambda: CorootVector((1, -1, 0)) + None,
    "CorootVector + tuple": lambda: CorootVector((1, -1, 0)) + (1, -1, 0),
}


@pytest.mark.parametrize("apply", FOREIGN_ARITHMETIC.values(), ids=FOREIGN_ARITHMETIC.keys())
def test_symmetric_function_arithmetic_with_a_foreign_operand_is_a_type_error(apply):
    with pytest.raises(TypeError, match="unsupported operand"):
        apply()


def test_a_symmetric_function_still_scales_by_an_int():
    assert (SYM * 3).coeffs == (3 * SYM).coeffs == {(2, 1): 3}
    assert (SYM - SYM).is_zero() and (SYM + SYM).coeffs == {(2, 1): 2}


def test_a_nilhecke_element_rejects_a_scalar_of_another_rank():
    w = AffinePermutation.identity(3)
    with pytest.raises(ValueError, match="rank mismatch: an element of rank 3 and a scalar in 4 variables"):
        NilHeckeElement(3, {w: ScalarPoly.x(4, 1)})
    with pytest.raises(ValueError, match="rank mismatch"):
        NilHeckeElement(3, [(w, ScalarPoly.x(3, 1)), (w, ScalarPoly.x(4, 1))])


def test_coroot_vectors_of_different_ranks_do_not_add():
    with pytest.raises(ValueError, match="rank mismatch"):
        CorootVector((1, -1, 0)) + CorootVector((1, -1))
    assert CorootVector((1, -1, 0)) + CorootVector((0, 1, -1)) == CorootVector((1, 0, -1))
