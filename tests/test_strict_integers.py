"""Every constructor takes integers only: a float or a Fraction raises
TypeError instead of being truncated."""

from fractions import Fraction

import pytest

from stansym.affine import AffinePermutation, CorootVector
from stansym.nilcoxeter import NilCoxeterElement
from stansym.nilhecke import NilHeckeElement, ScalarPoly
from stansym.partition import as_partition
from stansym.permutation import Permutation, from_code
from stansym.symfunc import QuasiSymFunc, SymFunc
from stansym.tableaux import MarkedWord, Tableau

NON_INTEGERS = {
    "SymFunc coefficient 1/2": lambda: SymFunc(1, "m", {(1,): Fraction(1, 2)}),
    "SymFunc coefficient 2.9": lambda: SymFunc(1, "m", {(1,): 2.9}),
    "SymFunc degree": lambda: SymFunc(1.0, "m", {}),
    "SymFunc part": lambda: SymFunc(1, "m", {(1.0,): 1}),
    "QuasiSymFunc coefficient": lambda: QuasiSymFunc(2, {(1, 1): 0.5}),
    "QuasiSymFunc part": lambda: QuasiSymFunc(2, {(1.5, 0.5): 1}),
    "NilCoxeterElement coefficient": lambda: NilCoxeterElement(
        3, False, {Permutation([2, 1, 3]): Fraction(3, 2)}
    ),
    "NilCoxeterElement rank": lambda: NilCoxeterElement(3.0, False, {}),
    "ScalarPoly coefficient": lambda: ScalarPoly(2, {(1, 0): 1.5}),
    "ScalarPoly exponent": lambda: ScalarPoly(2, {(0.5, 0): 1}),
    "NilHeckeElement coefficient": lambda: NilHeckeElement(
        3, {AffinePermutation.identity(3): 2.5}
    ),
    "Permutation": lambda: Permutation([2.7, 1.2]),
    "AffinePermutation window": lambda: AffinePermutation(3, [1.5, 2, 2.5]),
    "AffinePermutation rank": lambda: AffinePermutation(3.0, [1, 2, 3]),
    "CorootVector": lambda: CorootVector([0.5, -0.5]),
    "as_partition": lambda: as_partition([2.5, 1]),
    "from_code": lambda: from_code([1.0]),
    "Tableau": lambda: Tableau([[1, 2.5]]),
    "MarkedWord": lambda: MarkedWord([1.0, 2], 1),
}


@pytest.mark.parametrize("build", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_constructor_rejects_non_integers(build):
    with pytest.raises(TypeError):
        build()

