"""Basis change among m, h, e and s enumerates no permutations.

The s, h and e columns are counted (Kostka numbers, matrices with given
margins).  Jacobi-Trudi over all l! permutations and ``_m_product`` over
``sparse_rearrangements`` are factorial in the length and stay only as
oracles, so here both are made to raise.
"""

import pytest

from stansym import symfunc
from stansym.partition import partitions_of
from stansym.symfunc import SymFunc, change_basis, coproduct, hall_inner_product

BASES = ("m", "h", "e", "s")


def _enumeration(*args, **kwargs):
    raise AssertionError("basis change enumerated permutations")


@pytest.fixture
def no_enumeration(monkeypatch):
    monkeypatch.setattr(symfunc, "_itperm", _enumeration)
    monkeypatch.setattr(symfunc, "sparse_rearrangements", _enumeration)
    for cached in (symfunc._expand_to_m, symfunc._product_to_m, symfunc._m_product):
        cached.cache_clear()


def test_degree_9_basis_change_counts(no_enumeration):
    for la in partitions_of(9):
        for source in BASES:
            f = SymFunc.monomial(source, la)
            for target in BASES:
                g = change_basis(f, target)
                assert g.basis == target and change_basis(g, source) == f
        s = SymFunc.monomial("s", la)
        assert hall_inner_product(s, s) == 1
        delta = coproduct(s)
        # the counit on the left factor gives back the h-expansion
        assert {mu: c for (left, mu), c in delta.items() if left == ()} == change_basis(s, "h").coeffs


@pytest.mark.parametrize("la", [(1,) * 10, (4, 3, 2, 1)])
def test_degree_10_schur_round_trip(no_enumeration, la):
    s = SymFunc.monomial("s", la)
    back = change_basis(s.to_m(), "s")
    assert back.basis == "s" and back.coeffs == {la: 1}
    assert hall_inner_product(s, s) == 1
