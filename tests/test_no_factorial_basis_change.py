"""Basis change among m, h, e and s, and products, enumerate no permutations.

The s, h and e columns are counted (Kostka numbers, matrices with given
margins), and products are taken in h.  Jacobi-Trudi over all l!
permutations and ``_m_product`` over ``sparse_rearrangements`` are
factorial in the length and stay only as oracles, so here both are made to
raise, with every basis-change memo cleared first.
"""

from math import comb

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
    for cached in (
        symfunc._expand_to_m, symfunc._product_to_m, symfunc._m_product,
        symfunc._kostka_table, symfunc._margin_count, symfunc._row_fills,
        symfunc._group_fills, symfunc._h_coproduct, symfunc._schur_h_column,
        symfunc._pair_index, symfunc._lex_index,
    ):
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


def test_products_count(no_enumeration):
    e6 = SymFunc.monomial("e", (6,))
    # [m_{2^k 1^(12-2k)}] e_6^2: two 0/1 rows of sum 6 over those column sums
    assert (e6 * e6).coeffs == {(2,) * k + (1,) * (12 - 2 * k): comb(12 - 2 * k, 6 - k) for k in range(7)}
    for a in range(1, 9):
        for la in partitions_of(a):
            for mu in partitions_of(9 - a):
                h = SymFunc.monomial("h", la) * SymFunc.monomial("h", mu)
                assert h == SymFunc.monomial("h", tuple(sorted(la + mu, reverse=True)))
                s, t = SymFunc.monomial("s", la), SymFunc.monomial("s", mu)
                assert s * t == t * s
