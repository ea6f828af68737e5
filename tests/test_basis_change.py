"""The basis-change paths against the full solve they replace.

Change to s and affine Schur peels the leading m-term; change to h and e
peels the least s-term by Kostka rows; change to k-Schur sums the k-Kostka
rows of the h-terms, and ``k_schur`` peels by them; products are taken in
h.  The oracle ``_change_basis_by_solve`` builds every column of the degree
and solves the whole system with ``_solve_exact``.  The coproduct, split once
per h-term, is checked against the part-at-a-time split it replaced.
"""

import random
import re

import pytest

from stansym import stanley, symfunc
from stansym.affine import elements_of_length
from stansym.partition import bounded_partitions, conjugate, partitions_of
from stansym.permutation import Permutation
from stansym.stanley import affine_stanley, stanley_fn
from stansym.symfunc import (
    SymFunc,
    _basis_key,
    _expand_to_m,
    _m_product,
    _parse_basis,
    _solve_exact,
    change_basis,
    coproduct,
    k_schur,
)

BASES = ("m", "h", "e", "s")


def _change_basis_by_solve(f, basis, n=None):
    """Every column of the degree, one full exact solve."""
    target = _basis_key(basis, n)
    name, rank = _parse_basis(target)
    fm = f.to_m()
    index = bounded_partitions(rank, f.degree) if rank else partitions_of(f.degree)
    columns = {la: _expand_to_m(name, rank, la) for la in index}
    support = sorted({mu for col in columns.values() for mu in col} | set(fm.coeffs), reverse=True)
    rows = [[columns[la].get(mu, 0) for la in index] for mu in support]
    sol, _, bad = _solve_exact(rows, [fm.coeffs.get(mu, 0) for mu in support])
    if bad is not None:
        raise ValueError(f"not expressible in basis {target}: obstructing coefficient on m_{support[bad]}")
    assert all(x.denominator == 1 for x in sol)
    return SymFunc(f.degree, target, {la: int(x) for la, x in zip(index, sol)})


def _combination(rng, basis, partitions, degree):
    """A seeded integer combination of a few basis elements of one degree."""
    picks = rng.sample(partitions, min(len(partitions), rng.randint(1, 4)))
    return SymFunc(degree, basis, {la: rng.choice([-3, -2, -1, 1, 2, 5]) for la in picks})


def test_schur_peel_equals_the_full_solve():
    rng = random.Random(20261018)
    for d in range(9):
        for la in partitions_of(d):
            m = SymFunc.monomial("s", la).to_m()
            assert change_basis(m, "s") == _change_basis_by_solve(m, "s") == SymFunc.monomial("s", la)
        for basis in BASES:
            for _ in range(3):
                f = _combination(rng, basis, partitions_of(d), d)
                peeled = change_basis(f, "s")
                assert peeled.basis == "s"
                assert peeled.coeffs == _change_basis_by_solve(f, "s").coeffs, f


@pytest.mark.parametrize("n, top", [(3, 6), (4, 5), (5, 4)])
def test_affine_schur_peel_equals_the_full_solve(n, top):
    rng = random.Random(n)
    for d in range(top + 1):
        bounded = bounded_partitions(n, d)
        cases = [affine_stanley(w) for w in elements_of_length(n, d)]
        cases += [_combination(rng, f"affineSchur({n})", bounded, d) for _ in range(3)]
        cases += [_combination(rng, "m", bounded, d) for _ in range(3)]
        for f in cases:
            peeled = change_basis(f, "affineSchur", n)
            assert peeled.basis == f"affineSchur({n})"
            assert peeled.coeffs == _change_basis_by_solve(f, "affineSchur", n).coeffs, f


def test_affine_schur_peel_rejects_an_unbounded_leading_term():
    f = SymFunc(4, "m", {(3, 1): 1, (2, 2): 4, (1, 1, 1, 1): 2})
    with pytest.raises(ValueError, match=r"m_\(3, 1\) is not \(2\)-bounded"):
        change_basis(f, "affineSchur", 3)
    with pytest.raises(ValueError):
        _change_basis_by_solve(f, "affineSchur", 3)
    # s_3 leads with m_3, beyond every 2-bounded F~
    with pytest.raises(ValueError, match=r"m_\(3,\)"):
        change_basis(SymFunc.monomial("s", (3,)), "affineSchur", 3)


def test_peel_of_w0_in_s7_builds_one_column(monkeypatch):
    built = []
    column = symfunc._kostka_column

    def one_column(la):
        built.append(la)
        if len(built) > 1:
            raise AssertionError(f"built a second s column, {la}")
        return column(la)

    def no_elimination(rows, width):
        raise AssertionError("the peel ran an elimination")

    f = stanley_fn(Permutation.longest(7))
    _expand_to_m.cache_clear()
    monkeypatch.setattr(symfunc, "_kostka_column", one_column)
    monkeypatch.setattr(symfunc, "_eliminate", no_elimination)
    assert change_basis(f, "s") == SymFunc.monomial("s", (6, 5, 4, 3, 2, 1))
    assert built == [(6, 5, 4, 3, 2, 1)]


@pytest.mark.parametrize("basis, n", [("h", None), ("e", None), ("kSchur", 3), ("kSchur", 4), ("kSchur", 5)])
def test_solved_bases_equal_the_full_solve_and_replay_one_transition(basis, n, monkeypatch):
    rng = random.Random(7)
    for d in range(9):
        bounded = bounded_partitions(n, d) if n else partitions_of(d)
        for source in ("h",) if n else BASES:
            for _ in range(3):
                f = _combination(rng, source, bounded, d)
                if n:  # h of bounded partitions lie in the span of the k-Schur functions
                    f = change_basis(f, "m")
                assert change_basis(f, basis, n).coeffs == _change_basis_by_solve(f, basis, n).coeffs, f
    # once the degree is factored, a change of basis neither checks nor eliminates a matrix
    eliminations = []
    eliminate = symfunc._eliminate

    def counted(rows, width):
        eliminations.append(width)
        return eliminate(rows, width)

    def unchecked(rows, rhs):
        raise AssertionError("change_basis went through the checked solver")

    monkeypatch.setattr(symfunc, "_eliminate", counted)
    monkeypatch.setattr(symfunc, "_solve_exact", unchecked)
    for la in partitions_of(6) if n is None else bounded_partitions(n, 5):
        f = SymFunc.monomial("h" if n else "s", la)
        g = change_basis(f, basis, n)
        assert g.basis != f.basis and change_basis(g, f.basis) == f
    assert eliminations == []


def test_h_and_e_are_peeled_from_s_with_no_solve_and_no_margin_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Kostka peel solved or counted margins")

    for cached in (symfunc._expand_to_m, symfunc._kostka, symfunc._kostka_row, symfunc._margin_count):
        cached.cache_clear()
    for name in ("_eliminate", "_replay", "_margin_count"):
        monkeypatch.setattr(symfunc, name, refuse)
    for la in partitions_of(9):
        s = SymFunc.monomial("s", la)
        h, e = change_basis(s, "h"), change_basis(s, "e")
        assert h.basis == "h" and min(h.coeffs) == la and h.coeffs[la] == 1
        assert e.basis == "e" and min(e.coeffs) == conjugate(la) and e.coeffs[conjugate(la)] == 1


def test_k_schur_is_peeled_by_k_kostka_rows_with_no_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-Kostka peel solved a system")

    for cached in (symfunc._expand_to_m, symfunc._k_kostka_row, symfunc._k_schur_h_table):
        cached.cache_clear()
    for name in ("_eliminate", "_replay", "_solve_exact"):
        monkeypatch.setattr(symfunc, name, refuse)
    for n, d in ((3, 9), (4, 8), (5, 7)):
        for la in bounded_partitions(n, d):
            k = k_schur(n, la)
            assert k.basis == "h" and min(k.coeffs) == la and k.coeffs[la] == 1
            h = SymFunc.monomial("h", la)
            g = change_basis(h, "kSchur", n)
            assert g.basis == f"kSchur({n})" and min(g.coeffs) == la and g.coeffs[la] == 1
            assert change_basis(g, "h") == h


def test_not_in_the_k_schur_span_names_an_unbounded_h_term():
    for f in (SymFunc.monomial("m", (3,)), SymFunc.monomial("s", (3, 1)), SymFunc.monomial("m", (4,))):
        with pytest.raises(ValueError, match=r"not expressible in basis kSchur\(3\): obstructing coefficient on h_\(") as err:
            change_basis(f, "kSchur", 3)
        named = re.search(r"h_(\(.*\))", str(err.value))[1]
        mu = tuple(int(p) for p in re.findall(r"\d+", named))
        assert mu[0] >= 3 and change_basis(f, "h")[mu] != 0, named
        with pytest.raises(ValueError):
            _change_basis_by_solve(f, "kSchur", 3)


def test_product_in_h_equals_m_product():
    for d in range(9):
        for a in range(d + 1):
            for la in partitions_of(a):
                for mu in partitions_of(d - a):
                    got = SymFunc.monomial("m", la) * SymFunc.monomial("m", mu)
                    assert got.basis == "m" and got.degree == d
                    assert got.coeffs == _m_product(la, mu), (la, mu)


def _product_by_m_product(f, g):
    out = {}
    for la, ca in f.to_m().coeffs.items():
        for mu, cb in g.to_m().coeffs.items():
            for nu, k in _m_product(la, mu).items():
                out[nu] = out.get(nu, 0) + ca * cb * k
    return SymFunc(f.degree + g.degree, "m", out)


def test_product_of_mixed_bases_and_scalars():
    s21, e2, k21 = SymFunc.monomial("s", (2, 1)), SymFunc.monomial("e", (2,)), SymFunc.monomial("kSchur(3)", (2, 1))
    for f, g in ((s21, e2), (e2, s21), (s21, k21), (k21, k21)):
        assert f * g == _product_by_m_product(f, g)
    assert (s21 * 0).is_zero() and (0 * s21).is_zero()
    assert SymFunc.one() * s21 == s21.to_m()


def _coproduct_by_parts(f):
    """The coproduct split one part at a time into freshly sorted keys."""
    out = {}
    for la, c in change_basis(f, "h").coeffs.items():
        terms = {((), ()): c}
        for part in la:
            nxt = {}
            for (left, right), cc in terms.items():
                for j in range(part + 1):
                    key = (
                        tuple(sorted(left + ((j,) if j else ()), reverse=True)),
                        tuple(sorted(right + ((part - j,) if part - j else ()), reverse=True)),
                    )
                    nxt[key] = nxt.get(key, 0) + cc
            terms = nxt
        for key, cc in terms.items():
            out[key] = out.get(key, 0) + cc
    return {key: c for key, c in out.items() if c}


def test_coproduct_equals_the_part_at_a_time_split():
    rng = random.Random(15)
    for d in range(9):
        for la in partitions_of(d):  # h_la with repeated parts, such as (2, 2, 2, 1, 1), among them
            for basis in ("h", "s"):
                f = SymFunc.monomial(basis, la)
                assert coproduct(f) == _coproduct_by_parts(f), f
        for basis in BASES:
            f = _combination(rng, basis, partitions_of(d), d)
            assert coproduct(f) == _coproduct_by_parts(f), f


def test_basis_change_caches_are_bounded():
    for cached in (
        symfunc._kostka, symfunc._kostka_row, symfunc._margin_count, symfunc._row_fills,
        symfunc._group_fills, symfunc._k_kostka_row, symfunc._expand_to_m,
        symfunc.affine_schur, symfunc._h_coproduct,
        # and the finite F_w routes' element lists, split lists, field widths
        # and transition tree
        stanley._decreasing_elements, stanley._decreasing_splits,
        stanley._field_width, stanley._transition_tree,
    ):
        assert cached.cache_info().maxsize is not None, cached
