"""Symmetric function bases, the Hall pairing, and the affine bases."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stansym.partition import (
    bounded_partitions,
    conjugate,
    count_standard_tableaux,
    dominance_leq,
    partitions_of,
    sort_composition,
)
from stansym.symfunc import (
    QuasiSymFunc,
    SymFunc,
    _expand_to_m,
    _h_to_m,
    _jacobi_trudi_h,
    _product_to_m,
    _solve_exact,
    affine_schur,
    change_basis,
    coproduct,
    fundamental_quasisym,
    hall_inner_product,
    k_schur,
    reduce_to_bounded,
    subset_to_composition,
    tensor_inner_product,
)

small_partitions = st.lists(st.integers(1, 3), max_size=3).map(sort_composition)


def test_known_m_expansions():
    assert change_basis(SymFunc.monomial("s", (2, 1)), "m") == SymFunc(
        3, "m", {(2, 1): 1, (1, 1, 1): 2}
    )
    assert change_basis(SymFunc.monomial("h", (2,)), "m") == SymFunc(
        2, "m", {(2,): 1, (1, 1): 1}
    )
    assert change_basis(SymFunc.monomial("e", (2,)), "m") == SymFunc(
        2, "m", {(1, 1): 1}
    )
    assert change_basis(SymFunc.monomial("s", (2, 2)), "m") == SymFunc(
        4, "m", {(2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 2}
    )


@given(small_partitions, st.sampled_from(["h", "e", "s"]))
@settings(max_examples=60, deadline=None)
def test_basis_round_trips(la, basis):
    f = SymFunc.monomial(basis, la)
    assert change_basis(f.to_m(), basis) == f


def _e_to_m(k):
    """e_k = m_{1^k}: the one-part factor of the e products."""
    return {(1,) * k: 1}


def test_kostka_column_matches_jacobi_trudi():
    for d in range(9):
        for la in partitions_of(d):
            want = {}
            for mu, c in _jacobi_trudi_h(la).items():
                for nu, k in _product_to_m(mu, _h_to_m).items():
                    want[nu] = want.get(nu, 0) + c * k
            assert _expand_to_m("s", None, la) == {nu: c for nu, c in want.items() if c}, la


def test_kostka_numbers_are_unitriangular_and_count_standard_tableaux():
    for d in range(13):
        for la in partitions_of(d):
            column = _expand_to_m("s", None, la)
            assert column[(1,) * d] == count_standard_tableaux(la), la
            assert column[la] == 1
            # K(la, mu) > 0 exactly when mu is below la in dominance order
            assert set(column) == {mu for mu in partitions_of(d) if dominance_leq(mu, la)}, la
            assert all(c > 0 for c in column.values())


def test_margin_columns_match_products_of_one_part_factors():
    for d in range(8):
        for la in partitions_of(d):
            assert _expand_to_m("h", None, la) == _product_to_m(la, _h_to_m), la
            assert _expand_to_m("e", None, la) == _product_to_m(la, _e_to_m), la


def test_omega_like_h_e_swap_on_schur():
    # s_la in terms of h equals s_la' in terms of e with the same coefficients;
    # this crosses the Kostka route (s) with the matrix routes (h, e)
    for d in range(1, 10):
        for la in partitions_of(d):
            fh = change_basis(SymFunc.monomial("s", la), "h")
            fe = change_basis(SymFunc.monomial("s", conjugate(la)), "e")
            assert fh.coeffs == fe.coeffs


def test_hall_inner_product_orthogonality():
    for d in range(1, 6):
        for la in partitions_of(d):
            for mu in partitions_of(d):
                want = 1 if la == mu else 0
                assert hall_inner_product(
                    SymFunc.monomial("h", la), SymFunc.monomial("m", mu)
                ) == want
                assert hall_inner_product(
                    SymFunc.monomial("s", la), SymFunc.monomial("s", mu)
                ) == want


def test_hall_inner_product_is_symmetric_in_degree_4():
    fs = [SymFunc.monomial("s", la) for la in partitions_of(4)]
    hs = [SymFunc.monomial("h", la) for la in partitions_of(4)]
    for f in fs + hs:
        for g in fs + hs:
            assert hall_inner_product(f, g) == hall_inner_product(g, f)


def test_h11_pairs_to_zero_with_m2():
    f = SymFunc.monomial("h", (1, 1))
    assert hall_inner_product(f, SymFunc.monomial("m", (2,))) == 0
    assert hall_inner_product(f, SymFunc.monomial("m", (1, 1))) == 1


def test_product_in_m_basis():
    m1 = SymFunc.monomial("m", (1,))
    assert m1 * m1 == SymFunc(2, "m", {(2,): 1, (1, 1): 2})
    m11 = SymFunc.monomial("m", (1, 1))
    assert m1 * m11 == SymFunc(3, "m", {(2, 1): 1, (1, 1, 1): 3})


def test_fundamental_quasisym():
    L = fundamental_quasisym({1}, 3)
    assert L.coeffs == {(1, 2): 1, (1, 1, 1): 1}
    assert not L.is_symmetric()
    L0 = fundamental_quasisym(set(), 3)
    assert L0.to_symfunc() == change_basis(SymFunc.monomial("h", (3,)), "m")


def test_subset_to_composition():
    assert subset_to_composition({2, 3}, 5) == (2, 1, 2)
    with pytest.raises(ValueError):
        subset_to_composition({5}, 5)


def test_affine_schur_examples():
    assert affine_schur(3, (2, 1, 1)) == SymFunc(
        4, "m", {(2, 1, 1): 1, (1, 1, 1, 1): 2}
    )
    # closed form for rank 3: F~_{2^a 1^b} has binomial monomial coefficients
    from math import comb

    for a in range(3):
        for b in range(4):
            la = (2,) * a + (1,) * b
            f = affine_schur(3, la)
            for j in range(a + 1):
                mu = (2,) * j + (1,) * (b + 2 * a - 2 * j)
                assert f[mu] == comb((b + 2 * (a - j)) // 2, a - j)


def test_affine_schur_rejects_unbounded():
    with pytest.raises(ValueError):
        affine_schur(3, (3,))


def test_k_schur_duality():
    for d in range(6):
        for la in bounded_partitions(3, d):
            for mu in bounded_partitions(3, d):
                assert hall_inner_product(k_schur(3, la), affine_schur(3, mu)) == (
                    1 if la == mu else 0
                )


@pytest.mark.parametrize("n, top", [(4, 8), (5, 7), (6, 6)])
def test_k_schur_is_dual_to_the_affine_schur_basis(n, top):
    for d in range(top + 1):
        index = bounded_partitions(n, d)
        for la in index:
            k = k_schur(n, la)
            for mu in index:
                assert hall_inner_product(k, affine_schur(n, mu)) == (1 if la == mu else 0), (n, la, mu)


def test_k_schur_closed_form_rank_3():
    # s^(2)_{2^a 1^b} = h_2^a e_2^floor(b/2) h_1^(b mod 2)
    h2 = SymFunc.monomial("h", (2,))
    e2 = SymFunc.monomial("e", (2,))
    h1 = SymFunc.monomial("h", (1,))
    for a in range(3):
        for b in range(4):
            la = (2,) * a + (1,) * b
            want = SymFunc.one()
            for _ in range(a):
                want = want * h2
            for _ in range(b // 2):
                want = want * e2
            for _ in range(b % 2):
                want = want * h1
            assert k_schur(3, la).to_m() == want.to_m()


def test_k_schur_change_basis_obstruction():
    # m_3 is not in the subring generated by h_1, h_2
    with pytest.raises(ValueError):
        change_basis(SymFunc.monomial("m", (3,)), "kSchur", 3)


def test_coproduct_self_duality():
    # <Delta f, g (x) h> = <f, g h> on the Schur functions of degree <= 6
    for n in range(7):
        for la in partitions_of(n):
            f = SymFunc.monomial("s", la)
            delta = coproduct(f)
            for d in range(n + 1):
                for mu in partitions_of(d):
                    for nu in partitions_of(n - d):
                        g = SymFunc.monomial("s", mu)
                        h = SymFunc.monomial("s", nu)
                        assert tensor_inner_product(delta, g, h) == hall_inner_product(
                            f, g * h
                        )


def test_reduce_to_bounded():
    f = change_basis(SymFunc.monomial("h", (3,)), "m")
    assert reduce_to_bounded(f, 3).coeffs == {(2, 1): 1, (1, 1, 1): 1}


def test_json_round_trip():
    f = SymFunc(3, "m", {(2, 1): 2, (1, 1, 1): -1})
    assert SymFunc.from_json(f.to_json()) == f


def test_ranked_basis_tags_round_trip():
    for tag in ("kSchur(3)", "affineSchur(10)"):
        f = SymFunc(2, tag, {(1, 1): 1})
        assert SymFunc.from_json(f.to_json()).basis == tag
    assert change_basis(SymFunc.monomial("h", (1, 1)), "kSchur", 3).basis == "kSchur(3)"


@pytest.mark.parametrize(
    "tag", ["s(3)", "kSchur( 3 )", "zzz", "affineSchur(x)", "kSchur(1)", "kSchur(03)", "kSchur", None]
)
def test_malformed_basis_tags_are_rejected(tag):
    with pytest.raises(ValueError, match=re.escape(repr(tag))):
        SymFunc(2, tag, {(2,): 1})
    with pytest.raises(ValueError, match=re.escape(repr(tag))):
        SymFunc.from_json({"degree": 2, "basis": tag, "terms": [{"part": [2], "coeff": 1}]})


def gauss_jordan(rows, rhs):
    """Reference solver: Gauss-Jordan elimination over Fractions.

    Returns (solution with free unknowns 0, rank, None) or
    (None, rank, input index of an inconsistent row).
    """
    m, k = len(rows), len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    order = list(range(m))
    pivots = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        order[r], order[p] = order[p], order[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(m):
        if all(x == 0 for x in aug[i][:k]) and aug[i][k]:
            return None, r, order[i]
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = aug[i][k]
    return sol, r, None


@st.composite
def integer_systems(draw):
    """An m x k integer system B C of rank at most r, consistent or not."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, k)))
    small = st.integers(-3, 3)
    B = [[draw(small) for _ in range(r)] for _ in range(m)]
    C = [[draw(small) for _ in range(k)] for _ in range(r)]
    rows = [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(k)] for i in range(m)]
    if draw(st.booleans()):
        x = [draw(small) for _ in range(k)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [draw(st.integers(-5, 5)) for _ in range(m)]
    return rows, rhs


@given(integer_systems())
@settings(max_examples=400, deadline=None)
def test_solver_agrees_with_gauss_jordan(system):
    rows, rhs = system
    assert _solve_exact(rows, rhs) == gauss_jordan(rows, rhs)


@st.composite
def systems_with_many_right_hand_sides(draw):
    """One m x k integer system B C and at least 20 right-hand sides."""
    rows, rhs = draw(integer_systems())
    small = st.integers(-3, 3)
    many = [rhs]
    for _ in range(draw(st.integers(19, 30))):
        if draw(st.booleans()):
            x = [draw(small) for _ in rows[0]]
            many.append([sum(a * b for a, b in zip(row, x)) for row in rows])
        else:
            many.append([draw(st.integers(-5, 5)) for _ in rows])
    return rows, many


@given(systems_with_many_right_hand_sides())
@settings(max_examples=100, deadline=None)
def test_solver_agrees_with_gauss_jordan_on_many_right_hand_sides(system):
    rows, many = system
    for rhs in many:
        assert _solve_exact(rows, rhs) == gauss_jordan(rows, rhs)


def test_solver_returns_fresh_lists():
    rows = [[1, 1], [0, 2]]
    sol, _, _ = _solve_exact(rows, [3, 2])
    sol.append("scribble")
    assert _solve_exact(rows, [3, 2]) == ([Fraction(2), Fraction(1)], 2, None)


def test_solver_solution_solves_the_system():
    rows = [[2, 4, 1], [1, 3, 0], [3, 7, 1]]
    sol, rank, bad = _solve_exact(rows, [5, 2, 7])
    assert rank == 2 and bad is None
    assert [sum(a * x for a, x in zip(row, sol)) for row in rows] == [5, 2, 7]
    assert _solve_exact(rows, [5, 2, 8]) == (None, 2, 2)


@pytest.mark.parametrize("rows, rhs", [
    ([[Fraction(1, 2), 1], [0, 1]], [0, 1]),
    ([[1, 0], [0, 1]], [0.5, 1]),
    ([[1.0, 0], [0, 1]], [0, 1]),
])
def test_solver_rejects_non_integer_entries(rows, rhs):
    with pytest.raises(TypeError):
        _solve_exact(rows, rhs)


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0, 1]], [1, 2, 3]),
    ([[1, 0], [1]], [1, 2]),
])
def test_solver_rejects_mismatched_shapes(rows, rhs):
    with pytest.raises(ValueError):
        _solve_exact(rows, rhs)


@pytest.mark.parametrize("entry", [Fraction(1), 1.0])
def test_solver_rejects_non_integers_equal_to_a_cached_matrix(entry):
    rows = [[1, 0], [0, 1]]
    _solve_exact(rows, [0, 1])  # the int matrix solves; its equal twins must not
    assert ((entry, 0), (0, 1)) == tuple(map(tuple, rows))
    with pytest.raises(TypeError):
        _solve_exact([[entry, 0], [0, 1]], [0, 1])
    with pytest.raises(TypeError):
        _solve_exact(rows, [0, entry])
