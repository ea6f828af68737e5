"""The basis-change paths against the full solve they replace.

One kernel peels every unitriangular system: change to s and affine Schur
walks down over the m-columns, the h-column of s_la and ``k_schur`` walk
up over the Kostka and k-Kostka rows, and a wrong column fails the peel;
change to h, e and k-Schur sums those columns and rows; products are taken
in h.  The oracle ``_change_basis_by_solve`` builds every column of the degree
and solves the whole system with ``_solve_exact``.  The coproduct, split once
per h-term, is checked against the part-at-a-time split it replaced, and the
Kostka table of a degree, built in one Pieri pass, against the strip
generator it replaced.
"""

import random
import re

import pytest

from oracles import horizontal_strips, kostka_by_strips
from stansym import stanley, symfunc
from stansym.affine import elements_of_length
from stansym.partition import bounded_partitions, conjugate, partitions_of
from stansym.permutation import Permutation
from stansym.stanley import affine_stanley, stanley_fn
from stansym.symfunc import (
    SymFunc,
    _basis_key,
    _expand_to_m,
    _h_to_m,
    _jacobi_trudi_h,
    _m_product,
    _parse_basis,
    _product_to_m,
    _solve_exact,
    affine_schur,
    change_basis,
    coproduct,
    hall_inner_product,
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


def test_peel_of_w0_in_s7_reads_one_column(monkeypatch):
    read = []
    table = symfunc._kostka_table

    class Columns(tuple):
        def __getitem__(self, i):
            read.append(i)
            return tuple.__getitem__(self, i)

    def recorded(d):
        rows, columns = table(d)
        return rows, Columns(columns)

    def no_elimination(rows, width):
        raise AssertionError("the peel ran an elimination")

    f = stanley_fn(Permutation.longest(7))
    monkeypatch.setattr(symfunc, "_kostka_table", recorded)
    monkeypatch.setattr(symfunc, "_eliminate", no_elimination)
    assert change_basis(f, "s") == SymFunc.monomial("s", (6, 5, 4, 3, 2, 1))
    assert read == [symfunc._lex_index(21)[1][6, 5, 4, 3, 2, 1]]


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

    for cached in (
        symfunc._expand_to_m, symfunc._kostka_table, symfunc._margin_count, symfunc._schur_h_column,
        symfunc._pair_index, symfunc._lex_index,
    ):
        cached.cache_clear()
    for name in ("_eliminate", "_replay", "_margin_count"):
        monkeypatch.setattr(symfunc, name, refuse)
    for la in partitions_of(9):
        s = SymFunc.monomial("s", la)
        h, e = change_basis(s, "h"), change_basis(s, "e")
        assert h.basis == "h" and min(h.coeffs) == la and h.coeffs[la] == 1
        assert e.basis == "e" and min(e.coeffs) == conjugate(la) and e.coeffs[conjugate(la)] == 1


def test_kostka_numbers_equal_the_strip_generator_from_cold_caches():
    # the table adds strips to shapes, one Pieri pass per degree; the oracle
    # removes them, drawn from a recursive generator on every call
    symfunc._kostka_table.cache_clear()
    for d in range(13):
        order = symfunc._lex_index(d)[0]
        rows, columns = symfunc._kostka_table(d)
        by_column, by_row = {}, {}
        for i, (spots, ks) in enumerate(columns):
            assert (spots[0], ks[0]) == (i, 1) and list(spots) == sorted(spots, reverse=True), order[i]
            by_column.update(((order[i], order[j]), k) for j, k in zip(spots, ks))
        for j, (spots, ks) in enumerate(rows):
            assert (spots[0], ks[0]) == (j, 1) and list(spots) == sorted(spots), order[j]
            by_row.update(((order[i], order[j]), k) for i, k in zip(spots, ks))
        assert by_column == by_row
        for la in order:
            for mu in order:  # zeros included
                assert by_column.get((la, mu), 0) == kostka_by_strips(la, mu), (la, mu)


def test_added_strips_invert_the_strip_generator():
    # nu is in _added_strips(la, k) exactly when la is in horizontal_strips(nu, k)
    for size in range(9):
        for la in partitions_of(size):
            for k in range(10):
                added = symfunc._added_strips(la, k)
                assert len(set(added)) == len(added), (la, k)
                assert set(added) == {nu for nu in partitions_of(size + k) if la in horizontal_strips(nu, k)}, (la, k)


def test_one_kostka_table_serves_both_directions_of_a_degree():
    # s -> m reads a column, m -> s peels down the columns, s -> h peels up the rows
    for cached in (symfunc._kostka_table, symfunc._expand_to_m, symfunc._schur_h_column):
        cached.cache_clear()
    for la in partitions_of(10):
        s = SymFunc.monomial("s", la)
        m = s.to_m()
        assert change_basis(m, "s") == s
        assert change_basis(s, "h").to_m() == m
    assert symfunc._kostka_table.cache_info().misses == 1


def _e_to_m(k):
    """e_k = m_{1^k}."""
    return {(1,) * k: 1}


def _products_to_m(coeffs, factor_to_m):
    """sum of c * (the product of the one-part factors of mu), in m."""
    out = {}
    for mu, c in coeffs.items():
        for nu, k in _product_to_m(mu, factor_to_m).items():
            out[nu] = out.get(nu, 0) + c * k
    return {nu: c for nu, c in out.items() if c}


def test_h_and_e_columns_equal_jacobi_trudi_through_products_in_m():
    # s_la = det(h_{la_i + j - i}) = det(e_{la'_i + j - i}); the cached
    # columns come from Kostka rows, the oracle from permutations and m products
    symfunc._schur_h_column.cache_clear()
    for d in range(9):
        for la in partitions_of(d):
            s = SymFunc.monomial("s", la)
            h, e = change_basis(s, "h"), change_basis(s, "e")
            jacobi_trudi = _jacobi_trudi_h(la)
            assert h.coeffs == jacobi_trudi, la
            assert e.coeffs == _jacobi_trudi_h(conjugate(la)), la
            in_m = _products_to_m(jacobi_trudi, _h_to_m)
            assert in_m == s.to_m().coeffs, la
            assert _products_to_m(h.coeffs, _h_to_m) == in_m == _products_to_m(e.coeffs, _e_to_m), la


@pytest.mark.parametrize("la", [(4, 2, 1), (3, 3), (2, 2)])
def test_a_schur_function_builds_its_h_column_and_its_conjugates_once(la):
    symfunc._schur_h_column.cache_clear()
    s = SymFunc.monomial("s", la)
    h, e = change_basis(s, "h"), change_basis(s, "e")
    assert hall_inner_product(s, s) == 1
    assert {mu: c for (left, mu), c in coproduct(s).items() if left == ()} == h.coeffs
    assert change_basis(h, "s") == change_basis(e, "s") == s
    # (2, 2) is its own conjugate, so its column serves both
    assert symfunc._schur_h_column.cache_info().misses == (1 if la == conjugate(la) else 2)


def test_weak_strips_are_the_horizontal_strips_while_no_shape_reaches_the_bound():
    # with n - 1 >= |la| + p every shape is (n-1)-bounded, and the k-Pieri
    # rule is Pieri's
    for n in range(3, 8):
        for size in range(n):
            for la in partitions_of(size):
                for p in range(n - size):
                    weak = list(symfunc._weak_strips(n, la, p))
                    assert len(set(weak)) == len(weak), (n, la, p)
                    assert set(weak) == set(symfunc._added_strips(la, p)), (n, la, p)


def test_k_kostka_columns_equal_the_affine_schur_functions():
    # the weak-strip pass and the factorization count of F~_la share no code
    for n in range(3, 7):
        for d in range(11):
            order, position = symfunc._lex_index(d)
            rows, columns = symfunc._kostka_table(d, n)
            assert len(rows) == len(columns) == len(bounded_partitions(n, d))
            for j, (spots, ks) in enumerate(rows):
                assert (spots[0], ks[0]) == (j, 1) and list(spots) == sorted(spots), (n, order[j])
            for la in bounded_partitions(n, d):
                got = {order[j]: k for j, k in zip(*columns[position[la]])}
                assert got == affine_schur(n, la).coeffs, (n, la)


def test_k_schur_counts_no_factorization(monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-Kostka rows were read off the F~_la")

    for cached in (symfunc._k_schur_h_table, symfunc._kostka_table, symfunc._expand_to_m):
        cached.cache_clear()
    monkeypatch.setattr(symfunc, "affine_schur", refuse)
    monkeypatch.setattr(stanley, "_count_cyclic_factorizations", refuse)
    for d in range(9):
        for la in bounded_partitions(4, d):
            k = k_schur(4, la)
            assert k.basis == "h" and min(k.coeffs) == la and k.coeffs[la] == 1
            assert change_basis(k, "kSchur", 4).coeffs == {la: 1}
    symfunc._k_schur_h_table.cache_clear()  # no table built under the patch outlives it


def test_k_schur_is_peeled_by_k_kostka_rows_with_no_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-Kostka peel solved a system")

    for cached in (
        symfunc._expand_to_m, symfunc._k_schur_h_table, symfunc._schur_h_column,
        symfunc._kostka_table, symfunc._pair_index, symfunc._lex_index,
    ):
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


def _doubled(right, at):
    """``right``, a column function, with the numbers of the column at ``at`` doubled."""

    def wrong(*key):
        spots, ks = right(*key)
        return (spots, tuple(2 * k for k in ks)) if key[-1] == at else (spots, ks)

    return wrong


def _doubled_in_table(side, la, n=None):
    """``_kostka_table`` with the numbers of la's row (side 0) or column
    (side 1) doubled, in the Kostka table of degree |la| or its k-table at
    rank n."""
    right = symfunc._kostka_table
    key = (sum(la),) if n is None else (sum(la), n)

    def wrong(*args):
        halves = list(right(*args))
        if args == key:
            entries = halves[side]
            at = symfunc._lex_index(key[0])[1][la]
            halves[side] = tuple(map(_doubled(entries.__getitem__, at), range(len(entries))))
        return tuple(halves)

    return wrong


def test_a_wrong_column_fails_each_peel_naming_the_basis_and_the_partition(monkeypatch):
    # each doubled column opens with 2, so its peel leaves -1 at its own position
    def fails(text):
        return pytest.raises(AssertionError, match=re.escape(text))

    s21 = SymFunc(3, "m", {(2, 1): 1, (1, 1, 1): 2})
    monkeypatch.setattr(symfunc, "_kostka_table", _doubled_in_table(1, (2, 1)))
    with fails("the s peel of (2, 1) leaves -1 on (2, 1)"):
        change_basis(s21, "s")
    monkeypatch.undo()  # one wrong column at a time, so no other memo takes it in
    f21 = symfunc.affine_schur(3, (2, 1))
    right = symfunc.affine_schur

    def doubled_f21(n, la):
        f = right(n, la)
        return SymFunc(f.degree, "m", {mu: 2 * c for mu, c in f.coeffs.items()}) if (n, la) == (3, (2, 1)) else f

    monkeypatch.setattr(symfunc, "affine_schur", doubled_f21)
    with fails("the affineSchur(3) peel of (2, 1) leaves -1 on (2, 1)"):
        change_basis(f21, "affineSchur", 3)
    monkeypatch.undo()
    monkeypatch.setattr(symfunc, "_kostka_table", _doubled_in_table(0, (1, 1, 1)))
    symfunc._schur_h_column.cache_clear()
    with fails("the h peel of (1, 1, 1) leaves -1 on (1, 1, 1)"):
        change_basis(SymFunc.monomial("s", (1, 1, 1)), "h")
    monkeypatch.undo()
    monkeypatch.setattr(symfunc, "_kostka_table", _doubled_in_table(0, (1, 1, 1), 3))
    symfunc._k_schur_h_table.cache_clear()
    with fails("the kSchur(3) peel of (1, 1, 1) leaves -1 on (1, 1, 1)"):
        k_schur(3, (1, 1, 1))
    symfunc._k_schur_h_table.cache_clear()


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
    for d in range(13):
        if d <= 10:
            for la in partitions_of(d):  # h_la with repeated parts, such as (2, 2, 2, 1, 1), among them
                for basis in ("h", "s"):
                    f = SymFunc.monomial(basis, la)
                    assert coproduct(f) == _coproduct_by_parts(f), f
        for basis in BASES:
            f = _combination(rng, basis, partitions_of(d), d)
            assert coproduct(f) == _coproduct_by_parts(f), f


def test_basis_change_caches_are_bounded():
    for cached in (
        symfunc._kostka_table, symfunc._margin_count, symfunc._row_fills,
        symfunc._group_fills, symfunc._k_schur_h_table, symfunc._expand_to_m,
        symfunc.affine_schur, symfunc._h_coproduct, symfunc._schur_h_column,
        symfunc._pair_index, symfunc._lex_index,
        # and the F_w and F~_w routes' element lists, split lists, counts,
        # field widths and transition tree
        stanley._decreasing_elements, stanley._splits,
        stanley._field_width, stanley._transition_tree,
        stanley._cyclically_decreasing_elements, stanley._count_cyclic_factorizations,
    ):
        assert cached.cache_info().maxsize is not None, cached
