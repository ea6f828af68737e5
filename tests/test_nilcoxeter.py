"""NilCoxeter algebra: h-elements, noncommutative Schur functions, B."""

import random

import pytest

from stansym import nilcoxeter
from stansym.affine import AffinePermutation, elements_of_length
from stansym.nilcoxeter import (
    NilCoxeterElement,
    conjecture_52_report,
    divided_difference_action,
    h_element,
    noncommutative_schur,
    product_expansion_check,
)
from stansym.nilhecke import ScalarPoly, j_basis_element
from stansym.partition import bounded_partitions, partitions_inside, partitions_of, staircase
from stansym.permutation import Permutation, from_code, symmetric_group
from stansym.stanley import schur_expand, stanley_fn
from stansym.symfunc import _jacobi_trudi_h, _solve_exact, k_schur


def A(word, n):
    return NilCoxeterElement.basis(Permutation.from_word(word, n), n)


def test_square_of_generator_is_zero():
    a1 = A((1,), 3)
    assert (a1 * a1).is_zero()


def test_length_additive_products():
    assert A((1,), 3) * A((2,), 3) == A((1, 2), 3)
    assert (A((1, 2), 3) * A((1,), 3)).coeffs  # 121 is reduced
    assert (A((1, 2), 3) * A((2,), 3)).is_zero()


def test_h_element_bounds():
    with pytest.raises(ValueError):
        h_element(3, 3)
    with pytest.raises(ValueError):
        h_element(3, -1)
    assert h_element(3, 0) == NilCoxeterElement.one(3)
    assert len(h_element(4, 2).coeffs) == 3
    assert len(h_element(4, 2, affine=True).coeffs) == 6


def test_product_expansion():
    for n in range(2, 6):
        assert product_expansion_check(n)


def test_h_elements_commute():
    for n in range(2, 6):
        hs = [h_element(n, k) for k in range(n)]
        assert all(a * b == b * a for a in hs for b in hs)
    for n in (3, 4):
        hs = [h_element(n, k, affine=True) for k in range(n)]
        assert all(a * b == b * a for a in hs for b in hs)


def test_coefficient_of_a_w_is_stanley_coefficient():
    for w in symmetric_group(4):
        f = stanley_fn(w)
        for la, c in f.coeffs.items():
            prod = NilCoxeterElement.one(4)
            for part in la:
                prod = prod * h_element(4, part)
            assert prod.coeffs.get(w.embed(4), 0) == c


def test_noncommutative_schur_s4_table():
    # every element of the degree-d component appears with coefficient 1
    expect = {
        (1,): ["1", "2", "3"],
        (1, 1): ["12", "23", "13"],
        (2,): ["21", "32", "31"],
        (1, 1, 1): ["123"],
        (3,): ["321"],
        (2, 1): ["213", "212", "323", "312"],
        (2, 1, 1): ["1323", "1213"],
        (2, 2): ["2132"],
        (3, 1): ["3231", "3121"],
        (2, 2, 1): ["23123"],
        (3, 1, 1): ["32123"],
        (3, 2): ["32132"],
        (3, 2, 1): ["321323"],
    }
    for la, words in expect.items():
        want = NilCoxeterElement.zero(4)
        for word in words:
            want = want + A(tuple(int(c) for c in word), 4)
        assert noncommutative_schur(4, la) == want
    assert noncommutative_schur(4, ()) == NilCoxeterElement.one(4)


def test_schur_coefficients_match_schur_expansion():
    for w in symmetric_group(4):
        s = schur_expand(w)
        for la, c in s.coeffs.items():
            assert noncommutative_schur(4, la).coeffs.get(w.embed(4), 0) == c


def test_divided_difference_action():
    x1 = ScalarPoly.x(3, 1)
    x2 = ScalarPoly.x(3, 2)
    assert divided_difference_action(A((1,), 3), x1) == ScalarPoly.const(3, 1)
    assert divided_difference_action(A((1,), 3), x1 * x2).is_zero()
    # A_{w0} acts as the full Demazure operator: x1^2 x2 -> 1
    assert divided_difference_action(A((1, 2, 1), 3), x1 * x1 * x2) == ScalarPoly.const(3, 1)


def test_divided_difference_action_is_faithful_on_s4():
    # pairwise distinct basis elements act differently on the staircase monomial
    x = [ScalarPoly.x(4, i) for i in range(1, 5)]
    staircase_monomial = x[0] * x[0] * x[0] * x[1] * x[1] * x[2]
    results = {}
    for w in symmetric_group(4):
        got = divided_difference_action(A(w.reduced_words()[0], 4), staircase_monomial)
        key = tuple(sorted(got.coeffs.items()))
        assert key not in results, f"{w} and {results.get(key)} act identically"
        results[key] = w


# -- the report's counts against the products and the ideals they replace ------


def expand_in_span(basis, target):
    """Integer coordinates of ``target`` in the span of ``basis``, or None."""
    elements = list(basis) + [target]
    support = sorted(
        {w for a in elements for w in a.coeffs},
        key=lambda w: (w.length(), w.window),
    )
    if not support:
        return [0] * len(basis)
    rows = [[a.coeffs.get(w, 0) for a in elements] for w in support]
    sol, _, bad = _solve_exact([row[:-1] for row in rows], [row[-1] for row in rows])
    if bad is not None or any(x.denominator != 1 for x in sol):
        return None
    return [int(x) for x in sol]


def structure_by_products(elements, la, mu):
    """{nu: c} with s_la(u) s_mu(u) = sum_nu c s_nu(u), by multiplying in the
    nilCoxeter algebra and solving in the span of the degree's s_nu(u)."""
    basis = [nu for nu in elements if sum(nu) == sum(la) + sum(mu)]
    coords = expand_in_span([elements[nu] for nu in basis], elements[la] * elements[mu])
    return None if coords is None else {nu: c for nu, c in zip(basis, coords) if c}


def root_poset_ideals_by_brute_force(n):
    """Coefficient list of sum_I t^|I| over upper order ideals of the type-A
    root poset, alpha_{ij} <= alpha_{kl} iff [i,j] contains [k,l], by trying
    every subset of the C(n, 2) roots."""
    roots = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    counts = [0] * (len(roots) + 1)
    for mask in range(1 << len(roots)):
        ideal = [roots[t] for t in range(len(roots)) if mask >> t & 1]
        ok = all(
            (k, l) in ideal
            for (i, j) in ideal
            for (k, l) in roots
            if k <= i and j <= l
        )
        if ok:
            counts[len(ideal)] += 1
    return counts


def test_expand_in_span():
    basis = [A((1,), 3), A((2,), 3)]
    target = A((1,), 3) + 2 * A((2,), 3)
    assert expand_in_span(basis, target) == [1, 2]
    assert expand_in_span(basis, A((1, 2), 3)) is None


def littlewood_richardson(n, la, mu):
    """The report's count of c^nu_{la mu} over the nu inside delta_{n-1}."""
    return nilcoxeter._littlewood_richardson(mu, la, staircase(n - 1))


def schur_elements(n):
    return {la: noncommutative_schur(n, la) for la in partitions_inside(staircase(n - 1))}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_constants_equal_the_direct_products_on_every_pair(n):
    elements = schur_elements(n)
    for la in elements:
        for mu in elements:
            assert littlewood_richardson(n, la, mu) == structure_by_products(elements, la, mu), (la, mu)


def test_structure_constants_equal_the_direct_products_on_a_sample_at_n6():
    elements = schur_elements(6)
    # pairs above the top degree multiply to 0; sample those that need not
    pairs = [(la, mu) for la in elements for mu in elements if sum(la) + sum(mu) <= 15]
    for la, mu in random.Random(52).sample(pairs, 40):
        assert littlewood_richardson(6, la, mu) == structure_by_products(elements, la, mu), (la, mu)
    assert all(
        not littlewood_richardson(6, la, mu)
        for la in elements for mu in elements if sum(la) + sum(mu) > 15
    )


def test_structure_constants_equal_the_direct_products_on_a_sample_at_n7():
    elements = schur_elements(7)
    pairs = [(la, mu) for la in elements for mu in elements if sum(la) + sum(mu) <= 21]
    for la, mu in random.Random(7).sample(pairs, 10):
        assert littlewood_richardson(7, la, mu) == structure_by_products(elements, la, mu), (la, mu)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_the_permutation_with_code_nu_has_schur_expansion_s_nu(n):
    # w_nu is dominant, so [A_{w_nu}] s_la(u) = [s_la] F_{w_nu} = delta_{la nu}:
    # the fact the report reads its coordinates by
    shapes = partitions_inside(staircase(n - 1))
    assert len(shapes) == [2, 5, 14, 42, 132, 429][n - 2]
    for nu in shapes:
        assert schur_expand(from_code(nu)).coeffs == {nu: 1}, nu


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_poset_series_equals_the_brute_force_ideal_count(n):
    assert conjecture_52_report(n)["root_poset_ideal_series"] == root_poset_ideals_by_brute_force(n)


@pytest.mark.parametrize("n", [4, 5])
def test_report_multiplies_only_to_check_that_the_h_elements_commute(n, monkeypatch):
    calls = []
    mul = NilCoxeterElement.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(NilCoxeterElement, "__mul__", counted)
    r = conjecture_52_report(n)
    assert r["h_commutes"]
    # and once for each pair whose structure constants it compares
    assert len(calls) <= n * (n - 1) + r["structure_pairs_compared"]


def test_report_sees_a_dependent_schur_basis(monkeypatch):
    right = nilcoxeter.noncommutative_schur

    def repeated(n, la, affine=False):
        return right(n, (2,) if la == (1, 1) else la, affine)

    monkeypatch.setattr(nilcoxeter, "noncommutative_schur", repeated)
    r = conjecture_52_report(4)
    assert not r["linearly_independent"]
    assert r["hilbert_matches"]


def test_report_names_a_wrong_littlewood_richardson_count(monkeypatch):
    right = nilcoxeter._littlewood_richardson

    def off_by_one(la, mu, top):
        counts = right(la, mu, top)
        return {**counts, (2, 1): counts[(2, 1)] + 1} if (2, 1) in counts else counts

    monkeypatch.setattr(nilcoxeter, "_littlewood_richardson", off_by_one)
    r = conjecture_52_report(4)
    # the first pair in the list whose product has an s_21 term
    assert r["structure_mismatch"] == ((), (2, 1), (2, 1), 2, 1)
    assert r["linearly_independent"] and r["nonnegative"]


def test_report_compares_the_product_on_every_coordinate(monkeypatch):
    # a wrong coefficient of s_2(u) at a permutation that is not dominant
    # leaves the dominant columns, and so the LR reading, as they were
    right = nilcoxeter.noncommutative_schur
    w = Permutation.from_word((1, 3), 4)

    def perturbed(n, la, affine=False):
        a = right(n, la, affine)
        return a + A((1, 3), 4) if la == (2,) else a

    monkeypatch.setattr(nilcoxeter, "noncommutative_schur", perturbed)
    r = conjecture_52_report(4)
    assert r["linearly_independent"]
    assert r["structure_mismatch"] == ((1,), (1,), w, 3, 2)


@pytest.mark.parametrize("n, pairs", [(5, 319), (6, 8), (7, 8)])
def test_report_compares_every_pair_to_n5_and_a_fixed_sample_above(n, pairs):
    r = conjecture_52_report(n)
    assert (r["structure_pairs_compared"], r["structure_mismatch"]) == (pairs, None)


def test_conjecture_report_n3():
    r = conjecture_52_report(3)
    assert r["h_commutes"]
    assert r["dimension"] == len(partitions_inside(staircase(2))) == 5
    assert r["linearly_independent"]
    assert r["hilbert_matches"]
    assert r["nonnegative"]
    assert r["structure_pairs_compared"] == 8 and r["structure_mismatch"] is None


def test_conjecture_report_n4():
    r = conjecture_52_report(4)
    assert r["dimension"] == 14
    assert r["hilbert_series"] == r["root_poset_ideal_series"] == [1, 1, 2, 3, 3, 3, 1]
    assert r["h_commutes"] and r["linearly_independent"]
    assert r["nonnegative"]
    assert r["structure_pairs_compared"] == 47 and r["structure_mismatch"] is None


def test_affine_noncommutative_schur_single_row():
    # s^(k) of a single row is the affine h-element
    for n in (3, 4):
        for k in range(1, n):
            assert noncommutative_schur(n, (k,), affine=True) == h_element(n, k, affine=True)


# -- the read-off against the substitution it replaces -------------------------


def substitution(n, la, affine=False):
    """The definition of s_la(u) (finite) or s^(k)_la(u) (affine): the
    Jacobi-Trudi or k-Schur h-expansion, with each h_k replaced by the
    h-element and the products taken in the nilCoxeter algebra."""
    expansion = k_schur(n, la).coeffs if affine else _jacobi_trudi_h(la)
    out = NilCoxeterElement.zero(n, affine)
    for mu, c in expansion.items():
        if mu and mu[0] >= n:
            continue  # h_k = 0 for k >= n in the finite algebra
        term = c * NilCoxeterElement.one(n, affine)
        for part in mu:
            term = term * h_element(n, part, affine)
        out = out + term
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_finite_read_off_equals_the_substitution_inside_the_staircase(n):
    for la in partitions_inside(staircase(n - 1)):
        assert noncommutative_schur(n, la) == substitution(n, la), la


@pytest.mark.parametrize("n", [2, 3, 4])
def test_finite_read_off_vanishes_with_the_substitution_outside_the_staircase(n):
    # the determinant has len(la)! terms, so the oracle stops at six rows
    inside = set(partitions_inside(staircase(n - 1)))
    for d in range(n * (n - 1) // 2 + 2):
        for la in partitions_of(d):
            if la not in inside and len(la) <= 6:
                got = noncommutative_schur(n, la)
                assert got.is_zero() and got == substitution(n, la), la


@pytest.mark.parametrize("n", [3, 4, 5])
def test_affine_read_off_equals_the_k_schur_substitution(n):
    for d in range(7):
        for la in bounded_partitions(n, d):
            assert noncommutative_schur(n, la, affine=True) == substitution(n, la, affine=True), la


def test_no_nilcoxeter_product_builds_the_schur_elements_or_the_j_basis(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a nilCoxeter product on the computing path")

    nilcoxeter._schur_table.cache_clear()
    monkeypatch.setattr(NilCoxeterElement, "__mul__", refuse)
    assert len(noncommutative_schur(4, (2, 1)).coeffs) == 4
    assert len(noncommutative_schur(4, (2, 1), affine=True).coeffs) == 12
    grassmannians = [
        w for ell in range(5) for w in elements_of_length(4, ell) if w.is_grassmannian()
    ]
    for w in grassmannians:
        assert j_basis_element(4, w).coeffs[w] == 1


def test_affine_read_off_rejects_an_unbounded_partition():
    with pytest.raises(ValueError, match=r"not \(3\)-bounded"):
        noncommutative_schur(4, (4, 1), affine=True)


def test_over_degree_partition_is_zero_without_walking_the_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked S_5")

    monkeypatch.setattr(nilcoxeter, "schur_expand", refuse)
    monkeypatch.setattr(Permutation, "transposition_right", refuse)
    for la in [(11,), (6, 5), (4, 4, 3), (1,) * 11]:
        assert noncommutative_schur(5, la) == NilCoxeterElement.zero(5)


def test_finite_table_walks_only_the_layer_it_needs(monkeypatch):
    expanded = []
    schur_expand = nilcoxeter.schur_expand

    def counted(w):
        expanded.append(w)
        return schur_expand(w)

    nilcoxeter._schur_table.cache_clear()
    monkeypatch.setattr(nilcoxeter, "schur_expand", counted)
    assert len(noncommutative_schur(8, (1,)).coeffs) == 7
    assert sorted(w.length() for w in expanded) == [1] * 7


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_layer_is_the_length_filter_of_the_group(n):
    group = symmetric_group(n)
    for d in range(n * (n - 1) // 2 + 2):
        assert nilcoxeter._layer(n, d) == {w for w in group if w.length() == d}, d


def test_the_report_builds_each_layer_once():
    nilcoxeter._layer.cache_clear()
    nilcoxeter._schur_table.cache_clear()
    conjecture_52_report(5)
    # degrees 0..10, each built from the one below: ten layer steps, not 55
    assert nilcoxeter._layer.cache_info().misses == 11
