"""NilCoxeter algebra: h-elements, noncommutative Schur functions, B."""

import random
from bisect import bisect_right

import oracles
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


def _basis_up_to(n, top, affine):
    """A_w over the w of length <= top in S_n or S~_n."""
    if affine:
        return [NilCoxeterElement.basis(w) for l in range(top + 1) for w in elements_of_length(n, l)]
    return [NilCoxeterElement.basis(w, n) for w in symmetric_group(n) if w.length() <= top]


@pytest.mark.parametrize("affine", [False, True])
def test_product_of_basis_elements_equals_the_product_by_objects(affine):
    for n in (3, 4, 5):
        basis = _basis_up_to(n, 4, affine)
        for a in basis:
            for b in basis:
                assert a * b == oracles.nilcoxeter_product_by_objects(a, b), (a, b)


def test_product_of_noncommutative_k_schur_functions_equals_the_product_by_objects():
    # the unordered pairs of nonempty (n-1)-bounded shapes, |la| + |mu| <= 12
    compared = 0
    for n in (3, 4):
        shapes = [la for d in range(1, 12) for la in bounded_partitions(n, d)]
        elements = {la: noncommutative_schur(n, la, affine=True) for la in shapes}
        for i, la in enumerate(shapes):
            for mu in shapes[i:]:
                if sum(la) + sum(mu) <= 12:
                    a, b = elements[la], elements[mu]
                    assert a * b == oracles.nilcoxeter_product_by_objects(a, b), (n, la, mu)
                    compared += 1
    assert compared == 253 + 603


def test_products_of_the_fomin_stanley_report_equal_the_products_by_objects():
    # the pairs that conjecture_52_report multiplies at n = 5
    n, top = 5, staircase(4)
    shapes = partitions_inside(top)
    degrees = [sum(la) for la in shapes]
    elements = {la: noncommutative_schur(n, la) for la in shapes}
    pairs = [(la, mu) for i, la in enumerate(shapes) for mu in shapes[i:bisect_right(degrees, sum(top) - degrees[i])]]
    assert len(pairs) == conjecture_52_report(n)["structure_pairs_compared"] == 319
    for la, mu in pairs:
        a, b = elements[la], elements[mu]
        assert a * b == oracles.nilcoxeter_product_by_objects(a, b), (la, mu)


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


def test_divided_difference_action_checks_its_scalar_up_front():
    # the zero element walks no word, so only an up-front check sees the scalar
    for a in (A((1,), 3), NilCoxeterElement.zero(3)):
        with pytest.raises(ValueError, match="rank mismatch: an element of S_3 and a scalar in 4 variables"):
            divided_difference_action(a, ScalarPoly.x(4, 1))
        with pytest.raises(TypeError, match="expected a ScalarPoly"):
            divided_difference_action(a, 1)


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


def littlewood_richardson_by_transition(n, la, mu):
    """c^nu_{la mu} over the nu inside delta_{n-1}, from the transition tree:
    the shifted direct product u x v of the dominant permutations with codes
    la and mu has F_{u x v} = F_u F_v = s_la s_mu."""
    u, v = from_code(la), from_code(mu)
    product = Permutation(u.window + tuple(u.n + x for x in v.window))
    inside = set(partitions_inside(staircase(n - 1)))
    return {nu: c for nu, c in schur_expand(product).coeffs.items() if nu in inside}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_littlewood_richardson_count_equals_the_transition_tree_on_every_pair(n):
    shapes = partitions_inside(staircase(n - 1))
    for la in shapes:
        for mu in shapes:
            if sum(la) + sum(mu) <= sum(staircase(n - 1)):
                assert littlewood_richardson(n, la, mu) == littlewood_richardson_by_transition(n, la, mu), (la, mu)


def test_littlewood_richardson_count_equals_the_transition_tree_on_a_sample_at_n6():
    shapes = partitions_inside(staircase(5))
    pairs = [(la, mu) for la in shapes for mu in shapes if sum(la) + sum(mu) <= 15]
    for la, mu in random.Random(22).sample(pairs, 10):
        assert littlewood_richardson(6, la, mu) == littlewood_richardson_by_transition(6, la, mu), (la, mu)


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


def _patched_schur_table(monkeypatch, degree, patch):
    """``nilcoxeter._schur_table`` with the finite table of ``degree``
    replaced by ``patch`` of a copy of it, the cached one left as it is."""
    right = nilcoxeter._schur_table

    def patched(n, d, affine):
        table = right(n, d, affine)
        if d != degree or affine:
            return table
        table = {la: dict(row) for la, row in table.items()}
        patch(table)
        return table

    monkeypatch.setattr(nilcoxeter, "_schur_table", patched)


def test_report_sees_a_dependent_schur_basis(monkeypatch):
    def repeated(table):
        table[(1, 1)] = table[(2,)]

    _patched_schur_table(monkeypatch, 2, repeated)
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
    w = Permutation.from_word((1, 3), 4).window

    def perturbed(table):
        table[(2,)][w] = table[(2,)].get(w, 0) + 1

    _patched_schur_table(monkeypatch, 2, perturbed)
    r = conjecture_52_report(4)
    assert r["linearly_independent"]
    assert r["structure_mismatch"] == ((1,), (1,), w, 3, 2)


def test_report_reads_the_schur_table_in_place_and_returns_no_elements(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report built a noncommutative Schur element")

    monkeypatch.setattr(nilcoxeter, "noncommutative_schur", refuse)
    r = conjecture_52_report(5)
    assert "schur_elements" not in r
    assert r["linearly_independent"] and r["hilbert_matches"] and r["structure_mismatch"] is None


@pytest.mark.parametrize("n, pairs", [(5, 319), (6, 8), (7, 8)])
def test_report_compares_every_pair_to_n5_and_a_fixed_sample_above(n, pairs):
    r = conjecture_52_report(n)
    assert (r["structure_pairs_compared"], r["structure_mismatch"]) == (pairs, None)


@pytest.mark.parametrize("n", [6, 7])
def test_report_samples_the_pairs_of_degree_at_most_the_staircase(n, monkeypatch):
    calls = []
    right = nilcoxeter._littlewood_richardson

    def recorded(la, mu, top):
        calls.append((mu, la))
        return right(la, mu, top)

    monkeypatch.setattr(nilcoxeter, "_littlewood_richardson", recorded)
    conjecture_52_report(n)
    shapes = partitions_inside(staircase(n - 1))
    pairs = [
        (la, mu) for i, la in enumerate(shapes) for mu in shapes[i:]
        if sum(la) + sum(mu) <= sum(staircase(n - 1))
    ]
    runs = 2 * nilcoxeter._SAMPLED_PAIRS
    assert calls == [pairs[(2 * i + 1) * len(pairs) // runs] for i in range(nilcoxeter._SAMPLED_PAIRS)]


def test_schur_elements_and_their_products_skip_the_key_check(monkeypatch):
    # their keys are built from the length-n windows of one layer, or are
    # rank-n affine elements, or products of those, so none is embedded again
    n = 5
    shapes = partitions_inside(staircase(n - 1))
    bounded = [la for d in range(6) for la in bounded_partitions(n, d)]
    rows = {la: nilcoxeter._schur_table(n, sum(la), False).get(la, {}) for la in shapes}
    checked = {la: NilCoxeterElement(n, False, {Permutation(x): c for x, c in row.items()}) for la, row in rows.items()}
    checked_affine = {la: NilCoxeterElement(n, True, nilcoxeter._schur_table(n, sum(la), True).get(la, {})) for la in bounded}

    def refuse(w, n):
        raise AssertionError(f"{w!r} was embedded again")

    monkeypatch.setattr(Permutation, "embed", refuse)
    elements = {la: noncommutative_schur(n, la) for la in shapes}
    affine = {la: noncommutative_schur(n, la, affine=True) for la in bounded}
    products = [elements[la] * elements[mu] for la in shapes for mu in shapes]
    products += [affine[la] * affine[mu] for la in bounded[:12] for mu in bounded[:12]]
    monkeypatch.undo()
    assert elements == checked and affine == checked_affine
    for a in [*elements.values(), *affine.values(), *products]:
        assert a == NilCoxeterElement(a.n, a.affine, a.coeffs)
        assert all(w.n == n for w in a.coeffs)
    # the shared table is copied, not handed out
    a = noncommutative_schur(n, (2, 1))
    a.coeffs.clear()
    assert noncommutative_schur(n, (2, 1)) == checked[2, 1] != a


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

    monkeypatch.setattr(nilcoxeter, "_transition_tree", refuse)
    monkeypatch.setattr(nilcoxeter, "_layer", refuse)
    for la in [(11,), (6, 5), (4, 4, 3), (1,) * 11]:
        assert noncommutative_schur(5, la) == NilCoxeterElement.zero(5)


def test_finite_table_walks_only_the_layer_it_needs(monkeypatch):
    expanded = []
    transition_tree = nilcoxeter._transition_tree

    def counted(key):
        expanded.append(key)
        return transition_tree(key)

    nilcoxeter._schur_table.cache_clear()
    monkeypatch.setattr(nilcoxeter, "_transition_tree", counted)
    assert len(noncommutative_schur(8, (1,)).coeffs) == 7
    assert sorted(Permutation(key).length() for key in expanded) == [1] * 7


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_layer_is_the_length_filter_of_the_group(n):
    group = symmetric_group(n)
    for d in range(n * (n - 1) // 2 + 2):
        assert nilcoxeter._layer(n, d) == {w.window for w in group if w.length() == d}, d


def test_the_report_builds_each_layer_once():
    nilcoxeter._layer.cache_clear()
    nilcoxeter._schur_table.cache_clear()
    conjecture_52_report(5)
    # degrees 0..10, each built from the one below: ten layer steps, not 55
    assert nilcoxeter._layer.cache_info().misses == 11
