"""Stanley symmetric functions, finite and affine, and their expansions."""

import random
import re
import sys
from functools import lru_cache
from itertools import combinations

import pytest

from oracles import from_finite, transition_tree_by_objects
from stansym import stanley
from stansym.affine import AffinePermutation, cyclically_decreasing, elements_of_length
from stansym.partition import count_standard_tableaux, partitions_of, staircase
from stansym.permutation import Permutation, _reduced_words, count_reduced_words, symmetric_group
from stansym.stanley import (
    affine_schur_expand,
    affine_stanley,
    affine_stanley_coefficient,
    check_symmetry_affine,
    check_symmetry_finite,
    schur_expand,
    stanley_fn,
    stanley_quasisym,
    transition_check,
)
from stansym.symfunc import SymFunc, change_basis, coproduct
from stansym.tableaux import eg_tableaux_by_shape


def test_f_2431():
    w = Permutation([2, 4, 3, 1])
    want = SymFunc(4, "m", {(2, 1, 1): 1, (1, 1, 1, 1): 3})
    for method in ("original", "decreasing", "quasisym"):
        assert stanley_fn(w, method) == want
    assert schur_expand(w) == SymFunc(4, "s", {(2, 1, 1): 1})


def test_trivial_cases():
    assert stanley_fn(Permutation.identity(3)) == SymFunc(0, "m", {(): 1})
    assert stanley_fn(Permutation.simple(2, 4)) == SymFunc(1, "m", {(1,): 1})


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        stanley_fn(Permutation.identity(3), "fastest")


def test_three_definitions_agree_on_s4():
    for w in symmetric_group(4):
        a = stanley_fn(w, "original")
        b = stanley_fn(w, "decreasing")
        c = stanley_fn(w, "quasisym")
        assert a == b == c


def test_histogram_routes_agree_with_the_factorization_count_on_s5():
    # "original" and "quasisym" read one histogram of R(w) or R(w^-1) each;
    # the decreasing-factorization DP, which walks descents on the inverse
    # window, shares no code with them
    for w in symmetric_group(5):
        want = stanley_fn(w, "decreasing")
        assert stanley_fn(w, "original") == want == stanley_fn(w, "quasisym")
        assert check_symmetry_finite(w)


def test_quasisym_route_is_symmetric():
    for w in symmetric_group(4):
        q = stanley_quasisym(w)
        assert q.is_symmetric()
        assert q.to_symfunc() == stanley_fn(w)


def test_symmetry_checks():
    assert all(check_symmetry_finite(w) for w in symmetric_group(4))
    assert all(
        check_symmetry_affine(w) for l in range(5) for w in elements_of_length(3, l)
    )


def test_one_times_stability():
    for w in symmetric_group(4):
        assert stanley_fn(w) == stanley_fn(w.one_times())


def test_leading_term_and_dominance_bound():
    for w in symmetric_group(4):
        f = stanley_fn(w)
        la = w.shape()
        assert f[la] == 1
        from stansym.partition import dominance_leq

        assert all(dominance_leq(mu, la) for mu in f.coeffs)


def test_longest_element_is_staircase_schur():
    for n in range(3, 10):
        w0 = Permutation.longest(n)
        assert schur_expand(w0) == SymFunc.monomial("s", staircase(n - 1))


def test_transition_tree_matches_the_eg_tableau_count():
    s6 = random.Random(6).sample(symmetric_group(6), 100)
    try:
        for w in symmetric_group(5) + s6:
            eg = {la: len(tabs) for la, tabs in eg_tableaux_by_shape(w.inverse()).items()}
            assert schur_expand(w).coeffs == eg, w
    finally:
        _reduced_words.cache_clear()  # the EG count lists R(w^-1)


def test_schur_coefficients_count_reduced_words():
    # each reduced word EG-inserts to one P of shape la and one standard Q
    sample = random.Random(7).sample(symmetric_group(7), 300)
    s8 = Permutation([4, 8, 2, 7, 1, 6, 3, 5])
    assert not s8.is_vexillary()
    for w in sample + [s8]:
        coeffs = schur_expand(w).coeffs
        assert all(c > 0 for c in coeffs.values()), w
        assert sum(c * count_standard_tableaux(la) for la, c in coeffs.items()) == count_reduced_words(w), w


def test_window_tree_equals_the_object_tree_on_s1_to_s7_and_a_sample_of_s8():
    group = [w for n in range(1, 8) for w in symmetric_group(n)]
    group += random.Random(26).sample(symmetric_group(8), 2000)
    keys = [w._stable_window() for w in group]
    try:
        stanley._transition_tree.cache_clear()
        fast = [stanley._transition_tree(key) for key in keys]
        transition_tree_by_objects.cache_clear()
        slow = [transition_tree_by_objects(key) for key in keys]
        for w, got, want in zip(group, fast, slow):
            assert got == want, w
    finally:
        transition_tree_by_objects.cache_clear()


def test_schur_expand_with_a_warm_memo_equals_a_cleared_one_on_s6():
    s6 = symmetric_group(6)
    stanley._transition_tree.cache_clear()
    warm = [schur_expand(w) for w in s6]
    assert stanley._transition_tree.cache_info().hits  # the trees share nodes
    for w, got in zip(s6, warm):
        stanley._transition_tree.cache_clear()
        assert schur_expand(w) == got, w


@lru_cache(maxsize=None)
def _count_by_subsets(window, alpha):
    """The decreasing-factorization count with no split list: every k-subset
    is tested again at each (window, alpha)."""
    n = len(window)
    if not alpha:
        return 1 if window == tuple(range(1, n + 1)) else 0
    inverse = [0] * (n + 1)
    for i, x in enumerate(window, 1):
        inverse[x] = i
    total = 0
    for word in combinations(range(n - 1, 0, -1), alpha[0]):
        pos = inverse[:]
        for a in word:
            if pos[a] < pos[a + 1]:
                break
            pos[a], pos[a + 1] = pos[a + 1], pos[a]
        else:
            tail = [0] * n
            for x in range(1, n + 1):
                tail[pos[x] - 1] = x
            total += _count_by_subsets(tuple(tail), alpha[1:])
    return total


def _composition(rng, ell):
    """A seeded composition of ell: cut 1..ell-1 at random."""
    cuts = sorted(rng.sample(range(1, ell), rng.randint(0, ell - 1))) if ell > 1 else []
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [ell]) if b > a)


def test_split_lists_count_as_the_subset_loop_on_s5_and_s6():
    rng = random.Random(17)
    try:
        for w in symmetric_group(5) + symmetric_group(6):
            ell = w.length()
            for alpha in list(partitions_of(ell)) + [_composition(rng, ell) for _ in range(3)]:
                got = stanley._count_decreasing_factorizations(w.inverse().window, alpha)
                assert got == _count_by_subsets(w.window, alpha), (w, alpha)
    finally:
        _count_by_subsets.cache_clear()


def test_transition_tree_names_w_when_its_left_side_is_wrong(monkeypatch):
    stanley._transition_tree.cache_clear()  # a node expanded earlier would not be checked again
    scan = stanley._transition_covers
    monkeypatch.setattr(stanley, "_transition_covers", lambda v, r: ([],) + scan(v, r)[1:])
    with pytest.raises(AssertionError, match="2143"):
        schur_expand(Permutation([2, 1, 4, 3]))


def test_grassmannian_gives_single_schur():
    for w in symmetric_group(4):
        if w.is_grassmannian() and not w.is_identity():
            assert len(schur_expand(w).coeffs) == 1


def test_vexillary_iff_single_schur_term():
    for n in (4, 5):
        for w in symmetric_group(n):
            assert w.is_vexillary() == (len(schur_expand(w).coeffs) == 1)


def test_schur_expansion_is_nonnegative_and_consistent():
    for w in symmetric_group(4):
        s = schur_expand(w)
        assert all(c > 0 for c in s.coeffs.values())
        assert change_basis(stanley_fn(w), "s") == s


def test_affine_stanley_example():
    w = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
    assert affine_stanley(w) == SymFunc(
        5, "m", {(2, 2, 1): 1, (2, 1, 1, 1): 2, (1, 1, 1, 1, 1): 3}
    )


def test_affine_restricts_to_finite():
    # F~_w = F_w on S_n in S~_n, against the compatible-pair route, which
    # shares no code with the split lists
    for n in (3, 4, 5):
        for v in symmetric_group(n):
            assert affine_stanley(from_finite(v)) == stanley_fn(v, "original"), v


def test_the_cyclic_split_lists_of_a_finite_element_are_its_decreasing_ones():
    # a word with the letter 0 never splits off an element of S_n: only the
    # letter n-1 moves x(n), and 0 comes before it, so at the letter 0 still
    # x(0) = x(n) - n <= 0 < x(1)
    for n in range(3, 7):
        for w in symmetric_group(n):
            window = w.inverse().window
            for k in range(n + 1):
                cyclic = stanley._splits(stanley._cyclically_decreasing_elements, n, window, k)
                finite = stanley._splits(stanley._decreasing_elements, n, window, k)
                assert sorted(cyclic) == sorted(finite), (w, k)


def test_affine_x1_xl_coefficient_counts_reduced_words():
    for l in range(6):
        for w in elements_of_length(3, l):
            assert affine_stanley(w)[(1,) * l] == len(w.reduced_words())


def _cyclic_count_by_length(w, alpha, memo):
    """The factorization count by Shi length: v splits off w length-additively
    iff l(v^-1 w) = l(w) - l(v), tried for every cyclically decreasing v."""
    if not alpha:
        return int(w.is_identity())
    key = (w.window, alpha)
    if key not in memo:
        k, ell = alpha[0], w.length()
        total = 0
        for subset in combinations(range(w.n), k) if k < w.n else ():
            tail = cyclically_decreasing(w.n, subset).inverse() * w
            if tail.length() == ell - k:
                total += _cyclic_count_by_length(tail, alpha[1:], memo)
        memo[key] = total
    return memo[key]


def _compositions(d):
    if d == 0:
        yield ()
    for first in range(1, d + 1):
        for rest in _compositions(d - first):
            yield (first,) + rest


def test_cyclic_descent_walk_matches_the_length_count():
    memo = {}
    for n, top in ((3, 7), (4, 6), (5, 5)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                f = affine_stanley(w)
                for la in partitions_of(l):
                    assert f[la] == _cyclic_count_by_length(w, la, memo), (w, la)
                if l <= 5:
                    for alpha in _compositions(l):
                        got = affine_stanley_coefficient(w, alpha)
                        assert got == _cyclic_count_by_length(w, alpha, memo), (w, alpha)


def test_split_list_count_matches_the_length_count_from_cold_caches():
    # every element of length <= 6 at n = 3, 4, 5, on every composition
    for cached in (
        stanley._cyclically_decreasing_elements, stanley._splits, stanley._count_cyclic_factorizations,
    ):
        cached.cache_clear()
    memo = {}
    for n in (3, 4, 5):
        for l in range(7):
            for w in elements_of_length(n, l):
                for alpha in _compositions(l):
                    got = affine_stanley_coefficient(w, alpha)
                    assert got == _cyclic_count_by_length(w, alpha, memo), (w, alpha)


def test_affine_coefficient_checks_alpha_whatever_the_caches_hold():
    # a float part is a TypeError and a negative one a ValueError naming
    # alpha, from cold caches and after the integer alpha has been counted
    w = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
    for counted_first in (False, True):
        stanley._count_cyclic_factorizations.cache_clear()
        stanley._splits.cache_clear()
        if counted_first:
            assert affine_stanley_coefficient(w, (2, 2, 1)) == 1
        with pytest.raises(TypeError):
            affine_stanley_coefficient(w, (2.0, 2, 1))
        with pytest.raises(ValueError, match=re.escape("(2, -1, 4)")):
            affine_stanley_coefficient(w, (2, -1, 4))
        assert affine_stanley_coefficient(w, (0, 2, 0, 2, 1)) == 1


def test_affine_stanley_calls_no_length_or_inverse_in_the_factorization_count(monkeypatch):
    callers = []
    for name in ("length", "inverse"):
        method = getattr(AffinePermutation, name)

        def traced(self, method=method):
            callers.append(sys._getframe(1).f_code.co_name)
            return method(self)

        monkeypatch.setattr(AffinePermutation, name, traced)
    stanley._count_cyclic_factorizations.cache_clear()
    stanley._splits.cache_clear()
    w = AffinePermutation.from_word((1, 0, 2, 3, 1, 0), 4)
    assert w.length() == 6
    callers.clear()
    assert affine_stanley(w)[(1,) * 6] == len(w.reduced_words())
    assert "_count_cyclic_factorizations" not in callers and "_splits" not in callers


def test_affine_schur_expansion_example():
    w = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
    f = affine_schur_expand(w)
    assert f.coeffs == {(2, 2, 1): 1, (2, 1, 1, 1): 1}
    from stansym.symfunc import affine_schur

    total = SymFunc.zero(5)
    for la, c in f.coeffs.items():
        total = total + c * affine_schur(3, la)
    assert total == affine_stanley(w)


def test_affine_schur_expansion_nonnegative_rank_3():
    for l in range(7):
        for w in elements_of_length(3, l):
            f = affine_schur_expand(w)
            assert all(c > 0 for c in f.coeffs.values())
            if w.is_grassmannian():
                assert f.coeffs == {w.shape(): 1}


def coproduct_check(w):
    """True iff Delta F~_w equals the sum of F~_u (x) F~_v over length-additive
    factorizations w = u v."""
    lhs = coproduct(affine_stanley(w))
    # enumerate u by length; v = u^{-1} w
    rhs = {}
    for lu in range(w.length() + 1):
        for u in elements_of_length(w.n, lu):
            v = u.inverse() * w
            if v.length() != w.length() - lu:
                continue
            fu = change_basis(affine_stanley(u), "h")
            fv = change_basis(affine_stanley(v), "h")
            for la, ca in fu.coeffs.items():
                for mu, cb in fv.coeffs.items():
                    rhs[(la, mu)] = rhs.get((la, mu), 0) + ca * cb
    rhs = {k: c for k, c in rhs.items() if c}
    return lhs == rhs


def test_coproduct_check():
    assert coproduct_check(AffinePermutation.identity(3))
    assert coproduct_check(AffinePermutation.from_word((2, 1, 2, 0, 2), 3))
    for l in range(5):
        for w in elements_of_length(3, l):
            assert coproduct_check(w)


def test_transition_identity_s4():
    for w in symmetric_group(4):
        for r in range(1, 5):
            assert transition_check(w, r)
