"""Partition combinatorics: conjugation, dominance, tableau counts."""

from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from oracles import count_standard_tableaux_brute
from stansym.affine import CorootVector
from stansym.partition import (
    _conjugate,
    as_partition,
    bounded_partitions,
    conjugate,
    contains,
    count_standard_tableaux,
    dominance_leq,
    partitions_inside,
    partitions_of,
    sort_composition,
    sparse_rearrangements,
    staircase,
)

partitions = st.lists(st.integers(1, 6), max_size=6).map(sort_composition)


def test_as_partition_strips_trailing_zeros_and_validates():
    assert as_partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


@given(partitions)
def test_conjugate_is_an_involution(la):
    assert conjugate(conjugate(la)) == la


@given(partitions)
def test_conjugate_preserves_size(la):
    assert sum(conjugate(la)) == sum(la)


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((1, 1, 1)) == (3,)


def test_the_unchecked_conjugate_counts_the_rows_longer_than_each_column():
    for d in range(13):
        for la in partitions_of(d):
            columns = tuple(sum(1 for p in la if p > j) for j in range(la[0] if la else 0))
            assert _conjugate(la) == conjugate(la) == columns
    with pytest.raises(ValueError):
        conjugate((1, 2))  # the public one still validates


def test_dominance_is_a_partial_order_on_degree_5():
    fives = partitions_of(5)
    for la in fives:
        assert dominance_leq(la, la)
    for la in fives:
        for mu in fives:
            if dominance_leq(la, mu) and dominance_leq(mu, la):
                assert la == mu
            for nu in fives:
                if dominance_leq(la, mu) and dominance_leq(mu, nu):
                    assert dominance_leq(la, nu)


def test_dominance_antitone_under_conjugation():
    for la in partitions_of(6):
        for mu in partitions_of(6):
            assert dominance_leq(la, mu) == dominance_leq(conjugate(mu), conjugate(la))


def test_partitions_of_counts():
    # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(partitions_of(d)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_of_hands_out_a_tuple_no_caller_can_empty():
    from stansym.permutation import Permutation
    from stansym.stanley import stanley_fn
    from stansym.symfunc import SymFunc

    assert type(partitions_of(3)) is tuple
    with pytest.raises(AttributeError):
        partitions_of(3).clear()
    assert stanley_fn(Permutation([1, 4, 3, 2])) == SymFunc(3, "m", {(2, 1): 1, (1, 1, 1): 2})


def test_bounded_partitions_restrict_largest_part():
    for la in bounded_partitions(3, 6):
        assert not la or la[0] <= 2
    assert set(bounded_partitions(3, 3)) == {(2, 1), (1, 1, 1)}


def test_hook_length_formula_matches_chain_count():
    for d in range(1, 8):
        for la in partitions_of(d):
            assert count_standard_tableaux(la) == count_standard_tableaux_brute(la)


def test_staircase_tableau_counts():
    assert count_standard_tableaux((2, 1)) == 2
    assert count_standard_tableaux(staircase(3)) == 16
    assert count_standard_tableaux(staircase(4)) == 768


def test_partitions_inside_staircase():
    inside = partitions_inside(staircase(3))
    assert len(inside) == 14
    assert all(contains(staircase(3), la) for la in inside)


@given(st.lists(st.integers(0, 5), max_size=6))
def test_sort_composition_gives_a_partition(alpha):
    la = sort_composition(alpha)
    assert la == as_partition(la)
    assert sorted(p for p in alpha if p) == sorted(la)


def test_sparse_rearrangements():
    assert set(sparse_rearrangements((2, 1), 3)) == {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2),
    }
    assert sparse_rearrangements((1, 1), 2) == [(1, 1)]


def _all_orderings(parts):
    """The distinct rearrangements of ``parts``, from all len(parts)! orderings."""
    return sorted(set(permutations(parts)))


def test_sparse_rearrangements_and_orbits_equal_the_set_of_all_orderings():
    for length in range(8):
        for d in range(8):
            for la in partitions_of(d):
                if len(la) <= length:
                    assert sparse_rearrangements(la, length) == _all_orderings(la + (0,) * (length - len(la)))
    # coroot vectors: every multiset of at most 7 entries in -3..3 that sums to 0
    for length in range(1, 8):
        for coords in combinations_with_replacement(range(-3, 4), length):
            if sum(coords) == 0:
                assert CorootVector(coords).orbit() == _all_orderings(coords), coords


def test_a_13_entry_vector_with_11_equal_entries_gives_its_156_rearrangements_at_once():
    # all 13! = 6.2e9 orderings would take hours; the distinct ones are 13 * 12
    def placed(a, b):
        return sorted(
            tuple(a if k == i else b if k == j else 0 for k in range(13))
            for i in range(13) for j in range(13) if i != j
        )

    assert len(placed(2, 1)) == 156
    assert sparse_rearrangements((2, 1), 13) == placed(2, 1)
    assert CorootVector((1, -1) + (0,) * 11).orbit() == placed(1, -1)
