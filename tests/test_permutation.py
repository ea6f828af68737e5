"""Finite symmetric group: codes, reduced words, pattern classes."""

import random
from itertools import combinations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from stansym.permutation import (
    Permutation,
    _reduced_words,
    count_reduced_words,
    from_code,
    is_reduced,
    symmetric_group,
)

s4_elements = st.sampled_from(list(symmetric_group(4)))


def test_one_line_constructor_validates():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])


def test_identity_and_simple():
    e = Permutation.identity(3)
    assert e.is_identity() and e.length() == 0
    s1 = Permutation.simple(1, 3)
    assert s1.window == (2, 1, 3)
    assert (s1 * s1).is_identity()


@given(s4_elements, s4_elements)
def test_product_and_length_subadditivity(u, v):
    uv = u * v
    assert uv.length() <= u.length() + v.length()
    assert (uv.length() - u.length() - v.length()) % 2 == 0


@given(s4_elements)
def test_inverse(w):
    assert (w * w.inverse()).is_identity()
    assert w.inverse().length() == w.length()


def test_code_round_trip_s4():
    for w in symmetric_group(4):
        assert from_code(w.code()) == w
        assert sum(w.code()) == w.length()


@given(st.lists(st.integers(0, 4), max_size=5))
def test_from_code_inverts_code(c):
    # any finitely supported sequence is the code of a unique permutation
    w = from_code(tuple(c))
    assert sum(w.code()) == sum(c) == w.length()
    assert from_code(w.code()) == w


def test_longest_element():
    w0 = Permutation.longest(4)
    assert w0.window == (4, 3, 2, 1)
    assert w0.length() == 6
    assert len(w0.reduced_words()) == 16


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n + 1), st.lists(st.integers(1, n), max_size=12))
))
def test_from_word_is_the_product_of_simple_transpositions(case):
    n, word = case
    product = Permutation.identity(n)
    for i in word:
        product = product * Permutation.simple(i, n)
    assert Permutation.from_word(word, n) == product
    assert Permutation.from_word(word, n).n == n


def test_from_word_rejects_out_of_range_letters():
    for word in ((1, 3), (0,), (2, -1)):
        with pytest.raises(ValueError):
            Permutation.from_word(word, 3)


def test_equality_ignores_trailing_fixed_points():
    assert Permutation([2, 1]) == Permutation([2, 1, 3])
    assert hash(Permutation([2, 1])) == hash(Permutation([2, 1, 3]))
    assert Permutation([2, 1, 3]) != Permutation([1, 3, 2])
    assert Permutation([2, 1]) * Permutation([1, 3, 2]) == Permutation([2, 3, 1])


def test_reduced_words_are_the_short_words_for_w():
    # every word of length l(w) over 1..n-1 whose product is w, for all of S_4
    n = 4
    found = {}
    for l in range(7):
        for word in product(range(1, n), repeat=l):
            w = Permutation.from_word(word, n)
            if w.length() == l:
                found.setdefault(w, []).append(word)
    assert len(found) == 24
    for w, words in found.items():
        assert w.reduced_words() == tuple(sorted(words))


def test_reduced_word_is_the_least_of_the_reduced_words():
    try:
        for n in range(7):
            for w in symmetric_group(n):
                assert w.reduced_word() == w.reduced_words()[0]
    finally:
        _reduced_words.cache_clear()  # all of S_6 holds about 170 MB of words


def test_count_reduced_words_matches_the_word_list():
    try:
        for n in range(1, 7):
            for w in symmetric_group(n):
                assert count_reduced_words(w) == len(w.reduced_words()), w
    finally:
        _reduced_words.cache_clear()


def test_count_reduced_words_of_the_longest_element_is_stanleys_formula():
    # (n choose 2)! / prod_{i<n} (2i - 1)^(n - i), Stanley 1984
    for n in range(1, 10):
        want = factorial(comb(n, 2)) // prod((2 * i - 1) ** (n - i) for i in range(1, n))
        assert count_reduced_words(Permutation.longest(n)) == want


def test_reduced_word_counts_s3():
    counts = {w.window: len(w.reduced_words()) for w in symmetric_group(3)}
    assert counts == {
        (1, 2, 3): 1, (2, 1, 3): 1, (1, 3, 2): 1,
        (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): 2,
    }


def test_is_reduced():
    assert is_reduced((1, 2, 1))
    assert not is_reduced((1, 1))
    assert not is_reduced((1, 2, 1, 2))


def test_descents_match_word_endings():
    for w in symmetric_group(4):
        if w.is_identity():
            continue
        assert set(w.right_descents()) == {word[-1] for word in w.reduced_words()}


def test_shape_is_sorted_code_conjugate():
    assert Permutation([2, 4, 3, 1]).shape() == (2, 1, 1)
    assert Permutation.longest(4).shape() == (3, 2, 1)


def test_grassmannian_and_pattern_classes():
    assert Permutation([1, 3, 2]).is_grassmannian()
    assert Permutation([3, 1, 2]).is_grassmannian()
    assert not Permutation([2, 1, 4, 3]).is_grassmannian()
    assert Permutation([2, 4, 3, 1]).is_vexillary()
    assert not Permutation([2, 1, 4, 3]).is_vexillary()


def _contains_2143_by_scan(w):
    """The definition: some positions a < b < c < d with w(b) < w(a) < w(d) < w(c)."""
    v = w.window
    return any(v[b] < v[a] < v[d] < v[c] for a, b, c, d in combinations(range(w.n), 4))


def test_vexillary_test_equals_the_2143_scan():
    for n in range(8):
        for w in symmetric_group(n):
            assert w.is_vexillary() is not _contains_2143_by_scan(w), w


def test_reduced_words_come_out_sorted_and_distinct():
    s6 = random.Random(6).sample(symmetric_group(6), 60)
    try:
        for w in [w for n in range(1, 6) for w in symmetric_group(n)] + s6:
            words = w.reduced_words()
            assert list(words) == sorted(set(words)), w
    finally:
        _reduced_words.cache_clear()


def test_one_times_shifts_letters():
    w = Permutation([2, 4, 3, 1])
    v = w.one_times()
    assert v.window == (1, 3, 5, 4, 2)
    assert sorted(v.reduced_words()) == sorted(
        tuple(i + 1 for i in word) for word in w.reduced_words()
    )


def test_transposition_right():
    w = Permutation([1, 2, 3])
    assert w.transposition_right(1, 3).window == (3, 2, 1)


def test_json_round_trip():
    w = Permutation([3, 1, 4, 2])
    assert Permutation.from_json(w.to_json()) == w


def test_shape_examples():
    assert Permutation([2, 1, 6, 5, 3, 4]).shape() == (4, 2)
    assert Permutation([2, 4, 3, 1]).shape() == (2, 1, 1)
    assert Permutation.identity(3).shape() == ()
