"""Affine symmetric group: windows, codes, translations, Grassmannians."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import from_finite
from stansym.affine import (
    AffinePermutation,
    CorootVector,
    _grassmannian_table,
    _left_raise,
    cyclically_decreasing,
    cyclically_decreasing_word,
    elements_of_length,
    grassmannian_from_partition,
    translation_element,
)
from stansym.partition import bounded_partitions
from stansym.permutation import Permutation, symmetric_group


def theta_coroot(n):
    """The highest coroot (1, 0, ..., 0, -1)."""
    return CorootVector((1,) + (0,) * (n - 2) + (-1,))


def permuted(la, w):
    """Action of a finite permutation on a coroot: (w . la)_{w(i)} = la_i."""
    out = [0] * la.n
    for i in range(la.n):
        out[w(i + 1) - 1] = la.coords[i]
    return CorootVector(out)


def length_via_formula(w, la):
    """Length of w * t_la from the root-pairing formula.

    Sums |<la, a_{ij}> + chi(w . a_{ij})| over finite positive roots, where
    chi is 0 on positive roots and 1 on negative ones.
    """
    n = la.n
    w = w.embed(n)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pairing = la.coords[i - 1] - la.coords[j - 1]
            chi = 0 if w(i) < w(j) else 1
            total += abs(pairing + chi)
    return total


def is_cyclically_decreasing_word(word, n):
    word = [i % n for i in word]
    if len(set(word)) != len(word) or len(word) >= n:
        return False
    pos = {a: i for i, a in enumerate(word)}
    return all((a + 1) % n not in pos or pos[(a + 1) % n] < pos[a] for a in word)


words_rank3 = st.lists(st.integers(0, 2), max_size=6).map(tuple)
coroots = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(
    lambda v: CorootVector(v + [-sum(v)])
)


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation(3, [1, 2, 4])  # residues collide mod 3
    with pytest.raises(ValueError):
        AffinePermutation(3, [1, 2, 9])  # entries must sum to 1 + 2 + 3
    with pytest.raises(ValueError):
        AffinePermutation(2, [1, 2, 3])


def test_rank_below_three_is_allowed_only_when_meaningful():
    # the affine group needs n >= 2; cyclically decreasing needs a proper subset
    with pytest.raises(ValueError):
        cyclically_decreasing(3, (0, 1, 2))


@given(words_rank3, words_rank3)
def test_from_word_is_a_homomorphism(u, v):
    wu = AffinePermutation.from_word(u, 3)
    wv = AffinePermutation.from_word(v, 3)
    assert wu * wv == AffinePermutation.from_word(u + v, 3)


@given(words_rank3)
def test_inverse_and_length(word):
    w = AffinePermutation.from_word(word, 3)
    assert (w * w.inverse()).is_identity()
    assert w.inverse().length() == w.length()
    assert w.length() <= len(word)


def test_code_example():
    w = AffinePermutation(3, [-4, 3, 7])
    assert w.code() == (0, 2, 4)
    assert w.inverse().code() == (0, 5, 1)
    assert w.shape() == (2, 1, 1, 1, 1)
    assert w.length() == 6


def test_code_has_a_zero_and_sums_to_length():
    # code() counts inversions without listing them, length() is Shi's
    # formula on the window
    for n, top in ((3, 5), (4, 5), (5, 4)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                c = w.code()
                assert 0 in c
                assert sum(c) == l == w.length() == len(list(w.inversions()))
                assert c == tuple(sum(1 for i, _ in w.inversions() if i == p) for p in range(1, n + 1))


def test_inversions_match_a_search_of_the_window_shifts():
    # the inversions with a fixed i and j mod n are consecutive shifts of j,
    # at most l(w) of them, so none lies beyond j = i + n * (l + 1)
    for n, top in ((3, 5), (4, 4)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                bound = n * (l + 1)
                brute = {
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(i + 1, i + bound + 1)
                    if w(i) > w(j)
                }
                inversions = list(w.inversions())
                assert len(inversions) == len(brute) and set(inversions) == brute


def test_reduced_words_example():
    w = AffinePermutation(3, [-2, 2, 6])
    assert set(w.reduced_words()) == {(1, 2, 1, 0), (2, 1, 2, 0)}


def test_finite_subgroup_embedding():
    for v in symmetric_group(3):
        w = from_finite(v)
        assert w.is_finite()
        assert Permutation(w.window) == v
        assert w.length() == v.length()
        assert set(w.reduced_words()) == set(v.reduced_words())


def test_s0_is_theta_reflection_times_translation():
    n = 3
    s0 = AffinePermutation.simple(0, n)
    r_theta = from_finite(Permutation([3, 2, 1]), n)
    t = translation_element(-theta_coroot(n))
    assert s0 == r_theta * t


@given(coroots, coroots)
def test_translations_add(la, mu):
    assert translation_element(la) * translation_element(mu) == translation_element(la + mu)


@given(coroots, st.sampled_from(list(symmetric_group(3))))
@settings(max_examples=40)
def test_translation_conjugation(la, v):
    w = from_finite(v, 3)
    assert w * translation_element(la) * w.inverse() == translation_element(permuted(la, v))


def test_length_formula_matches_code_length():
    for v in symmetric_group(3):
        for coords in [(0, 0, 0), (1, 0, -1), (1, -1, 0), (2, -1, -1), (-1, -1, 2)]:
            la = CorootVector(coords)
            w = from_finite(v, 3) * translation_element(la)
            assert w.length() == length_via_formula(v, la)


def test_cyclically_decreasing_words():
    assert cyclically_decreasing_word(4, (0, 1, 3)) == (1, 0, 3)
    assert is_cyclically_decreasing_word((1, 0, 3), 4)
    assert not is_cyclically_decreasing_word((0, 1), 4)
    assert not is_cyclically_decreasing_word((0, 1, 2), 3)
    w = cyclically_decreasing(3, (0, 2))
    assert w.length() == 2


def test_grassmannian_from_partition_round_trip():
    for l in range(6):
        for w in elements_of_length(3, l):
            if w.is_grassmannian():
                assert grassmannian_from_partition(3, w.shape()) == w


@pytest.mark.parametrize("n, top", [(3, 11), (4, 9), (5, 8), (6, 7), (7, 6)])
def test_grassmannian_from_its_residue_word_equals_the_enumerated_one(n, top):
    for d in range(top + 1):
        table = _grassmannian_table(n, d)
        assert sorted(table) == sorted(bounded_partitions(n, d))
        for la in bounded_partitions(n, d):
            assert grassmannian_from_partition(n, la) == table[la], (n, la)
    assert _grassmannian_table.cache_info().maxsize is not None


@pytest.mark.parametrize("wrong", [AffinePermutation.identity(3), AffinePermutation.simple(1, 3)])
def test_grassmannian_from_a_wrong_word_product_raises(monkeypatch, wrong):
    # the identity is too short for (1,); s_1 has length 1 but is not Grassmannian
    monkeypatch.setattr(AffinePermutation, "from_word", staticmethod(lambda word, n: wrong))
    with pytest.raises(AssertionError, match=r"the residue word of \(1,\) \(n=3\)"):
        grassmannian_from_partition(3, (1,))


def test_grassmannian_rejects_unbounded_shapes():
    with pytest.raises(ValueError):
        grassmannian_from_partition(3, (3, 1))


def test_elements_of_length_matches_a_length_filter():
    # the old search: keep every w s_i whose length is one more
    for n in (3, 4, 5):
        level = {AffinePermutation.identity(n)}
        for l in range(7):
            assert elements_of_length(n, l) == tuple(sorted(level, key=lambda w: w.window))
            level = {
                w.right_mult_generator(i)
                for w in level
                for i in range(n)
                if w.right_mult_generator(i).length() == l + 1
            }


def test_left_raise_is_none_exactly_at_the_length_drop():
    for n, top in ((3, 6), (4, 5), (5, 5)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                for i in range(n):
                    v = AffinePermutation.simple(i, n) * w
                    assert _left_raise(i, w.window, n) == (None if v.length() < l else v.window)
    # a window of S_n and a letter 1 <= i < n: the finite left letter
    for n in range(2, 6):
        for w in symmetric_group(n):
            for i in range(1, n):
                v = Permutation.simple(i, n) * w
                assert _left_raise(i, w.window, n) == (None if v.length() < w.length() else v.window)


def test_reduced_word_is_the_least_of_the_reduced_words():
    # R(w) is also the sorted union of R(w s_i) i over the right descents i,
    # the recursion from the right end of the word
    for n, top in ((3, 8), (4, 7), (5, 6)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                words = w.reduced_words()
                assert w.reduced_word() == words[0]
                assert words == (tuple(sorted(
                    word + (i,) for i in w.right_descents() for word in w.right_mult_generator(i).reduced_words()
                )) or ((),))


def test_elements_of_length_counts_rank_3():
    # Poincare series (1+q)(1+q+q^2)/(1-q)^2 expanded through degree 5
    assert [len(elements_of_length(3, l)) for l in range(6)] == [1, 3, 6, 9, 12, 15]


def test_json_round_trip():
    w = AffinePermutation(3, [-2, 2, 6])
    assert AffinePermutation.from_json(w.to_json()) == w


def test_right_mult_generator_and_shape():
    e = AffinePermutation.identity(3)
    assert e.right_mult_generator(0).window == (0, 2, 4)
    w = e
    for i in (2, 1, 2, 0):
        w = w.right_mult_generator(i)
    assert w.window == (-2, 2, 6)
    assert w.right_mult_generator(1).right_mult_generator(1) == w
    assert AffinePermutation(3, [-4, 3, 7]).shape() == (2, 1, 1, 1, 1)
