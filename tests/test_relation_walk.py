"""The "original" and "quasisym" routes of F_w count reduced words in packed
polynomials.  The dict walk they replace, its submask sum and the word-list
histogram before them stay here as oracles."""

import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from itertools import accumulate
from operator import gt, lt
from pathlib import Path

import pytest

from stansym import permutation, stanley
from stansym.partition import partitions_of
from stansym.permutation import Permutation, symmetric_group
from stansym.stanley import _partial_sum_mask, check_symmetry_finite, stanley_fn

SRC = Path(stanley.__file__).resolve().parents[1]


def _relation_histogram(window, ascents):
    """{mask: number of reduced words} over R(w), for w the given window.

    Bit i-1 of a word's mask is set iff letters i and i+1 form an ascent
    (``ascents``) or a descent (otherwise).  A reduced word of w ends in a
    right descent d of w, and the rest of it is a reduced word of w s_d.  So
    the walk climbs the lower interval of w in the right weak order from the
    identity, one length at a time, and each element v keeps, for each last
    letter d, the masks of the words of R(v) that end in d.  An ascent d of
    u leads to u s_d in the interval iff it adds an inversion of w: the
    values u(d) < u(d+1) sit in w in the other order.  Appending d at
    position k + 1 to a word ending in c sets bit k - 1 iff (c, d) is
    related.
    """
    n = len(window)
    position = [0] * (n + 1)
    for i, x in enumerate(window, 1):
        position[x] = i
    # the identity's one word is empty; 0 stands for its absent last letter
    layer = {tuple(range(1, n + 1)): {0: {0: 1}}}
    bit = 0  # the bit of the position before the appended letter; none for the first
    while window not in layer:
        above = {}
        for u, by_last in layer.items():
            for d in range(1, n):
                a, b = u[d - 1], u[d]
                if a < b and position[a] > position[b]:
                    masks_d = Counter()
                    for c, masks in by_last.items():
                        related = bit and (c < d if ascents else c > d)
                        for m, x in masks.items():
                            masks_d[m | bit if related else m] += x
                    above.setdefault(u[:d - 1] + (b, a) + u[d + 1:], {})[d] = masks_d
        layer = above
        bit = bit << 1 or 1
    total = Counter()
    for masks in layer[window].values():
        total.update(masks)
    return dict(total)


def _coefficient(histogram, alpha):
    """How many words of the histogram have their mask within the partial
    sums of alpha: the histogram summed over the submasks of the partial-sum
    mask, enumerated by sub = (sub - 1) & sums."""
    sums = _partial_sum_mask(alpha)
    total, sub = 0, sums
    while True:
        total += histogram.get(sub, 0)
        if not sub:
            return total
        sub = (sub - 1) & sums


def _position_sets(words, relation):
    """How many words have each set {i : relation(word[i-1], word[i])}."""
    return Counter(
        frozenset(i for i in range(1, len(word)) if relation(word[i - 1], word[i]))
        for word in words
    )


def _count_within(histogram, alpha):
    """How many words of the histogram have their set within the partial sums
    of alpha (the sets lie in 1..l-1, so the total l may be among the sums)."""
    sums = set(accumulate(alpha))
    return sum(c for positions, c in histogram.items() if positions <= sums)


def _oracle(w, method):
    if method == "original":
        histogram = _position_sets(w.reduced_words(), lt)
    else:
        histogram = _position_sets(w.inverse().reduced_words(), gt)
    coeffs = {la: _count_within(histogram, la) for la in partitions_of(w.length())}
    return {la: c for la, c in coeffs.items() if c}


def _as_masks(histogram):
    return {sum(1 << (i - 1) for i in positions): c for positions, c in histogram.items()}


def _packed(histogram, width):
    return sum(c << (width * m) for m, c in histogram.items())


def _unpacked(h, width):
    low, fields, m = (1 << width) - 1, {}, 0
    while h:
        if h & low:
            fields[m] = h & low
        h >>= width
        m += 1
    return fields


def _sample():
    s6 = random.Random(11).sample(symmetric_group(6), 60)
    return symmetric_group(5) + s6 + [Permutation.longest(6)]


def test_walk_matches_the_word_list_oracle():
    try:
        for w in _sample():
            for method in ("original", "quasisym"):
                assert stanley_fn(w, method).coeffs == _oracle(w, method), (w, method)
    finally:
        permutation._reduced_words.cache_clear()


def test_walk_histogram_is_the_word_list_histogram():
    try:
        for w in symmetric_group(5):
            for window, relation in ((w.window, lt), (w.inverse().window, gt)):
                want = _as_masks(_position_sets(Permutation(window).reduced_words(), relation))
                assert _relation_histogram(window, relation is lt) == want, (w, relation)
    finally:
        permutation._reduced_words.cache_clear()


def test_packed_polynomials_read_field_by_field_are_the_dict_histogram():
    for n in range(1, 7):
        for w in symmetric_group(n):
            for v, ascents in ((w, True), (w.inverse(), False)):
                want = _relation_histogram(v.window, ascents)
                h, count, width = stanley._histogram(v._stable_window(), v.length(), ascents)
                assert _unpacked(h, width) == want, (v, ascents)
                assert count == sum(want.values()) < 1 << width, (v, ascents)


def _rearrangements(la):
    """The distinct rearrangements of ``la``, from all len(la)! orderings."""
    from itertools import permutations as itp
    return {tuple(p) for p in itp(la)}


def test_distinct_rearrangements_are_the_set_of_all_orderings_in_lex_order():
    for d in range(9):
        for la in partitions_of(d):
            assert list(stanley._distinct_rearrangements(la)) == sorted(_rearrangements(la)), la


def _oracle_symmetric(histogram, ell):
    for la in partitions_of(ell):
        base = _count_within(histogram, la)
        if any(_count_within(histogram, alpha) != base for alpha in _rearrangements(la)):
            return False
    return True


def test_symmetry_check_on_the_walk_agrees_with_the_oracle_on_s5(monkeypatch):
    try:
        for w in symmetric_group(5):
            histogram = _position_sets(w.reduced_words(), lt)
            assert check_symmetry_finite(w) == _oracle_symmetric(histogram, w.length()) is True
        # one extra word with ascent set {1} breaks the symmetry, and both see it
        w = Permutation([3, 2, 4, 1])
        histogram = _position_sets(w.reduced_words(), lt)
        histogram[frozenset({1})] += 1
        packed = _packed(_as_masks(histogram), 8), sum(histogram.values()), 8
        monkeypatch.setattr(stanley, "_histogram", lambda window, ell, ascents: packed)
        assert check_symmetry_finite(w) is _oracle_symmetric(histogram, w.length()) is False
    finally:
        permutation._reduced_words.cache_clear()


def _random_composition(rng, ell):
    cuts = sorted(rng.sample(range(1, ell), rng.randint(0, ell - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [ell]))


def test_zeta_read_is_the_submask_sum_on_random_histograms_and_compositions():
    rng = random.Random(5)
    width = 16
    for ell in range(1, 14):
        masks = range(1 << max(ell - 1, 0))
        histogram = {m: rng.randint(1, 9) for m in rng.sample(masks, min(40, len(masks)))}
        read = stanley._zeta_read(_packed(histogram, width), ell, width)
        for alpha in list(partitions_of(ell)) + [_random_composition(rng, ell) for _ in range(30)]:
            assert read(_partial_sum_mask(alpha)) == _coefficient(histogram, alpha), (ell, alpha)
        for m in masks:  # every composition of ell
            assert read(m) == sum(c for x, c in histogram.items() if not x & ~m), (ell, m)


def test_coefficient_sums_the_submasks_of_the_partial_sums():
    histogram = {0b000: 1, 0b001: 2, 0b100: 4, 0b101: 8, 0b010: 16}
    read = stanley._zeta_read(_packed(histogram, 8), 4, 8)
    for alpha, want in (((4,), 1), ((1, 3), 1 + 2), ((1, 2, 1), 1 + 2 + 4 + 8), ((2, 2), 1 + 16)):
        assert _coefficient(histogram, alpha) == want == read(_partial_sum_mask(alpha)), alpha
    assert _coefficient({0: 1}, ()) == 1 == stanley._zeta_read(1, 0, 8)(0)


def test_a_warm_memo_gives_the_same_f_w_as_a_cleared_one():
    sample = random.Random(19).sample(symmetric_group(6), 60)
    memo = stanley._WALK_MEMO
    try:
        cold = []
        for w in sample:
            memo.clear()
            cold.append([stanley_fn(w, method) for method in ("original", "quasisym")])
        memo.clear()
        warm = [[stanley_fn(w, method) for method in ("original", "quasisym")] for w in sample]
        assert warm == cold
        assert 0 < memo.fields <= memo.budget
    finally:
        memo.clear()


def test_a_field_one_bit_too_narrow_raises(monkeypatch):
    width = stanley._field_width
    monkeypatch.setattr(stanley, "_field_width", lambda n: width(n) - 1)
    try:
        for method in ("original", "quasisym"):
            with pytest.raises(OverflowError, match="too narrow"):
                stanley_fn(Permutation.longest(5), method)
    finally:
        stanley._WALK_MEMO.clear()


def _raise(*args, **kwargs):
    raise AssertionError("a reduced word list was built")


def test_both_routes_list_no_reduced_word(monkeypatch):
    monkeypatch.setattr(Permutation, "reduced_words", _raise)
    monkeypatch.setattr(permutation, "_reduced_words", _raise)
    for w in symmetric_group(4) + [Permutation([3, 1, 6, 5, 2, 4]), Permutation.longest(6)]:
        want = stanley_fn(w, "decreasing")
        assert stanley_fn(w, "original") == want == stanley_fn(w, "quasisym"), w


S7_SAMPLE = """
import json, random, sys
from stansym import stanley
from stansym.permutation import Permutation, symmetric_group
from stansym.stanley import stanley_fn

rng = random.Random(7)
by_length = {}
for w in symmetric_group(7):
    by_length.setdefault(w.length(), []).append(w)
sample = [w for l in sorted(by_length) for w in rng.sample(by_length[l], min(2, len(by_length[l])))]
memo = stanley._WALK_MEMO
over = 0
for w in sample:
    want = stanley_fn(w, "decreasing")
    for method in ("original", "quasisym"):
        if stanley_fn(w, method) != want:
            sys.exit(f"{method} disagrees with decreasing at {w}")
        over = max(over, memo.fields - memo.budget)
recount = sum(
    entry[2].bit_count() << (Permutation(key[:-2]).length() - 1) for key, entry in memo.entries.items()
)
print(json.dumps({
    "elements": len(sample), "top_length": max(w.length() for w in sample),
    "fields": memo.fields, "recount": recount, "budget": memo.budget, "over": over,
}))
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture(scope="module")
def s7_sample():
    proc = subprocess.run(
        [sys.executable, "-c", S7_SAMPLE], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_s7_sample_up_to_length_21_agrees_with_decreasing_under_1_gib(s7_sample):
    assert (s7_sample["elements"], s7_sample["top_length"]) == (42, 21)


def test_memo_fields_stay_within_the_budget_through_s7_w0(s7_sample):
    assert s7_sample["over"] <= 0
    assert 0 < s7_sample["fields"] == s7_sample["recount"] <= s7_sample["budget"]
