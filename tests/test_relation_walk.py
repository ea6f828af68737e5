"""The "original" and "quasisym" routes of F_w walk reduced words letter by
letter.  The word-list histogram they replace stays here as the oracle."""

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

from stansym import permutation, stanley
from stansym.partition import partitions_of
from stansym.permutation import Permutation, symmetric_group
from stansym.stanley import _coefficient, _relation_histogram, check_symmetry_finite, stanley_fn

SRC = Path(stanley.__file__).resolve().parents[1]


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


def _oracle_symmetric(histogram, ell):
    for la in partitions_of(ell):
        base = _count_within(histogram, la)
        if any(_count_within(histogram, alpha) != base for alpha in stanley._rearrangements(la)):
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
        monkeypatch.setattr(stanley, "_relation_histogram", lambda window, ascents: _as_masks(histogram))
        assert check_symmetry_finite(w) is _oracle_symmetric(histogram, w.length()) is False
    finally:
        permutation._reduced_words.cache_clear()


def test_submask_table_reads_the_coefficient_of_every_partition():
    rng = random.Random(5)
    for ell in range(1, 12):
        histogram = {m: rng.randint(0, 9) for m in rng.sample(range(1 << (ell - 1)), min(40, 1 << (ell - 1)))}
        want = {la: _coefficient(histogram, la) for la in partitions_of(ell)}
        assert stanley._m_coefficients(histogram, ell) == want, ell


def test_coefficient_sums_the_submasks_of_the_partial_sums():
    histogram = {0b000: 1, 0b001: 2, 0b100: 4, 0b101: 8, 0b010: 16}
    assert _coefficient(histogram, (4,)) == 1
    assert _coefficient(histogram, (1, 3)) == 1 + 2
    assert _coefficient(histogram, (1, 2, 1)) == 1 + 2 + 4 + 8
    assert _coefficient(histogram, (2, 2)) == 1 + 16
    assert _coefficient({0: 1}, ()) == 1


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
from stansym.permutation import symmetric_group
from stansym.stanley import stanley_fn

rng = random.Random(7)
by_length = {}
for w in symmetric_group(7):
    if w.length() <= 18:
        by_length.setdefault(w.length(), []).append(w)
sample = [w for l in sorted(by_length) for w in rng.sample(by_length[l], min(2, len(by_length[l])))]
for w in sample:
    want = stanley_fn(w, "decreasing")
    for method in ("original", "quasisym"):
        if stanley_fn(w, method) != want:
            sys.exit(f"{method} disagrees with decreasing at {w}")
print(json.dumps({"elements": len(sample), "top_length": max(w.length() for w in sample)}))
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_s7_sample_up_to_length_18_agrees_with_decreasing_under_2_gib():
    proc = subprocess.run(
        [sys.executable, "-c", S7_SAMPLE], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"elements": 37, "top_length": 18}
