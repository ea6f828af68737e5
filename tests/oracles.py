"""Slow definitions that more than one test file checks the package against.

Not collected by pytest (the name does not start with ``test_``); test files
import it as ``oracles``.
"""

from functools import lru_cache

from stansym.affine import AffinePermutation
from stansym.partition import as_partition


@lru_cache(maxsize=None)
def _chains(shape):
    """Saturated chains from () up to ``shape`` in Young's lattice."""
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = shape[:i] + (shape[i] - 1,) + shape[i + 1:]
            while smaller and smaller[-1] == 0:
                smaller = smaller[:-1]
            total += _chains(smaller)
    return total


def count_standard_tableaux_brute(la):
    """Standard-tableau count by direct enumeration of growth chains."""
    return _chains(as_partition(la))


def from_finite(w, n=None):
    """Image of a finite permutation under S_n -> S~_n."""
    if n is None:
        n = max(w.n, 3)
    return AffinePermutation(n, w.embed(n).window)


def horizontal_strips(la, k):
    """Partitions nu inside ``la`` such that la/nu is a horizontal strip of k
    cells, one recursive generator call per row: row i may lose at most
    la[i] - la[i+1] cells, so no two removed cells share a column."""
    if not la:
        if k == 0:
            yield ()
        return
    nxt = la[1] if len(la) > 1 else 0
    for r in range(min(k, la[0] - nxt) + 1):
        row = la[0] - r  # 0 only in the last row, where the tail is ()
        for tail in horizontal_strips(la[1:], k - r):
            yield ((row,) + tail) if row else ()


@lru_cache(maxsize=None)
def kostka_by_strips(shape, content):
    """K(shape, content), peeling the horizontal strip of the largest entry
    with the strips drawn afresh from ``horizontal_strips`` on every call."""
    if not content:
        return 1
    if len(shape) > len(content):
        return 0
    rest = content[:-1]
    return sum(kostka_by_strips(inner, rest) for inner in horizontal_strips(shape, content[-1]))
