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
