"""Partitions and compositions.

Partitions are stored as tuples of weakly decreasing positive integers with
no trailing zeros.  Compositions are tuples of nonnegative integers and may
contain internal zeros (codes of permutations do).
"""

from functools import lru_cache
from itertools import accumulate, permutations
from math import prod
from operator import index, le


def as_partition(parts):
    """Validate and normalize an iterable of parts into a partition tuple."""
    la = tuple(map(index, parts))
    while la and la[-1] == 0:
        la = la[:-1]
    if any(p <= 0 for p in la):
        raise ValueError(f"partition parts must be positive: {la}")
    if any(la[i] < la[i + 1] for i in range(len(la) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {la}")
    return la


def sort_composition(alpha):
    """Partition obtained by sorting the nonzero parts decreasingly."""
    return tuple(sorted((p for p in alpha if p), reverse=True))


def conjugate(la):
    """Column lengths of the Young diagram of ``la``."""
    la = as_partition(la)
    if not la:
        return ()
    return tuple(sum(1 for p in la if p > j) for j in range(la[0]))


def dominance_leq(la, mu):
    """True iff ``la`` is below ``mu`` in dominance order.

    Both partitions must have the same size; comparing across degrees is a
    caller bug and raises.
    """
    la, mu = as_partition(la), as_partition(mu)
    if sum(la) != sum(mu):
        raise ValueError(f"dominance compares partitions of equal size: {la} vs {mu}")
    return _dominated(la, mu)


def _dominated(la, mu):
    """``dominance_leq`` for valid partitions of one size, unchecked.

    Every partial sum of ``la`` is at most that of ``mu``; a shorter ``la``
    reaches the full size first, so it is never below.
    """
    return len(la) >= len(mu) and all(map(le, accumulate(la), accumulate(mu)))


def hooks(la):
    """Hook lengths of every cell of ``la``, row by row."""
    la = as_partition(la)
    conj = conjugate(la)
    return [[la[i] - j + conj[j] - i - 1 for j in range(la[i])] for i in range(len(la))]


def count_standard_tableaux(la):
    """Number of standard Young tableaux of shape ``la``, by hook lengths."""
    la = as_partition(la)
    n = sum(la)
    num = prod(range(1, n + 1))
    den = prod(h for row in hooks(la) for h in row)
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"hook-length product {den} does not divide {n}! for {la}")
    return q


@lru_cache(maxsize=1 << 12)
def partitions_of(d, max_part=None):
    """All partitions of ``d`` with parts at most ``max_part``, reverse-lex (a shared tuple)."""
    if max_part is None or max_part > d:
        max_part = d
    if d == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in partitions_of(d - first, first)
    )


def bounded_partitions(n, d):
    """All partitions of ``d`` with first part at most ``n - 1``, reverse-lex."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return list(partitions_of(d, n - 1))


def staircase(m):
    """The staircase partition (m, m-1, ..., 1)."""
    return tuple(range(m, 0, -1))


def contains(la, mu):
    """True iff the diagram of ``mu`` fits inside the diagram of ``la``."""
    la, mu = as_partition(la), as_partition(mu)
    return len(mu) <= len(la) and all(mu[i] <= la[i] for i in range(len(mu)))


def partitions_inside(la):
    """All partitions contained in ``la``, reverse-lex within each degree."""
    la = as_partition(la)
    out = []
    for d in range(sum(la) + 1):
        out.extend(mu for mu in partitions_of(d) if contains(la, mu))
    return out


def sparse_rearrangements(la, length):
    """Distinct vectors of the given length whose nonzero parts are ``la``.

    Used for multiplying monomial symmetric functions: each vector is a
    composition with zeros allowed anywhere.
    """
    la = as_partition(la)
    if len(la) > length:
        return []
    padded = la + (0,) * (length - len(la))
    return sorted(set(permutations(padded)))
