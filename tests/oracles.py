"""Slow definitions that more than one test file checks the package against.

Not collected by pytest (the name does not start with ``test_``); test files
import it as ``oracles``.
"""

from functools import lru_cache

from stansym.affine import AffinePermutation
from stansym.partition import as_partition
from stansym.permutation import Permutation
from stansym.tableaux import transition_sides


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


@lru_cache(maxsize=None)
def transition_tree_by_objects(key):
    """{la: [s_la] F_u} for u the permutation whose stable window is ``key``,
    by the transition tree on validated ``Permutation``s: each node, v, and
    every term of the identity at (v, r) is an object, and the sides come
    from the public ``transition_sides``."""
    u = Permutation(key)
    if u.is_vexillary():
        return {u.shape(): 1}
    r = u.right_descents()[-1]
    s = max(j for j in range(r + 1, u.n + 1) if u(j) < u(r))
    v = u.transposition_right(r, s)
    left, right, extra = transition_sides(v, r)
    if left != [u]:
        raise AssertionError(f"transition tree at {u}: the left side at ({v}, {r}) is {left}")
    out = {}
    for child in right if extra is None else right + [extra]:
        for la, c in transition_tree_by_objects(child._stable_window()).items():
            out[la] = out.get(la, 0) + c
    return out
