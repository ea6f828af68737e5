"""Seeded op lists for the benchmark workloads.

Everything here runs in the parent process and uses only the standard
library, so generating inputs warms no cache in the measured child.  An op is
a JSON object of plain integers; ``child.py`` turns it into stansym calls.
"""

import random
from functools import lru_cache
from itertools import permutations
from math import gcd

WORKLOADS = ("finite_stanley", "sym_basis", "affine_jbasis")

# (n, length, ops) for finite_stanley.  The ops of length 6-8 are many, so
# that the median falls where op costs lie close together; the 90th
# percentile falls among the ops of length 9.
FINITE_PLAN = (
    (5, 4, 6), (5, 5, 6), (5, 6, 16), (5, 7, 12), (5, 8, 6), (5, 9, 3),
    (6, 4, 8), (6, 5, 24), (6, 6, 30), (6, 7, 30), (6, 8, 30), (6, 9, 10),
    (6, 10, 12), (6, 11, 2),
)

# (degree, ops) for sym_basis: the 90th percentile falls among the degree-8 ops.
SYM_PLAN = ((6, 60), (7, 24), (8, 14), (9, 2))

# (n, max length) for the j-basis ops: every Grassmannian element.
JBASIS_PLAN = ((4, 4), (5, 3))
# (n, length, ops) for affine_schur_expand + chevalley ops.
AFFINE_PLAN = tuple((n, ell, 6) for n in (3, 4, 5) for ell in range(2, 7))


# -- finite permutations ------------------------------------------------------


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


@lru_cache(maxsize=None)
def count_reduced_words(w):
    """|R(w)| for a one-line tuple, by #R(w) = sum over right descents."""
    if all(w[i] < w[i + 1] for i in range(len(w) - 1)):
        return 1
    return sum(
        count_reduced_words(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
        for i in range(len(w) - 1)
        if w[i] > w[i + 1]
    )


@lru_cache(maxsize=None)
def _by_length(n):
    out = {}
    for w in permutations(range(1, n + 1)):
        out.setdefault(perm_length(w), []).append(w)
    for ell in out:
        out[ell].sort(key=lambda w: (count_reduced_words(w), w))
    return out


def _spread_sample(rng, pool, k, key):
    """k distinct picks, one for each quantile (j + 1/2)/k of ``pool``.

    ``pool`` is sorted by ``key``.  A pick is drawn among the untaken elements
    whose key is the quantile's, so the seed changes the inputs but not the
    work, which grows with the key; when all of those are taken, the pick is
    the nearest untaken element.
    """
    taken = set()
    picks = []
    for j in range(k):
        centre = int((j + 0.5) * len(pool) / k)
        free = [i for i in range(len(pool)) if i not in taken]
        same = [i for i in free if key(pool[i]) == key(pool[centre])]
        i = rng.choice(same) if same else min(free, key=lambda i: abs(i - centre))
        taken.add(i)
        picks.append(pool[i])
    return picks


def finite_stanley_ops(rng):
    ops = []
    for n, ell, k in FINITE_PLAN:
        for w in sorted(_spread_sample(rng, _by_length(n)[ell], k, count_reduced_words),
                        key=lambda w: (count_reduced_words(w), w)):
            ops.append({"op": "stanley", "w": list(w)})
    return ops


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(d, max_part=None):
    if max_part is None or max_part > d:
        max_part = d
    if d == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(max_part, 0, -1)
        for rest in partitions(d - first, first)
    )


def sym_basis_ops(rng):
    ops = []
    for d, k in SYM_PLAN:
        pool = partitions(d)
        # every partition once per pass, in seeded order, then a seeded remainder
        picks = []
        while len(picks) + len(pool) <= k:
            picks.extend(rng.sample(pool, len(pool)))
        picks.extend(rng.sample(pool, k - len(picks)))
        ops.extend({"op": "sym", "la": list(la)} for la in picks)
    return ops


# -- affine permutations ------------------------------------------------------


def affine_length(n, w):
    """Shi's formula: sum over i < j of |floor((w(j) - w(i)) / n)|."""
    return sum(abs((w[j] - w[i]) // n) for i in range(n) for j in range(i + 1, n))


def _right_mult(n, w, i):
    w = list(w)
    if i:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[0], w[-1] = w[-1] - n, w[0] + n
    return tuple(w)


def random_affine(rng, n, ell):
    """A window of length ``ell``, by a seeded walk that only goes up."""
    w = tuple(range(1, n + 1))
    for step in range(ell):
        ups = [i for i in range(n) if affine_length(n, _right_mult(n, w, i)) == step + 1]
        w = _right_mult(n, w, rng.choice(ups))
    return w


def affine_jbasis_ops(rng):
    ops = [
        {"op": "jbasis", "n": n, "la": list(la)}
        for n, top in JBASIS_PLAN
        for ell in range(top + 1)
        for la in partitions(ell, n - 1)
    ]
    for n, ell, k in AFFINE_PLAN:
        seen = set()
        while len(seen) < k:
            seen.add(random_affine(rng, n, ell))
        for w in sorted(seen):
            ops.append({"op": "affine", "n": n, "w": list(w), "x": rng.randrange(1, n + 1)})
    return ops


def spread_order(ops):
    """Reorder by a golden-ratio stride, so that ops next to each other in the
    plan run far apart in time.

    The machine's speed drifts over seconds.  Spread out, the cheap ops that
    set the median and the costly ones that set the 90th percentile each
    sample the whole round, not one stretch of it.
    """
    m = len(ops)
    step = next(s for s in range(int(m * 0.618), m) if gcd(s, m) == 1)
    return [ops[k * step % m] for k in range(m)]


def make_ops(workload, seed):
    """The op list for one workload and seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "finite_stanley":
        return spread_order(finite_stanley_ops(rng))
    if workload == "sym_basis":
        return spread_order(sym_basis_ops(rng))
    if workload == "affine_jbasis":
        return spread_order(affine_jbasis_ops(rng))
    raise ValueError(f"unknown workload {workload!r}")
