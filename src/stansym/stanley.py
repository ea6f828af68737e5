"""Stanley symmetric functions, affine Stanley symmetric functions, and
their Schur / affine Schur expansions.

F_w is computed by three independent routes.  Compatible pairs on R(w) and
fundamental quasi-symmetric functions on R(w^{-1}) each read a histogram of
ascent or descent sets, counted letter by letter over the right weak order
below w without listing a word, and sum it over the submasks of each
partition's partial sums, from one table per length.  Decreasing
factorizations are counted by a dynamic program on descents of the inverse
window, which lists once per (window, k) the windows left when a decreasing
element of length k splits off.  The Schur expansion walks the transition
tree, whose expanded nodes every call in the process shares.  The affine
F~_w is counted by dynamic programming over cyclically decreasing
factorizations.  Monomial coefficients are extracted on partitions; the
symmetry of the result is a theorem, and ``check_symmetry`` verifies it on
arbitrary compositions.
"""

from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations, repeat

from .affine import cyclically_decreasing_word
from .partition import partitions_of
from .permutation import Permutation
from .symfunc import SymFunc, change_basis, fundamental_quasisym
from .tableaux import transition_sides


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
    related.  Only two lengths of histograms are held at once, and each one
    is dropped as soon as it is read.
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
        while layer:
            u, by_last = layer.popitem()
            for d in range(1, n):
                a, b = u[d - 1], u[d]
                if a < b and position[a] > position[b]:
                    masks_d = {}
                    get = masks_d.get
                    for c, masks in by_last.items():
                        if bit and (c < d if ascents else c > d):
                            for m, x in masks.items():
                                m |= bit
                                masks_d[m] = get(m, 0) + x
                        elif masks_d:
                            for m, x in masks.items():
                                masks_d[m] = get(m, 0) + x
                        else:
                            masks_d.update(masks)
                    v = u[:d - 1] + (b, a) + u[d + 1:]
                    if v in above:
                        above[v][d] = masks_d
                    else:
                        above[v] = {d: masks_d}
        layer = above
        bit = bit << 1 or 1
    total = {}
    by_last = layer.pop(window)
    while by_last:
        masks = by_last.popitem()[1]
        get = total.get
        for m, x in masks.items():
            total[m] = get(m, 0) + x
    return total


def _partial_sum_mask(alpha):
    """The bits of the partial sums of alpha; the total of alpha is no
    position of a word, so it has no bit."""
    sums = p = 0
    for a in alpha[:-1]:
        p += a
        sums |= 1 << (p - 1)
    return sums


def _coefficient(histogram, alpha):
    """How many words of the histogram have their mask within the partial
    sums of alpha: the histogram summed over the submasks of the partial-sum
    mask, enumerated by sub = (sub - 1) & sums."""
    sums = _partial_sum_mask(alpha)
    get = histogram.get
    total, sub = 0, sums
    while True:
        total += get(sub, 0)
        if not sub:
            return total
        sub = (sub - 1) & sums


@lru_cache(maxsize=32)
def _submask_table(ell):
    """((la, submasks), ...) over the partitions la of ell: the submasks of
    la's partial-sum mask, enumerated once per ell and read by every
    histogram of that length.  They are held in 4-byte arrays, as there are
    nearly 2^(ell-1) of them (3.6 million at ell = 21)."""
    table = []
    for la in partitions_of(ell):
        sums = _partial_sum_mask(la)
        subs, sub = array("I", [sums]), sums
        while sub:
            sub = (sub - 1) & sums
            subs.append(sub)
        table.append((la, subs))
    return tuple(table)


def _m_coefficients(histogram, ell):
    """{la: _coefficient(histogram, la)} over the partitions la of ell."""
    get, zeros = histogram.get, repeat(0)
    return {la: sum(map(get, subs, zeros)) for la, subs in _submask_table(ell)}


@lru_cache(maxsize=256)
def _decreasing_elements(n, k):
    """Decreasing words a_1 > ... > a_k over 1..n-1, one per k-subset."""
    return tuple(combinations(range(n - 1, 0, -1), k))


@lru_cache(maxsize=4096)
def _decreasing_splits(window, k):
    """The windows of v^-1 w over the decreasing v of length k that split off
    w = ``window`` length-additively.

    v = s_{a_1} ... s_{a_k} splits off w iff each a_j is a left descent of
    s_{a_{j-1}} ... s_{a_1} w when it is reached.  On the inverse window pos,
    a is a left descent of u iff pos[a] > pos[a+1], and s_a u swaps those two
    entries.
    """
    n = len(window)
    inverse = [0] * (n + 1)
    for i, x in enumerate(window, 1):
        inverse[x] = i
    tails = []
    for word in _decreasing_elements(n, k):
        pos = inverse[:]
        for a in word:
            if pos[a] < pos[a + 1]:
                break
            pos[a], pos[a + 1] = pos[a + 1], pos[a]
        else:
            tail = [0] * n
            for x in range(1, n + 1):
                tail[pos[x] - 1] = x
            tails.append(tuple(tail))
    return tuple(tails)


@lru_cache(maxsize=None)
def _count_decreasing_factorizations(window, alpha):
    """Factorizations w = v_1 ... v_r with v_i decreasing of length alpha_i:
    for each split of a first factor of length alpha_1 off w, the
    factorizations of what is left."""
    if not alpha:
        return 1 if window == tuple(range(1, len(window) + 1)) else 0
    rest, total = alpha[1:], 0
    for tail in _decreasing_splits(window, alpha[0]):
        total += _count_decreasing_factorizations(tail, rest)
    return total


def stanley_fn(w, method="decreasing"):
    """The Stanley symmetric function F_w in the m basis.

    ``method`` selects one of the three equivalent definitions: "original"
    (compatible pairs on R(w)), "decreasing" (decreasing factorizations), or
    "quasisym" (fundamental quasi-symmetric functions on R(w^{-1})).  The
    first and third count words by ascent or descent set with
    ``_relation_histogram``, which walks reduced words letter by letter and
    lists none of them.
    """
    ell = w.length()
    if method == "decreasing":
        return SymFunc._from_valid(ell, "m", {
            la: _count_decreasing_factorizations(w.window, la)
            for la in partitions_of(ell)
        })
    if method == "original":
        # A compatible pair (a, b) has a in R(w) and b weakly increasing,
        # strict at the ascents of a.  The b of content alpha is unique and
        # strict exactly at the partial sums of alpha, so x^alpha counts the
        # a whose ascent set lies within them.
        histogram = _relation_histogram(w.window, ascents=True)
    elif method == "quasisym":
        # M_alpha has coefficient 1 in L_D when D lies within the partial
        # sums of alpha and 0 otherwise, so the m-coefficient of the sum of
        # L_Des(a) counts the a whose descent set lies within them.
        histogram = _relation_histogram(w.inverse().window, ascents=False)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SymFunc._from_valid(ell, "m", _m_coefficients(histogram, ell))


def stanley_quasisym(w):
    """F_w as an honest quasi-symmetric sum of L_Des(a), a in R(w^{-1})."""
    total = None
    for word in w.inverse().reduced_words():
        descents = {i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]}
        L = fundamental_quasisym(descents, w.length())
        total = L if total is None else total + L
    if total is None:
        total = fundamental_quasisym(set(), 0)
    return total


def check_symmetry_finite(w):
    """Monomial coefficients agree across rearrangements of each partition."""
    histogram = _relation_histogram(w.window, ascents=True)  # the "original" route's
    for la, base in _m_coefficients(histogram, w.length()).items():
        for alpha in _rearrangements(la):
            if _coefficient(histogram, alpha) != base:
                return False
    return True


def _rearrangements(la):
    from itertools import permutations as itp
    return {tuple(p) for p in itp(la)}


def schur_expand(w):
    """F_w in the Schur basis, by the Lascoux-Schutzenberger transition tree.

    A vexillary w is a leaf: F_w = s_{lambda(w)} (Stanley 1984).  Otherwise
    let r be the last descent of w, s the largest j > r with w(j) < w(r), and
    v = w t_{rs}.  The transition identity at (v, r) has w as its only left
    term, so F_w is the sum of F_u over the covers u = v t_{ir} with i < r,
    or, when there are none, F_u for u = (1 x v) t_{1,r+1}.  The coefficients
    count Edelman-Greene tableaux for w^{-1}; ``eg_tableaux_by_shape`` counts
    them directly and is the cross-check in the tests and ``stansym verify``.
    ``_transition_tree`` keeps the expanded nodes, up to 8192 of them, keyed
    on the window without its trailing fixed points, and every call in the
    process shares them.
    """
    return SymFunc._from_valid(w.length(), "s", _transition_tree(w._stable_window()))


@lru_cache(maxsize=8192)
def _transition_tree(key):
    """{la: [s_la] F_u} for u the permutation whose stable window is ``key``;
    the dict is shared, so callers only read it."""
    u = Permutation(key)
    if u.is_vexillary():
        return {u.shape(): 1}
    r = u.right_descents()[-1]
    s = max(j for j in range(r + 1, u.n + 1) if u(j) < u(r))
    v = u.transposition_right(r, s)
    left, right, extra = transition_sides(v, r)
    if left != [u]:
        raise AssertionError(
            f"transition tree at {u}: the left side at (v, r) = ({v}, {r}) is {left}, not [{u}]"
        )
    out = Counter()
    for child in right if extra is None else right + [extra]:
        out.update(_transition_tree(child._stable_window()))
    return dict(out)


# -- affine -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclically_decreasing_elements(n, k):
    """Cyclically decreasing words of length k over Z/nZ, one per k-subset."""
    if k >= n:
        return ()
    return tuple(
        cyclically_decreasing_word(n, subset) for subset in combinations(range(n), k)
    )


@lru_cache(maxsize=None)
def _count_cyclic_factorizations(n, window, alpha):
    """Factorizations into cyclically decreasing factors of lengths alpha.

    v = s_{a_1} ... s_{a_k} splits off w length-additively iff each a_j is a
    left descent of s_{a_{j-1}} ... s_{a_1} w when it is reached.  Keep the
    inverse as shifts, u^-1(t) = t + shift[t mod n]: a is a left descent of
    u iff shift[a] > 1 + shift[a+1], and s_a u exchanges u^-1(a) and
    u^-1(a+1).
    """
    if not alpha:
        return 1 if window == tuple(range(1, n + 1)) else 0
    k, rest = alpha[0], alpha[1:]
    inverse = [0] * n
    for p, x in enumerate(window, 1):
        inverse[x % n] = p - x
    total = 0
    for word in _cyclically_decreasing_elements(n, k):
        shift = inverse[:]
        for a in word:
            b = (a + 1) % n
            if shift[a] <= 1 + shift[b]:
                break
            shift[a], shift[b] = shift[b] + 1, shift[a] - 1
        else:
            # the tail sends p = t + shift[t mod n] back to t
            tail = [0] * n
            for t in range(1, n + 1):
                q, r = divmod(t + shift[t % n] - 1, n)
                tail[r] = t - q * n
            total += _count_cyclic_factorizations(n, tuple(tail), rest)
    return total


def affine_stanley(w):
    """The affine Stanley symmetric function F~_w in the m basis."""
    n, ell = w.n, w.length()
    coeffs = {}
    for la in partitions_of(ell, n - 1):
        c = _count_cyclic_factorizations(n, w.window, la)
        if c:
            coeffs[la] = c
    return SymFunc._from_valid(ell, "m", coeffs)


def affine_stanley_coefficient(w, alpha):
    """Coefficient of x^alpha in F~_w for an arbitrary composition alpha."""
    alpha = tuple(a for a in alpha if a)
    return _count_cyclic_factorizations(w.n, w.window, alpha)


def check_symmetry_affine(w):
    for la in partitions_of(w.length(), w.n - 1):
        base = _count_cyclic_factorizations(w.n, w.window, la)
        for alpha in _rearrangements(la):
            if affine_stanley_coefficient(w, alpha) != base:
                return False
    return True


def affine_schur_expand(w):
    """F~_w in the affine Schur basis, by an exact change of basis."""
    return change_basis(affine_stanley(w), "affineSchur", w.n)


def coproduct_check(w):
    """True iff Delta F~_w equals the sum of F~_u (x) F~_v over length-additive
    factorizations w = u v."""
    from .symfunc import coproduct

    lhs = coproduct(affine_stanley(w))
    # enumerate u by length; v = u^{-1} w
    from .affine import elements_of_length

    rhs = {}
    for lu in range(w.length() + 1):
        for u in elements_of_length(w.n, lu):
            v = u.inverse() * w
            if v.length() != w.length() - lu:
                continue
            fu = change_basis(affine_stanley(u), "h")
            fv = change_basis(affine_stanley(v), "h")
            for la, ca in fu.coeffs.items():
                for mu, cb in fv.coeffs.items():
                    rhs[(la, mu)] = rhs.get((la, mu), 0) + ca * cb
    rhs = {k: c for k, c in rhs.items() if c}
    return lhs == rhs


def transition_check(w, r):
    """Verify the transition identity at (w, r) via Stanley symmetric functions."""
    left, right, extra = transition_sides(w, r)
    lhs = SymFunc.zero(w.length() + 1)
    for u in left:
        lhs = lhs + stanley_fn(u)
    rhs = SymFunc.zero(w.length() + 1)
    for v in right:
        rhs = rhs + stanley_fn(v)
    if extra is not None:
        rhs = rhs + stanley_fn(extra)
    return lhs == rhs
