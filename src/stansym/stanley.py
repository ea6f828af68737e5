"""Stanley symmetric functions, affine Stanley symmetric functions, and
their Schur / affine Schur expansions.

F_w is computed by three independent routes.  Compatible pairs on R(w) and
fundamental quasi-symmetric functions on R(w^{-1}) each count reduced words
by ascent or descent set without listing one.  For each element v below w
in the right weak order and each last letter d, the words of R(v) ending in
d are one packed integer, the sum of X^mask over their relation masks with
X = 2^F and F bits per field, so appending a letter is a shift and merging
is an addition.  One zeta transform inside the integer sums every field
over its submasks, and [m_la] F_w is the field at la's partial sums.  The
packed polynomials sit in a memo that every call in the process shares,
bounded by the number of fields it holds.  Decreasing
factorizations are counted by a dynamic program on descents of the inverse
window, which lists once per (window, k) the windows left when a decreasing
element of length k splits off.  The Schur expansion walks the transition
tree, whose expanded nodes every call in the process shares.  The affine
F~_w is counted by dynamic programming over cyclically decreasing
factorizations.  Monomial coefficients are extracted on partitions; the
symmetry of the result is a theorem, and ``check_symmetry`` verifies it on
arbitrary compositions.
"""

from collections import Counter, OrderedDict
from functools import lru_cache
from itertools import combinations

from .affine import cyclically_decreasing_word
from .partition import count_standard_tableaux, partitions_of, staircase
from .permutation import Permutation
from .symfunc import SymFunc, change_basis, fundamental_quasisym
from .tableaux import transition_sides


class _FieldMemo:
    """A least-recently-used memo bounded by the number of fields its entries
    hold, not by their number: an entry of length k holds one polynomial of
    2^(k-1) fields per right descent, so entries differ in size by orders of
    magnitude.  Each entry is a tuple whose first item is its field count."""

    def __init__(self, budget):
        self.budget = budget
        self.fields = 0
        self.entries = OrderedDict()

    def get(self, key):
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def put(self, key, entry):
        fields = entry[0]
        if fields > self.budget or key in self.entries:
            return
        self.entries[key] = entry
        self.fields += fields
        while self.fields > self.budget:
            self.fields -= self.entries.popitem(last=False)[1][0]

    def clear(self):
        self.entries.clear()
        self.fields = 0


# the walk's entries, shared by every call in the process.  2^20 fields hold
# all of S_6 for one relation (1,025,325), or S_6 up to length 11 for both
# (760,410); at 19 bits a field that is 2.4 MB.
_WALK_MEMO = _FieldMemo(1 << 20)


@lru_cache(maxsize=32)
def _field_width(n):
    """Bits per field for walks on S_n.  A field counts words of some R(v),
    before or after the zeta transform, so it is at most #R(v), and
    #R(v) <= #R(w0) for v in S_n: a reduced word of v followed by one of
    v^-1 w0 is a reduced word of w0.  #R(w0) counts the standard tableaux
    of the staircase (Stanley 1984)."""
    return count_standard_tableaux(staircase(n - 1)).bit_length()


def _walk(window, ell, ascents, width):
    """(fields, #R(v), descents, S_1, ..., S_r) for the element v of length
    ``ell`` whose stable window is ``window``: its field count, its number of
    reduced words, the mask of its right descents d_1 < ... < d_r (bit d for
    d), and the partial sums S_i = P_{d_1} + ... + P_{d_i} of its packed
    polynomials.

    P_d(v) is the sum of X^mask over the words of R(v) that end in d, with
    X = 2^width, so each mask owns a field of ``width`` bits.  Bit i-1 of a
    word's mask is set iff letters i and i+1 form an ascent (``ascents``) or
    a descent (otherwise).  A word of v that ends in d is a word of
    u = v s_d followed by d; appending d at position k, for k = ell(v), sets
    bit k-2 of the masks of the words of u that end in a letter related to
    d, which is one shift by width * 2^(k-2) of their sum.  Those words end
    in the descents of u below d (ascents) or above it (descents), so P_d(v)
    is read off u's partial sums with one shift, one subtraction and one
    addition.

    The walk goes down from v one length at a time and stops at entries of
    the shared memo.  It then builds the missing entries bottom-up, holding
    only two lengths of them at once, and offers to the memo each one at
    least two lengths below v.  Only a walk from above an entry reads it
    again, and the top two lengths hold the largest entries with the fewest
    elements above them.  Over the finite_stanley benchmark ops, leaving
    them out keeps 106,760 fields in place of 224,600 for about 3% more
    time; a repeated call rebuilds just those two lengths.
    """
    memo, tag = _WALK_MEMO, (ascents, width)
    top = memo.get(window + tag)
    if top is not None:
        return top
    # from the top: each length's missing windows, with the memo's entries
    # one length below them
    levels, missing, k = [], {window}, ell
    while missing:
        below, hits = set(), {}
        if k > 1:
            for v in missing:
                for d in range(1, len(v)):
                    if v[d - 1] > v[d]:
                        u = _swap(v, d)
                        if u not in below and u not in hits:
                            entry = memo.get(u + tag)
                            if entry is None:
                                below.add(u)
                            else:
                                hits[u] = entry
        levels.append((missing, hits))
        missing, k = below, k - 1
    built = {}
    while levels:
        missing, below = levels.pop()
        k += 1
        below.update(built)
        built = {}
        shift = width << (k - 2) if k > 1 else 0
        for v in missing:
            count, descents, acc, sums = 0, 0, 0, []
            for d in range(1, len(v)):
                if v[d - 1] > v[d]:
                    if k == 1:
                        acc = count = 1
                    else:
                        u = below[_swap(v, d)]
                        i = (u[2] & ((1 << d) - 1)).bit_count()  # u's descents below d
                        lower, total = u[2 + i] if i else 0, u[-1]
                        if ascents:
                            acc += (lower << shift) + total - lower
                        else:
                            acc += ((total - lower) << shift) + lower
                        count += u[1]
                    descents |= 1 << d
                    sums.append(acc)
            built[v] = len(sums) << (k - 1), count, descents, *sums
            if k < ell - 1:
                memo.put(v + tag, built[v])
    return built[window]


def _swap(v, d):
    """The stable window of v s_d."""
    u = v[:d - 1] + (v[d], v[d - 1]) + v[d + 1:]
    while u and u[-1] == len(u):
        u = u[:-1]
    return u


def _histogram(window, ell, ascents):
    """(h, #R(w), width) for w of length ``ell`` with stable window
    ``window``: h = sum of X^mask over R(w), packed in fields of ``width``
    bits."""
    width = _field_width(len(window))
    if not ell:
        return 1, 1, width
    entry = _walk(window, ell, ascents, width)
    return entry[-1], entry[1], width


# the zeta transform's bit masks by (ell, width), bounded by fields in the
# same way: every length of S_6 fits, and a length over 17 builds its masks
# anew on each call (those of S_7 w0 are 20 masks of 2^20 fields)
_MASK_MEMO = _FieldMemo(1 << 20)


def _zeta_masks(ell, width):
    """(fields, M_0, ..., M_{ell-2}): for each bit j < ell - 1, the mask M_j
    of the fields of a length-``ell`` histogram whose mask has bit j clear,
    runs of 2^j fields, every other one."""
    entry = _MASK_MEMO.get((ell, width))
    if entry is None:
        size = width << max(ell - 1, 0)
        masks = []
        for j in range(ell - 1):
            run = width << j
            mask, period = (1 << run) - 1, run << 1
            while period < size:
                mask |= mask << period
                period <<= 1
            masks.append(mask)
        entry = len(masks) << max(ell - 1, 0), *masks
        _MASK_MEMO.put((ell, width), entry)
    return entry


def _zeta_read(h, ell, width):
    """read(mask): the sum of the fields of h, a length-``ell`` histogram in
    fields of ``width`` bits, over the submasks of ``mask``.

    One zeta transform inside the integer does every sum: for each bit j,
    the fields with bit j clear are added to the fields with it set.  The
    result is read from its bytes, so a read costs the same at any length.
    """
    for j, clear in enumerate(_zeta_masks(ell, width)[1:]):
        h += (h & clear) << (width << j)
    data = h.to_bytes((h.bit_length() + 7) // 8, "little")
    low, span = (1 << width) - 1, (width + 14) // 8

    def read(mask):
        start = mask * width
        at = start >> 3
        return int.from_bytes(data[at:at + span], "little") >> (start & 7) & low

    return read


def _subset_sums(window, ell, ascents):
    """read(mask): how many words of R(w) have their relation mask within
    ``mask``, for w of length ``ell`` with stable window ``window``.

    The field of the full mask counts all of R(w), and it is checked against
    #R(w): a field too narrow for its counts cannot match, as its reading
    stays below 2^width <= #R(w).
    """
    h, count, width = _histogram(window, ell, ascents)
    read = _zeta_read(h, ell, width)
    top = read((1 << max(ell - 1, 0)) - 1)
    if top != count:
        raise OverflowError(
            f"fields of {width} bits are too narrow for #R(w) = {count} at w = {window} (read {top})"
        )
    return read


def _partial_sum_mask(alpha):
    """The bits of the partial sums of alpha; the total of alpha is no
    position of a word, so it has no bit."""
    sums = p = 0
    for a in alpha[:-1]:
        p += a
        sums |= 1 << (p - 1)
    return sums


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


@lru_cache(maxsize=1 << 20)
def _count_decreasing_factorizations(window, alpha):
    """Factorizations w = v_1 ... v_r with v_i decreasing of length alpha_i:
    for each split of a first factor of length alpha_1 off w, the
    factorizations of what is left.  S_8 w0 leaves 675,150 entries, under the
    bound; at 2^18 entries that call evicts ones the next partition needs
    again and takes four times as long."""
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
    first and third count words by ascent or descent set in packed
    polynomials, built letter by letter by ``_walk`` with no word listed, and
    read [m_la] F_w after one zeta transform as the field at la's partial
    sums (``_subset_sums``).  Their polynomials are shared through one memo
    bounded by fields, keyed by route, so neither reads the other's work.
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
        read = _subset_sums(w._stable_window(), ell, ascents=True)
    elif method == "quasisym":
        # M_alpha has coefficient 1 in L_D when D lies within the partial
        # sums of alpha and 0 otherwise, so the m-coefficient of the sum of
        # L_Des(a) counts the a whose descent set lies within them.
        read = _subset_sums(w.inverse()._stable_window(), ell, ascents=False)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SymFunc._from_valid(ell, "m", {la: read(_partial_sum_mask(la)) for la in partitions_of(ell)})


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
    """Monomial coefficients agree across rearrangements of each partition:
    every mask of the "original" route's read is the partial-sum mask of one
    composition of ell(w), and its field must equal the first one read for
    the partition the composition sorts to."""
    ell = w.length()
    read = _subset_sums(w._stable_window(), ell, ascents=True)
    seen = {}
    for mask in range(1 << max(ell - 1, 0)):
        cuts = [i for i in range(1, ell) if mask >> (i - 1) & 1]
        la = tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [ell])), reverse=True))
        count = read(mask)
        if seen.setdefault(la, count) != count:
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
