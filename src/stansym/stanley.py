"""Stanley symmetric functions, affine Stanley symmetric functions, and
their Schur / affine Schur expansions.

F_w is computed by three independent routes.  Compatible pairs on R(w) and
fundamental quasi-symmetric functions on R(w^{-1}) each count reduced words
by ascent or descent set without listing one.  For each element v below w
in the right weak order and each last letter d, the words of R(v) ending in
d are one packed integer, the sum of X^mask over their relation masks with
X = 2^F and F bits per field, so appending a letter is a shift and merging
is an addition.  The walk makes each child v s_d once, on its way down,
and builds v from that list on its way up.  One zeta transform inside the
integer sums every field over its submasks, and [m_la] F_w is the field at
la's partial sums, read from one table of (la, mask) pairs per degree.
The packed polynomials sit in a memo that every call in the process
shares, bounded by the number of fields it holds.

Decreasing factorizations of F_w and cyclically decreasing ones of the
affine F~_w are counted by one dynamic program on the window of w^{-1}
(F~_w = F_w for w in S_n): ``_splits`` lists once per (element list, n,
window, k) the windows left when an element of length k splits off, and
every composition with that first part sums over the list.  The Schur
expansion walks the Lascoux-Schutzenberger transition tree on stable
windows: each node is a tuple, tested for 2143 and read for its shape in
place, and both sides of the transition identity at a node come from one
cover scan over the window (``tableaux._transition_covers``), so no
permutation object is built below the root.  Its expanded nodes are shared
by every call in the process.  Every memo is bounded.  Monomial
coefficients are extracted on partitions; the symmetry of the result is a
theorem, and ``check_symmetry`` verifies it on arbitrary compositions.
"""

from collections import OrderedDict
from functools import lru_cache
from itertools import combinations
from operator import index

from .affine import cyclically_decreasing_word
from .partition import _distinct_rearrangements, count_standard_tableaux, partitions_of, staircase
from .permutation import _is_vexillary, _one_line, _shape, _stable
from .symfunc import SymFunc, change_basis, fundamental_quasisym
from .tableaux import _transition_covers, transition_sides


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


# the identity's entry: no fields held, one reduced word, no descents, and
# its one word, the empty one, of mask 0
_IDENTITY = 0, 1, 0, 1


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
    the shared memo.  On the way it keeps, for each missing window x, the
    list of its children (d, x s_d), each made once by ``_swap``; an
    element of length 1 has the identity as its one child.  It then builds
    the missing entries bottom-up from those lists, holding only two
    lengths of them at once, and offers to the memo each one at least two
    lengths below v.  Only a walk from above an entry reads it again, and
    the top two lengths hold the largest entries with the fewest elements
    above them.  Over the 195 finite_stanley benchmark ops of
    seed 1, each run once by both routes in a fresh process, leaving them
    out keeps 115,139 fields in place of 240,851 for about 7 % more time
    (15.5-16.1 ms against 14.3-15.4 ms, Python 3.11, 2 cores); a repeated
    call rebuilds just those two lengths.
    """
    memo, tag = _WALK_MEMO, (ascents, width)
    top = memo.get(window + tag)
    if top is not None:
        return top
    # from the top: each length's missing windows with their children (d, u)
    # for u = v s_d, and the memo's entries one length below them; the
    # identity is the one child of length 0
    levels, missing, k = [], {window}, ell
    while missing:
        below, hits, children = set(), {} if k > 1 else {(): _IDENTITY}, {}
        for v in missing:
            children[v] = kids = []
            for d in range(1, len(v)):
                if v[d - 1] > v[d]:
                    u = _swap(v, d)
                    kids.append((d, u))
                    if u not in below and u not in hits:
                        entry = memo.get(u + tag)
                        if entry is None:
                            below.add(u)
                        else:
                            hits[u] = entry
        levels.append((children, hits))
        missing, k = below, k - 1
    built = {}
    while levels:
        children, below = levels.pop()
        k += 1
        below.update(built)
        built = {}
        shift = width << (k - 2) if k > 1 else 0
        for v, kids in children.items():
            count, descents, acc, sums = 0, 0, 0, []
            for d, u in kids:
                u = below[u]
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
    return _stable(v[:d - 1] + (v[d], v[d - 1]) + v[d + 1:])


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


@lru_cache(maxsize=32)
def _partition_masks(ell):
    """((la, mask), ...) over the partitions la of ``ell``, each with the
    mask of its partial sums, at which a read gives [m_la] F_w."""
    return tuple((la, _partial_sum_mask(la)) for la in partitions_of(ell))


@lru_cache(maxsize=256)
def _decreasing_elements(n, k):
    """Decreasing words a_1 > ... > a_k over 1..n-1, one per k-subset."""
    return tuple(combinations(range(n - 1, 0, -1), k))


# one bound for the split lists of both counts: 2^14 holds every k-Schur
# table up to n=6 d=28 (13,963 lists), and S_8 w0 at 2^16 runs about 10 %
# faster for 18 % more peak RSS
@lru_cache(maxsize=1 << 14)
def _splits(elements, n, window, k):
    """The windows of u^-1 = w^-1 v over the v = s_{a_1} ... s_{a_k} of
    ``elements(n, k)`` that split off w = v u length-additively, for
    w^-1 = ``window``.

    v splits off w iff each a_j is a left descent of s_{a_{j-1}} ... s_{a_1} w
    when it is reached: x(a_j) > x(a_j + 1) for x the inverse of that
    element.  The step x -> x s_a swaps those two values, so the walk peels
    v^-1 off the right of w^-1.  Slot 0 holds x(0) = x(n) - n; the letter 0
    swaps slots 0 and 1 and resets x(n) = x(0) + n.  The letter n-1 leaves
    x(0) stale: in a cyclically decreasing word 0 comes before n-1 when
    both occur, so x(0) is not read again.
    """
    start = [window[-1] - n, *window]
    tails = []
    for word in elements(n, k):
        x = start[:]
        for a in word:
            if x[a] < x[a + 1]:
                break
            x[a], x[a + 1] = x[a + 1], x[a]
            if not a:
                x[n] = x[0] + n
        else:
            tails.append(tuple(x[1:]))
    return tuple(tails)


@lru_cache(maxsize=1 << 20)
def _count_decreasing_factorizations(window, alpha):
    """Factorizations w = v_1 ... v_r with v_i decreasing of length alpha_i,
    for w^-1 = ``window``: for each split of a first factor of length
    alpha_1 off w, the factorizations of what is left.  S_8 w0 leaves
    675,150 entries, under the bound; at 2^18 entries that call evicts ones
    the next partition needs again and takes four times as long."""
    if not alpha:
        return 1 if window == tuple(range(1, len(window) + 1)) else 0
    rest, total = alpha[1:], 0
    for tail in _splits(_decreasing_elements, len(window), window, alpha[0]):
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
        window = w.inverse().window
        return SymFunc._from_valid(ell, "m", {
            la: _count_decreasing_factorizations(window, la)
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
    return SymFunc._from_valid(ell, "m", {la: read(mask) for la, mask in _partition_masks(ell)})


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


def schur_expand(w):
    """F_w in the Schur basis, by the Lascoux-Schutzenberger transition tree.

    A vexillary w is a leaf: F_w = s_{lambda(w)} (Stanley 1984).  Otherwise
    let r be the last descent of w, s the largest j > r with w(j) < w(r), and
    v = w t_{rs}.  The transition identity at (v, r) has w as its only left
    term, so F_w is the sum of F_u over the covers u = v t_{ir} with i < r,
    or, when there are none, F_u for u = (1 x v) t_{1,r+1}.  The coefficients
    count Edelman-Greene tableaux for w^{-1}; ``eg_tableaux_by_shape`` counts
    them directly and is the cross-check in the tests and ``stansym verify``.

    ``_transition_tree`` walks the tree on stable windows: it tests for 2143
    and reads the shape on the tuple, finds r and s there, and takes both
    sides of the identity from one cover scan (``_transition_covers``), with
    no permutation object built below w.  It keeps the expanded nodes, up to
    8192 of them, and every call in the process shares them.  The degree is
    read off the result, as every shape in it has size ell(w).
    """
    coeffs = _transition_tree(w._stable_window())
    return SymFunc._from_valid(sum(next(iter(coeffs))), "s", coeffs)


@lru_cache(maxsize=8192)
def _transition_tree(key):
    """{la: [s_la] F_u} for u the permutation whose stable window is ``key``;
    the dict is shared, so callers only read it.  Every node checks that u
    is the only left cover of v at r."""
    if _is_vexillary(key):
        return {_shape(key): 1}
    r = len(key) - 1  # the last descent
    while key[r - 1] < key[r]:
        r -= 1
    a, s = key[r - 1], len(key)  # the last position right of r below u(r)
    while key[s - 1] > a:
        s -= 1
    v = key[:r - 1] + (key[s - 1],) + key[r:s - 1] + (a,) + key[s:]
    left, right, extra = _transition_covers(v, r)
    if left != [key]:
        raise AssertionError(
            f"transition tree at {_one_line(key)}: the left side at (v, r) = "
            f"({_one_line(v)}, {r}) is {list(map(_one_line, left))}, not [{_one_line(key)}]"
        )
    first, *rest = right or [extra]
    out = _transition_tree(first)
    if rest:
        out = dict(out)  # the child's dict is shared
        for child in rest:
            for la, c in _transition_tree(child).items():
                out[la] = out.get(la, 0) + c
    return out


# -- affine -------------------------------------------------------------------


@lru_cache(maxsize=256)
def _cyclically_decreasing_elements(n, k):
    """Cyclically decreasing words of length k over Z/nZ, one per k-subset."""
    if k >= n:
        return ()
    return tuple(
        cyclically_decreasing_word(n, subset) for subset in combinations(range(n), k)
    )


@lru_cache(maxsize=1 << 20)
def _count_cyclic_factorizations(n, window, alpha):
    """Factorizations into cyclically decreasing factors of lengths alpha,
    for w^-1 = ``window``: for each split of a first factor of length
    alpha_1 off w, the factorizations of what is left.  Every alpha with the
    same first part reads one split list.  All k-Schur functions of degree
    28 at n=6 leave 569,228 entries, under the bound."""
    if not alpha:
        return 1 if window == tuple(range(1, n + 1)) else 0
    rest, total = alpha[1:], 0
    for tail in _splits(_cyclically_decreasing_elements, n, window, alpha[0]):
        total += _count_cyclic_factorizations(n, tail, rest)
    return total


def affine_stanley(w):
    """The affine Stanley symmetric function F~_w in the m basis."""
    n, ell, window = w.n, w.length(), w.inverse().window
    return SymFunc._from_valid(ell, "m", {
        la: _count_cyclic_factorizations(n, window, la) for la in partitions_of(ell, n - 1)
    })


def affine_stanley_coefficient(w, alpha):
    """Coefficient of x^alpha in F~_w for a composition alpha of integers;
    zero parts are dropped, and a negative part is a ValueError."""
    parts = tuple(map(index, alpha))
    if any(a < 0 for a in parts):
        raise ValueError(f"alpha must have no negative part: {alpha!r}")
    return _count_cyclic_factorizations(w.n, w.inverse().window, tuple(a for a in parts if a))


def affine_asymmetry(w):
    """The first (la, alpha, [m_la] F~_w, [x^alpha] F~_w) over the bounded
    la and their distinct rearrangements alpha where the two coefficients
    differ, or None when F~_w is symmetric there.  The window of w^-1 is
    read once, and every alpha, a tuple of positive ints, goes to the
    count as it is."""
    n, window = w.n, w.inverse().window
    for la in partitions_of(w.length(), n - 1):
        base = _count_cyclic_factorizations(n, window, la)
        for alpha in _distinct_rearrangements(la):
            got = _count_cyclic_factorizations(n, window, alpha)
            if got != base:
                return la, alpha, base, got
    return None


def check_symmetry_affine(w):
    """Whether F~_w is symmetric on the bounded partitions (``affine_asymmetry``)."""
    return affine_asymmetry(w) is None


def affine_schur_expand(w):
    """F~_w in the affine Schur basis, by an exact change of basis."""
    return change_basis(affine_stanley(w), "affineSchur", w.n)


def transition_check(w, r):
    """Verify the transition identity at (w, r) via Stanley symmetric functions."""
    left, right, extra = transition_sides(w, r)
    zero = SymFunc.zero(w.length() + 1)
    rhs = right if extra is None else right + [extra]
    return sum(map(stanley_fn, left), zero) == sum(map(stanley_fn, rhs), zero)
