"""The affine symmetric group S~_n in window notation.

An element is the bijection w of the integers with w(i + n) = w(i) + n and
window sum n(n+1)/2; it is stored by its window [w(1), ..., w(n)].
Generator indices are residues mod n, with s_0 the affine generator.
Requires n >= 3 (the rank-2 affine group has an infinite braid relation and
is rejected).
"""

from functools import lru_cache
from itertools import combinations
from operator import index

from .partition import _conjugate, _distinct_rearrangements, as_partition, sort_composition
from .permutation import _least_reduced_word


class AffinePermutation:
    # _length and _hash are computed on first use and kept
    __slots__ = ("window", "n", "_length", "_hash")

    def __init__(self, n, window):
        n = index(n)
        if n < 3:
            raise ValueError("affine symmetric group requires rank n >= 3")
        window = tuple(map(index, window))
        if len(window) != n:
            raise ValueError(f"window must have length {n}: {window}")
        if sorted(x % n for x in window) != list(range(n)):
            raise ValueError(f"window residues must cover Z/{n}Z: {window}")
        if sum(window) != n * (n + 1) // 2:
            raise ValueError(f"window must sum to {n*(n+1)//2}: {window}")
        self.window = window
        self.n = n
        self._length = self._hash = None

    @classmethod
    def _from_valid(cls, n, window):
        """An internal result, unchecked: ``window`` is the int tuple of an
        element of S~_n."""
        self = object.__new__(cls)
        self.window = window
        self.n = n
        self._length = self._hash = None
        return self

    @staticmethod
    def identity(n):
        return AffinePermutation(n, range(1, n + 1))

    @staticmethod
    def simple(i, n):
        return AffinePermutation.identity(n).right_mult_generator(i)

    @staticmethod
    def from_word(word, n):
        w = AffinePermutation.identity(n)
        for i in word:
            w = w.right_mult_generator(i)
        return w

    def __call__(self, i):
        """Value at any integer, via w(i + n) = w(i) + n."""
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n

    def right_mult_generator(self, i):
        """w * s_i: swap the values in positions = i, i+1 (mod n)."""
        i = i % self.n
        w = list(self.window)
        if 1 <= i <= self.n - 1:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:  # s_0 swaps positions 0 and 1, i.e. n and n+1 shifted
            w[0], w[-1] = w[-1] - self.n, w[0] + self.n
        return AffinePermutation._from_valid(self.n, tuple(w))

    def __mul__(self, other):
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        n, w = self.n, self.window
        out = []
        for x in other.window:
            q, r = divmod(x - 1, n)
            out.append(w[r] + q * n)
        return AffinePermutation._from_valid(n, tuple(out))

    def inverse(self):
        n = self.n
        out = [0] * n
        for i, v in enumerate(self.window, 1):
            r = (v - 1) % n
            out[r] = i - (v - (r + 1))
        return AffinePermutation._from_valid(n, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        return self.n == other.n and self.window == other.window

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.window))
        return self._hash

    def __repr__(self):
        return f"AffinePermutation({self.n}, {list(self.window)})"

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def is_finite(self):
        """True iff the element lies in the finite subgroup S_n."""
        return sorted(self.window) == list(range(1, self.n + 1))

    def inversions(self):
        """The l(w) pairs (i, j) with 1 <= i <= n, i < j and w(i) > w(j)."""
        n = self.n
        for i, wi in enumerate(self.window, 1):
            for r, wr in enumerate(self.window, 1):
                # j = r + t*n with j > i and w(j) = wr + t*n < wi
                for t in range((i - r) // n + 1, -((wr - wi) // n)):
                    yield i, r + t * n

    def code(self):
        """c_i = #{j > i : w(j) < w(i)} for i = 1..n; has at least one zero.

        For p < q <= n, the j = q + t*n (t >= 0) with w(j) < w(p) and the
        j = p + t*n (t >= 1) with w(j) < w(q) number, together, Shi's term
        |floor((w(q) - w(p)) / n)| of the pair (``_shi_length``), and all of
        them count at p when w(p) > w(q), else at q.  So each pair of
        residues is counted at once, not listed as ``inversions`` does.
        """
        n, w = self.n, self.window
        out = [0] * n
        for p, q in combinations(range(n), 2):
            d = (w[q] - w[p]) // n
            out[p if d < 0 else q] += abs(d)
        return tuple(out)

    def length(self):
        """Shi's formula (``_shi_length``), computed on first use and kept."""
        if self._length is None:
            self._length = _shi_length(self.window, self.n)
        return self._length

    def shape(self):
        """The partition conjugate to the sorted code of the inverse."""
        return _conjugate(sort_composition(self.inverse().code()))

    def right_descents(self):
        w = self.window
        out = [i for i in range(1, self.n) if w[i - 1] > w[i]]
        if w[self.n - 1] > w[0] + self.n:
            out.append(0)
        return sorted(out)

    def reduced_words(self):
        return _affine_reduced_words(self.n, self.window)

    def reduced_word(self):
        """The lexicographically least reduced word, ``reduced_words()[0]``
        (``permutation._least_reduced_word``, with 0 the least letter)."""
        return _least_reduced_word(self.inverse().window)

    def is_grassmannian(self):
        w = self.window
        return all(w[i] < w[i + 1] for i in range(self.n - 1))

    def to_json(self):
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(data):
        return AffinePermutation(data["n"], data["window"])


def _shi_length(window, n):
    """Shi's formula for the length of the element with this window: the sum
    of |floor((w_j - w_i) / n)| over i < j <= n."""
    return sum([abs((b - a) // n) for a, b in combinations(window, 2)])


def _left_raise(i, window, n):
    """The window of s_i w if s_i w > w, else None, for w the element with
    this window and 0 <= i < n.

    s_i w adds 1 to the value = i (mod n) and takes 1 from the value
    = i + 1.  It is shorter exactly when w^-1(i) > w^-1(i + 1), where
    w^-1(t) = t + p - w(p) for the position p with w(p) = t (mod n).

    A window of S_n with 1 <= i < n is served as it stands: the values i and
    i + 1 trade places, and s_i w is longer exactly when i stands before
    i + 1.  So this one step is the left letter of both nilCoxeter products.
    """
    j = (i + 1) % n
    up = list(window)
    for p, x in enumerate(window):
        r = x % n
        if r == i:
            shift_i = p - x
            up[p] = x + 1
        elif r == j:
            shift_j = p - x
            up[p] = x - 1
    return None if shift_i > 1 + shift_j else tuple(up)


@lru_cache(maxsize=4096)
def _affine_reduced_words(n, window):
    """R(w) in lexicographic order, as ``permutation._reduced_words``.

    A reduced word of w starts with a left descent i of w, where
    w^-1(i) > w^-1(i + 1) (``_left_raise``), and the rest of it is a
    reduced word of s_i w, which adds 1 to the value = i (mod n) and takes 1
    from the value = i + 1.  Taking i = 0, 1, ..., n - 1 in order lists the
    words already sorted.
    """
    words = []
    position = {x % n: p for p, x in enumerate(window)}
    for i in range(n):
        p, q = position[i], position[(i + 1) % n]
        if p - window[p] > 1 + q - window[q]:
            shorter = list(window)
            shorter[p] += 1
            shorter[q] -= 1
            words += map((i,).__add__, _affine_reduced_words(n, tuple(shorter)))
    # only the identity has no left descent
    return tuple(words) if words else ((),)


def cyclically_decreasing_word(n, subset):
    """A cyclically decreasing word using exactly the generators in ``subset``.

    Within each cyclic run of consecutive residues the word descends, which
    is the unique constraint: i+1 must precede i whenever both appear.
    """
    subset = frozenset(i % n for i in subset)
    if len(subset) >= n:
        raise ValueError("cyclically decreasing elements use a strict subset of Z/nZ")
    word = []
    seen = set()
    for start in sorted(subset):
        if start in seen or (start - 1) % n in subset:
            continue
        # start is the bottom of a cyclic run; walk to its top
        run = [start]
        while (run[-1] + 1) % n in subset:
            run.append((run[-1] + 1) % n)
        seen.update(run)
        word.extend(reversed(run))
    return tuple(word)


def cyclically_decreasing(n, subset):
    """The unique cyclically decreasing element with support ``subset``."""
    return AffinePermutation.from_word(cyclically_decreasing_word(n, subset), n)


class CorootVector:
    """An element of the coroot lattice: n integer coordinates summing to 0."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(map(index, coords))
        if sum(coords) != 0:
            raise ValueError(f"coroot coordinates must sum to 0: {coords}")
        self.coords = coords

    @property
    def n(self):
        return len(self.coords)

    def __add__(self, other):
        if not isinstance(other, CorootVector):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: coroot vectors of ranks {self.n} and {other.n}")
        return CorootVector(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return CorootVector(-a for a in self.coords)

    def __eq__(self, other):
        if not isinstance(other, CorootVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"CorootVector({list(self.coords)})"

    def orbit(self):
        """The S_n orbit, as a sorted list of distinct vectors."""
        return list(_distinct_rearrangements(self.coords))


def translation_element(la):
    """t_la = [1 + n*la_1, ..., n + n*la_n]."""
    n = la.n
    return AffinePermutation(n, (i + n * la.coords[i - 1] for i in range(1, n + 1)))


@lru_cache(maxsize=64)
def elements_of_length(n, length):
    """All elements of S~_n of the given length, sorted by window."""
    if length == 0:
        return (AffinePermutation.identity(n),)
    out = set()
    for w in elements_of_length(n, length - 1):
        descents = w.right_descents()  # w s_i > w exactly when i is not one
        out.update(w.right_mult_generator(i) for i in range(n) if i not in descents)
    return tuple(sorted(out, key=lambda w: w.window))


def grassmannian_from_partition(n, la):
    """The unique affine Grassmannian element w with shape(w) = la.

    It is the product of the residues (j - i) mod n of the cells (i, j) of
    ``la``, read rows bottom to top and each row right to left (Lapointe and
    Morse, JCTA 112, 2005); ``_grassmannian_table`` is its oracle.
    """
    la = as_partition(la)
    if la and la[0] > n - 1:
        raise ValueError(f"partition {la} is not ({n-1})-bounded")
    word = [(j - i) % n for i in reversed(range(len(la))) for j in reversed(range(la[i]))]
    w = AffinePermutation.from_word(word, n)
    if not w.is_grassmannian() or w.length() != len(word):
        raise AssertionError(
            f"the residue word of {la} (n={n}) gives {w!r}, not a Grassmannian element of length {len(word)}"
        )
    return w


@lru_cache(maxsize=64)
def _grassmannian_table(n, degree):
    """shape -> element over the Grassmannian elements of S~_n of one length,
    by enumerating the group."""
    table = {}
    for w in elements_of_length(n, degree):
        if w.is_grassmannian():
            table[w.shape()] = w
    return table
