"""The affine symmetric group S~_n in window notation.

An element is the bijection w of the integers with w(i + n) = w(i) + n and
window sum n(n+1)/2; it is stored by its window [w(1), ..., w(n)].
Generator indices are residues mod n, with s_0 the affine generator.
Requires n >= 3 (the rank-2 affine group has an infinite braid relation and
is rejected).
"""

from functools import lru_cache
from operator import index

from .partition import as_partition, conjugate, sort_composition
from .permutation import Permutation


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

    @staticmethod
    def from_finite(w, n=None):
        """Image of a finite permutation under S_n -> S~_n."""
        if n is None:
            n = max(w.n, 3)
        return AffinePermutation(n, w.embed(n).window)

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
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return AffinePermutation._from_valid(self.n, tuple(map(self, other.window)))

    def inverse(self):
        out = [0] * self.n
        for i in range(1, self.n + 1):
            v = self(i)
            r = (v - 1) % self.n
            out[r] = i - (v - (r + 1))
        return AffinePermutation._from_valid(self.n, tuple(out))

    def __eq__(self, other):
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

    def to_finite(self):
        if not self.is_finite():
            raise ValueError(f"{self!r} is not in the finite subgroup")
        return Permutation(self.window)

    def inversions(self):
        """The l(w) pairs (i, j) with 1 <= i <= n, i < j and w(i) > w(j)."""
        n = self.n
        for i, wi in enumerate(self.window, 1):
            for r, wr in enumerate(self.window, 1):
                # j = r + t*n with j > i and w(j) = wr + t*n < wi
                for t in range((i - r) // n + 1, -((wr - wi) // n)):
                    yield i, r + t * n

    def code(self):
        """c_i = #{j > i : w(j) < w(i)} for i = 1..n; has at least one zero."""
        out = [0] * self.n
        for i, _ in self.inversions():
            out[i - 1] += 1
        return tuple(out)

    def length(self):
        """Shi's formula: the sum of |floor((w_j - w_i) / n)| over i < j <= n."""
        if self._length is None:
            w, n = self.window, self.n
            self._length = sum(abs((w[j] - w[i]) // n) for i in range(n) for j in range(i + 1, n))
        return self._length

    def shape(self):
        """The partition conjugate to the sorted code of the inverse."""
        return conjugate(sort_composition(self.inverse().code()))

    def right_descents(self):
        w = self.window
        out = [i for i in range(1, self.n) if w[i - 1] > w[i]]
        if w[self.n - 1] > w[0] + self.n:
            out.append(0)
        return sorted(out)

    def has_left_descent(self, i):
        """True iff l(s_i w) < l(w), that is w^-1(i) > w^-1(i + 1)."""
        n = self.n
        # w^-1(t) = t + p - w(p) for the position p with w(p) = t (mod n)
        shift = {x % n: p - x for p, x in enumerate(self.window, 1)}
        return shift[i % n] > 1 + shift[(i + 1) % n]

    def reduced_words(self):
        return _affine_reduced_words(self.n, self.window)

    def reduced_word(self):
        """The lexicographically least reduced word, ``reduced_words()[0]``:
        take the least left descent (the least right descent of the inverse,
        which lists 0 first), multiply it off, and repeat."""
        word, v = [], self.inverse()
        while descents := v.right_descents():
            word.append(descents[0])
            v = v.right_mult_generator(descents[0])
        return tuple(word)

    def is_grassmannian(self):
        w = self.window
        return all(w[i] < w[i + 1] for i in range(self.n - 1))

    def to_json(self):
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(data):
        return AffinePermutation(data["n"], data["window"])


@lru_cache(maxsize=None)
def _affine_reduced_words(n, window):
    w = AffinePermutation(n, window)
    if w.is_identity():
        return ((),)
    words = []
    for i in w.right_descents():
        shorter = w.right_mult_generator(i)
        words.extend(word + (i,) for word in _affine_reduced_words(n, shorter.window))
    return tuple(sorted(words))


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


def is_cyclically_decreasing_word(word, n):
    word = [i % n for i in word]
    if len(set(word)) != len(word) or len(word) >= n:
        return False
    pos = {a: i for i, a in enumerate(word)}
    return all((a + 1) % n not in pos or pos[(a + 1) % n] < pos[a] for a in word)


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
        return CorootVector(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return CorootVector(-a for a in self.coords)

    def __eq__(self, other):
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"CorootVector({list(self.coords)})"

    def permuted(self, w):
        """Action of a finite permutation: (w . la)_{w(i)} = la_i."""
        out = [0] * self.n
        for i in range(self.n):
            out[w(i + 1) - 1] = self.coords[i]
        return CorootVector(out)

    def orbit(self):
        """The S_n orbit, as a sorted list of distinct vectors."""
        from itertools import permutations as itp
        return sorted({tuple(p) for p in itp(self.coords)})


def theta_coroot(n):
    """The highest coroot (1, 0, ..., 0, -1)."""
    return CorootVector((1,) + (0,) * (n - 2) + (-1,))


def translation_element(la):
    """t_la = [1 + n*la_1, ..., n + n*la_n]."""
    n = la.n
    return AffinePermutation(n, (i + n * la.coords[i - 1] for i in range(1, n + 1)))


def length_via_formula(w, la):
    """Length of w * t_la from the root-pairing formula.

    Sums |<la, a_{ij}> + chi(w . a_{ij})| over finite positive roots, where
    chi is 0 on positive roots and 1 on negative ones.
    """
    n = la.n
    w = w.embed(n)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pairing = la.coords[i - 1] - la.coords[j - 1]
            chi = 0 if w(i) < w(j) else 1
            total += abs(pairing + chi)
    return total


@lru_cache(maxsize=None)
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
