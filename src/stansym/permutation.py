"""The finite symmetric group S_n in one-line notation.

Products compose as functions: ``(w * v)(i) = w(v(i))``.  Reduced words are
sequences of generator indices ``1 .. n-1``; the word ``i_1 i_2 ... i_l``
stands for the product ``s_{i_1} s_{i_2} ... s_{i_l}``.
"""

from bisect import bisect, insort
from functools import lru_cache
from itertools import permutations as _itpermutations
from operator import index

from .partition import _conjugate, sort_composition


class Permutation:
    # _length and _hash are computed on first use and kept
    __slots__ = ("window", "n", "_length", "_hash")

    def __init__(self, window):
        window = tuple(map(index, window))
        n = len(window)
        if sorted(window) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {window}")
        self.window = window
        self.n = n
        self._length = self._hash = None

    @classmethod
    def _from_valid(cls, window):
        """An internal result, unchecked: ``window`` is the int tuple of a
        permutation of 1..n."""
        self = object.__new__(cls)
        self.window = window
        self.n = len(window)
        self._length = self._hash = None
        return self

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def simple(i, n):
        """The simple transposition s_i in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for S_{n}")
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(w)

    @staticmethod
    def longest(n):
        return Permutation(range(n, 0, -1))

    @staticmethod
    def from_word(word, n=None):
        """Product s_{i_1} ... s_{i_l} for a word over 1..n-1."""
        word = tuple(word)
        if n is None:
            n = max(word, default=0) + 1
        w = list(range(1, n + 1))
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for S_{n}")
            w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(w)

    def __call__(self, i):
        """Value as a bijection of the positive integers (stable embedding)."""
        return self.window[i - 1] if 1 <= i <= self.n else i

    def embed(self, n):
        """Image under the natural embedding into S_n."""
        if n < self.n:
            raise ValueError(f"cannot embed S_{self.n} into S_{n}")
        return Permutation._from_valid(self.window + tuple(range(self.n + 1, n + 1)))

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        w, m = self.window, self.n
        # beyond other's window, other fixes i and the product is w(i)
        return Permutation._from_valid(tuple([w[x - 1] if x <= m else x for x in other.window]) + w[other.n:])

    def inverse(self):
        out = [0] * self.n
        for i, x in enumerate(self.window):
            out[x - 1] = i + 1
        return Permutation._from_valid(tuple(out))

    def _stable_window(self):
        """The window without trailing fixed points, the same for every embedding."""
        return _stable(self.window)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._stable_window() == other._stable_window()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._stable_window())
        return self._hash

    def __repr__(self):
        return f"Permutation({list(self.window)})"

    def __str__(self):
        return _one_line(self.window)

    def length(self):
        """Number of inversions: the sum of the code of the inverse (``_left_larger``)."""
        if self._length is None:
            self._length = sum(_left_larger(self.window))
        return self._length

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def right_descents(self):
        return [i for i in range(1, self.n) if self.window[i - 1] > self.window[i]]

    def code(self):
        """The sequence c_i = #{j > i : w(j) < w(i)}, length n."""
        w = self.window
        return tuple(sum(1 for j in range(i + 1, self.n) if w[j] < w[i]) for i in range(self.n))

    def shape(self):
        """The partition conjugate to the sorted code of the inverse."""
        return _shape(self.window)

    def reduced_words(self):
        """All reduced words, lexicographically sorted."""
        return _reduced_words(self.window)

    def reduced_word(self):
        """The lexicographically least reduced word, ``reduced_words()[0]``
        (``_least_reduced_word``)."""
        return _least_reduced_word(self.inverse().window)

    def is_grassmannian(self):
        return len(self.right_descents()) <= 1

    def is_vexillary(self):
        """True iff w avoids the pattern 2143 (``_is_vexillary``)."""
        return _is_vexillary(self.window)

    def one_times(self):
        """The permutation 1 x w, shifting the one-line notation up by one."""
        return Permutation._from_valid((1,) + tuple(x + 1 for x in self.window))

    def transposition_right(self, i, j):
        """w * (i, j): swap the entries in positions i and j."""
        n = max(self.n, j)
        w = list(self.embed(n).window)
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        return Permutation._from_valid(tuple(w))

    def to_json(self):
        return {"n": self.n, "window": list(self.window)}

    @staticmethod
    def from_json(data):
        w = Permutation(data["window"])
        if w.n != data.get("n", w.n):
            raise ValueError("window length disagrees with n")
        return w


def _stable(window):
    """The window without its trailing fixed points."""
    while window and window[-1] == len(window):
        window = window[:-1]
    return window


def _one_line(window):
    """The one-line notation of a window: digits run together up to S_9,
    comma-separated above."""
    return ("" if len(window) <= 9 else ",").join(map(str, window))


def _is_vexillary(window):
    """True iff the window avoids the pattern 2143: no positions a < b < c < d
    with w(b) < w(a) < w(d) < w(c).  Walk c from the left, keeping the least
    w(a) > w(b) over the pairs a < b < c, read off the sorted values left of
    b; a 2143 ends at c iff some w(d) right of c lies strictly between that
    value and w(c)."""
    least, seen = len(window) + 1, []
    for c, y in enumerate(window):
        if least < y:
            for x in window[c + 1:]:
                if least < x < y:
                    return False
        i = bisect(seen, y)  # c becomes a b for the positions right of it
        if i < c and seen[i] < least:
            least = seen[i]
        insort(seen, y)
    return True


def _least_reduced_word(window):
    """The lexicographically least reduced word of the element of S_n or S~_n
    whose inverse has this window, n = len(window): take the least right
    descent of the inverse (s_0 first, when it is one), swap it off a list
    copy of the window, and repeat.  A window of S_n never has s_0 as a
    descent, since its entries lie in 1..n."""
    v, n, word = list(window), len(window), []
    start = 1  # v[0] < ... < v[start - 1]: no right descent below start
    while True:
        if v and v[-1] > v[0] + n:
            v[0], v[-1] = v[-1] - n, v[0] + n
            word.append(0)
            start = 1
            continue
        for i in range(start, n):
            if v[i - 1] > v[i]:
                v[i - 1], v[i] = v[i], v[i - 1]
                word.append(i)
                start = max(1, i - 1)
                break
        else:
            return tuple(word)


def _left_larger(window):
    """For each position p, how many values left of it are larger: the code
    of w^-1 at w(p), read off the sorted values left of each position in
    one sweep."""
    code, seen = [], []
    for p, y in enumerate(window):
        code.append(p - bisect(seen, y))
        insort(seen, y)
    return code


def _shape(window):
    """The partition conjugate to the sorted code of the inverse (``_left_larger``)."""
    return _conjugate(sort_composition(_left_larger(window)))


@lru_cache(maxsize=1 << 13)
def _reduced_words(window):
    """R(w) in lexicographic order.

    A reduced word of w starts with a left descent i of w, where i + 1 stands
    before i in the window, and the rest of it is a reduced word of s_i w,
    which swaps those two values.  Taking i in increasing order lists the
    words already sorted.
    """
    words = []
    position = {x: p for p, x in enumerate(window)}
    for i in range(1, len(window)):
        p, q = position[i + 1], position[i]
        if p < q:
            shorter = window[:p] + (i,) + window[p + 1:q] + (i + 1,) + window[q + 1:]
            words += map((i,).__add__, _reduced_words(shorter))
    # only the identity has no left descent
    return tuple(words) if words else ((),)


def count_reduced_words(w):
    """#R(w), the sum over right descents i of #R(w s_i), without listing a word.

    The recursion is unrolled from w downwards one length at a time: each
    window carries the number of paths from w to it, so only two lengths of
    windows are held at once and the last layer is the identity alone.
    """
    layer = {w.window: 1}
    for _ in range(w.length()):
        below = {}
        for v, paths in layer.items():
            for i in range(1, len(v)):
                if v[i - 1] > v[i]:
                    u = v[:i - 1] + (v[i], v[i - 1]) + v[i + 1:]
                    below[u] = below.get(u, 0) + paths
        layer = below
    return sum(layer.values())


def from_code(c):
    """The unique permutation with the given code."""
    c = tuple(map(index, c))
    while c and c[-1] == 0:
        c = c[:-1]
    if any(x < 0 for x in c):
        raise ValueError(f"code entries must be nonnegative: {c}")
    n = max((i + 1 + ci for i, ci in enumerate(c)), default=1)
    n = max(n, len(c) + 1)
    taken = set()
    window = []
    for i in range(1, n + 1):
        ci = c[i - 1] if i <= len(c) else 0
        # w(i) is the (ci+1)-th smallest unused value
        avail = [v for v in range(1, n + 1) if v not in taken]
        window.append(avail[ci])
        taken.add(avail[ci])
    return Permutation(window)


def symmetric_group(n):
    """All elements of S_n."""
    return [Permutation(p) for p in _itpermutations(range(1, n + 1))]


def is_reduced(word, n=None):
    """True iff the word multiplies to an element of that length."""
    word = tuple(word)
    if n is None:
        n = max(word, default=0) + 1
    return Permutation.from_word(word, n).length() == len(word)
