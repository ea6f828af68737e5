"""Tableaux, Edelman-Greene insertion, Coxeter-Knuth classes, Little moves,
and the transition-formula bookkeeping.
"""

from operator import index

from .partition import as_partition
from .permutation import Permutation, _stable, is_reduced


class Tableau:
    """Rows of positive integers with weakly decreasing row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        shape = tuple(len(row) for row in rows)
        as_partition(shape)
        if any(x <= 0 for row in rows for x in row):
            raise ValueError("tableau entries must be positive")
        self.rows = rows

    @property
    def shape(self):
        return tuple(len(row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"

    def render(self):
        return "\n".join(" ".join(map(str, row)) for row in self.rows)

    def descent_set(self):
        """Entries i with i+1 strictly lower (standard tableaux)."""
        row_of = {}
        for i, row in enumerate(self.rows):
            for x in row:
                row_of[x] = i
        return {i for i in row_of if i + 1 in row_of and row_of[i + 1] > row_of[i]}

    def to_json(self):
        return [list(row) for row in self.rows]


def word_descents(word):
    return {i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]}


def eg_insert(word, n=None):
    """Edelman-Greene insertion of a reduced word; returns (P, Q).

    Raises on non-reduced input (the insertion is only defined on reduced
    words).
    """
    word = tuple(word)
    if not is_reduced(word, n):
        raise ValueError(f"word {word} is not reduced")
    rows = []
    qrows = []
    for step, letter in enumerate(word, start=1):
        a = letter
        r = 0
        while True:
            if r == len(rows):
                rows.append([a])
                qrows.append([step])
                break
            row = rows[r]
            if row[-1] < a:
                row.append(a)
                qrows[r].append(step)
                break
            bump_idx = next(i for i, x in enumerate(row) if x > a)
            bumped = row[bump_idx]
            if not (a in row and a + 1 in row and bumped == a + 1):
                row[bump_idx] = a
            a = bumped
            r += 1
    return Tableau(rows), Tableau(qrows)


def eg_tableaux_by_shape(w):
    """All EG-tableaux for w, grouped by shape via the insertion bijection."""
    out = {}
    for word in w.reduced_words():
        P, _ = eg_insert(word, w.n)
        out.setdefault(P.shape, set()).add(P)
    return out


# -- Coxeter-Knuth equivalence ------------------------------------------------


def coxeter_knuth_neighbors(word):
    """Words one Coxeter-Knuth move away (moves on consecutive triples).

    The braid move a (a+1) a <-> (a+1) a (a+1), and the two Knuth-style
    moves (with their inverses): swap the last two letters when the first
    is strictly between them, swap the first two when the last is.
    """
    word = tuple(word)
    out = set()
    for i in range(len(word) - 2):
        x, y, z = word[i:i + 3]
        swaps = []
        if (x, y, z) == (x, x + 1, x):
            swaps.append((x + 1, x, x + 1))
        if (x, y, z) == (y + 1, y, y + 1):
            swaps.append((y, y + 1, y))
        if min(y, z) < x < max(y, z):
            swaps.append((x, z, y))
        if min(x, y) < z < max(x, y):
            swaps.append((y, x, z))
        out.update(word[:i] + s + word[i + 3:] for s in swaps)
    out.discard(word)
    return out


def coxeter_knuth_classes(w):
    """Partition of R(w) into Coxeter-Knuth equivalence classes."""
    words = set(w.reduced_words())
    classes = []
    seen = set()
    for start in sorted(words):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in coxeter_knuth_neighbors(cur):
                if nxt in words and nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        classes.append(frozenset(component))
    return classes


# -- Little moves -------------------------------------------------------------

_MAX_LITTLE_STEPS = 10000


class MarkedWord:
    """A word with a marked index whose deletion leaves a reduced word."""

    __slots__ = ("word", "mark")

    def __init__(self, word, mark):
        word = tuple(map(index, word))
        if not 1 <= mark <= len(word):
            raise ValueError(f"mark {mark} out of range")
        if any(x < 1 for x in word):
            raise ValueError("letters must be positive")
        if not is_reduced(word[:mark - 1] + word[mark:]):
            raise ValueError(f"deleting position {mark} of {word} is not reduced")
        self.word = word
        self.mark = mark

    def is_reduced(self):
        return is_reduced(self.word)

    def __eq__(self, other):
        if not isinstance(other, MarkedWord):
            return NotImplemented
        return self.word == other.word and self.mark == other.mark

    def __hash__(self):
        return hash((self.word, self.mark))

    def __repr__(self):
        return f"MarkedWord({list(self.word)}, mark={self.mark})"


def little_step(mw):
    """One edge of the Little graph: decrement the marked letter, shifting the
    whole word up when it hits zero, then re-mark if the word went unreduced."""
    word = list(mw.word)
    a = mw.mark
    word[a - 1] -= 1
    if word[a - 1] == 0:
        word = [x + 1 for x in word]
    word = tuple(word)
    if is_reduced(word):
        return MarkedWord(word, a)
    marks = [
        b for b in range(1, len(word) + 1)
        if b != a and is_reduced(word[:b - 1] + word[b:])
    ]
    if len(marks) != 1:
        raise AssertionError(
            f"Little graph re-marking not unique for {word}: candidates {marks}"
        )
    return MarkedWord(word, marks[0])


def _traverse(mw, step):
    """The Little-graph path from ``mw``: ``step`` until the word is reduced
    again.  The cap guards the well-definedness contract."""
    chain = [mw, step(mw)]
    while not chain[-1].is_reduced():
        if len(chain) > _MAX_LITTLE_STEPS:
            raise AssertionError(f"Little graph traversal from {mw!r} did not terminate")
        chain.append(step(chain[-1]))
    return chain


def little_move(mw):
    """The forward Little move: traverse the graph to the next marked reduced word."""
    if not mw.is_reduced():
        raise ValueError("forward Little move starts at a marked reduced word")
    return _traverse(mw, little_step)[-1]


def little_move_chain(mw):
    """The full traversal, including intermediate nearly reduced words."""
    return _traverse(mw, little_step)


def little_step_backward(mw):
    """Invert one Little-graph edge.

    Incoming edges are not unique in general: the shift rule lets two
    different trajectories merge.  When both an increment and an un-shift
    predecessor exist, the un-shift is taken, so this is a section of
    ``little_step`` rather than a two-sided inverse.
    """
    word = mw.word
    a = mw.mark
    if is_reduced(word):
        b = a  # the edge in kept the mark
    else:
        marks = [
            c for c in range(1, len(word) + 1)
            if c != a and is_reduced(word[:c - 1] + word[c:])
        ]
        if len(marks) != 1:
            raise AssertionError(
                f"Little graph un-marking not unique for {word}: candidates {marks}"
            )
        b = marks[0]
    if word[b - 1] == 1 and all(x >= 2 for i, x in enumerate(word) if i != b - 1):
        pred_word = tuple(1 if i == b - 1 else x - 1 for i, x in enumerate(word))
    else:
        pred_word = word[:b - 1] + (word[b - 1] + 1,) + word[b:]
    pred = MarkedWord(pred_word, b)
    if little_step(pred) != mw:
        raise AssertionError(f"backward step from {mw!r} produced non-predecessor {pred!r}")
    return pred


def little_move_backward(mw):
    """Inverse of the forward Little move on marked reduced words."""
    if not mw.is_reduced():
        raise ValueError("backward Little move starts at a marked reduced word")
    return _traverse(mw, little_step_backward)[-1]


# -- transition formula -------------------------------------------------------


def _transition_covers(v, r):
    """The three pieces of the transition identity at (v, r), as stable
    windows, for v given by a window of length at least r (v fixes every
    position past it).

    Returns (left, right, extra).  The left covers v t_{rs}, s > r, are the
    positions s scanned rightward to len(v) + 1 whose value is the least
    above v(r) so far; the right covers v t_{sr}, s < r, in increasing s,
    those scanned leftward whose value is the largest below v(r) so far.  The
    shifted term (1 x v) t_{1,r+1} covers 1 x v iff every value left of r
    exceeds v(r), that is iff there is no right cover; otherwise it is None.
    One O(n) pass each, where comparing lengths would cost O(n^2).
    """
    m, a = len(v), v[r - 1]
    head, tail = v[:r - 1], v + (m + 1,)
    left, least = [], m + 2
    for i in range(r, m + 1):  # position i + 1
        b = tail[i]
        if a < b < least:
            least = b
            left.append(_stable(head + (b,) + tail[r:i] + (a,) + tail[i + 1:]))
    right, largest = [], 0
    for i in range(r - 2, -1, -1):
        b = v[i]
        if largest < b < a:
            largest = b
            right.append(_stable(v[:i] + (a,) + v[i + 1:r - 1] + (b,) + v[r:]))
    if right:
        right.reverse()
        return left, right, None
    shifted = tuple(x + 1 for x in v)
    return left, right, _stable((a + 1,) + shifted[:r - 1] + (1,) + shifted[r:])


def transition_sides(w, r):
    """The three pieces of the transition identity at (w, r).

    Returns (left, right, extra): left are the covers w(r,s) with s > r,
    right the covers w(s',r) with s' < r, and extra the shifted term
    (1 x w)(1, r+1) when it covers 1 x w (``_transition_covers``).  The
    covers are in S_n, or in S_{n+1} for the cover at s = n + 1, and the
    shifted term is in S_{n+1}.
    """
    n = w.n
    if not 1 <= r <= n:
        raise ValueError(f"position r={r} out of range for S_{n}")
    left, right, extra = _transition_covers(w.window, r)

    def pad(u, m):
        return Permutation(u + tuple(range(len(u) + 1, m + 1)))

    return (
        [pad(u, n) for u in left],
        [pad(u, n) for u in right],
        None if extra is None else pad(extra, n + 1),
    )
