"""The small-torus affine nilHecke ring for the affine symmetric group.

Scalars are exact-integer polynomials in x_1..x_n; elements are finite sums
sum_w p_w A_w with the commutation rule A_i f = (s_i.f) A_i + (d_i f), where
d_i is the divided difference for alpha_i = x_i - x_{i+1} (indices mod n, so
alpha_0 = x_n - x_1).  On top sit the group embedding s_i -> 1 - alpha_i A_i,
the coproduct, the constant-term projection phi_0, the j-basis of the affine
Fomin-Stanley subalgebra, and the kappa projection to the finite algebra.

Inputs are validated once, by the public constructors.  Past them the
products work on bare data: ``_letter`` applies one A_i to terms
{window: {exponent tuple: int}} by the commutation rule, with s_i v a map on
the window (``affine._left_raise``: values = i mod n go up by one, values
= i + 1 down by one) and the swap and d_i acting on the exponent tuples.  The product,
``commute_past``, ``embed_group`` and the coproduct's tensor action all walk
their letters through it and wrap the result once, by the unchecked
``NilHeckeElement._from_valid``; the nilCoxeter product of both algebras
walks the same ``_left_raise`` step on windows without scalars.  The terms
are live: a window whose scalar vanishes gets no entry and a coefficient that cancels is deleted where it
does, so a letter walks only what the element holds.  A_w x_i, which has at
most l(w) + 1 terms by the Chevalley formula, costs one ``_left_raise`` per
term per letter.  The Chevalley formula reads the cover list
of ``_chevalley_covers`` and never the product, so the two stay independent
routes.  That list runs on windows too: each w t_ij is a tuple, tested by
Shi's length, and no element is built.  ``_j_basis_system`` reads the same
list, building the phi0(A_x x_i) rows of a length and its linear system in
one pass; it merges the unknowns that two-term rows tie by a sign
(``_merge_ties``) before the elimination, and ``_j_basis_by_solver`` reads
each coefficient off its class.
"""

from functools import lru_cache
from operator import add, index

from .affine import AffinePermutation, CorootVector, _left_raise, _shi_length, elements_of_length, translation_element
from .nilcoxeter import NilCoxeterElement, h_element, noncommutative_schur
from .permutation import Permutation


class ScalarPoly:
    """An integer polynomial in x_1..x_n, sparse on exponent tuples."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = index(n)
        clean = {}
        for exp, c in coeffs.items():
            exp = tuple(map(index, exp))
            if len(exp) != self.n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for {self.n} variables")
            c = index(c)
            if c:
                clean[exp] = clean.get(exp, 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c}

    @classmethod
    def _from_valid(cls, n, coeffs):
        """An internal result, unchecked: ``coeffs`` maps exponent tuples of
        length n to int coefficients, and the zero ones are dropped here."""
        return cls._live(n, {e: c for e, c in coeffs.items() if c})

    @classmethod
    def _live(cls, n, coeffs):
        """An internal result whose coefficients are all nonzero, unchecked
        and wrapped as it is."""
        self = object.__new__(cls)
        self.n = n
        self.coeffs = coeffs
        return self

    def _check_rank(self, other):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} and {other.n} variables")

    @staticmethod
    def zero(n):
        return ScalarPoly(n, {})

    @staticmethod
    def const(n, c):
        return ScalarPoly(n, {(0,) * n: c})

    @staticmethod
    def x(n, i):
        """The variable x_i, 1-indexed with index taken mod n."""
        i = (i - 1) % n + 1
        exp = [0] * n
        exp[i - 1] = 1
        return ScalarPoly(n, {tuple(exp): 1})

    @staticmethod
    def alpha(n, i):
        """The root alpha_i = x_i - x_{i+1}, with alpha_0 = x_n - x_1."""
        return ScalarPoly.x(n, i if i != 0 else n) - ScalarPoly.x(n, i + 1)

    def __add__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return ScalarPoly._from_valid(self.n, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return ScalarPoly._from_valid(self.n, {e: k * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):  # p * a falls to NilHeckeElement.__rmul__
            return other * self if isinstance(other, int) else NotImplemented
        self._check_rank(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return ScalarPoly._from_valid(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, 0)

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def swap(self, a, b):
        """Exchange the variables x_a and x_b (1-indexed)."""
        out = {}
        for e, c in self.coeffs.items():
            e = list(e)
            e[a - 1], e[b - 1] = e[b - 1], e[a - 1]
            out[tuple(e)] = c
        return ScalarPoly._from_valid(self.n, out)

    def permute_variables(self, target):
        """Send x_j to x_{target(j)} for a bijection ``target`` on 1..n."""
        out = {}
        for e, c in self.coeffs.items():
            new = [0] * self.n
            for j in range(1, self.n + 1):
                new[target(j) - 1] += e[j - 1]
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return ScalarPoly._from_valid(self.n, out)

    def divided_difference(self, i):
        """(f - s_i.f) / alpha_i, exact over the integers, with i taken mod n.

        The quotient of an alpha-antisymmetric g by x_a - x_b is computed
        termwise from x_a^k M = (x_a^k - x_b^k) M + x_b^k M.
        """
        i = i % self.n
        a, b = (i, i + 1) if i != 0 else (self.n, 1)
        g = self - self.swap(a, b)
        out = {}
        for e, c in g.coeffs.items():
            k = e[a - 1]
            rest = list(e)
            rest[a - 1] = 0
            for j in range(k):
                term = rest[:]
                term[a - 1] += j
                term[b - 1] += k - 1 - j
                key = tuple(term)
                out[key] = out.get(key, 0) + c
        return ScalarPoly._from_valid(self.n, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = [f"x{i}" for i in range(1, self.n + 1)]
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}")
                for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)

    def to_json(self):
        return [{"exponents": list(e), "coeff": c} for e, c in sorted(self.coeffs.items())]


def _level_zero_target(w):
    """The finite part of an affine permutation, acting on variable indices."""
    return lambda j: (w(j) - 1) % w.n + 1


class NilHeckeElement:
    """A finite sum of (polynomial scalar) * A_w over affine permutations.

    ``coeffs`` is a dict w -> p or an iterable of (w, p) pairs; the scalars
    of a repeated w are summed.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = index(n)
        clean = {}
        for w, p in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            if not isinstance(w, AffinePermutation) or w.n != self.n:
                raise ValueError(f"expected affine permutations of rank {self.n}: {w!r}")
            if not isinstance(p, ScalarPoly):
                p = ScalarPoly.const(self.n, p)
            elif p.n != self.n:
                raise ValueError(
                    f"rank mismatch: an element of rank {self.n} and a scalar in {p.n} variables"
                )
            if not p.is_zero():
                clean[w] = clean[w] + p if w in clean else p
        self.coeffs = {w: p for w, p in clean.items() if not p.is_zero()}

    @classmethod
    def _from_valid(cls, n, terms):
        """An internal result, unchecked and wrapped as it is: ``terms`` are
        live kernel terms, mapping the windows of elements of S~_n to nonempty
        exponent dicts {length-n tuple: nonzero int}."""
        self = object.__new__(cls)
        self.n = n
        self.coeffs = {
            AffinePermutation._from_valid(n, v): ScalarPoly._live(n, poly) for v, poly in terms.items()
        }
        return self

    def _terms(self):
        """The kernel's form of this element: {window: exponent dict}."""
        return {w.window: p.coeffs for w, p in self.coeffs.items()}

    @staticmethod
    def zero(n):
        return NilHeckeElement(n, {})

    @staticmethod
    def one(n):
        return NilHeckeElement(n, {AffinePermutation.identity(n): 1})

    @staticmethod
    def from_scalar(p):
        return NilHeckeElement(p.n, {AffinePermutation.identity(p.n): p})

    @staticmethod
    def basis(w, p=1):
        return NilHeckeElement(w.n, {w: p})

    @staticmethod
    def from_nilcoxeter(a):
        if not a.affine:
            raise ValueError("only affine nilCoxeter elements embed here")
        return NilHeckeElement(a.n, dict(a.coeffs))

    def __add__(self, other):
        if not isinstance(other, NilHeckeElement):
            return NotImplemented
        return NilHeckeElement(self.n, [*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        """Left multiplication by an integer or a scalar polynomial."""
        if not isinstance(k, (int, ScalarPoly)):
            return NotImplemented
        return NilHeckeElement(self.n, {w: k * p for w, p in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, NilHeckeElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not isinstance(other, NilHeckeElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} and {other.n}")
        n = self.n
        right = other._terms()
        out = {}
        for u, p in self.coeffs.items():
            _add_terms(out, p.coeffs, _act(u.reduced_word(), right, n))
        return NilHeckeElement._from_valid(n, out)

    def phi0(self):
        """Constant-term projection into the affine nilCoxeter algebra."""
        return NilCoxeterElement._from_valid(
            self.n, True, {w: p.constant_term() for w, p in self.coeffs.items()}
        )

    def __repr__(self):
        if not self.coeffs:
            return "NilHeckeElement(0)"
        parts = []
        for w in sorted(self.coeffs, key=lambda u: (u.length(), u.window)):
            word = "".join(map(str, w.reduced_word())) or "id"
            parts.append(f"({self.coeffs[w]!r})*A[{word}]")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"window": list(w.window), "poly": p.to_json()}
            for w, p in sorted(self.coeffs.items(), key=lambda t: (t[0].length(), t[0].window))
        ]


# -- the letter kernel ---------------------------------------------------------
#
# Terms are {window: {exponent tuple: int}}, the windows those of elements of
# S~_n and the tuples of length n.  Every kernel function takes and returns
# live terms only: no window maps to an empty dict and no coefficient is 0.
# A sum is taken as ``s = acc.get(key, 0) + c``; where it cancels, the key is
# deleted on the spot, and a window whose dict empties goes with it, so no
# later letter walks a dead term.  ``NilHeckeElement._from_valid`` wraps the
# result as it is.


def _alpha_positions(i, n):
    """The 0-based indices (a, b) of alpha_i = x_a - x_b, for 0 <= i < n."""
    return (i - 1, i) if i else (n - 1, 0)


def _letter(i, terms, n):
    """A_i times terms, 0 <= i < n: A_i f A_v = (s_i.f) A_{s_i v} + (d_i f) A_v,
    where A_{s_i v} = 0 if s_i v < v.

    s_i.f swaps the exponents at a and b; d_i sends x_a^k x_b^l to
    sum_{l <= t < k} x_a^t x_b^(k+l-1-t) for k > l, to minus that of its swap
    for k < l, and to 0 for k = l.  A v whose d_i f vanishes gets no entry.
    """
    a, b = _alpha_positions(i, n)
    out = {}
    for v, poly in terms.items():
        up = _left_raise(i, v, n)
        if up is not None:
            acc = out.setdefault(up, {})
            for e, c in poly.items():
                k, l = e[a], e[b]
                if k != l:
                    e = list(e)
                    e[a], e[b] = l, k
                    e = tuple(e)
                s = acc.get(e, 0) + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
            if not acc:
                del out[up]
        acc = out.get(v, {})
        for e, c in poly.items():
            k, l = e[a], e[b]
            if k == l:
                continue
            if k < l:
                k, l, c = l, k, -c
            e = list(e)
            for t in range(l, k):
                e[a], e[b] = t, k + l - 1 - t
                key = tuple(e)
                s = acc.get(key, 0) + c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        if acc:
            out[v] = acc
        elif v in out:
            del out[v]
    return out


def _act(word, terms, n):
    """A_{word[0]} ... A_{word[-1]} times terms, one letter at a time."""
    for i in reversed(word):
        terms = _letter(i % n, terms, n)
    return terms


def _add_terms(acc, p, terms):
    """acc += p * terms, in place: p an exponent dict, acc and terms kernel
    terms."""
    for v, poly in terms.items():
        into = acc.setdefault(v, {})
        for e1, c1 in p.items():
            constant = not any(e1)
            for e2, c2 in poly.items():
                e = e2 if constant else tuple(map(add, e1, e2))
                s = into.get(e, 0) + c1 * c2
                if s:
                    into[e] = s
                else:
                    del into[e]
        if not into:
            del acc[v]


def _minus_alpha_times(acc, i, n, lowered):
    """acc -= alpha_i * lowered, in place: x_a e with -c, x_b e with +c."""
    a, b = _alpha_positions(i, n)
    for v, poly in lowered.items():
        into = acc.setdefault(v, {})
        for e, c in poly.items():
            e = list(e)
            e[a] += 1
            key = tuple(e)
            s = into.get(key, 0) - c
            if s:
                into[key] = s
            else:
                del into[key]
            e[a] -= 1
            e[b] += 1
            key = tuple(e)
            s = into.get(key, 0) + c
            if s:
                into[key] = s
            else:
                del into[key]
        if not into:
            del acc[v]


def commute_past(i, f):
    """A_i * f in normal form: (s_i.f) A_i + (d_i f)."""
    if not isinstance(f, ScalarPoly):
        raise TypeError(f"expected a ScalarPoly: {f!r}")
    n = f.n
    terms = {tuple(range(1, n + 1)): f.coeffs} if f.coeffs else {}
    return NilHeckeElement._from_valid(n, _act((index(i),), terms, n))


def embed_group(w):
    """The image of an affine permutation under s_i -> 1 - alpha_i A_i."""
    n = w.n
    terms = {tuple(range(1, n + 1)): {(0,) * n: 1}}
    for i in reversed(w.reduced_word()):
        _minus_alpha_times(terms, i, n, _letter(i, terms, n))
    return NilHeckeElement._from_valid(n, terms)


def _affine_transposition(n, window, i, j):
    """The window of w t_ij, for w the element with this window, 1 <= i <= n
    and j > i not congruent to i mod n.  The reflection t_ij exchanges i and
    j and all their n-shifts, so the values at positions i and j (mod n)
    trade places, each moved by the multiple of n between them."""
    r = (j - 1) % n
    shift = j - 1 - r
    out = list(window)
    out[i - 1], out[r] = window[r] + shift, window[i - 1] - shift
    return tuple(out)


def _chevalley_covers(w):
    """The reflections that lower w by one: [(window of w t_ij, i - 1,
    (j - 1) mod n)] over the inversions (i, j) of w with
    l(w t_ij) = l(w) - 1.

    The two indices are those of the variables x_i and x_j, whose difference
    <alpha_ij^vee, f> pairs with a linear f.  The kernel runs on windows:
    each w t_ij is the tuple ``_affine_transposition`` gives, and no element
    is built.  The cover test is Shi's length on that tuple: the
    finite-type scan for a value between w(j) and w(i) at the positions in
    between disagrees with it in S~_n (on 86 of the 4,511 inversions of the
    elements of length <= 8, 7, 6 at n = 3, 4, 5).
    """
    n, window = w.n, w.window
    shorter = w.length() - 1
    covers = []
    for i, j in w.inversions():
        v = _affine_transposition(n, window, i, j)
        if _shi_length(v, n) == shorter:
            covers.append((v, i - 1, (j - 1) % n))
    return covers


def chevalley(w, f):
    """A_w * f for a linear scalar f, by the Chevalley formula:
    (w.f) A_w + sum <alpha^vee, f> A_{w s_alpha} over the reflections with
    l(w s_alpha) = l(w) - 1.

    A reflection lowers the length of w exactly when it exchanges an
    inversion (i, j) of w, so the sum runs over ``_chevalley_covers(w)``,
    the same cover list from which ``_j_basis_system`` builds the
    phi0(A_x x_i) rows of the j-basis system; its terms are keyed by the
    windows that list gives.
    """
    n = w.n
    if f.n != n:
        raise ValueError(f"rank mismatch: {n} and {f.n} variables")
    if any(sum(e) != 1 for e in f.coeffs):
        raise ValueError("Chevalley formula needs a homogeneous linear scalar")
    coeff = [0] * n
    for e, c in f.coeffs.items():
        coeff[e.index(1)] = c
    head = f.permute_variables(_level_zero_target(w)).coeffs
    terms = {w.window: head} if head else {}
    # distinct inversions are distinct reflections, so each cover is new
    zero = (0,) * n
    for v, a, b in _chevalley_covers(w):
        if coeff[a] != coeff[b]:
            terms[v] = {zero: coeff[a] - coeff[b]}
    return NilHeckeElement._from_valid(n, terms)


# -- coproduct ----------------------------------------------------------------


def _tensor_letter_act(i, T, n):
    """A_i acting on a tensor {right window w: left terms}:
    A_i.(m (x) n) = A_i m (x) n + m (x) A_i n - alpha_i A_i m (x) A_i n.

    Scalars stay in the left factor, so this representation is canonical.
    """
    i %= n
    one = {(0,) * n: 1}
    out = {}
    for w, L in T.items():
        aL = _letter(i, L, n)
        if aL:
            into = out.setdefault(w, {})
            _add_terms(into, one, aL)
            if not into:
                del out[w]
        up = _left_raise(i, w, n)
        if up is not None:
            longer = out.setdefault(up, {})
            _add_terms(longer, one, L)
            _minus_alpha_times(longer, i, n, aL)
            if not longer:
                del out[up]
    return out


def tensor_act(a, T):
    """Left action of a nilHecke element on a tensor
    {right AffinePermutation: left NilHeckeElement}, per the coproduct module
    structure."""
    n = a.n
    start = {w.window: L._terms() for w, L in T.items()}
    out = {}
    for u, p in a.coeffs.items():
        cur = start
        for i in reversed(u.reduced_word()):
            cur = _tensor_letter_act(i, cur, n)
        for w, L in cur.items():
            acc = out.setdefault(w, {})
            _add_terms(acc, p.coeffs, L)
            if not acc:
                del out[w]
    return {
        AffinePermutation._from_valid(n, w): NilHeckeElement._from_valid(n, L) for w, L in out.items()
    }


def coproduct(a):
    """The coproduct Delta(a) = a.(1 (x) 1), as a dict (v, w) -> ScalarPoly
    with all scalars collected in the left factor."""
    unit = {AffinePermutation.identity(a.n): NilHeckeElement.one(a.n)}
    return {(v, w): q for w, L in tensor_act(a, unit).items() for v, q in L.coeffs.items()}


def tensor_phi0(delta):
    """(phi0 (x) phi0) of a tensor, as a dict (v, w) -> int."""
    out = {}
    for (v, w), p in delta.items():
        c = p.constant_term()
        if c:
            out[(v, w)] = c
    return out


def hopf_generator_check(n, k):
    """True iff (phi0 (x) phi0) Delta(h~_k) = sum_j h~_j (x) h~_{k-j}."""
    hk = NilHeckeElement.from_nilcoxeter(h_element(n, k, affine=True))
    lhs = tensor_phi0(coproduct(hk))
    rhs = {}
    for j in range(k + 1):
        left = h_element(n, j, affine=True)
        right = h_element(n, k - j, affine=True)
        for v, cv in left.coeffs.items():
            for w, cw in right.coeffs.items():
                rhs[(v, w)] = rhs.get((v, w), 0) + cv * cw
    return lhs == {k2: c for k2, c in rhs.items() if c}


# -- affine Fomin-Stanley subalgebra and the j-basis --------------------------


def phi0(a):
    if isinstance(a, NilHeckeElement):
        return a.phi0()
    if isinstance(a, ScalarPoly):
        return a.constant_term()
    raise TypeError(f"cannot project {a!r}")


def _merge_ties(rows, ties, width):
    """Presolve ``rows`` (sparse ``{column: nonzero int}``, ``width``
    columns) by the columns that two-term rows tie by a sign.

    A row {a: u, b: v} among the first ``ties`` rows, which are homogeneous,
    with |u| = |v| says x_a = -(v/u) x_b: it merges the classes of a and b,
    through a signed union-find, and leaves the system.  Every other row is
    rewritten on the classes, where entries of one class add up and may
    cancel; a row that empties is implied by the merges and leaves too.  The
    passes repeat until one merges nothing, so no row shrinks any more.  The
    rows past ``ties`` never merge.

    Returns ``(columns, classes, kept)``: ``columns[c] = (k, s)`` says
    x_c = s y_k for the ``classes`` unknowns y, numbered by their least
    column, and ``kept`` holds the rows left, as ``(input index, {class:
    nonzero int})``, ordered by their number of nonzeros.  Any solution of
    the kept rows gives one of ``rows`` through ``columns``, and every
    solution of ``rows`` arises so.
    """
    parent = list(range(width))
    sign = [1] * width

    def find(c):
        """(root, s) with x_c = s x_root; compresses the path to the root."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        s = 1
        for p in reversed(path):
            s *= sign[p]
            parent[p], sign[p] = c, s
        return c, s

    live = list(enumerate(rows))
    merged = True
    while merged:
        merged = False
        kept = []
        for k, row in live:
            new = {}
            for c, v in row.items():
                root, s = find(c)
                t = new.get(root, 0) + s * v
                if t:
                    new[root] = t
                else:
                    del new[root]
            if k < ties and len(new) == 2:
                (a, u), (b, v) = new.items()
                if u == v or u == -v:
                    if a < b:
                        a, b = b, a
                    parent[a], sign[a] = b, (-1 if u == v else 1)
                    merged = True
                    continue
            if new:
                kept.append((k, new))
        live = kept
    roots = [find(c) for c in range(width)]
    number = {r: k for k, r in enumerate(sorted({r for r, _ in roots}))}
    columns = tuple((number[r], s) for r, s in roots)
    kept.sort(key=lambda t: len(t[1]))
    return columns, len(number), [(k, {number[r]: v for r, v in row.items()}) for k, row in kept]


@lru_cache(maxsize=16)
def _j_basis_system(n, ell):
    """The j-basis linear system of length ell, built, presolved and factored
    once.

    The unknowns are the coefficients of the A_x with l(x) = ell.  By the
    Chevalley formula the degree-1 head of A_x x_i has no constant term, and
    a cover (y, a, b) of x contributes +1 to phi0(A_x x_{a+1}) and -1 to
    phi0(A_x x_{b+1}) at y.  One pass over the x and their covers, on
    windows, gathers these entries by x and by row: row (i, y) asks
    phi0(a x_i) to vanish at y, for each i and each y of length ell - 1, and
    one normalization row per Grassmannian x follows.  Only the phi0 rows by
    x key their y by the element, the one ``elements_of_length(n, ell - 1)``
    holds.  ``_merge_ties`` then merges the unknowns that a two-term (i, y)
    row ties by a sign, and ``_eliminate`` factors the rows left, on the
    classes, fewest nonzeros first.

    Returns ``(phi, columns, origin, system)``: {x: [phi0(A_x x_i) as
    {y: +-1} for i = 1..n]}, the (class, sign) of each x, the input row of
    each row given to ``_eliminate``, as (i - 1, y window) or as the
    Grassmannian x of a normalization row, and the ``_eliminate`` result.
    The result is cached and shared, so callers only read it.
    """
    from .symfunc import _eliminate

    shorter = {y.window: y for y in elements_of_length(n, ell - 1)} if ell else {}
    phi, entries, grassmannian, normalization = {}, {}, [], []
    for col, x in enumerate(elements_of_length(n, ell)):
        rows = phi[x] = [{} for _ in range(n)]
        for v, a, b in _chevalley_covers(x):
            y = shorter[v]
            rows[a][y] = 1
            rows[b][y] = -1
            entries.setdefault((a, v), {})[col] = 1
            entries.setdefault((b, v), {})[col] = -1
        if x.is_grassmannian():
            grassmannian.append(x)
            normalization.append({col: 1})
    columns, classes, kept = _merge_ties([*entries.values(), *normalization], len(entries), len(phi))
    labels = [*entries, *grassmannian]
    origin = tuple(labels[k] for k, _ in kept)
    return phi, columns, origin, _eliminate([row for _, row in kept], classes)


def _j_basis_by_solver(n, w):
    """The unique integer combination of {A_x : l(x) = l(w)} whose
    Grassmannian part is A_w and which phi0-commutes with every x_i.

    Each call replays the cached system ``_j_basis_system(n, l(w))`` on its
    normalization right-hand side only, and reads the coefficient of each x
    off its class.
    """
    from .symfunc import _replay

    phi, columns, origin, system = _j_basis_system(n, w.length())
    sol, _, bad = _replay(system, [1 if row == w else 0 for row in origin])
    if bad is not None:
        row = origin[bad]
        if isinstance(row, AffinePermutation):
            row = f"the normalization row of {row!r}"
        else:
            i, y = row
            row = f"the coefficient of {AffinePermutation._from_valid(n, y)!r} in phi0(a x_{i + 1})"
        raise AssertionError(f"j-basis system inconsistent for {w!r}: {row} contradicts the others")
    coeffs = {}
    for x, (k, s) in zip(phi, columns):
        c = sol[k]
        if c.denominator != 1:
            raise AssertionError(f"j-basis solution not integral for {w!r}: {x!r} has coefficient {s * c}")
        coeffs[x] = s * c.numerator
    # the keys are the system's own elements of length l(w)
    return NilCoxeterElement._from_valid(n, True, coeffs)


def j_basis_element(n, w):
    """The j-basis element of the affine Fomin-Stanley subalgebra for a
    Grassmannian w: the noncommutative k-Schur function s^(k)_shape(w)(u),
    read off the affine Schur expansions of F~_x (``noncommutative_schur``).

    The independent linear-solver construction must agree, A_w must be the
    unique Grassmannian term, and phi0(a x_i) must vanish for every i.  A
    failure names w and its first witness.
    """
    if not w.is_grassmannian():
        raise ValueError(f"{w!r} is not Grassmannian")
    a = noncommutative_schur(n, w.shape(), affine=True)
    grass = [x for x in a.coeffs if x.is_grassmannian()]
    if grass != [w] or a.coeffs[w] != 1:
        raise AssertionError(f"Grassmannian part of j-element for {w!r} is wrong")
    phi = _j_basis_system(n, w.length())[0]
    if not phi.keys() >= a.coeffs.keys():
        raise AssertionError(f"j-element for {w!r} is not of length {w.length()}")
    solved = _j_basis_by_solver(n, w)
    for x in phi:
        c, d = a.coeffs.get(x, 0), solved.coeffs.get(x, 0)
        if c != d:
            raise AssertionError(
                f"j-basis constructions disagree for {w!r}: at {x!r} the affine "
                f"Cauchy read-off gives {c} and the linear solve {d}"
            )
    for i in range(n):
        ax = {}
        for x, c in a.coeffs.items():
            for y, d in phi[x][i].items():
                ax[y] = ax.get(y, 0) + c * d
        y = next((y for y, c in ax.items() if c), None)
        if y is not None:
            raise AssertionError(
                f"phi0(a x_{i + 1}) != 0 for {w!r}: {y!r} has coefficient {ax[y]}"
            )
    return a


def kappa(a):
    """Project an affine nilCoxeter element onto the finite subalgebra by
    keeping the terms supported on S_n."""
    if not a.affine:
        raise ValueError("kappa expects an affine nilCoxeter element")
    # the keys are valid elements of S~_n, so a finite one's window is one of S_n
    finite = {Permutation._from_valid(w.window): c for w, c in a.coeffs.items() if w.is_finite()}
    return NilCoxeterElement._from_valid(a.n, False, finite)


def translation_centralizer_check(n, la):
    """True iff sum over the Weyl orbit of A_{t_mu} commutes with every x_i."""
    a = NilHeckeElement(n, {translation_element(CorootVector(mu)): 1 for mu in la.orbit()})
    for i in range(1, n + 1):
        xi = ScalarPoly.x(n, i)
        if not (a * NilHeckeElement.from_scalar(xi) - xi * a).is_zero():
            return False
    return True
