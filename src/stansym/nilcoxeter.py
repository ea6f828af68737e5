"""Finite and affine nilCoxeter algebras.

Elements are integer combinations of basis elements A_w indexed by group
elements; products are length-additive (A_w A_v = A_{wv} when lengths add,
zero otherwise).  On top of this sit the Fomin-Stanley elements h_k, their
affine analogues, the noncommutative (k-)Schur functions, and a report on
the finite Fomin-Stanley subalgebra.  The noncommutative (k-)Schur functions
are read off the (affine) Schur expansions of F_w by the Cauchy identity.
The report reads coordinates in B off the same identity: a dominant
permutation w_nu has F_{w_nu} = s_nu, so [A_{w_nu}] s_la(u) = delta_{la nu},
with no linear solve.  It counts the Hilbert series by Dyck paths and the
structure constants by Littlewood-Richardson tableaux, and checks the counts
against products in the algebra on every pair at n <= 5 and a fixed sample
of pairs above.
"""

from bisect import bisect_right
from functools import lru_cache
from operator import index

from .affine import AffinePermutation, elements_of_length
from .partition import as_partition, partitions_inside, staircase
from .permutation import Permutation, from_code
from .stanley import _cyclically_decreasing_elements, _decreasing_elements, affine_schur_expand, schur_expand


class NilCoxeterElement:
    """An integer combination of A_w, finite or affine of a fixed rank."""

    __slots__ = ("n", "affine", "coeffs")

    def __init__(self, n, affine, coeffs):
        self.n = index(n)
        self.affine = bool(affine)
        clean = {}
        for w, c in coeffs.items():
            c = index(c)
            if not c:
                continue
            w = self._check_key(w)
            clean[w] = clean.get(w, 0) + c
        self.coeffs = {w: c for w, c in clean.items() if c}

    @classmethod
    def _from_valid(cls, n, affine, coeffs):
        """An internal result, unchecked: ``coeffs`` maps elements of the
        group of rank n to ints, and the zero ones are dropped here."""
        self = object.__new__(cls)
        self.n = n
        self.affine = affine
        self.coeffs = {w: c for w, c in coeffs.items() if c}
        return self

    def _check_key(self, w):
        if self.affine:
            if not isinstance(w, AffinePermutation) or w.n != self.n:
                raise ValueError(f"expected an affine permutation of rank {self.n}: {w!r}")
            return w
        if not isinstance(w, Permutation) or w.n > self.n:
            raise ValueError(f"expected a permutation in S_{self.n}: {w!r}")
        return w.embed(self.n)

    @staticmethod
    def zero(n, affine=False):
        return NilCoxeterElement(n, affine, {})

    @staticmethod
    def one(n, affine=False):
        e = AffinePermutation.identity(n) if affine else Permutation.identity(n)
        return NilCoxeterElement(n, affine, {e: 1})

    @staticmethod
    def basis(w, n=None):
        if isinstance(w, AffinePermutation):
            return NilCoxeterElement(w.n, True, {w: 1})
        return NilCoxeterElement(n if n is not None else w.n, False, {w: 1})

    def _compat(self, other):
        if self.n != other.n or self.affine != other.affine:
            raise ValueError("mixed nilCoxeter algebras")

    def __add__(self, other):
        if not isinstance(other, NilCoxeterElement):
            return NotImplemented
        self._compat(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return NilCoxeterElement._from_valid(self.n, self.affine, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return NilCoxeterElement._from_valid(self.n, self.affine, {w: k * c for w, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not isinstance(other, NilCoxeterElement):
            return NotImplemented
        self._compat(other)
        out = {}
        for u, cu in self.coeffs.items():
            lu = u.length()
            for v, cv in other.coeffs.items():
                uv = u * v
                if uv.length() == lu + v.length():
                    out[uv] = out.get(uv, 0) + cu * cv
        # products of validated keys of one rank are keys of that rank
        return NilCoxeterElement._from_valid(self.n, self.affine, out)

    def __eq__(self, other):
        if not isinstance(other, NilCoxeterElement):
            return NotImplemented
        return (self.n, self.affine, self.coeffs) == (other.n, other.affine, other.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "NilCoxeterElement(0)"
        parts = []
        for w in sorted(self.coeffs, key=lambda u: (u.length(), u.window)):
            c = self.coeffs[w]
            word = "".join(map(str, w.reduced_word())) or "id"
            parts.append(f"{c}*A[{word}]" if c != 1 else f"A[{word}]")
        return " + ".join(parts)

    def to_json(self):
        return [
            {
                "window": list(w.window),
                "word": list(w.reduced_word()),
                "coeff": c,
            }
            for w, c in sorted(self.coeffs.items(), key=lambda p: (p[0].length(), p[0].window))
        ]


def h_element(n, k, affine=False):
    """The Fomin-Stanley element h_k: the sum of A_w over (cyclically)
    decreasing w of length k, from the words that the splits of F_w and
    F~_w run over."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"h_{k} undefined for rank {n}: need 0 <= k <= {n - 1}")
    if affine:
        words, group = _cyclically_decreasing_elements(n, k), AffinePermutation
    else:
        words, group = _decreasing_elements(n, k), Permutation
    return NilCoxeterElement(n, affine, {group.from_word(word, n): 1 for word in words})


def product_expansion_check(n):
    """True iff sum_k h_k t^k = (1 + t A_{n-1}) ... (1 + t A_1)."""
    poly = [NilCoxeterElement.one(n)]  # t-coefficients
    for i in range(n - 1, 0, -1):
        a = NilCoxeterElement.basis(Permutation.simple(i, n), n)
        shifted = [NilCoxeterElement.zero(n)] + [p * a for p in poly]
        poly = [
            (poly[d] if d < len(poly) else NilCoxeterElement.zero(n)) + shifted[d]
            for d in range(len(shifted))
        ]
    expected = [h_element(n, k) for k in range(n)]
    poly += [NilCoxeterElement.zero(n)] * (len(expected) - len(poly))
    return poly[: len(expected)] == expected and all(p.is_zero() for p in poly[len(expected):])


@lru_cache(maxsize=64)
def _layer(n, degree):
    """The permutations of S_n of length ``degree``, each layer built once
    from the one below by the ascents of its elements: w s_i for w(i) <
    w(i + 1), one swap of two adjacent window entries."""
    if degree == 0:
        return frozenset({Permutation.identity(n)})
    return frozenset(Permutation._from_valid(x[:i - 1] + (x[i], x[i - 1]) + x[i + 1:])
                     for x in (w.window for w in _layer(n, degree - 1))
                     for i in range(1, n) if x[i - 1] < x[i])


@lru_cache(maxsize=64)
def _schur_table(n, degree, affine):
    """{la: {w: [s_la] F_w}} over the w in S_n of length ``degree`` (``_layer``),
    or {la: {x: [F~_la] F~_x}} over those in S~_n.  The table is cached and
    shared, so callers only read it."""
    if affine:
        layer, expand = elements_of_length(n, degree), affine_schur_expand
    else:
        layer, expand = _layer(n, degree), schur_expand
    table = {}
    for w in layer:
        for la, c in expand(w).coeffs.items():
            table.setdefault(la, {})[w] = c
    return table


def noncommutative_schur(n, la, affine=False):
    """s_la(u) or the noncommutative k-Schur s^(k)_la(u): h_k -> h-elements in
    s_la or s^(k)_la.  Read off by the Cauchy identity: [A_w] s_la(u) =
    [s_la] F_w (Fomin-Stanley 1994), [A_x] s^(k)_la(u) = [F~_la] F~_x (Lam 2006).
    """
    la = as_partition(la)
    if affine and la and la[0] > n - 1:
        raise ValueError(f"partition {la} is not ({n-1})-bounded")
    if not affine and sum(la) > n * (n - 1) // 2:
        return NilCoxeterElement.zero(n)  # above the top degree of S_n
    # the table's keys are the length-n windows of ``_layer`` or rank-n
    # affine elements; _from_valid copies the shared row
    return NilCoxeterElement._from_valid(n, affine, _schur_table(n, sum(la), affine).get(la, {}))


def divided_difference_action(a, f):
    """Act on a polynomial by divided differences, A_i acting as the
    operator (f - s_i.f) / (x_i - x_{i+1})."""
    if a.affine:
        raise ValueError("divided difference action is for the finite algebra")
    from .nilhecke import ScalarPoly

    if not isinstance(f, ScalarPoly):
        raise TypeError(f"expected a ScalarPoly: {f!r}")
    if f.n != a.n:
        raise ValueError(f"rank mismatch: an element of S_{a.n} and a scalar in {f.n} variables")
    total = ScalarPoly.zero(a.n)
    for w, c in a.coeffs.items():
        g = f
        for i in reversed(w.reduced_word()):
            g = g.divided_difference(i)
        total = total + c * g
    return total


def _littlewood_richardson(la, mu, top):
    """{nu: c^nu_{la mu}} over the nu inside the partition ``top``, by
    counting tableaux (Macdonald, Symmetric Functions and Hall Polynomials,
    I.9): fill the cells of mu, read right to left along each row from the
    top row down, with row indices r, each adding a cell to row r of the
    shape grown from la, so that the filling is semistandard and every shape
    on the way is a partition inside ``top``."""
    cells = [(i, j) for i, m in enumerate(mu) for j in reversed(range(m))]
    filling = [[0] * m for m in mu]
    shape = list(la) + [0] * (len(top) - len(la))
    counts = {}

    def fill(t):
        if t == len(cells):
            nu = tuple(p for p in shape if p)
            counts[nu] = counts.get(nu, 0) + 1
            return
        i, j = cells[t]
        lo = filling[i - 1][j] + 1 if i else 0  # columns strictly increase
        hi = filling[i][j + 1] if j + 1 < mu[i] else len(top) - 1  # rows weakly increase
        for r in range(lo, hi + 1):
            if shape[r] < top[r] and (r == 0 or shape[r] < shape[r - 1]):
                shape[r] += 1
                filling[i][j] = r
                fill(t + 1)
                shape[r] -= 1

    fill(0)
    return counts


def _first_difference(expected, got):
    """(key, expected, got) at the first key of either map where the two
    differ, a missing key reading 0; None if they agree."""
    for key in {**expected, **got}:
        if expected.get(key, 0) != got.get(key, 0):
            return key, expected.get(key, 0), got.get(key, 0)
    return None


# at n >= 6 the report multiplies this many pairs, at an even stride over
# the pair list; below that, every pair
_SAMPLED_PAIRS = 8


def conjecture_52_report(n):
    """The Fomin-Stanley subalgebra B of the nilCoxeter algebra of S_n.

    Returns a dict with: h-commutativity, the dimension of B and the linear
    independence of its s_la basis, the Hilbert series against the
    root-poset order-ideal count, coefficient nonnegativity, and a check of
    the structure constants against products in the algebra.  It reads the
    s_la(u) in place from the rows of ``_schur_table`` and returns none of
    them; ``noncommutative_schur`` gives any one from the same row.

    B is the image of la -> s_la(u), with basis the s_la(u) for la inside
    delta_{n-1}.  The permutation w_nu with code nu is dominant, so
    vexillary, and F_{w_nu} = s_nu; by the Cauchy identity [A_{w_nu}]
    s_la(u) = delta_{la nu}.  So the s_la(u) are independent when their
    columns at the w_nu form an identity matrix, and the coefficient of
    s_nu(u) in an element of B is its coefficient of A_{w_nu}.

    The structure constants are the Littlewood-Richardson numbers
    c^nu_{la mu} with nu inside delta_{n-1}.  For every unordered pair of
    degree at most that of delta_{n-1} at n <= 5, and ``_SAMPLED_PAIRS`` of
    them above, the report multiplies s_la(u) s_mu(u), reads c^nu at the
    w_nu and compares it with the LR count, then compares sum_nu c^nu
    s_nu(u) with the product on every A_w.  It returns how many pairs it
    compared and the first mismatch, (la, mu, nu, expected, got), with the
    permutation w in place of nu when the mismatch is at A_w; or None.
    """
    hs = [h_element(n, k) for k in range(n)]
    h_commutes = all(
        hs[k] * hs[l] == hs[l] * hs[k] for k in range(n) for l in range(k + 1, n)
    )

    top = staircase(n - 1)
    shapes = partitions_inside(top)
    # {w: [A_w] s_la(u)}, the shared row of the cached table: read only
    rows = {la: _schur_table(n, sum(la), False).get(la, {}) for la in shapes}
    dominant = {nu: from_code(nu) for nu in shapes}
    degrees = [sum(la) for la in shapes]
    by_degree = [[] for _ in range(sum(top) + 1)]
    for la, d in zip(shapes, degrees):
        by_degree[d].append(la)
    hilbert = [len(group) for group in by_degree]

    # elements of different degrees have disjoint supports
    independent = all(
        rows[la].get(dominant[nu], 0) == (la == nu)
        for group in by_degree for la in group for nu in group
    )

    # the upper order ideals of the type-A root poset are the Dyck paths of
    # semilength n, by the cells above the path; N P E Q, with P of
    # semilength k, has (k + 1)(m - 1 - k) more cells above it than P and Q
    # (the Carlitz-Riordan q-Catalan recursion)
    ideals = [[1]]
    for m in range(1, n + 1):
        series = [0] * (m * (m - 1) // 2 + 1)
        for k in range(m):
            for a, x in enumerate(ideals[k]):
                for b, y in enumerate(ideals[m - 1 - k]):
                    series[a + b + (k + 1) * (m - 1 - k)] += x * y
        ideals.append(series)

    # the shapes run by degree, so the partners of shapes[i] of degree at
    # most sum(top) - degrees[i] are one slice
    pairs = [
        (la, mu) for i, la in enumerate(shapes)
        for mu in shapes[i:bisect_right(degrees, sum(top) - degrees[i])]
    ]
    if n >= 6:
        # the middle pair of each of _SAMPLED_PAIRS equal runs
        runs = 2 * _SAMPLED_PAIRS
        pairs = [pairs[(2 * i + 1) * len(pairs) // runs] for i in range(_SAMPLED_PAIRS)]
    compared = 0
    mismatch = None
    for la, mu in pairs:
        compared += 1
        left, right = (NilCoxeterElement._from_valid(n, False, rows[x]) for x in (la, mu))
        product = (left * right).coeffs
        counts = _littlewood_richardson(mu, la, top)
        read = {nu: product.get(dominant[nu], 0) for nu in by_degree[sum(la) + sum(mu)]}
        combined = {}
        for nu, c in counts.items():
            for w, a in rows[nu].items():
                combined[w] = combined.get(w, 0) + c * a
        difference = _first_difference(counts, read) or _first_difference(combined, product)
        if difference:
            mismatch = (la, mu, *difference)
            break

    return {
        "n": n,
        "h_commutes": h_commutes,
        "dimension": len(shapes),
        "linearly_independent": independent,
        "hilbert_series": hilbert,
        "root_poset_ideal_series": ideals[n],
        "hilbert_matches": hilbert == ideals[n],
        "nonnegative": all(c >= 0 for row in rows.values() for c in row.values()),
        "structure_pairs_compared": compared,
        "structure_mismatch": mismatch,
    }
