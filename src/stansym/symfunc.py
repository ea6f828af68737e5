"""Graded symmetric functions with exact integer coefficients.

A SymFunc is a homogeneous element of the ring of symmetric functions (or of
the subring generated by h_1..h_{n-1}, or its dual quotient) written in one
of the bases m, h, e, s, affine Schur, or k-Schur.  Basis change goes
through m, s or h, degree by degree, and builds each column once.

Every basis change solves a unitriangular system, and one kernel,
``_peel``, solves them all.  Its remainder is a list of ints over the
partitions of the degree in lex order (``_lex_index``); it walks a range of
positions, and at each nonzero entry i records the coefficient c and
subtracts c times the cached column of i.  The remainder must end at zero,
which checks the expansion itself.  s_la and F~_la are m_la plus terms below
la in dominance order, hence lex-smaller, so ``change_basis`` to s and
affine Schur walks down over their m-columns.  h_mu = sum over la dominating
mu of K(la, mu) s_la, so the h-column of s_la walks up from la over the
Kostka rows, once per la (``_schur_h_column``).  The k-Schur functions are
dual to the F~_la, as h is to m, so h_mu = sum of [m_mu] F~_la s^(k)_la
over the bounded la dominating mu, and ``k_schur`` walks up from mu over
these k-Kostka rows, which the Kostka pass below counts with weak strips.  To
h, e (e_mu = omega(h_mu): the column of the conjugate la') and k-Schur,
``change_basis`` only sums columns and rows, and the Hall product and the
coproduct read the same h-columns.  Every step is an integer step.

No basis change runs an elimination.  ``_eliminate``, a fraction-free integer
elimination, and ``_replay`` serve the j-basis system and ``_solve_exact``,
the checked entry point for dense callers.  No module of the package calls
``_solve_exact``: it stays for the tests' oracles and the benchmark's
tracer, which times it.

Each basis element is first expanded into m, and the plain bases are
counted there rather than multiplied out (Macdonald, Symmetric Functions
and Hall Polynomials, I.6):

- s by Kostka numbers, K(la, mu) = [m_mu] s_la = [s_la] h_mu, every one of
  a degree in one Pieri pass that builds each h_mu in s by adding
  horizontal strips, or weak strips for k-Schur (``_kostka_table``), kept
  one table per degree and rank;
- h and e by matrices with row sums la and column sums mu, with entries in
  N or in {0, 1} (``_margin_count``), a bounded memo whose subproblems are
  shared across columns and degrees.

Since h and e are reached from s by Kostka numbers and expanded into m by
margin counts, a round trip through m checks one count against the other.
Products are taken in h, where h_la h_mu = h_{la u mu}.  The coproduct sums
Delta(h_mu) over the h-column: each degree d keeps an index of the pairs
(alpha, beta) with |alpha| + |beta| = d (``_pair_index``), Delta(h_mu) is
split once into (position, coefficient) pairs (``_h_coproduct``), and the
sum is taken in a list of ints, with one dict built at the end.

The two counting routes share no code.  Their oracles are the products they
replaced, kept for the tests: the Jacobi-Trudi determinant
``_jacobi_trudi_h`` pushed through ``_product_to_m(mu, _h_to_m)`` for s, and
``_product_to_m`` over one-part factors, multiplied by ``_m_product``, for h
and e.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, groupby, permutations as _itperm
from math import factorial
from operator import index

from .affine import AffinePermutation, _left_raise, grassmannian_from_partition
from .partition import (
    _conjugate,
    _dominated,
    as_partition,
    partitions_of,
    sort_composition,
    sparse_rearrangements,
)

#: basis tags with no rank attached
PLAIN_BASES = ("m", "h", "e", "s")


def _basis_key(basis, n=None):
    if basis in PLAIN_BASES:
        if n is not None:
            raise ValueError(f"basis {basis!r} carries no rank")
        return basis
    if basis in ("affineSchur", "kSchur"):
        if n is None:
            raise ValueError(f"basis {basis!r} needs a rank")
        return f"{basis}({n})"
    raise ValueError(f"unknown basis {basis!r}")


def _parse_basis(tag):
    """(name, rank) from a tag that ``_basis_key`` produces; ValueError otherwise."""
    if tag in PLAIN_BASES:
        return tag, None
    ranked = re.fullmatch(r"(affineSchur|kSchur)\(([1-9][0-9]*)\)", tag) if isinstance(tag, str) else None
    if ranked is None or int(ranked[2]) < 2:
        raise ValueError(f"unknown basis tag {tag!r}")
    return ranked[1], int(ranked[2])


class SymFunc:
    """Homogeneous symmetric function: coefficients on partitions of one size."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree, basis, coeffs):
        self.degree = index(degree)
        self.basis = basis
        name, n = _parse_basis(basis)
        clean = {}
        for la, c in coeffs.items():
            la = as_partition(la)
            if sum(la) != self.degree:
                raise ValueError(f"term {la} is not of degree {self.degree}")
            if n is not None and la and la[0] > n - 1:
                raise ValueError(f"term {la} is not ({n-1})-bounded")
            clean[la] = clean.get(la, 0) + index(c)
        self.coeffs = {la: c for la, c in clean.items() if c}

    @classmethod
    def _from_valid(cls, degree, basis, coeffs):
        """An internal result, unchecked: ``coeffs`` maps partitions of
        ``degree`` that ``basis`` admits to int coefficients, and the zero
        ones are dropped here."""
        self = object.__new__(cls)
        self.degree = degree
        self.basis = basis
        self.coeffs = {la: c for la, c in coeffs.items() if c}
        return self

    @staticmethod
    def monomial(basis, la, coeff=1):
        la = as_partition(la)
        return SymFunc(sum(la), basis, {la: coeff})

    @staticmethod
    def one(basis="m"):
        return SymFunc(0, basis, {(): 1})

    @staticmethod
    def zero(degree, basis="m"):
        return SymFunc(degree, basis, {})

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis or self.degree != other.degree:
            return self.to_m().coeffs == other.to_m().coeffs and self.degree == other.degree
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal across bases, so hash the m-expansion that __eq__ compares
        return hash((self.degree, tuple(sorted(self.to_m().coeffs.items()))))

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("can only add in matching basis and degree")
        out = dict(self.coeffs)
        for la, c in other.coeffs.items():
            out[la] = out.get(la, 0) + c
        return SymFunc._from_valid(self.degree, self.basis, out)

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, other):
        """The product, in m; two SymFuncs multiply in h, h_la h_mu = h_{la u mu}.
        An int scales in place; any other operand is NotImplemented."""
        if isinstance(other, int):
            return SymFunc._from_valid(self.degree, self.basis, {la: c * other for la, c in self.coeffs.items()})
        if not isinstance(other, SymFunc):
            return NotImplemented
        a, b = change_basis(self, "h"), change_basis(other, "h")
        out = {}
        for la, ca in a.coeffs.items():
            for mu, cb in b.coeffs.items():
                nu = tuple(sorted(la + mu, reverse=True))
                out[nu] = out.get(nu, 0) + ca * cb
        return SymFunc._from_valid(self.degree + other.degree, "h", out).to_m()

    __rmul__ = __mul__

    def __getitem__(self, la):
        return self.coeffs.get(as_partition(la), 0)

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs, reverse=True)

    def __repr__(self):
        name, n = _parse_basis(self.basis)
        if not self.coeffs:
            return "0"
        bits = []
        for la in self.support():
            c = self.coeffs[la]
            body = f"{name}{{{','.join(map(str, la)) or ''}}}"
            bits.append(f"{'+' if c >= 0 else '-'} {abs(c) if abs(c) != 1 or not la else ''}{body}")
        return " ".join(bits).lstrip("+ ").strip()

    def to_m(self):
        """Expand in the monomial basis."""
        if self.basis == "m":
            return self
        name, n = _parse_basis(self.basis)
        out = {}
        for la, c in self.coeffs.items():
            for mu, k in _expand_to_m(name, n, la).items():
                out[mu] = out.get(mu, 0) + c * k
        return SymFunc._from_valid(self.degree, "m", out)

    def change_basis(self, basis, n=None):
        return change_basis(self, basis, n)

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [{"part": list(la), "coeff": self.coeffs[la]} for la in self.support()],
        }

    @staticmethod
    def from_json(data):
        return SymFunc(
            data["degree"], data["basis"],
            {tuple(t["part"]): t["coeff"] for t in data["terms"]},
        )


@lru_cache(maxsize=1 << 10)
def _m_product(la, mu):
    """m_la * m_mu in the m basis, by counting additive superpositions."""
    out = {}
    for nu in partitions_of(sum(la) + sum(mu)):
        if len(nu) > len(la) + len(mu):
            continue
        width = len(nu)
        count = 0
        for alpha in sparse_rearrangements(la, width):
            beta = tuple(nu[i] - alpha[i] for i in range(width))
            if any(b < 0 for b in beta):
                continue
            if sort_composition(beta) == mu:
                count += 1
        if count:
            out[nu] = count
    return out


@lru_cache(maxsize=1 << 10)
def _h_to_m(k):
    """h_k = sum of all m_la with |la| = k."""
    return {la: 1 for la in partitions_of(k)}


@lru_cache(maxsize=1 << 10)
def _product_to_m(parts, factor_to_m):
    """Expand a product of one-part generators into the m basis."""
    if not parts:
        return {(): 1}
    head = factor_to_m(parts[0])
    tail = _product_to_m(parts[1:], factor_to_m)
    out = {}
    for la, ca in head.items():
        for mu, cb in tail.items():
            for nu, k in _m_product(la, mu).items():
                out[nu] = out.get(nu, 0) + ca * cb * k
    return out


def _jacobi_trudi_h(la):
    """s_la as a signed sum of h_mu via the determinant of (h_{la_i + j - i})."""
    la = as_partition(la)
    ell = len(la)
    out = {}
    for sigma in _itperm(range(ell)):
        sign = 1
        for i in range(ell):
            for j in range(i + 1, ell):
                if sigma[i] > sigma[j]:
                    sign = -sign
        degs = [la[i] + sigma[i] - i for i in range(ell)]
        if any(d < 0 for d in degs):
            continue
        mu = tuple(sorted((d for d in degs if d), reverse=True))
        out[mu] = out.get(mu, 0) + sign
    return {mu: c for mu, c in out.items() if c}


def _added_strips(la, k):
    """The partitions nu containing ``la`` with nu/la a horizontal strip of
    k cells.  Row i > 0 may gain at most la[i-1] - la[i] cells, and a new
    last row at most la[-1], so no two added cells share a column; the rows
    are filled from the new one up, and the first row takes what is left."""
    if not la:
        return [(k,)] if k else [()]
    states = [((), 0)]  # (rows i.. of nu, cells added to them)
    for i in range(len(la), 0, -1):
        p = la[i] if i < len(la) else 0
        states = [
            (((p + r,) + tail) if p + r else tail, used + r)  # only the new row can stay empty
            for tail, used in states
            for r in range(min(la[i - 1] - p, k - used) + 1)
        ]
    return [(la[0] + k - used,) + tail for tail, used in states]


def _weak_strips(n, la, p):
    """The shapes nu of the Grassmannian x_nu = v x_la over the cyclically
    decreasing v of length p with l(x_nu) = p + |la|, each word read from
    its end: h_p s^(k)_la = sum of s^(k)_nu (Lapointe-Morse, Adv. Math. 2008)."""
    from .stanley import _cyclically_decreasing_elements

    start = grassmannian_from_partition(n, la).window
    for word in _cyclically_decreasing_elements(n, p):
        w = start
        for i in reversed(word):
            w = _left_raise(i, w, n)
            if w is None:
                break
        else:
            if all(a < b for a, b in zip(w, w[1:])):
                yield AffinePermutation._from_valid(n, w).shape()


# a table keeps 1.5 MiB at d=16, 8.5 at d=20 and 21 at d=22, and its pass
# peaks at about 3, 20 and 50 MiB; the k-table at n=7 d=28 keeps 19 MiB and
# peaks at 41 (tracemalloc)
@lru_cache(maxsize=4)
def _kostka_table(d, n=None):
    """The Kostka numbers K(la, mu) = [m_mu] s_la = [s_la] h_mu of degree d
    (Macdonald, I.5-6), or at rank n the k-Kostka numbers [m_mu] F~_la =
    [s^(k)_la] h_mu (Lam, Amer. J. Math. 2006), as (rows, columns) indexed
    by position in ``_lex_index(d)``, where the (n-1)-bounded ones come first.

    Row mu holds the la dominating mu, lex-increasing, and column la the mu
    below la, lex-decreasing, each as a tuple of positions and a tuple of
    the numbers that opens with its own position and 1.  One Pieri pass
    builds them: h_mu = h_mu1 h_mu2 ... is built in s by adding horizontal
    strips of mu1, mu2, ... cells (``_added_strips``), or in s^(k) by weak
    strips (``_weak_strips``).  ``partitions_of`` lists the contents along
    their prefix trie, so each prefix is built once on a stack of {shape:
    count} dicts, and each strip list once per pass.  A strip list with a
    shape of the wrong size raises AssertionError naming (n, la, p, nu).
    """
    order, position = _lex_index(d)
    contents = partitions_of(d, n - 1) if n else partitions_of(d)
    strips = {}
    stack = [{(): 1}]  # stack[k]: the product of the first k parts, in s or s^(k)
    prev = ()
    rows, columns = [None] * len(contents), [[] for _ in contents]
    for mu in contents:  # lex-decreasing
        k = 0
        while k < len(prev) and prev[k] == mu[k]:  # no partition of d is a prefix of another
            k += 1
        del stack[k + 1:]
        for p in mu[k:]:
            counts = {}
            for la, c in stack[-1].items():
                added = strips.get((la, p))
                if added is None:
                    added = strips[la, p] = tuple(_weak_strips(n, la, p)) if n else _added_strips(la, p)
                    size = sum(la) + p
                    for nu in added:
                        if sum(nu) != size:
                            raise AssertionError(f"a strip leaves its degree: (n, la, p, nu) = {(n, la, p, nu)}")
                for nu in added:
                    counts[nu] = counts.get(nu, 0) + c
            stack.append(counts)
        prev, j = mu, position[mu]
        row = sorted((position[la], c) for la, c in stack[-1].items())
        rows[j] = tuple(zip(*row))
        for i, c in row:
            columns[i].append((j, c))
    return tuple(rows), tuple(tuple(zip(*column)) for column in columns)


@lru_cache(maxsize=1 << 10)
def _group_fills(m, top, t):
    """(amounts, ways) for m interchangeable columns taking t cells in all,
    at most ``top`` each: the partitions of t into at most m parts, padded
    with zeros to m entries, taken in m! / prod(n_a!) ways, n_a being the
    number of columns taking a."""
    out = []
    for amounts in partitions_of(t, top):
        if len(amounts) > m:
            continue
        amounts += (0,) * (m - len(amounts))
        ways = factorial(m)
        for _, same in groupby(amounts):
            ways //= factorial(len(list(same)))
        out.append((amounts, ways))
    return tuple(out)


@lru_cache(maxsize=1 << 12)
def _row_fills(cols, r, cap):
    """(sorted column sums left over, ways) for the fillings of one row of sum
    r against the column sums ``cols`` (a partition), entries at most ``cap``."""
    # (sum v, columns m, the most one cell can take)
    groups = [(v, len(list(g)), v if cap is None else min(v, cap)) for v, g in groupby(cols)]
    room = [0] * (len(groups) + 1)  # room[g]: the most groups g.. can take
    for g in reversed(range(len(groups))):
        _, m, top = groups[g]
        room[g] = room[g + 1] + m * top

    def rest(g, r):
        if g == len(groups):
            yield (), 1
            return
        v, m, top = groups[g]
        for t in range(max(0, r - room[g + 1]), min(r, m * top) + 1):
            for amounts, ways in _group_fills(m, top, t):
                left = tuple(v - a for a in amounts)
                for tail, more in rest(g + 1, r - t):
                    yield left + tail, ways * more

    out = {}
    for left, ways in rest(0, r):
        left = sort_composition(left)
        out[left] = out.get(left, 0) + ways
    return tuple(out.items())


@lru_cache(maxsize=1 << 14)
def _margin_count(rows, cols, cap):
    """Matrices with row sums ``rows`` and column sums ``cols`` (a partition),
    with entries in N (cap None) or in {0, 1} (cap 1).

    Rows are filled one at a time; the count for the remaining rows depends
    only on the sorted remaining column sums, so one memo serves every
    column and degree.
    """
    if not rows:
        return 1
    return sum(ways * _margin_count(rows[1:], left, cap) for left, ways in _row_fills(cols, rows[0], cap))


def _margin_column(la, cap):
    """[m_mu] of h_la (cap None) or e_la (cap 1), for every mu of |la|
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6)."""
    out = {}
    for mu in partitions_of(sum(la)):
        c = _margin_count(la, mu, cap)
        if c:
            out[mu] = c
    return out


@lru_cache(maxsize=1 << 12)
def _expand_to_m(name, n, la):
    """Basis element in the m basis, as a dict partition -> int, cached and,
    for affineSchur and kSchur, the element's own coefficients: read only.

    The plain bases are counted: s by Kostka numbers, a column of the
    degree's table (``_kostka_table``, oracle ``_jacobi_trudi_h`` through
    ``_product_to_m(mu, _h_to_m)``), h and e by matrices with given margins
    (``_margin_count``, oracle ``_product_to_m`` over one-part factors).
    """
    if name == "m":
        return {la: 1}
    if name == "h":
        return _margin_column(la, None)
    if name == "e":
        return _margin_column(la, 1)
    if name == "s":
        order, position = _lex_index(sum(la))
        spots, ks = _kostka_table(sum(la))[1][position[la]]
        return {order[i]: k for i, k in zip(spots, ks)}
    if name == "affineSchur":
        return affine_schur(n, la).coeffs
    if name == "kSchur":
        return k_schur(n, la).to_m().coeffs
    raise ValueError(f"unknown basis {name!r}")


def change_basis(f, basis, n=None):
    """Rewrite ``f`` in another basis; exact, with integrality enforced.

    s and affineSchur are reached by the peel (``_peel``) of the m-terms,
    walked down over the Kostka columns or the F~_la.  h and e sum the
    cached h-column of each s-term (``_schur_h_column``, s_la' for e), and
    kSchur sums the k-Kostka rows of the h-terms, all rows of one (n,
    degree) counted in one pass over weak strips (``_kostka_table``).  No
    system is solved.  Raises ValueError naming an obstructing term when
    ``f`` does not lie in the span of the target basis: the leading m-term
    for affine Schur, the lex-least h-term with a part of at least n for
    k-Schur.
    """
    target = _basis_key(basis, n)
    if target == f.basis:
        return f
    name, rank = _parse_basis(target)
    out = {}
    if name in ("h", "e"):
        # omega swaps h_mu and e_mu and sends s_la to s_la'
        for la, c in change_basis(f, "s").coeffs.items():
            for mu, k in _schur_h_column(_conjugate(la) if name == "e" else la):
                out[mu] = out.get(mu, 0) + c * k
        return SymFunc._from_valid(f.degree, target, out)
    if name == "kSchur":
        # the h_mu are a basis, and the k-Schur functions span those with mu_1 < n
        fh = change_basis(f, "h").coeffs
        unbounded = [mu for mu in fh if mu and mu[0] >= rank]
        if unbounded:
            raise ValueError(f"not expressible in basis {target}: obstructing coefficient on h_{min(unbounded)}")
        rows = _kostka_table(f.degree, rank)[0]
        order, position = _lex_index(f.degree)
        for mu, c in fh.items():
            for i, k in zip(*rows[position[mu]]):
                out[order[i]] = out.get(order[i], 0) + c * k
        return SymFunc._from_valid(f.degree, target, out)
    fm = f.to_m()
    if name == "m" or not fm.coeffs:
        return SymFunc._from_valid(f.degree, target, fm.coeffs)
    top = max(fm.coeffs)
    # the F~_la of bounded la have only bounded terms, so the leading term decides
    if rank is not None and top and top[0] > rank - 1:
        raise ValueError(f"not expressible in basis {target}: the leading term m_{top} is not ({rank - 1})-bounded")
    order, position = _lex_index(f.degree)
    rest = [0] * len(order)
    for la, c in fm.coeffs.items():
        rest[position[la]] = c
    if name == "s":
        column = _kostka_table(f.degree)[1].__getitem__
    else:
        def column(i):
            """F~ of order[i] in m, its keys read as positions."""
            g = affine_schur(rank, order[i]).coeffs
            return map(position.__getitem__, g), g.values()
    return SymFunc._from_valid(f.degree, target, _peel(rest, range(position[top], -1, -1), column, target, top))


def _peel(rest, walk, column, target, la):
    """Solve rest = sum of c_i column(i) for a unitriangular system, and
    return {partition: c_i}: the one kernel of every basis change.

    ``rest``, consumed, is a list of ints over ``_lex_index(|la|)``, and
    ``la`` names the input.  Each column(i) is an iterable of positions and
    one of numbers that opens with (i, 1), its other positions later in
    ``walk``.  At each nonzero entry i the kernel records c = rest[i] and
    subtracts c times column(i).  The remainder must end at zero, which
    checks the identity itself; a term left over raises an AssertionError
    that names it.
    """
    out = {}
    for i in walk:
        c = rest[i]
        if c:
            out[i] = c
            spots, ks = column(i)
            for j, k in zip(spots, ks):
                rest[j] -= c * k
    order = _lex_index(sum(la))[0]
    if any(rest):
        j = next(j for j, v in enumerate(rest) if v)
        raise AssertionError(f"the {target} peel of {la} leaves {rest[j]} on {order[j]}")
    return {order[i]: c for i, c in out.items()}


@lru_cache(maxsize=64)
def _lex_index(d):
    """The partitions of d, lex-increasing, and the position of each."""
    order = partitions_of(d)[::-1]
    return order, {la: i for i, la in enumerate(order)}


def _unit_peel(rows, la, target):
    """la of ``target`` in h, as {mu: c}: the peel of the unit vector at la,
    walked up over the ``rows`` of a Kostka or k-Kostka table, since h_mu =
    sum over la dominating mu of K(la, mu) s_la or K^(k)(la, mu) s^(k)_la."""
    start = _lex_index(sum(la))[1][la]
    rest = [0] * len(rows)
    rest[start] = 1
    return _peel(rest, range(start, len(rows)), rows.__getitem__, target, la)


@lru_cache(maxsize=1 << 12)
def _schur_h_column(la):
    """s_la in the h basis, as (mu, c) pairs (``_unit_peel``).  It runs once
    per la, and the changes to h and e, the Hall product and the coproduct
    share the column."""
    return tuple(_unit_peel(_kostka_table(sum(la))[0], la, "h").items())


def _check_ints(line):
    """TypeError unless every entry of ``line`` is an int."""
    if set(map(type, line)) <= {int}:  # the common case, decided at C speed
        return
    for x in line:
        if not isinstance(x, int):
            raise TypeError(f"exact solve needs int entries, got {x!r}")


def _solve_exact(rows, rhs):
    """Solve ``sum_j rows[i][j] * x_j = rhs[i]`` exactly over the integers.

    The dense rows are made sparse and factored, uncached, by ``_eliminate``,
    and ``_replay`` runs the result on ``rhs``.  Entries must be ints;
    anything else raises TypeError rather than being truncated.  Returns
    ``(solution, rank, None)``, with the free unknowns set to 0 and the
    solution as Fractions, or, for an inconsistent system, ``(None, rank,
    i)`` with ``i`` the index of an input row that the others contradict.
    """
    width = len(rows[0]) if rows else 0
    for row in rows:
        _check_ints(row)
        if len(row) != width:
            raise ValueError(f"rows of {len(row)} and {width} entries")
    _check_ints(rhs)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand side entries")
    return _replay(_eliminate([{j: v for j, v in enumerate(row) if v} for row in rows], width), rhs)


def _replay(system, rhs):
    """Solve against a matrix that ``_eliminate`` factored into ``system``,
    for an int ``rhs`` with one entry per row; returns what ``_solve_exact``
    returns.  Internal callers whose matrix and right-hand side are ints by
    construction call it directly."""
    steps, pivots, order, width = system
    b = list(rhs)
    prev = 1
    for r, p, scale, piv, updates in steps:
        b[r], b[p] = b[p], b[r]
        top = b[r] = b[r] * prev // scale
        for i, f, d in updates:
            b[i] = (piv * b[i] - f * top) // d
        prev = piv
    rank = len(pivots)
    for i in range(rank, len(b)):
        if b[i]:
            return None, rank, order[i]
    # prev is the minor on the pivot rows and columns, so by Cramer's rule
    # prev * x is integral; back substitution divides exactly
    scaled = [0] * width
    for r in reversed(range(rank)):
        c, piv, rest = pivots[r]
        scaled[c] = (prev * b[r] - sum(v * scaled[j] for j, v in rest.items())) // piv
    return [Fraction(x, prev) for x in scaled], rank, None


def _eliminate(rows, width):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of a list of
    sparse rows ``{column: nonzero int}`` with ``width`` columns, consumed and
    recorded for ``_replay``; the function that builds the rows caches this.

    The pivots are those of dense elimination: columns left to right, and
    for each the first row, in the current order, with a nonzero entry.  In
    Bareiss's scheme every entry is an integer minor and step t divides by
    the pivot of step t - 1.  A row the step leaves alone would only be
    rescaled by the ratio of the two pivots, so it is left as it stands and
    carries the pivot it was last divided to, ``level``; when a step next
    updates it, it divides by that level instead, exactly.  A pivot row is
    first brought to the current level, so the pivots stay Bareiss's.

    Returns ``(steps, pivots, order, width)``.  ``steps`` holds one
    ``(r, p, scale, pivot, updates)`` per pivot: swap rows r and p, bring
    row r from level ``scale`` to the previous pivot, then for each
    ``(i, f, d)`` in ``updates`` set row i to (pivot * row i - f * row r) / d.
    ``pivots`` holds ``(column, pivot, other entries)`` of each pivot row
    and ``order`` the input index of each row in the final order.
    """
    m = len(rows)
    level = [1] * m
    order = list(range(m))
    steps, pivots = [], []
    prev = 1
    for c in range(width):
        r = len(pivots)
        hits = [i for i in range(r, m) if c in rows[i]]
        if not hits:
            continue
        p = hits[0]
        for seq in (rows, level, order):
            seq[r], seq[p] = seq[p], seq[r]
        top, scale = rows[r], level[r]
        if scale != prev:
            top = {j: v * prev // scale for j, v in top.items()}
        piv = top.pop(c)
        updates = []
        # the rows between r and p have no entry in column c, and the row
        # swapped down to p had none either
        for i in hits[1:]:
            row, d = rows[i], level[i]
            f = row.pop(c)
            new = {j: piv * v for j, v in row.items()}
            for j, t in top.items():
                new[j] = new.get(j, 0) - f * t
            rows[i] = {j: v // d for j, v in new.items() if v}
            level[i] = piv
            updates.append((i, f, d))
        steps.append((r, p, scale, piv, tuple(updates)))
        pivots.append((c, piv, top))
        prev = piv
    return tuple(steps), tuple(pivots), tuple(order), width


def hall_inner_product(f, g):
    """The Hall inner product, via <h_la, m_mu> = delta."""
    if f.degree != g.degree:
        raise ValueError("inner product requires equal degrees")
    fh = change_basis(f, "h")
    gm = g.to_m()
    return sum(c * gm.coeffs.get(la, 0) for la, c in fh.coeffs.items())


# -- quasi-symmetric functions ------------------------------------------------


class QuasiSymFunc:
    """Homogeneous quasi-symmetric function on the monomial basis M_alpha.

    Coefficients are indexed by compositions with strictly positive parts.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        self.degree = index(degree)
        self.coeffs = {}
        for alpha, c in coeffs.items():
            alpha = tuple(map(index, alpha))
            if any(a <= 0 for a in alpha) or sum(alpha) != self.degree:
                raise ValueError(f"bad composition {alpha} for degree {self.degree}")
            self.coeffs[alpha] = self.coeffs.get(alpha, 0) + index(c)
        self.coeffs = {a: c for a, c in self.coeffs.items() if c}

    def __add__(self, other):
        if not isinstance(other, QuasiSymFunc):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return QuasiSymFunc(self.degree, out)

    def __eq__(self, other):
        if not isinstance(other, QuasiSymFunc):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self):
        bits = [f"{c}*M{a}" for a, c in sorted(self.coeffs.items())]
        return " + ".join(bits) or "0"

    def is_symmetric(self):
        return all(
            self.coeffs.get(alpha, 0) == self.coeffs.get(sort_composition(alpha), 0)
            for alpha in self.coeffs
        )

    def to_symfunc(self):
        if not self.is_symmetric():
            raise ValueError("not a symmetric function")
        return SymFunc(
            self.degree, "m",
            {a: c for a, c in self.coeffs.items() if a == sort_composition(a)},
        )


def subset_to_composition(D, n):
    """The composition of n whose partial sums are the elements of D; the
    empty one at n = 0."""
    edges = sorted(D)
    if any(not 1 <= i <= n - 1 for i in edges):
        raise ValueError(f"descent set {sorted(D)} must lie in [1, {n-1}]")
    cuts = [0] + edges + [n] if n else [0]
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def fundamental_quasisym(D, n):
    """The fundamental quasi-symmetric function L_D of degree n: the sum of
    M_alpha over the compositions alpha whose partial sums contain D, one
    per superset of D in [1, n-1]."""
    D = frozenset(D)
    subset_to_composition(D, n)  # validates
    free = [i for i in range(1, n) if i not in D]
    return QuasiSymFunc(n, {
        subset_to_composition(D.union(more), n): 1
        for k in range(len(free) + 1) for more in combinations(free, k)
    })


# -- affine Schur and k-Schur bases -------------------------------------------


@lru_cache(maxsize=1 << 12)
def affine_schur(n, la):
    """The affine Schur function indexed by an (n-1)-bounded partition, m basis.

    It is checked to be unitriangular: m_la with coefficient 1, and every
    other term (n-1)-bounded and below la in dominance order.
    """
    from .stanley import affine_stanley

    la = as_partition(la)
    f = affine_stanley(grassmannian_from_partition(n, la))
    if f.coeffs.get(la) != 1:
        raise AssertionError(
            f"affine Schur leading coefficient for n={n}, la={la}: "
            f"expected 1, got {f.coeffs.get(la, 0)}"
        )
    for mu in f.coeffs:
        if (mu and mu[0] >= n) or not _dominated(mu, la):
            raise AssertionError(
                f"F~_{la} (n={n}) has a term m_{mu} outside the bounded partitions below {la}"
            )
    return f


@lru_cache(maxsize=64)
def _k_schur_h_table(n, degree):
    """h-expansions of all k-Schur functions of one degree, each peeled
    (``_unit_peel``) over the k-Kostka rows that the weak-strip pass counts,
    not read off the F~_la (``_kostka_table(degree, n)``)."""
    rows = _kostka_table(degree, n)[0]
    return {
        la: SymFunc._from_valid(degree, "h", _unit_peel(rows, la, f"kSchur({n})")) for la in partitions_of(degree, n - 1)
    }


def k_schur(n, la):
    """The k-Schur function (k = n-1) dual to the affine Schur basis, h basis."""
    la = as_partition(la)
    if la and la[0] > n - 1:
        raise ValueError(f"partition {la} is not ({n-1})-bounded")
    return _k_schur_h_table(n, sum(la))[la]


# -- coproduct ----------------------------------------------------------------


@lru_cache(maxsize=64)
def _pair_index(d):
    """The pairs (alpha, beta) of partitions with |alpha| + |beta| = d, in a
    fixed order; the code of each part; and the position of each pair,
    keyed by the codes of alpha and beta.

    A partition of at most d is coded by the sum of (d + 1)^(j - 1) over its
    parts j; no part recurs more than d times, so the code is one-to-one,
    and joining two partitions adds their codes.
    """
    pairs = tuple((a, b) for j in range(d + 1) for a in partitions_of(j) for b in partitions_of(d - j))
    code = [(d + 1) ** j for j in range(d)]  # code[j - 1] of the part j
    position = {(sum(code[j - 1] for j in a), sum(code[j - 1] for j in b)): i for i, (a, b) in enumerate(pairs)}
    return pairs, code, position


@lru_cache(maxsize=1 << 10)
def _h_coproduct(mu):
    """Delta(h_mu) in the h (x) h basis, as a tuple of positions in the
    pairs of ``_pair_index(|mu|)`` and a tuple of their coefficients.

    Delta(h_p) = sum over j of h_j (x) h_{p-j}, and the m factors of an
    equal part p commute, so their product is a sum over the multisets of m
    cut points j in 0..p, each taken in m! / prod(n_j!) ways, n_j being how
    often it recurs: the fillings of m interchangeable columns with at most
    p each, over every total t (``_group_fills``).  The splits of the
    distinct parts multiply; each side is carried as its code, so the parts
    of a side join by an addition, and each split is looked up once.
    """
    _, code, position = _pair_index(sum(mu))
    splits = [(0, 0, 1)]
    for p, same in groupby(mu):
        m = len(list(same))
        cuts = [
            (sum(code[j - 1] for j in js if j), sum(code[p - j - 1] for j in js if j != p), ways)
            for t in range(m * p + 1) for js, ways in _group_fills(m, p, t)
        ]
        splits = [(left + a, right + b, c * k) for left, right, c in splits for a, b, k in cuts]
    out = {}
    for left, right, c in splits:
        i = position[left, right]
        out[i] = out.get(i, 0) + c
    return tuple(out), tuple(out.values())


def coproduct(f):
    """Coproduct of a symmetric function, returned in the h (x) h basis.

    The result maps pairs of partitions to integers: the sum of c_mu
    Delta(h_mu) over the h-expansion of ``f``.  Each Delta(h_mu) is split
    once (``_h_coproduct``) into positions of the pairs of the degree
    (``_pair_index``), so the sum is taken in a list and the pairs are
    looked up only for the nonzero entries at the end.
    """
    pairs = _pair_index(f.degree)[0]
    total = [0] * len(pairs)
    for mu, c in change_basis(f, "h").coeffs.items():
        spots, ks = _h_coproduct(mu)
        for i, k in zip(spots, ks):
            total[i] += c * k
    return dict(zip(compress(pairs, total), filter(None, total)))
