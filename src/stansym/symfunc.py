"""Graded symmetric functions with exact integer coefficients.

A SymFunc is a homogeneous element of the ring of symmetric functions (or of
the subring generated by h_1..h_{n-1}, or its dual quotient) written in one
of the bases m, h, e, s, affine Schur, or k-Schur.  Basis change goes
through m, s or h, degree by degree, and builds each column once:

- s and affine Schur are unitriangular over m in dominance order, so
  ``change_basis`` to them peels: it takes the lex-largest m-term, which is
  dominance-maximal, subtracts that coefficient times the term's column, and
  repeats.  It builds only the columns it meets.
- h and e are peeled from s.  h_mu = sum over la dominating mu of
  K(la, mu) s_la, so ``change_basis`` to h takes the lex-smallest s-term,
  which is dominance-minimal, subtracts that coefficient times the Kostka
  row of h_mu, and repeats; e_mu = omega(h_mu) is the same peel on the
  conjugate shapes.  Every step is an integer step.
- k-Schur is reached from h.  The k-Schur functions are dual to the affine
  Schur functions F~_la = m_la + (terms below la), so h_mu = sum over
  bounded la dominating mu of [m_mu] F~_la s^(k)_la: ``change_basis`` to
  k-Schur replaces each h-term by this k-Kostka row, a plain integer sum,
  and ``k_schur``, the other way, is the Kostka peel with k-Kostka rows.

No basis is solved for.  ``_eliminate``, a fraction-free integer
elimination, and ``_replay`` serve the j-basis system and ``_solve_exact``,
the checked entry point for dense callers.  No module of the package calls
``_solve_exact``: it stays for the tests' oracles and the benchmark's
tracer, which times it.

Each basis element is first expanded into m, and the plain bases are
counted there rather than multiplied out (Macdonald, Symmetric Functions
and Hall Polynomials, I.6):

- s by Kostka numbers, K(la, mu) = [m_mu] s_la, counting semistandard
  tableaux one horizontal strip at a time (``_kostka``);
- h and e by matrices with row sums la and column sums mu, with entries in
  N or in {0, 1} (``_margin_count``).

Both counts are bounded module-level memos, so subproblems are shared across
columns and degrees.  Since h and e are reached from s by Kostka numbers and
expanded into m by margin counts, a round trip through m checks one count
against the other.  Products are taken in h, where h_la h_mu = h_{la u mu}.

The two counting routes share no code.  Their oracles are the products they
replaced, kept for the tests: the Jacobi-Trudi determinant
``_jacobi_trudi_h`` pushed through ``_product_to_m(mu, _h_to_m)`` for s, and
``_product_to_m`` over one-part factors, multiplied by ``_m_product``, for h
and e.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, permutations as _itperm
from math import factorial
from operator import index

from .partition import (
    _dominated,
    as_partition,
    bounded_partitions,
    conjugate,
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
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("can only add in matching basis and degree")
        out = dict(self.coeffs)
        for la, c in other.coeffs.items():
            out[la] = out.get(la, 0) + c
        return SymFunc._from_valid(self.degree, self.basis, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        """The product, in m; two SymFuncs multiply in h, h_la h_mu = h_{la u mu}."""
        if isinstance(other, int):
            return SymFunc._from_valid(self.degree, self.basis, {la: c * other for la, c in self.coeffs.items()})
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _h_to_m(k):
    """h_k = sum of all m_la with |la| = k."""
    return {la: 1 for la in partitions_of(k)}


@lru_cache(maxsize=None)
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


def _horizontal_strips(la, k):
    """Partitions nu inside ``la`` such that la/nu is a horizontal strip of k cells.

    Row i may lose at most la[i] - la[i+1] cells, so no two removed cells
    share a column.
    """
    if not la:
        if k == 0:
            yield ()
        return
    nxt = la[1] if len(la) > 1 else 0
    for r in range(min(k, la[0] - nxt) + 1):
        row = la[0] - r  # 0 only in the last row, where the tail is ()
        for tail in _horizontal_strips(la[1:], k - r):
            yield ((row,) + tail) if row else ()


@lru_cache(maxsize=1 << 16)
def _kostka(shape, content):
    """K(shape, content), the number of SSYT of a shape and a partition content.

    The cells holding the largest entry, len(content), form a horizontal
    strip of content[-1] cells; peeling it leaves a tableau of content
    content[:-1].  One memo serves every column and degree.
    """
    if not content:
        return 1
    if len(shape) > len(content):
        return 0  # the first column needs len(shape) distinct entries
    rest = content[:-1]
    return sum(_kostka(inner, rest) for inner in _horizontal_strips(shape, content[-1]))


def _kostka_column(la):
    """[m_mu] s_la = K(la, mu), nonzero exactly for mu below la in dominance order."""
    return {mu: _kostka(la, mu) for mu in partitions_of(sum(la)) if _dominated(mu, la)}


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
    """Basis element in the m basis, as a dict partition -> int.

    The plain bases are counted: s by Kostka numbers (``_kostka``, oracle
    ``_jacobi_trudi_h`` through ``_product_to_m(mu, _h_to_m)``), h and e by
    matrices with given margins (``_margin_count``, oracle ``_product_to_m``
    over one-part factors).
    """
    if name == "m":
        return {la: 1}
    if name == "h":
        return _margin_column(la, None)
    if name == "e":
        return _margin_column(la, 1)
    if name == "s":
        return _kostka_column(la)
    if name == "affineSchur":
        return dict(affine_schur(n, la).coeffs)
    if name == "kSchur":
        return dict(k_schur(n, la).to_m().coeffs)
    raise ValueError(f"unknown basis {name!r}")


def change_basis(f, basis, n=None):
    """Rewrite ``f`` in another basis; exact, with integrality enforced.

    s and affineSchur are reached by peeling m-terms (``_peel``), h and e by
    peeling s-terms with Kostka rows (``_peel_kostka``), and kSchur by
    summing the k-Kostka rows (``_k_kostka_row``) of the h-terms; only the
    columns and rows met are built, and no system is solved.  Raises
    ValueError naming an obstructing term when ``f`` does not lie in the
    span of the target basis: an m-term for affine Schur, an h-term with a
    part of at least n for k-Schur.
    """
    target = _basis_key(basis, n)
    if target == f.basis:
        return f
    name, rank = _parse_basis(target)
    if name in ("h", "e"):
        fs = f if f.basis == "s" else _peel(f.to_m(), "s", None, "s")
        # omega swaps h_mu and e_mu and sends s_la to s_la'
        rest = {conjugate(la) if name == "e" else la: c for la, c in fs.coeffs.items()}
        return SymFunc._from_valid(f.degree, target, _peel_kostka(rest, _kostka_row))
    if name == "kSchur":
        # the h_mu are a basis, and the k-Schur functions span those with mu_1 < n
        out = {}
        for mu, c in change_basis(f, "h").coeffs.items():
            if mu and mu[0] >= rank:
                raise ValueError(f"not expressible in basis {target}: obstructing coefficient on h_{mu}")
            _subtract(out, -c, _k_kostka_row(rank, mu))
        return SymFunc._from_valid(f.degree, target, out)
    fm = f.to_m()
    if name == "m":
        return fm
    return _peel(fm, name, rank, target)


def _peel(fm, name, rank, target):
    """``fm`` in a basis unitriangular over m in dominance order (s, affineSchur).

    The lex-largest m-term is dominance-maximal, so it is the leading term
    of exactly one basis element of the expansion, with that coefficient;
    subtracting that element's column leaves a smaller remainder.
    """
    rest = dict(fm.coeffs)
    out = {}
    while rest:
        la = max(rest)
        if rank is not None and la and la[0] > rank - 1:
            raise ValueError(
                f"not expressible in basis {target}: the leading term m_{la} is not ({rank - 1})-bounded"
            )
        column = _expand_to_m(name, rank, la)
        if column.get(la) != 1 or max(column) != la:
            raise AssertionError(f"the {target} column of {la} does not lead with m_{la}")
        out[la] = rest[la]
        _subtract(rest, rest[la], column.items())
    return SymFunc._from_valid(fm.degree, target, out)


def _subtract(rest, c, column):
    """rest -= c * column, for (key, int) pairs, dropping what cancels."""
    for mu, k in column:
        v = rest.get(mu, 0) - c * k
        if v:
            rest[mu] = v
        else:
            rest.pop(mu, None)


@lru_cache(maxsize=1 << 10)
def _kostka_row(mu):
    """[s_la] h_mu = K(la, mu) over the la dominating mu, lex-increasing, so
    the row opens with (mu, 1) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6)."""
    return tuple((la, _kostka(la, mu)) for la in reversed(partitions_of(sum(mu))) if _dominated(mu, la))


def _peel_kostka(rest, row):
    """The h-coefficients of sum rest[la] b_la, where ``row(mu)`` is h_mu in
    the basis b, lex-increasing and opening with (mu, 1): the Kostka rows
    for b = s, the k-Kostka rows for b = k-Schur.  ``rest`` is consumed.

    The lex-smallest term mu is dominance-minimal, so h_mu is the one h with
    a b_mu term and every other h of the expansion is lex-larger: its
    coefficient is that of b_mu, and subtracting it times the row of h_mu
    leaves a lex-larger remainder.
    """
    out = {}
    while rest:
        mu = min(rest)
        line = row(mu)
        if line[0] != (mu, 1):
            raise AssertionError(f"the row of h_{mu} does not open with its own term")
        out[mu] = rest[mu]
        _subtract(rest, rest[mu], line)
    return out


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


def _compositions_of(d):
    if d == 0:
        return [()]
    out = []
    for first in range(1, d + 1):
        out.extend((first,) + rest for rest in _compositions_of(d - first))
    return out


def subset_to_composition(D, n):
    """The composition of n whose partial sums are the elements of D."""
    edges = sorted(D)
    if any(not 1 <= i <= n - 1 for i in edges):
        raise ValueError(f"descent set {sorted(D)} must lie in [1, {n-1}]")
    cuts = [0] + edges + [n]
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def fundamental_quasisym(D, n):
    """The fundamental quasi-symmetric function L_D of degree n."""
    D = frozenset(D)
    subset_to_composition(D, n)  # validates
    coeffs = {}
    for alpha in _compositions_of(n):
        # partial sums of alpha are the possible strict-increase positions
        cuts = set()
        s = 0
        for a in alpha[:-1]:
            s += a
            cuts.add(s)
        if D <= cuts:
            coeffs[alpha] = 1
    return QuasiSymFunc(n, coeffs)


# -- affine Schur and k-Schur bases -------------------------------------------


@lru_cache(maxsize=1 << 12)
def affine_schur(n, la):
    """The affine Schur function indexed by an (n-1)-bounded partition, m basis.

    It is checked to be unitriangular: m_la with coefficient 1, and every
    other term (n-1)-bounded and below la in dominance order.
    """
    from .affine import grassmannian_from_partition
    from .stanley import affine_stanley

    la = as_partition(la)
    if la and la[0] > n - 1:
        raise ValueError(f"partition {la} is not ({n-1})-bounded")
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


@lru_cache(maxsize=1 << 10)
def _k_kostka_row(n, mu):
    """[s^(k)_la] h_mu = [m_mu] F~_la over the (n-1)-bounded la dominating
    mu, lex-increasing, so the row opens with (mu, 1): the k-Schur functions
    are the basis dual to the affine Schur functions, as the h are to the m
    (Lam, affine Stanley symmetric functions)."""
    return tuple(
        (la, c)
        for la in reversed(partitions_of(sum(mu), n - 1))
        if _dominated(mu, la) and (c := affine_schur(n, la).coeffs.get(mu))
    )


@lru_cache(maxsize=64)
def _k_schur_h_table(n, degree):
    """h-expansions of all k-Schur functions of one degree: the Kostka peel
    of each s^(k)_la with k-Kostka rows."""
    return {
        la: SymFunc._from_valid(degree, "h", _peel_kostka({la: 1}, lambda mu: _k_kostka_row(n, mu)))
        for la in bounded_partitions(n, degree)
    }


def k_schur(n, la):
    """The k-Schur function (k = n-1) dual to the affine Schur basis, h basis."""
    la = as_partition(la)
    if la and la[0] > n - 1:
        raise ValueError(f"partition {la} is not ({n-1})-bounded")
    return _k_schur_h_table(n, sum(la))[la]


# -- coproduct ----------------------------------------------------------------


@lru_cache(maxsize=1 << 10)
def _h_coproduct(mu):
    """Delta(h_mu) as ((left, right), coefficient) pairs in the h (x) h basis.

    Delta(h_p) = sum over j of h_j (x) h_{p-j}, and the m factors of an
    equal part p commute, so their product is a sum over the multisets of m
    cut points j in 0..p, each taken in m! / prod(n_j!) ways, n_j being how
    often it recurs: the fillings of m interchangeable columns with at most
    p each, over every total t (``_group_fills``).  The splits of the
    distinct parts multiply, and each key is sorted once.
    """
    splits = [((), (), 1)]
    for p, same in groupby(mu):
        m = len(list(same))
        cuts = [
            (tuple(j for j in js if j), tuple(p - j for j in js if j != p), ways)
            for t in range(m * p + 1) for js, ways in _group_fills(m, p, t)
        ]
        splits = [(left + a, right + b, c * k) for left, right, c in splits for a, b, k in cuts]
    out = {}
    for left, right, c in splits:
        key = tuple(sorted(left, reverse=True)), tuple(sorted(right, reverse=True))
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


def coproduct(f):
    """Coproduct of a symmetric function, returned in the h (x) h basis.

    The result maps pairs of partitions to integers: the sum of c_mu
    Delta(h_mu) over the h-expansion of ``f``, with Delta(h_mu) split once
    per mu (``_h_coproduct``).
    """
    out = {}
    for mu, c in change_basis(f, "h").coeffs.items():
        for key, k in _h_coproduct(mu):
            out[key] = out.get(key, 0) + c * k
    return {key: c for key, c in out.items() if c}
