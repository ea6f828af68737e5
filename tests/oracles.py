"""Slow definitions that more than one test file checks the package against.

Not collected by pytest (the name does not start with ``test_``); test files
import it as ``oracles``.
"""

from functools import lru_cache

from stansym.affine import AffinePermutation, _left_raise, elements_of_length
from stansym.nilcoxeter import NilCoxeterElement
from stansym.nilhecke import NilHeckeElement, ScalarPoly
from stansym.partition import as_partition
from stansym.permutation import Permutation
from stansym.tableaux import transition_sides


@lru_cache(maxsize=None)
def _chains(shape):
    """Saturated chains from () up to ``shape`` in Young's lattice."""
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = shape[:i] + (shape[i] - 1,) + shape[i + 1:]
            while smaller and smaller[-1] == 0:
                smaller = smaller[:-1]
            total += _chains(smaller)
    return total


def count_standard_tableaux_brute(la):
    """Standard-tableau count by direct enumeration of growth chains."""
    return _chains(as_partition(la))


def from_finite(w, n=None):
    """Image of a finite permutation under S_n -> S~_n."""
    if n is None:
        n = max(w.n, 3)
    return AffinePermutation(n, w.embed(n).window)


def horizontal_strips(la, k):
    """Partitions nu inside ``la`` such that la/nu is a horizontal strip of k
    cells, one recursive generator call per row: row i may lose at most
    la[i] - la[i+1] cells, so no two removed cells share a column."""
    if not la:
        if k == 0:
            yield ()
        return
    nxt = la[1] if len(la) > 1 else 0
    for r in range(min(k, la[0] - nxt) + 1):
        row = la[0] - r  # 0 only in the last row, where the tail is ()
        for tail in horizontal_strips(la[1:], k - r):
            yield ((row,) + tail) if row else ()


@lru_cache(maxsize=None)
def kostka_by_strips(shape, content):
    """K(shape, content), peeling the horizontal strip of the largest entry
    with the strips drawn afresh from ``horizontal_strips`` on every call."""
    if not content:
        return 1
    if len(shape) > len(content):
        return 0
    rest = content[:-1]
    return sum(kostka_by_strips(inner, rest) for inner in horizontal_strips(shape, content[-1]))


@lru_cache(maxsize=None)
def transition_tree_by_objects(key):
    """{la: [s_la] F_u} for u the permutation whose stable window is ``key``,
    by the transition tree on validated ``Permutation``s: each node, v, and
    every term of the identity at (v, r) is an object, and the sides come
    from the public ``transition_sides``."""
    u = Permutation(key)
    if u.is_vexillary():
        return {u.shape(): 1}
    r = u.right_descents()[-1]
    s = max(j for j in range(r + 1, u.n + 1) if u(j) < u(r))
    v = u.transposition_right(r, s)
    left, right, extra = transition_sides(v, r)
    if left != [u]:
        raise AssertionError(f"transition tree at {u}: the left side at ({v}, {r}) is {left}")
    out = {}
    for child in right if extra is None else right + [extra]:
        for la, c in transition_tree_by_objects(child._stable_window()).items():
            out[la] = out.get(la, 0) + c
    return out


# -- the nilHecke letter kernel that keeps every term it has visited ----------
#
# Terms are {window: {exponent tuple: int}} as in ``nilhecke``, but here a
# letter keeps an entry, possibly empty, for every window it has reached, and
# a coefficient that cancels stays as 0.  The results are wrapped by the
# checked constructors, which drop both.


def letter_with_dead_terms(i, terms, n):
    """A_i times terms, 0 <= i < n: A_i f A_v = (s_i.f) A_{s_i v} + (d_i f) A_v,
    with an entry for every v of ``terms`` whether d_i leaves anything or not."""
    a, b = (i - 1, i) if i else (n - 1, 0)
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
                acc[e] = acc.get(e, 0) + c
        acc = out.setdefault(v, {})
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
                acc[key] = acc.get(key, 0) + c
    return out


def _act_with_dead_terms(word, terms, n):
    for i in reversed(word):
        terms = letter_with_dead_terms(i % n, terms, n)
    return terms


def _add_product(acc, left, right):
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def _minus_alpha_times(acc, i, n, lowered):
    a, b = (i - 1, i) if i else (n - 1, 0)
    for v, poly in lowered.items():
        into = acc.setdefault(v, {})
        for e, c in poly.items():
            for pos, sign in ((a, -1), (b, 1)):
                e2 = list(e)
                e2[pos] += 1
                key = tuple(e2)
                into[key] = into.get(key, 0) + sign * c


def _merge(acc, terms):
    for v, poly in terms.items():
        into = acc.setdefault(v, {})
        for e, c in poly.items():
            into[e] = into.get(e, 0) + c


def _element(n, terms):
    """The checked element of kernel terms, zeros and empty terms dropped."""
    return NilHeckeElement(n, {AffinePermutation(n, v): ScalarPoly(n, poly) for v, poly in terms.items()})


def _identity_window(n):
    return tuple(range(1, n + 1))


def product_with_dead_terms(x, y):
    """x * y, each term of x walking its letters through the whole of y."""
    n = x.n
    right = {w.window: p.coeffs for w, p in y.coeffs.items()}
    out = {}
    for u, p in x.coeffs.items():
        for v, poly in _act_with_dead_terms(u.reduced_word(), right, n).items():
            _add_product(out.setdefault(v, {}), p.coeffs, poly)
    return _element(n, out)


def commute_past_with_dead_terms(i, f):
    """A_i * f in normal form."""
    n = f.n
    return _element(n, letter_with_dead_terms(i % n, {_identity_window(n): f.coeffs}, n))


def embed_group_with_dead_terms(w):
    """The image of w under s_i -> 1 - alpha_i A_i."""
    n = w.n
    terms = {_identity_window(n): {(0,) * n: 1}}
    for i in reversed(w.reduced_word()):
        _minus_alpha_times(terms, i, n, letter_with_dead_terms(i, terms, n))
    return _element(n, terms)


def tensor_act_with_dead_terms(a, T):
    """The coproduct module action of a on {right AffinePermutation: left
    NilHeckeElement}: A_i.(m (x) n) = A_i m (x) n + m (x) A_i n
    - alpha_i A_i m (x) A_i n, letter by letter."""
    n = a.n
    start = {w.window: {v.window: p.coeffs for v, p in L.coeffs.items()} for w, L in T.items()}
    out = {}
    for u, p in a.coeffs.items():
        cur = start
        for i in reversed(u.reduced_word()):
            step = {}
            for w, L in cur.items():
                aL = letter_with_dead_terms(i, L, n)
                _merge(step.setdefault(w, {}), aL)
                up = _left_raise(i, w, n)
                if up is not None:
                    longer = step.setdefault(up, {})
                    _merge(longer, L)
                    _minus_alpha_times(longer, i, n, aL)
            cur = step
        for w, L in cur.items():
            acc = out.setdefault(w, {})
            for v, poly in L.items():
                _add_product(acc.setdefault(v, {}), p.coeffs, poly)
    result = {AffinePermutation(n, w): _element(n, L) for w, L in out.items()}
    return {w: L for w, L in result.items() if not L.is_zero()}


# -- the Chevalley cover list and the j-basis system on objects ----------------


def chevalley_covers_by_objects(w):
    """The cover list of ``nilhecke._chevalley_covers``, [(window of w t_ij,
    i - 1, (j - 1) mod n)], with each reflection t_ij a checked
    ``AffinePermutation``, multiplied onto w and measured by ``length()``."""
    n, ell = w.n, w.length()
    covers = []
    for i, j in w.inversions():
        reflection = list(range(1, n + 1))
        for k in range(1, n + 1):
            if (k - i) % n == 0:
                reflection[k - 1] = j + (k - i)
            elif (k - j) % n == 0:
                reflection[k - 1] = i + (k - j)
        wt = w * AffinePermutation(n, reflection)
        if wt.length() == ell - 1:
            covers.append((wt.window, i - 1, (j - 1) % n))
    return covers


@lru_cache(maxsize=None)
def _unpresolved_system(n, ell):
    """The j-basis system of length ell with no presolve: one unknown per
    element of that length, every (i, y) row and every normalization row, in
    that order, factored by ``_eliminate``."""
    from stansym.symfunc import _eliminate

    elements = elements_of_length(n, ell)
    entries, grassmannian = {}, []
    for col, x in enumerate(elements):
        for y, a, b in chevalley_covers_by_objects(x):
            entries.setdefault((a, y), {})[col] = 1
            entries.setdefault((b, y), {})[col] = -1
        if x.is_grassmannian():
            grassmannian.append((x, {col: 1}))
    rows = [entries[key] for key in sorted(entries)] + [row for _, row in grassmannian]
    return len(entries), tuple(x for x, _ in grassmannian), _eliminate(rows, len(elements))


def j_basis_by_unpresolved_solver(n, w):
    """{x: coefficient} of the j-basis element of the Grassmannian w, the
    zeros dropped, replayed from ``_unpresolved_system``."""
    from stansym.symfunc import _replay

    chevalley_rows, grassmannian, system = _unpresolved_system(n, w.length())
    sol, _, bad = _replay(system, [0] * chevalley_rows + [int(x == w) for x in grassmannian])
    if bad is not None:
        raise AssertionError(f"the unpresolved j-basis system of {w!r} is inconsistent at row {bad}")
    return {x: c for x, c in zip(elements_of_length(n, w.length()), sol) if c}


# -- the nilCoxeter product on objects ------------------------------------------


def nilcoxeter_product_by_objects(a, b):
    """The nilCoxeter product a b by pairs of group elements: each u v is
    multiplied out and kept when l(uv) = l(u) + l(v)."""
    out = {}
    for u, cu in a.coeffs.items():
        lu = u.length()
        for v, cv in b.coeffs.items():
            uv = u * v
            if uv.length() == lu + v.length():
                out[uv] = out.get(uv, 0) + cu * cv
    return NilCoxeterElement(a.n, a.affine, out)
