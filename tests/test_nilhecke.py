"""Affine nilHecke ring: commutation, coproduct, phi0, and the j-basis."""

import random
import tracemalloc

import oracles
import pytest

from stansym import nilcoxeter, nilhecke, symfunc
from stansym.affine import (
    AffinePermutation,
    CorootVector,
    elements_of_length,
    grassmannian_from_partition,
)
from stansym.nilcoxeter import NilCoxeterElement, h_element, noncommutative_schur
from stansym.nilhecke import (
    NilHeckeElement,
    ScalarPoly,
    chevalley,
    commute_past,
    coproduct,
    embed_group,
    hopf_generator_check,
    j_basis_element,
    kappa,
    phi0,
    tensor_act,
    translation_centralizer_check,
)


def aff(word, n=3):
    return AffinePermutation.from_word(word, n)


# -- the validated letter-by-letter forms, kept as oracles of the kernel --------


def _letter_times(i, elem):
    """A_i times an element in normal form, through the checked constructors;
    whether s_i v > v is read off Shi's length, not off the kernel's
    ``_left_raise``."""
    n = elem.n
    i = i % n
    a, b = (i, i + 1) if i != 0 else (n, 1)
    si = AffinePermutation.simple(i, n)
    terms = []
    for v, q in elem.coeffs.items():
        up = si * v
        if up.length() > v.length():
            terms.append((up, q.swap(a, b)))
        terms.append((v, q.divided_difference(i)))
    return NilHeckeElement(n, terms)


def _product(x, y):
    terms = []
    for u, p in x.coeffs.items():
        t = y
        for i in reversed(u.reduced_word()):
            t = _letter_times(i, t)
        terms.extend((w, p * q) for w, q in t.coeffs.items())
    return NilHeckeElement(x.n, terms)


def _embed_group(w):
    n = w.n
    out = NilHeckeElement.one(n)
    for i in w.reduced_word():
        si = NilHeckeElement.one(n) - NilHeckeElement.basis(
            AffinePermutation.simple(i, n), ScalarPoly.alpha(n, i)
        )
        out = _product(out, si)
    return out


def _tensor_letter_act(i, T):
    """A_i.(m (x) n) = A_i m (x) n + m (x) A_i n - alpha_i A_i m (x) A_i n."""
    if not T:
        return {}
    n = next(iter(T.values())).n
    si = AffinePermutation.simple(i, n)
    alpha = ScalarPoly.alpha(n, i)
    out = {}
    for w, L in T.items():
        aL = _letter_times(i, L)
        out.setdefault(w, []).extend(aL.coeffs.items())
        up = si * w
        if up.length() > w.length():
            longer = out.setdefault(up, [])
            longer.extend(L.coeffs.items())
            longer.extend((v, -(alpha * p)) for v, p in aL.coeffs.items())
    out = {w: NilHeckeElement(n, terms) for w, terms in out.items()}
    return {w: L for w, L in out.items() if not L.is_zero()}


def _coproduct(a):
    out = {}
    for u, p in a.coeffs.items():
        cur = {AffinePermutation.identity(a.n): NilHeckeElement.one(a.n)}
        for i in reversed(u.reduced_word()):
            cur = _tensor_letter_act(i, cur)
        for w, L in cur.items():
            for v, q in L.coeffs.items():
                out[(v, w)] = out.get((v, w), ScalarPoly.zero(a.n)) + p * q
    return {k: q for k, q in out.items() if not q.is_zero()}


ELEMENTS = [
    w for n, top in ((3, 6), (4, 5), (5, 4)) for l in range(top + 1) for w in elements_of_length(n, l)
]


def _scalar(rng, n):
    """A seeded scalar of degree <= 2 with up to three terms."""
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * n
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(n)] += 1
        coeffs[tuple(exp)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return ScalarPoly(n, coeffs)


def test_product_equals_the_validated_letter_product():
    rng = random.Random(19)
    for w in ELEMENTS:
        n = w.n
        left = NilHeckeElement.basis(w, _scalar(rng, n)) + NilHeckeElement.basis(
            AffinePermutation.simple(rng.randrange(n), n), _scalar(rng, n)
        )
        v = rng.choice(elements_of_length(n, 2))
        right = NilHeckeElement.from_scalar(_scalar(rng, n)) + NilHeckeElement.basis(v, _scalar(rng, n))
        assert left * right == _product(left, right), w


def test_commute_past_equals_the_validated_letter():
    rng = random.Random(19)
    for n in (3, 4, 5):
        for i in range(n):
            for _ in range(8):
                f = _scalar(rng, n)
                assert commute_past(i, f) == _letter_times(i, NilHeckeElement.from_scalar(f))


def test_embed_group_and_coproduct_equal_their_validated_forms():
    rng = random.Random(19)
    for w in ELEMENTS:
        if w.length() <= 4:
            assert embed_group(w) == _embed_group(w), w
        if w.length() <= 3:
            a = NilHeckeElement.basis(w, _scalar(rng, w.n))
            assert coproduct(a) == _coproduct(a), w


# -- the kernel that keeps every term it has visited, kept as an oracle --------


def _dead_entry(terms):
    """The first empty term or zero coefficient of kernel terms, or None."""
    for v, poly in terms.items():
        if not poly:
            return v
        for e, c in poly.items():
            if not c:
                return v, e
    return None


@pytest.fixture
def live_kernel(monkeypatch):
    """Fail on any letter, tensor letter or wrapped result that holds an empty
    term or a zero coefficient."""
    letter, tensor_letter = nilhecke._letter, nilhecke._tensor_letter_act
    wrap = NilHeckeElement._from_valid

    def checked_letter(i, terms, n):
        out = letter(i, terms, n)
        assert _dead_entry(out) is None, (i, terms)
        return out

    def checked_tensor_letter(i, T, n):
        out = tensor_letter(i, T, n)
        for w, L in out.items():
            assert L and _dead_entry(L) is None, (i, w)
        return out

    def checked_wrap(cls, n, terms):
        assert _dead_entry(terms) is None, terms
        return wrap(n, terms)

    monkeypatch.setattr(nilhecke, "_letter", checked_letter)
    monkeypatch.setattr(nilhecke, "_tensor_letter_act", checked_tensor_letter)
    monkeypatch.setattr(NilHeckeElement, "_from_valid", classmethod(checked_wrap))


def _kernel_scalars(n):
    """x_1..x_n, alpha_0..alpha_{n-1} and one quadratic."""
    x = [ScalarPoly.x(n, i) for i in range(1, n + 1)]
    quadratic = x[0] * x[0] - 2 * (x[0] * x[-1]) + 3 * x[1]
    return x + [ScalarPoly.alpha(n, i) for i in range(n)] + [quadratic]


def test_product_equals_the_kernel_with_dead_terms(live_kernel):
    for w in ELEMENTS:
        aw = NilHeckeElement.basis(w)
        for f in _kernel_scalars(w.n):
            right = NilHeckeElement.from_scalar(f)
            assert aw * right == oracles.product_with_dead_terms(aw, right), (w, f)


def test_commute_past_equals_the_kernel_with_dead_terms(live_kernel):
    for n in (3, 4, 5):
        for i in range(n):
            for f in [ScalarPoly.zero(n), *_kernel_scalars(n)]:
                assert commute_past(i, f) == oracles.commute_past_with_dead_terms(i, f), (i, f)


def test_embed_group_equals_the_kernel_with_dead_terms(live_kernel):
    for w in ELEMENTS:
        assert embed_group(w) == oracles.embed_group_with_dead_terms(w), w


def test_tensor_act_equals_the_kernel_with_dead_terms(live_kernel):
    # the coproduct is the costly one: one scalar per element, taken in turn
    for k, w in enumerate(ELEMENTS):
        n = w.n
        unit = {AffinePermutation.identity(n): NilHeckeElement.one(n)}
        scalars = _kernel_scalars(n)
        a = NilHeckeElement.basis(w, scalars[k % len(scalars)])
        assert tensor_act(a, unit) == oracles.tensor_act_with_dead_terms(a, unit), a


def test_tensor_act_on_group_elements_equals_the_kernel_with_dead_terms(live_kernel):
    # A_1 on 1 (x) (1 - alpha_1 A_1) gives A_1 (x) (-1) + s_1 (x) 1: the term
    # alpha_1 A_1 of the right factor cancels against -alpha_1 A_1 A_1 (x) A_1
    for w in ELEMENTS:
        if w.length() <= 3:
            n = w.n
            T = {AffinePermutation.identity(n): embed_group(w)}
            for i in range(n):
                a = NilHeckeElement.basis(AffinePermutation.simple(i, n))
                assert tensor_act(a, T) == oracles.tensor_act_with_dead_terms(a, T), (w, i)


def test_the_liveness_check_sees_a_dead_term(live_kernel):
    with pytest.raises(AssertionError):
        NilHeckeElement._from_valid(3, {(1, 2, 3): {(0, 0, 0): 0}})
    with pytest.raises(AssertionError):
        NilHeckeElement._from_valid(3, {(1, 2, 3): {}})


def test_products_check_their_operands():
    with pytest.raises(ValueError, match="rank mismatch"):
        NilHeckeElement.one(3) * NilHeckeElement.one(4)
    with pytest.raises(ValueError, match="rank mismatch"):
        chevalley(AffinePermutation.simple(1, 3), ScalarPoly.x(4, 1))
    with pytest.raises(TypeError):
        commute_past(1, 2)


def basis(word, n=3):
    return NilHeckeElement.basis(aff(word, n))


def test_scalar_poly_arithmetic():
    x1 = ScalarPoly.x(3, 1)
    x2 = ScalarPoly.x(3, 2)
    assert ScalarPoly.alpha(3, 1) == x1 - x2
    assert ScalarPoly.alpha(3, 0) == ScalarPoly.x(3, 3) - x1
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert ScalarPoly.x(3, 4) == x1  # indices wrap mod n


def test_scalar_poly_times_element_multiplies_on_the_left():
    x1 = ScalarPoly.x(3, 1)
    a = basis((1,)) + 2 * basis((0, 2))
    assert x1 * a == NilHeckeElement.from_scalar(x1) * a
    assert (x1 * a).coeffs == {w: x1 * p for w, p in a.coeffs.items()}
    with pytest.raises(TypeError):
        x1 * "x"


def test_divided_difference_on_scalars():
    x1 = ScalarPoly.x(3, 1)
    x2 = ScalarPoly.x(3, 2)
    assert x1.divided_difference(1) == ScalarPoly.const(3, 1)
    assert (x1 * x2).divided_difference(1).is_zero()
    assert (x1 * x1).divided_difference(1) == x1 + x2
    # affine: alpha_0 = x_n - x_1, and d_0 alpha_0 = 2
    assert ScalarPoly.alpha(3, 0).divided_difference(0) == ScalarPoly.const(3, 2)


def test_commutation_table():
    n = 3
    x = lambda i: ScalarPoly.x(n, i)
    e = AffinePermutation.identity(n)
    s1 = AffinePermutation.simple(1, n)
    s0 = AffinePermutation.simple(0, n)
    assert commute_past(1, x(1)) == NilHeckeElement(n, {s1: x(2), e: ScalarPoly.const(n, 1)})
    assert commute_past(1, x(2)) == NilHeckeElement(n, {s1: x(1), e: ScalarPoly.const(n, -1)})
    assert commute_past(1, x(3)) == NilHeckeElement(n, {s1: x(3)})
    assert commute_past(0, x(1)) == NilHeckeElement(n, {s0: x(3), e: ScalarPoly.const(n, -1)})


def test_x1_a1_is_idempotent():
    n = 3
    a = NilHeckeElement.basis(AffinePermutation.simple(1, n), ScalarPoly.x(n, 1))
    assert a * a == a


def test_embedded_group_elements_multiply():
    n = 3
    for l in range(4):
        for w in elements_of_length(n, l):
            assert embed_group(w) * embed_group(w.inverse()) == NilHeckeElement.one(n)


def test_embed_group_is_word_independent():
    # braid consistency: the embedding does not depend on the word used,
    # which the product homomorphism property exercises indirectly
    n = 3
    s1, s2 = (AffinePermutation.simple(i, n) for i in (1, 2))
    lhs = embed_group(s1) * embed_group(s2) * embed_group(s1)
    rhs = embed_group(s2) * embed_group(s1) * embed_group(s2)
    assert lhs == rhs == embed_group(s1 * s2 * s1)


def test_chevalley_matches_multiplication():
    for n, top in ((3, 5), (4, 4), (5, 4)):
        for l in range(top + 1):
            for w in elements_of_length(n, l):
                for i in range(1, n + 1):
                    f = ScalarPoly.x(n, i)
                    assert chevalley(w, f) == NilHeckeElement.basis(w) * NilHeckeElement.from_scalar(f)


def test_chevalley_rejects_nonlinear():
    x1 = ScalarPoly.x(3, 1)
    with pytest.raises(ValueError):
        chevalley(AffinePermutation.simple(1, 3), x1 * x1)


def test_phi0_on_scalars():
    a1 = ScalarPoly.alpha(3, 1)
    a2 = ScalarPoly.alpha(3, 2)
    assert phi0(3 * (a1 * a1 * a2) + a2 + ScalarPoly.const(3, 5)) == 5


def test_phi0_on_elements():
    n = 3
    a = NilHeckeElement.basis(AffinePermutation.simple(1, n), ScalarPoly.x(n, 1))
    got = phi0(a)
    assert got == NilCoxeterElement.zero(n, affine=True)
    b = NilHeckeElement.basis(AffinePermutation.simple(2, n))
    assert phi0(b) == NilCoxeterElement.basis(AffinePermutation.simple(2, n))


def test_coproduct_of_generator():
    # Delta(A_i) = A_i (x) 1 + 1 (x) A_i - alpha_i A_i (x) A_i
    n = 3
    e = AffinePermutation.identity(n)
    s1 = AffinePermutation.simple(1, n)
    delta = coproduct(NilHeckeElement.basis(s1))
    assert delta == {
        (s1, e): ScalarPoly.const(n, 1),
        (e, s1): ScalarPoly.const(n, 1),
        (s1, s1): -ScalarPoly.alpha(n, 1),
    }


def test_coproduct_of_generator_squared_is_zero():
    n = 3
    s1 = AffinePermutation.simple(1, n)
    unit = {AffinePermutation.identity(n): NilHeckeElement.one(n)}
    once = tensor_act(NilHeckeElement.basis(s1), unit)
    twice = tensor_act(NilHeckeElement.basis(s1), once)
    assert twice == {}


def test_coproduct_word_independence():
    # A_w acts as A_i A_{s_i w} for every left descent i; by induction on
    # length every reduced word of w gives the same action on 1 (x) 1
    for n, top in ((3, 4), (4, 3)):
        unit = {AffinePermutation.identity(n): NilHeckeElement.one(n)}
        for l in range(1, top + 1):
            for w in elements_of_length(n, l):
                base = tensor_act(NilHeckeElement.basis(w), unit)
                for i in w.inverse().right_descents():
                    si = AffinePermutation.simple(i, n)
                    rest = tensor_act(NilHeckeElement.basis(si * w), unit)
                    assert tensor_act(NilHeckeElement.basis(si), rest) == base


def test_coproduct_is_multiplicative_via_action():
    n = 3
    unit = {AffinePermutation.identity(n): NilHeckeElement.one(n)}
    for u in elements_of_length(n, 2):
        for v in elements_of_length(n, 1):
            a = NilHeckeElement.basis(u)
            b = NilHeckeElement.basis(v)
            lhs = tensor_act(a * b, unit)
            rhs = tensor_act(a, tensor_act(b, unit))
            assert lhs == rhs


def test_hopf_generator_identity():
    for n in (3, 4):
        for k in range(n):
            assert hopf_generator_check(n, k)


def test_j_basis_example_rank_3():
    n = 3
    cases = {
        (): [("", 1)],
        (1,): [("0", 1), ("1", 1), ("2", 1)],
        (2,): [("10", 1), ("21", 1), ("02", 1)],
        (1, 1): [("01", 1), ("12", 1), ("20", 1)],
        (2, 1): [("101", 1), ("102", 1), ("210", 1), ("212", 1), ("020", 1), ("021", 1)],
        (1, 1, 1): [("101", 1), ("201", 1), ("012", 1), ("212", 1), ("020", 1), ("120", 1)],
    }
    for la, terms in cases.items():
        w = grassmannian_from_partition(n, la)
        want = NilCoxeterElement(
            n, True,
            {aff(tuple(int(c) for c in word), n): coeff for word, coeff in terms},
        )
        assert j_basis_element(n, w) == want


def test_phi0_table_matches_the_chevalley_formula():
    for n, top in ((3, 6), (4, 5), (5, 4)):
        for l in range(top + 1):
            phi = nilhecke._j_basis_system(n, l)[0]
            assert list(phi) == list(elements_of_length(n, l))
            for x, rows in phi.items():
                assert rows == [chevalley(x, ScalarPoly.x(n, i)).phi0().coeffs for i in range(1, n + 1)]


def test_cover_kernel_matches_the_object_route():
    # every element of n = 3..5 with length <= 7 (1,151), and a seeded sample at n=6 l=8
    elements = [x for n in (3, 4, 5) for l in range(8) for x in elements_of_length(n, l)]
    assert len(elements) == 1151
    elements += random.Random(8).sample(elements_of_length(6, 8), 200)
    for x in elements:
        assert nilhecke._chevalley_covers(x) == oracles.chevalley_covers_by_objects(x), x


def test_presolved_solver_matches_the_unpresolved_system():
    cases = [(n, l) for n in (3, 4, 5) for l in range(9)] + [(6, l) for l in range(8)]
    for n, l in cases:
        for w in elements_of_length(n, l):
            if w.is_grassmannian():
                got = nilhecke._j_basis_by_solver(n, w).coeffs
                assert got == oracles.j_basis_by_unpresolved_solver(n, w), (n, w)


def test_merge_ties_merges_by_sign_and_keeps_each_row_s_origin():
    # row 0 ties x1 = x0 and row 1 then x2 = -x0; row 2 loses both to the merge
    # and keeps x3; rows 3 and 4 are past ``ties`` and never merge
    rows = [{0: 1, 1: -1}, {1: 1, 2: 1}, {0: 1, 2: 1, 3: 1}, {2: 1}, {0: 2, 3: -2}]
    columns, classes, kept = nilhecke._merge_ties(rows, 3, 4)
    assert columns == ((0, 1), (0, 1), (0, -1), (1, 1))
    assert classes == 2
    assert kept == [(2, {1: 1}), (3, {0: -1}), (4, {0: 2, 1: -2})]


@pytest.mark.parametrize(
    "n, ell, flipped, witnesses",
    [
        # the flip leaves the j-basis of [-1, 1, 6] alone
        (3, 3, (-2, 3, 5), {(-2, 3, 5): "the coefficient of AffinePermutation(3, [2, 0, 4]) in phi0(a x_3)"}),
        (4, 3, (-2, 3, 4, 5), {(-2, 3, 4, 5): "the normalization row of AffinePermutation(4, [-2, 3, 4, 5])"}),
    ],
)
def test_an_inconsistent_system_names_an_input_row(n, ell, flipped, witnesses, monkeypatch):
    # one cover of one x with its sign flipped: the rows (a, y) and (b, y) trade
    # their entries of x, and some Grassmannian's system becomes inconsistent
    right = nilhecke._chevalley_covers

    def one_flipped(x):
        covers = right(x)
        if x.window == flipped:
            v, a, b = covers[0]
            covers[0] = (v, b, a)
        return covers

    monkeypatch.setattr(nilhecke, "_chevalley_covers", one_flipped)
    nilhecke._j_basis_system.cache_clear()
    named = {}
    try:
        for w in elements_of_length(n, ell):
            if w.is_grassmannian():
                try:
                    nilhecke._j_basis_by_solver(n, w)
                except AssertionError as err:
                    named[w.window] = str(err)
    finally:
        nilhecke._j_basis_system.cache_clear()
    assert named == {
        w: f"j-basis system inconsistent for {AffinePermutation(n, w)!r}: {row} contradicts the others"
        for w, row in witnesses.items()
    }


def _count_transpositions(monkeypatch):
    calls = []
    transposition = nilhecke._affine_transposition

    def counted(*args):
        calls.append(args)
        return transposition(*args)

    monkeypatch.setattr(nilhecke, "_affine_transposition", counted)
    return calls


def test_j_basis_finds_each_cover_once_per_element(monkeypatch):
    nilhecke._j_basis_system.cache_clear()
    calls = _count_transpositions(monkeypatch)
    w = grassmannian_from_partition(4, (2, 1, 1))
    j_basis_element(4, w)
    assert len(calls) == 4 * len(elements_of_length(4, 4))


def test_j_basis_of_one_length_builds_one_system_and_one_elimination(monkeypatch):
    n, ell = 4, 4
    grassmannians = [w for w in elements_of_length(n, ell) if w.is_grassmannian()]
    assert len(grassmannians) == 4
    for w in grassmannians:  # the read-off route builds its own tables; warm them first
        noncommutative_schur(n, w.shape(), affine=True)
    nilhecke._j_basis_system.cache_clear()
    eliminations = []
    eliminate = symfunc._eliminate

    def counted(rows, width):
        eliminations.append(width)
        return eliminate(rows, width)

    monkeypatch.setattr(symfunc, "_eliminate", counted)
    calls = _count_transpositions(monkeypatch)
    for w in grassmannians:
        j_basis_element(n, w)
    # each x of length ell has ell inversions, each tried once over all four
    assert len(calls) == ell * len(elements_of_length(n, ell))
    # the presolve hands the elimination one unknown per class of tied columns
    columns = nilhecke._j_basis_system(n, ell)[1]
    classes = len({k for k, _ in columns})
    assert eliminations == [classes]
    assert classes < len(elements_of_length(n, ell))
    assert nilhecke._j_basis_system.cache_info().misses == 1


def test_j_basis_replays_one_cached_system_per_length(monkeypatch):
    n, ell = 4, 4
    grassmannians = [w for w in elements_of_length(n, ell) if w.is_grassmannian()]
    nilhecke._j_basis_system.cache_clear()

    def unchecked(rows, rhs):
        raise AssertionError("the j-basis went through the checked solver")

    monkeypatch.setattr(symfunc, "_solve_exact", unchecked)
    for w in grassmannians:
        a = nilhecke._j_basis_by_solver(n, w)
        assert a.coeffs[w] == 1 and all(a.coeffs.get(x, 0) == 0 for x in grassmannians if x != w)
    assert nilhecke._j_basis_system.cache_info().misses == 1


def test_solver_and_phi0_caches_are_bounded():
    for cached in (
        nilhecke._j_basis_system,
        symfunc._k_schur_h_table,
        nilcoxeter._schur_table,
    ):
        assert cached.cache_info().maxsize is not None
    # each factored system lives only in the cache of the function that builds it
    assert not hasattr(symfunc._eliminate, "cache_info")


def test_j_basis_system_holds_only_its_nonzeros():
    # n=6 l=6 is 1522 x 461 with 4,728 nonzeros; a dense copy of it peaks near 15 MiB.
    # Measured cold, with the phi0 rows it builds on the way; only the element
    # list, a cache of its own, is warmed first.
    elements_of_length(6, 6)
    nilhecke._j_basis_system.cache_clear()
    tracemalloc.start()
    try:
        nilhecke._j_basis_system(6, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_every_system_reaches_the_elimination_as_sparse_rows(monkeypatch):
    seen = []
    eliminate = symfunc._eliminate

    def sparse_only(rows, *width):
        bad = [row for row in rows if type(row) is not dict]
        if bad:
            raise AssertionError(f"a {type(bad[0]).__name__} row reached the elimination")
        seen.append(len(rows))
        return eliminate(rows, *width)

    nilhecke._j_basis_system.cache_clear()
    monkeypatch.setattr(symfunc, "_eliminate", sparse_only)
    # h, e and k-Schur are peeled and the Fomin-Stanley report reads its
    # coordinates off dominant permutations, so only the j-basis eliminates
    j_basis_element(4, grassmannian_from_partition(4, (2, 1)))
    assert seen


def test_j_basis_disagreement_names_the_witness(monkeypatch):
    n, w = 4, grassmannian_from_partition(4, (2, 1))
    right = nilhecke.noncommutative_schur(n, w.shape(), affine=True)
    x = next(x for x in right.coeffs if x != w)

    def wrong(*args, **kwargs):
        return right + NilCoxeterElement.basis(x)

    monkeypatch.setattr(nilhecke, "noncommutative_schur", wrong)
    with pytest.raises(AssertionError, match="j-basis constructions disagree") as err:
        j_basis_element(n, w)
    assert str(list(x.window)) in str(err.value)


def test_j_basis_rejects_non_grassmannian():
    with pytest.raises(ValueError):
        j_basis_element(3, aff((1, 2, 1)))


def test_j_basis_elements_commute():
    n = 3
    elems = []
    for l in range(4):
        for w in elements_of_length(n, l):
            if w.is_grassmannian():
                elems.append(noncommutative_schur(n, w.shape(), affine=True))
    for a in elems:
        for b in elems:
            assert a * b == b * a


def test_kappa_of_221_element_rank_4():
    from stansym.permutation import Permutation

    n = 4
    j = noncommutative_schur(n, (2, 2, 1), affine=True)
    want = NilCoxeterElement(
        n, False,
        {
            Permutation.from_word((3, 2, 1, 3, 2), n): 1,
            Permutation.from_word((2, 3, 1, 2, 3), n): 1,
        },
    )
    assert kappa(j) == want


def test_kappa_of_affine_h_is_finite_h():
    for n in (3, 4):
        for k in range(n):
            assert kappa(h_element(n, k, affine=True)) == h_element(n, k)


def test_kappa_validates_nothing_again(monkeypatch):
    from stansym.permutation import Permutation

    n = 4
    js = [j_basis_element(n, w) for l in range(6) for w in elements_of_length(n, l) if w.is_grassmannian()]
    # the finite terms, keyed by validated permutations
    expected = [
        NilCoxeterElement(n, False, {Permutation(w.window): c for w, c in j.coeffs.items() if w.is_finite()}) for j in js
    ]

    def refuse(*args):  # a refused __init__ leaves no window to print
        raise AssertionError("kappa validated a permutation again")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    monkeypatch.setattr(Permutation, "embed", refuse)
    got = [kappa(j) for j in js]
    monkeypatch.undo()
    assert got == expected
    assert any(a.coeffs for a in got) and all(w.n == n for a in got for w in a.coeffs)


def test_translation_centralizer():
    assert translation_centralizer_check(3, CorootVector((0, 0, 0)))
    assert translation_centralizer_check(3, CorootVector((-1, 0, 1)))
    assert translation_centralizer_check(3, CorootVector((-1, -1, 2)))
