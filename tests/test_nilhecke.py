"""Affine nilHecke ring: commutation, coproduct, phi0, and the j-basis."""

import random
import tracemalloc

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
    _phi0_x_table,
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
            table = _phi0_x_table(n, l)
            assert list(table) == list(elements_of_length(n, l))
            for x, rows in table.items():
                assert rows == [chevalley(x, ScalarPoly.x(n, i)).phi0() for i in range(1, n + 1)]


def _count_transpositions(monkeypatch):
    calls = []
    transposition = nilhecke._affine_transposition

    def counted(*args):
        calls.append(args)
        return transposition(*args)

    monkeypatch.setattr(nilhecke, "_affine_transposition", counted)
    return calls


def test_j_basis_finds_each_cover_once_per_element(monkeypatch):
    _phi0_x_table.cache_clear()
    calls = _count_transpositions(monkeypatch)
    w = grassmannian_from_partition(4, (2, 1, 1))
    j_basis_element(4, w)
    assert len(calls) == 4 * len(elements_of_length(4, 4))


def test_j_basis_of_one_length_builds_one_table_and_one_elimination(monkeypatch):
    n, ell = 4, 4
    grassmannians = [w for w in elements_of_length(n, ell) if w.is_grassmannian()]
    assert len(grassmannians) == 4
    for w in grassmannians:  # the read-off route builds its own tables; warm them first
        noncommutative_schur(n, w.shape(), affine=True)
    _phi0_x_table.cache_clear()
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
    assert eliminations == [len(elements_of_length(n, ell))]


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
        _phi0_x_table,
        nilhecke._j_basis_system,
        symfunc._k_schur_h_table,
        nilcoxeter._schur_table,
    ):
        assert cached.cache_info().maxsize is not None
    # each factored system lives only in the cache of the function that builds it
    assert not hasattr(symfunc._eliminate, "cache_info")


def test_j_basis_system_holds_only_its_nonzeros():
    # n=6 l=6 is 1522 x 461 with 4,728 nonzeros; a dense copy of it peaks near 15 MiB
    _phi0_x_table(6, 6)
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


def test_translation_centralizer():
    assert translation_centralizer_check(3, CorootVector((0, 0, 0)))
    assert translation_centralizer_check(3, CorootVector((-1, 0, 1)))
    assert translation_centralizer_check(3, CorootVector((-1, -1, 2)))
