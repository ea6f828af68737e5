"""Acceptance suite: one test and one printed pass line per criterion.

Every check is exact integer arithmetic.  Each test times itself against the
stated budget and prints a single line on success, so running with -s gives
a criterion-by-criterion report.
"""

import time
from math import comb

import pytest

from oracles import count_standard_tableaux_brute
from stansym.affine import (
    AffinePermutation,
    CorootVector,
    elements_of_length,
    grassmannian_from_partition,
)
from stansym.nilcoxeter import (
    NilCoxeterElement,
    conjecture_52_report,
    h_element,
    noncommutative_schur,
    product_expansion_check,
)
from stansym.nilhecke import (
    NilHeckeElement,
    ScalarPoly,
    commute_past,
    coproduct,
    embed_group,
    hopf_generator_check,
    j_basis_element,
    kappa,
    phi0,
)
from stansym.partition import count_standard_tableaux
from stansym.permutation import Permutation, is_reduced, symmetric_group
from stansym.stanley import (
    affine_schur_expand,
    affine_stanley,
    check_symmetry_affine,
    check_symmetry_finite,
    schur_expand,
    stanley_fn,
    transition_check,
)
from stansym.symfunc import SymFunc, affine_schur, k_schur
from stansym.tableaux import (
    MarkedWord,
    Tableau,
    coxeter_knuth_classes,
    eg_insert,
    little_move_chain,
    word_descents,
)


class budget:
    """Context manager asserting the block finishes inside its time budget."""

    def __init__(self, number, seconds, label):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"criterion {self.number:2d}: PASS ({elapsed:.2f}s) {self.label}")
        return False


def test_criterion_01_reduced_word_counts():
    with budget(1, 10, "reduced word counts of longest elements"):
        w4 = Permutation.longest(4)
        assert len(w4.reduced_words()) == 16
        assert count_standard_tableaux((3, 2, 1)) == 16
        assert count_standard_tableaux_brute((3, 2, 1)) == 16
        w5 = Permutation.longest(5)
        f = count_standard_tableaux((4, 3, 2, 1))
        assert f == count_standard_tableaux_brute((4, 3, 2, 1)) == 768
        assert len(w5.reduced_words()) == f


def test_criterion_02_f_2431():
    with budget(2, 1, "F_2431 by all three definitions"):
        w = Permutation([2, 4, 3, 1])
        want = SymFunc(4, "m", {(2, 1, 1): 1, (1, 1, 1, 1): 3})
        for method in ("original", "decreasing", "quasisym"):
            assert stanley_fn(w, method) == want
        assert schur_expand(w) == SymFunc(4, "s", {(2, 1, 1): 1})


def test_criterion_03_eg_insertion():
    with budget(3, 60, "EG insertion example and descent transfer on S5"):
        P, Q = eg_insert((2, 1, 2, 3, 2))
        assert P == Tableau([[1, 2, 3], [2, 3]])
        assert Q == Tableau([[1, 3, 4], [2, 5]])
        for w in symmetric_group(5):
            if w.length() > 7:
                continue
            for word in w.reduced_words():
                _, Q = eg_insert(word, 5)
                assert word_descents(word) == Q.descent_set()


def test_criterion_04_coxeter_knuth_classes():
    with budget(4, 60, "Coxeter-Knuth classes are P-fibers on S4"):
        for w in symmetric_group(4):
            fibers = {}
            for word in w.reduced_words():
                P, _ = eg_insert(word, 4)
                fibers.setdefault(P, set()).add(word)
            assert set(map(frozenset, fibers.values())) == set(coxeter_knuth_classes(w))


def test_criterion_05_transition_and_little():
    with budget(5, 60, "transition identity on S4 and Little move chain"):
        for w in symmetric_group(4):
            for r in range(1, 5):
                assert transition_check(w, r)
        chain = little_move_chain(MarkedWord((2, 1, 3, 4, 3, 2, 1), 5))
        assert [c.word for c in chain] == [
            (2, 1, 3, 4, 3, 2, 1),
            (2, 1, 3, 4, 2, 2, 1),
            (2, 1, 3, 4, 2, 1, 1),
            (3, 2, 4, 5, 3, 2, 1),
        ]


def test_criterion_06_affine_example():
    with budget(6, 5, "F~ of 21202 and its affine Schur expansion"):
        w = AffinePermutation.from_word((2, 1, 2, 0, 2), 3)
        f = affine_stanley(w)
        assert f == SymFunc(5, "m", {(2, 2, 1): 1, (2, 1, 1, 1): 2, (1, 1, 1, 1, 1): 3})
        # the expansion is forced: the coefficients are the unique solution of
        # the unitriangular system against the affine Schur functions, and
        # adding F~_{1^5} would overshoot the m_{1^5} coefficient (4 vs 3)
        expansion = affine_schur_expand(w)
        assert expansion.coeffs == {(2, 2, 1): 1, (2, 1, 1, 1): 1}
        total = SymFunc.zero(5)
        for la, c in expansion.coeffs.items():
            total = total + c * affine_schur(3, la)
        assert total == f
        overshoot = total + affine_schur(3, (1, 1, 1, 1, 1))
        assert overshoot != f


def test_criterion_07_rank_3_closed_forms():
    with budget(7, 30, "rank-3 closed forms for a+b <= 5"):
        h2 = SymFunc.monomial("h", (2,))
        e2 = SymFunc.monomial("e", (2,))
        h1 = SymFunc.monomial("h", (1,))
        for a in range(6):
            for b in range(6 - a):
                la = (2,) * a + (1,) * b
                w = grassmannian_from_partition(3, la)
                assert len(w.reduced_words()) == comb(b // 2 + a, a)
                f = affine_schur(3, la)
                want = {}
                for j in range(a + 1):
                    mu = (2,) * j + (1,) * (b + 2 * a - 2 * j)
                    c = comb((b + 2 * (a - j)) // 2, a - j)
                    if c:
                        want[mu] = c
                assert f.coeffs == want
                prod = SymFunc.one()
                for _ in range(a):
                    prod = prod * h2
                for _ in range(b // 2):
                    prod = prod * e2
                for _ in range(b % 2):
                    prod = prod * h1
                assert k_schur(3, la).to_m() == prod.to_m()


def test_criterion_08_definition_equivalence_and_symmetry():
    with budget(8, 300, "definition equivalence and symmetry suites"):
        for w in symmetric_group(4):
            assert (
                stanley_fn(w, "original")
                == stanley_fn(w, "decreasing")
                == stanley_fn(w, "quasisym")
            )
            assert check_symmetry_finite(w)
        for w in symmetric_group(5):
            if w.length() <= 7:
                assert stanley_fn(w, "original") == stanley_fn(w, "decreasing")
        for l in range(7):
            for w in elements_of_length(3, l):
                assert check_symmetry_affine(w)


def test_criterion_09_h_commutativity():
    with budget(9, 120, "h-commutativity and the product factorization"):
        for n in range(2, 7):
            hs = [h_element(n, k) for k in range(n)]
            assert all(a * b == b * a for a in hs for b in hs)
        for n in (3, 4, 5):
            hs = [h_element(n, k, affine=True) for k in range(n)]
            assert all(a * b == b * a for a in hs for b in hs)
        for n in range(2, 6):
            assert product_expansion_check(n)


def test_criterion_10_s4_schur_table():
    with budget(10, 30, "noncommutative Schur table for S4 and dim B = 14"):
        expect = {
            (1,): ["1", "2", "3"],
            (1, 1): ["12", "23", "13"],
            (2,): ["21", "32", "31"],
            (1, 1, 1): ["123"],
            (3,): ["321"],
            (2, 1): ["213", "212", "323", "312"],
            (2, 1, 1): ["1323", "1213"],
            (2, 2): ["2132"],
            (3, 1): ["3231", "3121"],
            (2, 2, 1): ["23123"],
            (3, 1, 1): ["32123"],
            (3, 2): ["32132"],
            (3, 2, 1): ["321323"],
        }
        for la, words in expect.items():
            want = NilCoxeterElement.zero(4)
            for word in words:
                want = want + NilCoxeterElement.basis(
                    Permutation.from_word(tuple(int(c) for c in word), 4), 4
                )
            assert noncommutative_schur(4, la) == want
        r = conjecture_52_report(4)
        assert r["dimension"] == 14
        assert sum(r["root_poset_ideal_series"]) == 14
        assert r["hilbert_matches"] and r["linearly_independent"]


def test_criterion_11_nilhecke_engine():
    with budget(11, 30, "nilHecke commutation, embedding, coproduct, phi0"):
        n = 3
        x = lambda i: ScalarPoly.x(n, i)
        e = AffinePermutation.identity(n)
        s1 = AffinePermutation.simple(1, n)
        s0 = AffinePermutation.simple(0, n)
        one = ScalarPoly.const(n, 1)
        assert commute_past(1, x(1)) == NilHeckeElement(n, {s1: x(2), e: one})
        assert commute_past(1, x(2)) == NilHeckeElement(n, {s1: x(1), e: -one})
        assert commute_past(1, x(3)) == NilHeckeElement(n, {s1: x(3)})
        assert commute_past(0, x(1)) == NilHeckeElement(n, {s0: x(3), e: -one})
        # braid consistency: letter-by-letter embedding agrees across words
        for l in range(5):
            for w in elements_of_length(n, l):
                words = w.reduced_words()
                images = []
                for word in words[:4]:
                    out = NilHeckeElement.one(n)
                    for i in word:
                        out = out * embed_group(AffinePermutation.simple(i, n))
                    images.append(out)
                assert all(img == images[0] for img in images)
                assert embed_group(w) * embed_group(w.inverse()) == NilHeckeElement.one(n)
        delta = coproduct(NilHeckeElement.basis(s1))
        assert delta == {
            (s1, e): one,
            (e, s1): one,
            (s1, s1): -ScalarPoly.alpha(n, 1),
        }
        a1, a2 = ScalarPoly.alpha(n, 1), ScalarPoly.alpha(n, 2)
        assert phi0(3 * (a1 * a1 * a2) + a2 + ScalarPoly.const(n, 5)) == 5


def test_criterion_12_j_basis():
    with budget(12, 300, "j-basis examples, algorithm agreement, kappa"):
        cases = {
            (): [()],
            (1,): [(0,), (1,), (2,)],
            (2,): [(1, 0), (2, 1), (0, 2)],
            (1, 1): [(0, 1), (1, 2), (2, 0)],
            (2, 1): [(1, 0, 1), (1, 0, 2), (2, 1, 0), (2, 1, 2), (0, 2, 0), (0, 2, 1)],
            (1, 1, 1): [(1, 0, 1), (2, 0, 1), (0, 1, 2), (2, 1, 2), (0, 2, 0), (1, 2, 0)],
        }
        for la, words in cases.items():
            w = grassmannian_from_partition(3, la)
            want = NilCoxeterElement(
                3, True, {AffinePermutation.from_word(word, 3): 1 for word in words}
            )
            assert j_basis_element(3, w) == want
        # substitution and linear-solver constructions must agree
        for l in range(7):
            for w in elements_of_length(3, l):
                if w.is_grassmannian():
                    j_basis_element(3, w)  # raises on disagreement
        for l in range(6):
            for w in elements_of_length(4, l):
                if w.is_grassmannian():
                    j_basis_element(4, w)
        j = noncommutative_schur(4, (2, 2, 1), affine=True)
        want = NilCoxeterElement(
            4, False,
            {
                Permutation.from_word((3, 2, 1, 3, 2), 4): 1,
                Permutation.from_word((2, 3, 1, 2, 3), 4): 1,
            },
        )
        assert kappa(j) == want


def test_criterion_13_hopf_check():
    with budget(13, 120, "Hopf generator identity for n in {3, 4}"):
        for n in (3, 4):
            for k in range(n):
                assert hopf_generator_check(n, k)


def test_criterion_14_observation_reports():
    with budget(14, 300, "positivity observation reports"):
        # affine Schur expansion coefficients observed nonnegative
        observed = 0
        for l in range(7):
            for w in elements_of_length(3, l):
                f = affine_schur_expand(w)
                assert all(c > 0 for c in f.coeffs.values()), f"counterexample {w!r}"
                observed += 1
        print(f"  observed nonnegative affine Schur expansions: {observed}")
        # kappa of j-basis elements observed nonnegative
        observed = 0
        for l in range(6):
            for w in elements_of_length(3, l):
                if not w.is_grassmannian():
                    continue
                j = noncommutative_schur(3, w.shape(), affine=True)
                assert all(c >= 0 for c in kappa(j).coeffs.values()), f"counterexample {w!r}"
                observed += 1
        print(f"  observed nonnegative kappa projections: {observed}")
