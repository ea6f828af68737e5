"""The nilHecke letter kernel walks only live terms.

By the Chevalley formula A_w x_1 has at most l(w) + 1 terms, and each prefix
of a reduced word of w leaves at most one more term than the one before.  So
a kernel that keeps only live terms calls ``_left_raise`` once per term per
letter, at most (l + 1)^2 times in all.  A kernel that keeps an entry for
every element it has visited walks each of them again at every later letter;
this guard keeps such dead terms from coming back.
"""

import random

import oracles

from stansym import nilhecke
from stansym.affine import elements_of_length
from stansym.nilhecke import NilHeckeElement, ScalarPoly

N, LENGTH = 4, 12


def _seeded_element():
    return random.Random(12).choice(elements_of_length(N, LENGTH))


def _raises_for_a_w_x1(module, multiply, monkeypatch):
    """The ``_left_raise`` calls that ``module`` makes while ``multiply``
    forms A_w x_1 for the seeded w."""
    calls = []
    raise_ = module._left_raise

    def counted(i, window, n):
        calls.append(i)
        return raise_(i, window, n)

    monkeypatch.setattr(module, "_left_raise", counted)
    w = _seeded_element()
    w.reduced_word()
    multiply(NilHeckeElement.basis(w), NilHeckeElement.from_scalar(ScalarPoly.x(N, 1)))
    return len(calls)


def test_the_guard_sees_the_kernel_with_dead_terms(monkeypatch):
    calls = _raises_for_a_w_x1(oracles, oracles.product_with_dead_terms, monkeypatch)
    assert calls > (LENGTH + 1) ** 2


def test_a_w_x1_walks_only_live_terms(monkeypatch):
    calls = _raises_for_a_w_x1(nilhecke, NilHeckeElement.__mul__, monkeypatch)
    assert 0 < calls <= (LENGTH + 1) ** 2, calls

