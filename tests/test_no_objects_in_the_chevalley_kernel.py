"""The Chevalley cover list runs on bare windows.

``nilhecke._chevalley_covers`` walks the inversions of w on its window,
takes each w t_ij as a tuple from ``_affine_transposition`` and tests the
cover by Shi's length on that tuple.  It builds no ``AffinePermutation`` and
multiplies none; this guard keeps the kernel from quietly going back to the
object route that ``oracles.chevalley_covers_by_objects`` keeps.
"""

import random

import oracles
import pytest

from stansym import nilhecke
from stansym.affine import AffinePermutation, elements_of_length


class ObjectBuilt(Exception):
    pass


def _refuse_objects(patch):
    """Make every unchecked construction and every product of affine
    permutations raise, for as long as ``patch`` holds."""

    def refuse(*args):
        raise ObjectBuilt(args)

    patch.setattr(AffinePermutation, "_from_valid", classmethod(refuse))
    patch.setattr(AffinePermutation, "__mul__", refuse)


def test_the_guard_sees_the_object_route():
    w = elements_of_length(4, 3)[0]
    with pytest.MonkeyPatch.context() as patch:
        _refuse_objects(patch)
        with pytest.raises(ObjectBuilt):
            oracles.chevalley_covers_by_objects(w)


def test_the_chevalley_kernel_builds_no_element():
    # a seeded sample of S~_6 at length 8, built and checked by objects first
    sample = random.Random(8).sample(elements_of_length(6, 8), 200)
    expected = [oracles.chevalley_covers_by_objects(x) for x in sample]
    with pytest.MonkeyPatch.context() as patch:
        _refuse_objects(patch)
        got = [nilhecke._chevalley_covers(x) for x in sample]
    assert got == expected
