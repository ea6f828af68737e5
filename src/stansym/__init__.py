"""Exact combinatorics of Stanley symmetric functions, their affine
analogues, and the nilCoxeter/nilHecke algebra structures behind them.
"""

from .affine import (
    AffinePermutation,
    CorootVector,
    cyclically_decreasing,
    grassmannian_from_partition,
    translation_element,
)
from .nilcoxeter import (
    NilCoxeterElement,
    conjecture_52_report,
    divided_difference_action,
    h_element,
    noncommutative_schur,
    product_expansion_check,
)
from .nilhecke import (
    NilHeckeElement,
    ScalarPoly,
    chevalley,
    commute_past,
    coproduct as nilhecke_coproduct,
    embed_group,
    hopf_generator_check,
    j_basis_element,
    kappa,
    phi0,
    translation_centralizer_check,
)
from .partition import (
    conjugate,
    count_standard_tableaux,
    dominance_leq,
    partitions_of,
)
from .permutation import Permutation, count_reduced_words, from_code, is_reduced, symmetric_group
from .stanley import (
    affine_schur_expand,
    affine_stanley,
    affine_stanley_coefficient,
    schur_expand,
    stanley_fn,
    stanley_quasisym,
    transition_check,
)
from .symfunc import (
    QuasiSymFunc,
    SymFunc,
    affine_schur,
    change_basis,
    coproduct,
    fundamental_quasisym,
    hall_inner_product,
    k_schur,
)
from .tableaux import (
    MarkedWord,
    Tableau,
    coxeter_knuth_classes,
    eg_insert,
    little_move,
    little_move_backward,
    transition_sides,
)

__version__ = "0.1.0"
