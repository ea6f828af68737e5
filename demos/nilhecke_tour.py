"""A tour of the nilCoxeter algebra, the nilHecke ring, and the j-basis.

Run with: python3 demos/nilhecke_tour.py
"""

from stansym import (
    AffinePermutation,
    NilHeckeElement,
    ScalarPoly,
    conjecture_52_report,
    h_element,
    j_basis_element,
    kappa,
    noncommutative_schur,
)
from stansym.affine import elements_of_length
from stansym.nilhecke import commute_past


def main():
    print("finite nilCoxeter h-elements for S_4:")
    for k in range(4):
        print(f"  h_{k} = {h_element(4, k)}")
    print("they commute:", all(
        h_element(4, a) * h_element(4, b) == h_element(4, b) * h_element(4, a)
        for a in range(4) for b in range(4)
    ))

    print("\nnoncommutative Schur functions (a sample):")
    for la in [(2,), (2, 1), (2, 2), (3, 2, 1)]:
        print(f"  s_{la} = {noncommutative_schur(4, la)}")

    r = conjecture_52_report(4)
    print("\ncommutative subalgebra report for n = 4:")
    print("  dimension:", r["dimension"])
    print("  Hilbert series:", r["hilbert_series"])
    print("  matches root-poset order ideals:", r["hilbert_matches"])
    print("  structure constants nonnegative:", r["structure_constants_nonnegative"])

    n = 3
    print("\nnilHecke commutation, A_1 x_i for rank 3:")
    for i in (1, 2, 3):
        print(f"  A_1 x_{i} = {commute_past(1, ScalarPoly.x(n, i))}")

    print("\nj-basis of the Peterson centralizer (rank 3, Grassmannian, length <= 3):")
    for l in range(4):
        for w in elements_of_length(n, l):
            if w.is_grassmannian():
                print(f"  shape {str(w.shape()):12s} j = {j_basis_element(n, w)}")

    j = noncommutative_schur(4, (2, 2, 1), affine=True)
    print("\nkappa of the (2,2,1) element in rank 4:", kappa(j))


if __name__ == "__main__":
    main()
