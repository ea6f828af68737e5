"""Checks the parent makes on the child's results with its own arithmetic.

They share no code with stansym, so they stay an independent route when the
program changes, and they run outside the measured child.
"""

from functools import lru_cache
from math import factorial, prod

from workloads import count_reduced_words, partitions, perm_length


def _strips(la, size):
    """Partitions nu inside la with la/nu a horizontal strip of ``size`` cells."""
    out = []

    def walk(i, nu, left):
        if i == len(la):
            if left == 0:
                out.append(tuple(p for p in nu if p))
            return
        floor = la[i + 1] if i + 1 < len(la) else 0
        for take in range(0, min(left, la[i] - floor) + 1):
            walk(i + 1, nu + [la[i] - take], left - take)

    walk(0, [], size)
    return out


@lru_cache(maxsize=None)
def kostka(la, mu):
    """Number of SSYT of shape la and content mu, peeling the last letter."""
    if not mu:
        return 1 if not la else 0
    return sum(kostka(nu, mu[:-1]) for nu in _strips(la, mu[-1]))


def standard_tableaux(la):
    """f^la by the hook length formula."""
    conj = [sum(1 for p in la if p > j) for j in range(la[0])] if la else []
    hooks = prod(la[i] - j + conj[j] - i - 1 for i in range(len(la)) for j in range(la[i]))
    return factorial(sum(la)) // hooks


def check_finite(data):
    """Errors in one finite_stanley result: |R(w)| three ways, and s -> m."""
    w = tuple(data["w"])
    f = {tuple(la): c for la, c in data["F"]}
    s = {tuple(la): c for la, c in data["s"]}
    ell = perm_length(w)
    errors = []
    n = count_reduced_words(w)
    if data["nwords"] != n:
        errors.append(f"{w}: {data['nwords']} reduced words, expected {n}")
    if f.get((1,) * ell, 0) != n:
        errors.append(f"{w}: [m_1^{ell}] F_w = {f.get((1,) * ell, 0)}, expected {n}")
    if sum(c * standard_tableaux(la) for la, c in s.items()) != n:
        errors.append(f"{w}: Schur coefficients do not count R(w) by Edelman-Greene")
    for mu in partitions(ell):
        got = sum(c * kostka(la, mu) for la, c in s.items())
        if got != f.get(mu, 0):
            errors.append(f"{w}: [m_{mu}] of the Schur expansion is {got}, F_w has {f.get(mu, 0)}")
            break
    return errors
