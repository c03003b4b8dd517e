"""Exact eigenspace dimensions on S^{4n-1}, in integer arithmetic.

The (h, m) joint eigenspace is the Sp(n) x Sp(1) irreducible with highest
weight (h-m, m, 0, ..., 0) tensor (h-2m), so its dimension is

    (h - 2m + 1) * dim_Sp(n)(h-m, m, 0, ..., 0),

where the Sp(n) factor comes from the Weyl dimension formula for type C_n:
with l = lambda + rho and rho = (n, n-1, ..., 1),

    dim = prod_{i<j} (l_i - l_j)(l_i + l_j) / ((rho_i - rho_j)(rho_i + rho_j))
          * prod_i l_i / rho_i.

The benchmark compares calibrated kernel diagonals and point-mass norms with
these numbers instead of with Monte Carlo estimates.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def sp_dim(weight: tuple[int, ...]) -> int:
    """Dimension of the Sp(n) irreducible with the given dominant weight."""
    n = len(weight)
    rho = [n - i for i in range(n)]
    lam = [w + r for w, r in zip(weight, rho)]
    num = Fraction(1)
    for i in range(n):
        num *= Fraction(lam[i], rho[i])
        for j in range(i + 1, n):
            num *= Fraction((lam[i] - lam[j]) * (lam[i] + lam[j]), (rho[i] - rho[j]) * (rho[i] + rho[j]))
    if num.denominator != 1:
        raise ArithmeticError(f"Weyl formula gave a non-integer {num} for {weight}")
    return num.numerator


def eigenspace_dim(h: int, m: int, n: int) -> int:
    """Exact dimension of the (h, m) eigenspace on S^{4n-1}, 2m <= h, n >= 2."""
    if n < 2 or m < 0 or 2 * m > h:
        raise ValueError(f"no eigenspace ({h}, {m}) on S^{4 * n - 1}")
    weight = (h - m, m) + (0,) * (n - 2)
    return (h - 2 * m + 1) * sp_dim(weight)


def harmonic_dim(h: int, n: int) -> int:
    """Dimension of the degree-h spherical harmonics on S^{4n-1} in R^{4n}."""
    d = 4 * n
    return comb(h + d - 1, d - 1) - (comb(h + d - 3, d - 1) if h >= 2 else 0)


# Dimensions the repository's tests assert, keyed (n, h, m).
_KNOWN = {
    (2, 0, 0): 1,
    (2, 2, 1): 5,
    (2, 4, 2): 14,
    (2, 2, 0): 30,
    (2, 8, 4): 55,
    (2, 3, 1): 32,
    (3, 1, 0): 12,
    (3, 2, 1): 14,
}


def self_check() -> list[str]:
    """Problems found in the reference; an empty list means it is sound.

    It must reproduce the dimensions the tests assert, and summing over m
    must give the degree-h harmonics, for n = 2..4 and h < 12.
    """
    problems = []
    for (n, h, m), want in _KNOWN.items():
        got = eigenspace_dim(h, m, n)
        if got != want:
            problems.append(f"dim({h},{m}) at n={n} is {got}, expected {want}")
    for n in range(2, 5):
        for h in range(12):
            total = sum(eigenspace_dim(h, m, n) for m in range(h // 2 + 1))
            if total != harmonic_dim(h, n):
                problems.append(f"sum over m at n={n}, h={h} is {total}, expected {harmonic_dim(h, n)}")
    return problems
