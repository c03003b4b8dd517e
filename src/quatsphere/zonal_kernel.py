"""Zonal projection kernels on S^{4n-1} and their exact constants.

The projection kernel of the (h, m) eigenspace, 2m <= h, is

    K(x, y) = c * W_k(a, s) * P_m^{(2n-3, k+1)}(2s - 1),    k = h - 2m,

with a = Re<x, y>, s = |<x, y>|^2 and W_k(a, s) = |q|^k U_k(a/|q|).  K
reproduces the eigenspace under the normalized surface measure, so its
diagonal is the eigenspace dimension dim(h, m) (KernelIndex.dimension, in
integers from the Weyl dimension formula).  Since W_k(1, 1) = k + 1 and
P_m^{(alpha, beta)}(1) = C(m + alpha, m) (Szego 1939, eq. 4.1.1), the
constant is the exact rational

    c = dim(h, m) / ((k + 1) C(m + 2n - 3, m)),

which calibrate() rounds once.  K is then idempotent,

    integral K(x, y) K(y, z) dsigma(y) = K(x, z),

which the verification module checks by Monte Carlo at x != z; it checks
orthogonality and the norms (z = x) exactly, by a Gauss rule for the Gram
matrix of every index.  The kernel without its constant is written once, as
the ladder walk _kernel_rungs, which every kernel value (raw_kernel_values,
the product pass, spectral's kernel sums) goes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ortho_poly import _ladder_buffers, _require_invariants, _require_unit_interval, cheb_ladder, jacobi_ladder
from .quat_core import Array, SpherePoint, pair_invariants


@dataclass(frozen=True)
class KernelIndex:
    """Index (h, m) of a joint eigenspace on S^{4n-1}, with 2m <= h."""

    h: int
    m: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0 <= 2 * self.m <= self.h:
            raise ValueError(f"(h, m) = ({self.h}, {self.m}) violates 0 <= 2m <= h")

    @property
    def k(self) -> int:
        """Degree h - 2m of the Chebyshev factor."""
        return self.h - 2 * self.m

    @property
    def lambda_delta(self) -> float:
        """Laplace-Beltrami eigenvalue h(h + 4n - 2)."""
        return float(self.h * (self.h + 4 * self.n - 2))

    @property
    def lambda_gamma(self) -> float:
        """Sublaplacian eigenvalue (h - 2m)(h - 2m + 2)."""
        return float(self.k * (self.k + 2))

    @property
    def dimension(self) -> int:
        """Exact dimension of the (h, m) eigenspace.

        The eigenspace is the Sp(n) x Sp(1) irreducible with highest weight
        (h-m, m, 0, ..., 0) tensor (h-2m), so its dimension is (h-2m+1) times
        the type C_n Weyl formula: with rho = (n, n-1, ..., 1) and
        l = weight + rho,

            dim_Sp(n) = prod_i l_i / rho_i * prod_{i<j} (l_i^2 - l_j^2) / (rho_i^2 - rho_j^2).
        """
        rho = range(self.n, 0, -1)
        lam = [w + r for w, r in zip([self.h - self.m, self.m] + [0] * (self.n - 2), rho)]
        num = den = 1
        for i in range(self.n):
            num *= lam[i]
            den *= rho[i]
            for j in range(i + 1, self.n):
                num *= lam[i] ** 2 - lam[j] ** 2
                den *= rho[i] ** 2 - rho[j] ** 2
        sp_dim, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"Weyl formula gave a non-integer dimension for {self}")
        return (self.k + 1) * sp_dim


def _raw_diagonal(idx: KernelIndex) -> int:
    """W_k(1, 1) P_m^{(2n-3, k+1)}(1) = (k + 1) C(m + 2n - 3, m), the kernel without its constant at x = y."""
    return (idx.k + 1) * math.comb(idx.m + 2 * idx.n - 3, idx.m)


def _kernel_rungs(n: int, a: Array, s: Array, wanted, bufs):
    """Yield (k, m, W_k(a, s), P_m^{(2n-3, k+1)}(2s - 1)) for each m in wanted[k], by ascending k, then m.

    The Chebyshev ladder is walked once, and one Jacobi ladder per needed k
    on 2s - 1 clipped to [-1, 1].  bufs are eight float64 arrays of a's
    shape: bufs[0] holds ones, filled by the caller and shared as W_0 and
    P_0; bufs[1] receives 2a (it may be a itself); bufs[2:4] take the
    Chebyshev rungs, bufs[4] is the ladders' scratch, bufs[5] takes 2s - 1
    and bufs[6:8] the Jacobi rungs.  All but bufs[0] are overwritten.  A
    yielded pair of rungs is valid only until the walk advances, and the
    caller must not write into it; the scratch is written only while the
    walk advances, so the caller may use it between rungs.
    """
    x = np.subtract(np.multiply(s, 2.0, out=bufs[5]), 1.0, out=bufs[5])
    np.clip(x, -1.0, 1.0, out=x)
    for k, w in zip(range(max(wanted) + 1), cheb_ladder(a, s, out=bufs[:5])):
        if k in wanted:
            degrees = wanted[k]
            jacobi_bufs = [bufs[0], bufs[6], bufs[7], bufs[4]]
            for m, p in zip(range(max(degrees) + 1), jacobi_ladder(2 * n - 3, k + 1, x, out=jacobi_bufs)):
                if m in degrees:
                    yield k, m, w, p


def _kernel_row(idx: KernelIndex, a: Array, s: Array, scale: float, bufs, out: Array) -> Array:
    """(scale * W_k) * P_m from invariants taken as they are, by _kernel_rungs, written into out.

    bufs are _kernel_rungs' eight buffers, with bufs[0] holding ones.  The
    walk stops at its one rung, so out may be its scratch, bufs[4].
    """
    _, _, w, p = next(_kernel_rungs(idx.n, a, s, {idx.k: (idx.m,)}, bufs))
    return np.multiply(np.multiply(w, scale, out=out), p, out=out)


def raw_kernel_values(idx: KernelIndex, a, s):
    """The kernel without its constant, W_k(a, s) P_m^{(2n-3, k+1)}(2s - 1), as a fresh array.

    a = Re<x,y> and s = |<x,y>|^2 are a pair's invariants; invariants of no
    quaternion, or with 2s - 1 outside [-1, 1], beyond 1e-12 are rejected.
    """
    a, s = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(s, dtype=np.float64))
    _require_invariants(a, s)
    _require_unit_interval(2.0 * s - 1.0)
    bufs = _ladder_buffers(a.shape, 8)
    return _kernel_row(idx, a, s, 1.0, bufs, bufs[4])


@dataclass(frozen=True)
class CalibratedKernel:
    """A kernel index with its constant c: the kernel is c * raw_kernel_values.

    calibrate() gives the exact constant; a kernel built with a wrong c is
    evaluated as it is, and verify's Gram and diagonal checks reject it.
    """

    index: KernelIndex
    c: float
    # read only by perfbench/spans.py's calibrate probe, until the benchmark drops that counter
    usable = True

    def values(self, x_vec: Array, points: Array) -> Array:
        """The kernel between one point and an array of points."""
        a, s = pair_invariants(x_vec, points)
        return self.c * raw_kernel_values(self.index, a, s)

    def __call__(self, x: SpherePoint, y: SpherePoint) -> float:
        return float(self.values(x.vec, y.vec[None, :])[0])

    def diagonal(self) -> float:
        """Value on the diagonal, constant over the sphere: c W_k(1, 1) P_m(1), in closed form."""
        return self.c * _raw_diagonal(self.index)

    def section(self, x0: SpherePoint):
        """The function y -> K(x0, y) as a vectorized callable on point arrays."""
        x_vec = x0.vec.copy()

        def f(points: Array) -> Array:
            flat = points.reshape(-1, points.shape[-1])
            vals = self.values(x_vec, flat)
            return vals.reshape(points.shape[:-1])

        return f


def calibrate(idx: KernelIndex, n_samples: int, seed: int) -> CalibratedKernel:
    """The kernel with its constant c = dim(h, m) / ((k + 1) C(m + 2n - 3, m)), rounded once.

    Nothing is sampled: n_samples and seed are ignored.
    """
    c = idx.dimension / _raw_diagonal(idx)
    return CalibratedKernel(index=idx, c=c)


def index_range(n: int, h_max: int) -> list[KernelIndex]:
    """All admissible indices with h <= h_max, ordered by (h, m)."""
    return [
        KernelIndex(h, m, n) for h in range(h_max + 1) for m in range(h // 2 + 1)
    ]


def calibrate_bank(n: int, h_max: int) -> dict[tuple[int, int], CalibratedKernel]:
    """Calibrated kernels for every index with h <= h_max, keyed by (h, m)."""
    return {(idx.h, idx.m): calibrate(idx, 0, 0) for idx in index_range(n, h_max)}
