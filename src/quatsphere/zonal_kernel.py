"""Zonal projection kernels on S^{4n-1} and their Monte Carlo calibration.

The raw kernel for an index (h, m) with 2m <= h is

    raw(x, y) = pref * C(h-m+2n-2, 2n-3) * W_{h-2m}(a, s) * P_m^{(2n-3, h-2m+1)}(2s - 1)

with a = Re<x, y>, s = |<x, y>|^2 and pref = (h-2m+1)(h+2m-1) / ((2n-2)(2n-1)).
The overall constant of the true projection kernel depends on normalization
conventions that the raw formula does not fix (its sign is even negative at
(0, 0) and the constant factor degenerates to 0 at (1, 0) although the
eigenspace there is nonzero).  calibrate() therefore rescales each index by
the unique constant c that makes the kernel idempotent under the normalized
surface measure:

    integral K(x, y) K(y, z) dsigma(y) = K(x, z).

With that normalization K(x, x) equals the dimension of the eigenspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ortho_poly import JacobiParams, binomial, cheb_u_scaled, jacobi_eval
from .quat_core import (
    AXES,
    Array,
    SpherePoint,
    _apply_axis_flat,
    pair_invariants,
    pair_invariants_matrix,
    seeded_rng,
    sphere_samples,
)

_SPREAD_LIMIT = 0.05

# calibration probe pairs are drawn with |<x,z>| in this window to stay away
# from zeros of the kernel
_PROBE_ABS_RANGE = (0.3, 0.9)

# seed-stream tags so distinct random uses never collide
_TAG_SAMPLES = 11
_TAG_PROBES = 12
_TAG_DIAG = 13


class CalibrationError(RuntimeError):
    """Raised when no usable calibration constant can be estimated."""


class UnusableKernelError(ValueError):
    """Raised when evaluating a kernel whose calibration diagnostics failed."""


def in_index_set(h: int, m: int) -> bool:
    """Membership of (h, m) in the admissible index set {2m <= h}."""
    if h < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    return 2 * m <= h


@dataclass(frozen=True)
class KernelIndex:
    """Index (h, m) of a joint eigenspace on S^{4n-1}, with 2m <= h."""

    h: int
    m: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.h < 0 or self.m < 0:
            raise ValueError("h and m must be non-negative")
        if not in_index_set(self.h, self.m):
            raise ValueError(f"(h, m) = ({self.h}, {self.m}) violates 2m <= h")

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
    def jacobi(self) -> JacobiParams:
        return JacobiParams(alpha=2 * self.n - 3, beta=self.k + 1, degree=self.m)

    @property
    def prefactor(self) -> float:
        pref = (self.k + 1) * (self.h + 2 * self.m - 1) / ((2 * self.n - 2) * (2 * self.n - 1))
        # the constant factor vanishes at (1, 0) although the eigenspace does
        # not; fall back to 1 so calibration can still fix the scale
        return pref if pref != 0.0 else 1.0

    def coefficient(self, scale: float = 1.0) -> float:
        """scale * prefactor * C(h-m+2n-2, 2n-3), the constant in front of W_k P_m.

        The scale (a calibration constant) is multiplied in first, so every
        caller rounds the product the same way.
        """
        return scale * self.prefactor * binomial(self.h - self.m + 2 * self.n - 2, 2 * self.n - 3)


def raw_kernel_values(idx: KernelIndex, a, s):
    """Raw kernel evaluated from the invariants a = Re<x,y>, s = |<x,y>|^2."""
    s_arr = np.asarray(s, dtype=np.float64)
    return idx.coefficient() * cheb_u_scaled(idx.k, a, s_arr) * jacobi_eval(idx.jacobi, 2.0 * s_arr - 1.0)


def raw_kernel(idx: KernelIndex, x: SpherePoint, y: SpherePoint) -> float:
    """Raw (uncalibrated) kernel between two sphere points."""
    if x.n != idx.n or y.n != idx.n:
        raise ValueError("points and kernel index live on different spheres")
    a, s = pair_invariants(x.vec, y.vec[None, :])
    return float(raw_kernel_values(idx, a[0], s[0]))


@dataclass(frozen=True)
class CalibratedKernel:
    """Raw kernel together with the idempotency-fixing constant c."""

    index: KernelIndex
    c: float
    spread: float
    n_samples: int
    seed: int
    probes: int

    @property
    def usable(self) -> bool:
        return self.c != 0.0 and self.spread < _SPREAD_LIMIT

    def require_usable(self):
        if not self.usable:
            raise UnusableKernelError(
                f"kernel {self.index} flagged unusable (c={self.c}, spread={self.spread:.3g})"
            )

    def values(self, x_vec: Array, points: Array) -> Array:
        """Calibrated kernel between one point and an array of points."""
        self.require_usable()
        a, s = pair_invariants(x_vec, points)
        return self.c * raw_kernel_values(self.index, a, s)

    def __call__(self, x: SpherePoint, y: SpherePoint) -> float:
        return float(self.values(x.vec, y.vec[None, :])[0])

    def diagonal(self) -> float:
        """Value on the diagonal, constant over the sphere."""
        self.require_usable()
        return self.c * float(raw_kernel_values(self.index, 1.0, 1.0))

    def section(self, x0: SpherePoint):
        """The function y -> K(x0, y) as a vectorized callable on point arrays."""
        self.require_usable()
        x_vec = x0.vec.copy()

        def f(points: Array) -> Array:
            flat = points.reshape(-1, points.shape[-1])
            vals = self.values(x_vec, flat)
            return vals.reshape(points.shape[:-1])

        return f

    def to_record(self) -> dict:
        return {
            "c": self.c,
            "spread": self.spread,
            "N": self.n_samples,
            "seed": self.seed,
            "probes": self.probes,
        }


def kernel(ck: CalibratedKernel, x: SpherePoint, y: SpherePoint) -> float:
    """Calibrated kernel value c * raw(x, y)."""
    return ck(x, y)


def kernel_dim(ck: CalibratedKernel, seed: int = 0) -> float:
    """Diagonal value averaged over 10 random points.

    The diagonal of a zonal kernel is constant, so this doubles as a zonality
    sanity check; under idempotency calibration it estimates the dimension of
    the eigenspace.
    """
    pts = sphere_samples(ck.index.n, 10, [seed, ck.index.h, ck.index.m, _TAG_DIAG])
    a, s = pair_invariants_matrix(pts, pts)
    vals = ck.c * raw_kernel_values(ck.index, np.diag(a), np.diag(s))
    return float(np.mean(vals))


def _candidate_probe_pairs(
    idx: KernelIndex, rng: np.random.Generator, count: int
) -> tuple[Array, Array, Array]:
    """Candidate pairs in the |<x,z>| window, ordered by decreasing |raw(x, z)|.

    Ordering by the raw kernel magnitude keeps probes away from zeros of the
    kernel, where the idempotency ratio estimator degenerates.
    """
    lo, hi = _PROBE_ABS_RANGE
    xs = rng.standard_normal((count, 4 * idx.n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    zs = rng.standard_normal((count, 4 * idx.n))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    a = np.sum(xs * zs, axis=1)
    s = a * a
    for ax in AXES:
        comp = np.sum(xs * _apply_axis_flat(zs, ax), axis=1)
        s += comp * comp
    keep = (s >= lo * lo) & (s <= hi * hi)
    if not np.any(keep):
        raise CalibrationError("no candidate pair landed in the |<x,z>| window")
    xs, zs = xs[keep], zs[keep]
    targets = raw_kernel_values(idx, a[keep], s[keep])
    order = np.argsort(-np.abs(targets), kind="stable")
    return xs[order], zs[order], targets[order]


def calibrate(
    idx: KernelIndex,
    n_samples: int,
    seed: int,
    probes: int = 6,
    candidate_pool: int = 4096,
) -> CalibratedKernel:
    """Fix the kernel constant by enforcing idempotency.

    For each probe pair (x, z) the product integral
    A(x, z) = E_y[raw(x, y) raw(y, z)] is estimated over n_samples uniform
    points y, and c is the mean of raw(x, z) / A(x, z) across probes.  The
    relative spread of these ratios is recorded; probes whose A estimate is
    statistically indistinguishable from zero are skipped in favor of the
    next candidate pair.
    """
    if n_samples < 10_000:
        raise ValueError("calibration needs at least 1e4 Monte Carlo samples")
    if probes < 3:
        raise ValueError("calibration needs at least 3 probe pairs")

    samples = sphere_samples(idx.n, n_samples, [seed, idx.n, idx.h, idx.m, _TAG_SAMPLES])
    probe_rng = seeded_rng(seed, idx.n, idx.h, idx.m, _TAG_PROBES)
    xs, zs, targets = _candidate_probe_pairs(idx, probe_rng, candidate_pool)

    ratios = []
    for x, z, target in zip(xs, zs, targets):
        if len(ratios) == probes:
            break
        ax, sx = pair_invariants(x, samples)
        az, sz = pair_invariants(z, samples)
        prod = raw_kernel_values(idx, ax, sx) * raw_kernel_values(idx, az, sz)
        a_est = float(np.mean(prod))
        a_err = float(np.std(prod)) / math.sqrt(n_samples)
        if abs(a_est) <= 10.0 * a_err:
            continue
        ratios.append(float(target) / a_est)
    if len(ratios) < probes:
        raise CalibrationError(
            f"{idx}: only {len(ratios)} of {probes} probe pairs gave a significant product integral"
        )

    c = float(np.mean(ratios))
    spread = float(np.std(ratios)) / abs(c) if c != 0.0 else math.inf
    return CalibratedKernel(
        index=idx, c=c, spread=spread, n_samples=n_samples, seed=seed, probes=probes
    )


def index_range(n: int, h_max: int) -> list[KernelIndex]:
    """All admissible indices with h <= h_max, ordered by (h, m)."""
    return [
        KernelIndex(h, m, n) for h in range(h_max + 1) for m in range(h // 2 + 1)
    ]


def calibrate_bank(
    n: int,
    h_max: int,
    n_samples: int,
    seed: int,
    probes: int = 6,
    cache: "KernelCache | None" = None,
) -> dict[tuple[int, int], CalibratedKernel]:
    """Calibrated kernels for every index with h <= h_max, keyed by (h, m)."""
    cks = [
        calibrate(idx, n_samples, seed, probes)
        if cache is None
        else cache.get_or_calibrate(idx, n_samples, seed, probes)
        for idx in index_range(n, h_max)
    ]
    if cache is not None:
        cache.save()
    return {(ck.index.h, ck.index.m): ck for ck in cks}


class KernelCache:
    """JSON sidecar persisting calibration constants across runs.

    Entries are keyed "n/h/m" and hold {c, spread, N, seed, probes}; a cached
    entry is reused only when it was produced with at least the requested
    sample count and the same seed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        if self.path.exists():
            self._entries = json.loads(self.path.read_text())

    @staticmethod
    def _key(idx: KernelIndex) -> str:
        return f"{idx.n}/{idx.h}/{idx.m}"

    def get(self, idx: KernelIndex) -> CalibratedKernel | None:
        rec = self._entries.get(self._key(idx))
        if rec is None:
            return None
        return CalibratedKernel(
            index=idx,
            c=float(rec["c"]),
            spread=float(rec["spread"]),
            n_samples=int(rec["N"]),
            seed=int(rec["seed"]),
            probes=int(rec.get("probes", 0)),
        )

    def put(self, ck: CalibratedKernel):
        self._entries[self._key(ck.index)] = ck.to_record()

    def get_or_calibrate(
        self, idx: KernelIndex, n_samples: int, seed: int, probes: int = 6
    ) -> CalibratedKernel:
        ck = self.get(idx)
        if ck is not None and ck.n_samples >= n_samples and ck.seed == seed:
            return ck
        ck = calibrate(idx, n_samples, seed, probes)
        self.put(ck)
        return ck

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self._entries, sort_keys=True, indent=2) + "\n")
