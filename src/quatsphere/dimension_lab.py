"""Fixture measures with known support dimension and dimension estimators.

The correlation-integral estimator fits the slope of log C(r) against log r,
where C(r) is the weighted fraction of atom pairs closer than r in chordal
(ambient R^{4n}) distance.  Chordal and geodesic metrics are bilipschitz on
the sphere, so the slope is a proxy for the dimension of the measure's
support at the sampled resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .quat_core import Array, SpherePoint, _left_mul_matrix, seeded_rng, sphere_samples
from .spectral import DiscreteMeasure, KernelBank, SpectrumReport, spectrum_scan

_TAG_ORBIT = 41
_TAG_REFS = 42

# estimator tolerance at ~1e5 samples; used by the consistency verdict
DIM_TOLERANCE = 0.4

# pairs per distance block (1 MB of float64) and atoms per column tile (1 MB of coordinates at n=2)
_DISTANCE_BLOCK = 131_072
_DISTANCE_TILE = 16_384
# reference atoms kept by correlation_dimension, and radii in its default fit window
_MAX_REFS = 4096
_N_BINS = 16


def gen_point_mass(x0: SpherePoint) -> DiscreteMeasure:
    return DiscreteMeasure(x0.vec[None, :], np.array([1.0]), name="point")


def gen_uniform(n: int, count: int, seed: int) -> DiscreteMeasure:
    pts = sphere_samples(n, count, seed)
    return DiscreteMeasure(pts, np.full(count, 1.0 / count), name="uniform")


def gen_subsphere(n: int, k: int, count: int, seed: int) -> DiscreteMeasure:
    """Uniform atoms on the copy of S^{4k-1} spanned by the first k coordinates."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    pts = np.zeros((count, 4 * n))
    if k == 1:
        # sphere_samples requires n >= 2; sample S^3 directly
        g = seeded_rng(seed, n, k).standard_normal((count, 4))
        pts[:, :4] = g / np.linalg.norm(g, axis=1, keepdims=True)
    else:
        pts[:, : 4 * k] = sphere_samples(k, count, [seed, n, k])
    return DiscreteMeasure(pts, np.full(count, 1.0 / count), name=f"subsphere:{k}")


def gen_sp1_orbit(x0: SpherePoint, count: int, seed: int) -> DiscreteMeasure:
    """Atoms q * x0 for uniform unit quaternions q (a 3-dimensional orbit)."""
    g = seeded_rng(seed, _TAG_ORBIT).standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # one batched Hamilton product: a (count, 4, 4) stack of left-multiplication matrices
    mats = _left_mul_matrix(*g.T).transpose(2, 0, 1)
    pts = (x0.vec.reshape(-1, 4) @ mats.transpose(0, 2, 1)).reshape(count, -1)
    return DiscreteMeasure(pts, np.full(count, 1.0 / count), name="sp1-orbit")


@dataclass(frozen=True)
class DimensionEstimate:
    s_hat: float
    r_min: float
    r_max: float
    residual: float
    sample_count: int
    degenerate: bool = False
    r_values: tuple = ()
    c_values: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "s_hat": self.s_hat,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "residual": self.residual,
            "sample_count": self.sample_count,
            "degenerate": self.degenerate,
        }


def _sq_distance_blocks(points: Array, ref_idx: Array):
    """Yield (lo, c0, d2): squared distances from points[ref_idx[lo:lo+rows]] to points[c0:c0+cols].

    Equal column tiles keep a tile's coordinates in cache while the reference rows
    stream past.  Self-pairs read inf; callers clip coincident atoms at 0.
    """
    m = points.shape[0]
    sq = np.sum(points * points, axis=1)
    cols = math.ceil(m / math.ceil(m / _DISTANCE_TILE))
    rows = max(1, _DISTANCE_BLOCK // cols)
    for c0 in range(0, m, cols):
        for lo in range(0, len(ref_idx), rows):
            ridx = ref_idx[lo : lo + rows]
            g = (2.0 * points[ridx]) @ points[c0 : c0 + cols].T  # exact doubling: G's rounding is kept
            d2 = np.add.outer(sq[ridx], sq[c0 : c0 + cols])
            d2 -= g
            own = (ridx >= c0) & (ridx < c0 + cols)
            d2[own, ridx[own] - c0] = np.inf
            yield lo, c0, d2


def _pair_counts(
    points: Array,
    weights: Array,
    ref_idx: Array,
    ref_w: Array,
    edges: Array,
    uniform: bool,
) -> Array:
    """Weighted pair counts below each edge (cumulative over bins).

    Distances are binned as squares against squared edges, and only those inside
    the last edge: np.histogram would sort every pair before dropping the rest.
    """
    hist = np.zeros(len(edges) - 1)
    edges_sq = edges * edges
    for lo, c0, d2 in _sq_distance_blocks(points, ref_idx):
        rows, cols = np.divmod(np.flatnonzero(d2 <= edges_sq[-1]), d2.shape[1])
        wprod = None if uniform else ref_w[lo + rows] * weights[c0 + cols]
        hist += np.histogram(np.maximum(d2[rows, cols], 0.0), bins=edges_sq, weights=wprod)[0]
    return np.cumsum(hist)


def _median_nn(points: Array, ref_idx: Array) -> float:
    """Median nearest-neighbour distance seen from a reference subset."""
    nn = np.full(len(ref_idx), np.inf)
    for lo, _, d2 in _sq_distance_blocks(points, ref_idx):
        nn[lo : lo + len(d2)] = np.minimum(nn[lo : lo + len(d2)], d2.min(axis=1))
    return float(math.sqrt(np.median(np.maximum(nn, 0.0))))


def correlation_dimension(
    measure: DiscreteMeasure,
    r_grid: Sequence[float] | None = None,
    seed: int = 0,
) -> DimensionEstimate:
    """Correlation-integral slope of a nonnegative discrete measure.

    All pairs are used when the measure has at most _MAX_REFS atoms; larger
    measures are thinned to _MAX_REFS reference atoms drawn proportionally to
    their weights, which leaves C(r) unbiased up to normalization (and the
    log-log slope is normalization-free).  The default fit window is
    [2 * median NN distance, diameter / 4] with _N_BINS log-spaced radii.
    """
    if not measure.nonnegative:
        raise ValueError("correlation dimension is defined for nonnegative measures")
    pts, w = measure.points, measure.weights
    m = measure.natoms
    dim_cap = float(4 * measure.n - 1)

    def degenerate(r_lo=0.0, r_hi=0.0):
        return DimensionEstimate(
            s_hat=0.0, r_min=r_lo, r_max=r_hi, residual=0.0, sample_count=m, degenerate=True
        )

    if m < 2:
        return degenerate()

    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("measure has no positive mass")
    wn = w / total

    uniform = bool(np.allclose(w, w[0]))
    if m <= _MAX_REFS:
        ref_idx = np.arange(m)
        ref_w = wn
    else:
        rng = seeded_rng(seed, _TAG_REFS)
        ref_idx = np.sort(rng.choice(m, size=_MAX_REFS, replace=True, p=wn))
        ref_w = np.full(_MAX_REFS, 1.0 / _MAX_REFS)

    # rough diameter from reference pairs only
    probe = _sq_distance_blocks(pts, ref_idx[:: max(1, len(ref_idx) // 512)])
    d2max = max(float(np.max(d2, where=d2 < np.inf, initial=0.0)) for _, _, d2 in probe)
    diameter = math.sqrt(d2max)
    if diameter < 1e-9:
        return degenerate()

    if r_grid is not None:
        r = np.asarray(sorted(r_grid), dtype=np.float64)
        if len(r) < 3:
            raise ValueError("need at least 3 radii")
        r_lo, r_hi = float(r[0]), float(r[-1])
    else:
        med_nn = _median_nn(pts, ref_idx[:256])
        r_lo = 2.0 * med_nn
        r_hi = diameter / 4.0
        if r_lo >= r_hi:
            r_lo = r_hi / 16.0
        r = np.geomspace(r_lo, r_hi, _N_BINS)
    edges = np.concatenate([[0.0], r])
    counts = _pair_counts(pts, wn, ref_idx, ref_w, edges, uniform)

    mask = counts > 0
    if np.count_nonzero(mask) < 3:
        return degenerate(r_lo, r_hi)
    logs_r = np.log(r[mask])
    logs_c = np.log(counts[mask])
    slope, intercept = np.polyfit(logs_r, logs_c, 1)
    resid = float(np.sqrt(np.mean((logs_c - (slope * logs_r + intercept)) ** 2)))
    s_hat = float(min(max(slope, 0.0), dim_cap))
    return DimensionEstimate(
        s_hat=s_hat,
        r_min=float(r_lo),
        r_max=float(r_hi),
        residual=resid,
        sample_count=m,
        r_values=tuple(float(t) for t in r),
        c_values=tuple(float(t) for t in counts),
    )


def s_energy(measure: DiscreteMeasure, s: float) -> float:
    """Riesz-type energy sum_{a != b} w_a w_b |x_a - x_b|^{-s} (ordered pairs).

    Always finite for a discrete measure; informative only through its growth
    under refinement (bounded for s below the support dimension, growing
    above it).  Cost is quadratic in the atom count.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if not measure.nonnegative:
        raise ValueError("s-energy is defined for nonnegative measures")
    pts, w = measure.points, measure.weights
    total = 0.0
    for lo, c0, d2 in _sq_distance_blocks(pts, np.arange(measure.natoms)):
        d = np.sqrt(np.maximum(d2, 0.0, out=d2))
        total += float(np.sum(w[lo : lo + len(d)][:, None] * w[c0 : c0 + d.shape[1]] * d ** (-s)))
    return total


@dataclass(frozen=True)
class ConsistencyReport:
    measure_name: str
    n: int
    epsilon: float
    h_max: int
    cone_condition_plausible: bool
    dim_estimate: DimensionEstimate
    bound_4n_minus_4: float
    consistent: bool
    flagged_in_cone: tuple
    scan: SpectrumReport = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure_name,
            "n": self.n,
            "epsilon": self.epsilon,
            "h_max": self.h_max,
            "cone_condition_plausible": self.cone_condition_plausible,
            "dim_estimate": self.dim_estimate.to_json_dict(),
            "bound_4n_minus_4": self.bound_4n_minus_4,
            "consistent": self.consistent,
            "flagged_in_cone": [list(t) for t in self.flagged_in_cone],
        }


def theorem_consistency_report(
    measure: DiscreteMeasure,
    bank: KernelBank,
    epsilon: float,
    h_max: int,
    seed: int = 0,
    probes: int = 384,
) -> ConsistencyReport:
    """Falsification harness for the dimension bound dim >= 4n - 4.

    The hypothesis side ("only finitely many in-cone projections are
    nonzero") is approximated at desk scale by requiring that no in-cone
    index with h >= h_max/2 is flagged in the spectrum scan.  A report is
    inconsistent only when that plausibility check passes while the measured
    correlation dimension falls clearly below the bound.
    """
    if not measure.nonnegative:
        raise ValueError("consistency reports require nonnegative measures")
    scan = spectrum_scan(measure, bank, h_max, epsilon, probes=probes, seed=seed)
    flagged = tuple((e.h, e.m) for e in scan.flagged_in_cone())
    plausible = not any(h >= (h_max + 1) // 2 for h, _ in flagged)
    dim_est = correlation_dimension(measure, seed=seed)
    bound = float(4 * measure.n - 4)
    consistent = (not plausible) or (dim_est.s_hat >= bound - DIM_TOLERANCE)
    return ConsistencyReport(
        measure_name=measure.name,
        n=measure.n,
        epsilon=epsilon,
        h_max=h_max,
        cone_condition_plausible=plausible,
        dim_estimate=dim_est,
        bound_4n_minus_4=bound,
        consistent=consistent,
        flagged_in_cone=flagged,
        scan=scan,
    )
