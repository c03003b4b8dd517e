"""Discrete measures, spectral projections, cone cutoffs and the multiplier.

A DiscreteMeasure is a finite list of weighted atoms on S^{4n-1}.  Its
projection onto the (h, m) eigenspace is the function

    (pi_{h,m} mu)(x) = sum_a w_a K_{h,m}(x, y_a),

and spectrum_scan estimates the squared L^2 norm of that function for every
index up to h_max by probe averaging.  For measures whose atoms are i.i.d.
samples of an underlying distribution, the probe average carries a known
discretization floor (sum_a w_a^2) * K(x, x); the scan subtracts it before
deciding whether a projection is numerically nonzero, so that e.g. a sampled
uniform measure is flagged only at (0, 0) while a genuine point mass is
flagged everywhere.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import quat_core
from .quat_core import Array, pair_invariants_matrix, sphere_samples
from .zonal_kernel import CalibratedKernel, _kernel_rungs, index_range

_TAG_SCAN = 31


@dataclass(frozen=True)
class ConeParams:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")


class DiscreteMeasure:
    """Weighted atoms on the sphere; weights may be signed.

    Atom locations are renormalized to the unit sphere on construction.
    """

    __slots__ = ("points", "weights", "name")

    def __init__(self, points: Array, weights: Array, name: str = ""):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if pts.shape[0] != w.size or pts.shape[0] < 1:
            raise ValueError("need one weight per atom and at least one atom")
        if pts.shape[1] % 4 or pts.shape[1] < 8:
            raise ValueError("atoms must live in R^{4n} with n >= 2")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ValueError("atoms and weights must be finite")
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("atoms must be nonzero vectors")
        self.points = pts / norms
        self.weights = w
        self.name = name

    @property
    def n(self) -> int:
        return self.points.shape[1] // 4

    @property
    def natoms(self) -> int:
        return self.points.shape[0]

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.weights >= 0.0))

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def sum_sq_weight(self) -> float:
        return float(np.sum(self.weights**2))

    def effective_atoms(self) -> float:
        """Kish effective sample size (sum|w|)^2 / sum(w^2)."""
        sw2 = self.sum_sq_weight()
        return float(np.sum(np.abs(self.weights)) ** 2 / sw2) if sw2 > 0 else 0.0

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points, factor * self.weights, self.name)

    @staticmethod
    def combine(a: "DiscreteMeasure", b: "DiscreteMeasure", name: str = "") -> "DiscreteMeasure":
        if a.n != b.n:
            raise ValueError("measures live on different spheres")
        return DiscreteMeasure(
            np.concatenate([a.points, b.points]),
            np.concatenate([a.weights, b.weights]),
            name or f"{a.name}+{b.name}",
        )


def in_cone(h: int, m: int, epsilon: float) -> bool:
    """Membership of (h, m) in the cone |m/h - 1/2| < epsilon.

    The index (0, 0) is excluded by convention: m/h is undefined there and
    conic statements only concern the region away from the origin.
    """
    ConeParams(epsilon)
    if not 2 * m <= h or h < 0 or m < 0:
        raise ValueError(f"(h, m) = ({h}, {m}) is not an admissible index")
    if h == 0:
        return False
    # |m/h - 1/2| < eps with exact integer numerator, so boundary indices
    # like (5, 2) at eps = 0.1 are not admitted by rounding noise
    return abs(2 * m - h) < 2 * h * epsilon


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) transition."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.exp(np.where(t > 0.0, -1.0 / np.maximum(t, 1e-300), -np.inf))
        hi = np.exp(np.where(t < 1.0, -1.0 / np.maximum(1.0 - t, 1e-300), -np.inf))
    out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, lo / np.where(lo + hi > 0, lo + hi, 1.0)))
    return out


def psi(u, v, epsilon: float):
    """Smooth 0-homogeneous cone cutoff.

    For u >= 1 the value depends only on v/u: it is 1 when |v/u - 1/2| <=
    epsilon/2, 0 when |v/u - 1/2| >= epsilon, with a smooth monotone
    transition.  Below u = 1 a radial ramp truncates smoothly to 0 (reaching
    0 at u = 1/2), so the origin never sees the cone quotient.
    """
    ConeParams(epsilon)
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    radial = _smoothstep(2.0 * u_arr - 1.0)
    safe_u = np.where(u_arr > 0.5, u_arr, 1.0)
    w = np.abs(v_arr / safe_u - 0.5)
    cone = _smoothstep(2.0 * (epsilon - w) / epsilon)
    out = np.where(u_arr > 0.5, radial * cone, 0.0)
    if np.isscalar(u) and np.isscalar(v):
        return float(out)
    return out


def project_values(measure: DiscreteMeasure, ck: CalibratedKernel, xs: Array) -> Array:
    """(pi_{h,m} mu)(x) = sum_a w_a K(x, y_a) at each evaluation point x of xs."""
    return _projection_matrix(measure, [ck], np.atleast_2d(xs))[0]


@dataclass(frozen=True)
class SpectrumEntry:
    h: int
    m: int
    in_cone: bool
    norm_sq: float
    mc_stderr: float
    flagged_nonzero: bool
    floor: float
    norm_sq_corrected: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class SpectrumReport:
    n: int
    h_max: int
    epsilon: float
    probes: int
    seed: int
    measure_name: str
    entries: list[SpectrumEntry]

    def entry(self, h: int, m: int) -> SpectrumEntry:
        for e in self.entries:
            if e.h == h and e.m == m:
                return e
        raise KeyError(f"no entry for ({h}, {m})")

    def flagged(self) -> list[SpectrumEntry]:
        return [e for e in self.entries if e.flagged_nonzero]

    def flagged_in_cone(self) -> list[SpectrumEntry]:
        return [e for e in self.entries if e.flagged_nonzero and e.in_cone]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "h_max": self.h_max,
            "epsilon": self.epsilon,
            "probes": self.probes,
            "seed": self.seed,
            "measure": self.measure_name,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def write_json(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    def write_csv(self, path: str | Path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "m", "in_cone", "norm_sq", "mc_stderr", "flagged_nonzero"])
            for e in self.entries:
                writer.writerow(
                    [e.h, e.m, int(e.in_cone), repr(e.norm_sq), repr(e.mc_stderr), int(e.flagged_nonzero)]
                )


KernelBank = Mapping[tuple[int, int], CalibratedKernel]

# block buffers per _projection_matrix call: zonal_kernel._kernel_rungs'
# eight (a sits where the walk writes 2a, and pair_invariants_matrix's scratch
# is the walk's scratch, which also takes each W_k P_m product between
# rungs), then s
_ENGINE_BUFFERS = 9


def _projection_matrix(measure: DiscreteMeasure, cks: Sequence[CalibratedKernel], xs: Array) -> Array:
    """Projection values, shape (len(cks), len(xs)), sharing pair invariants.

    This is the one blocked kernel-sum path: scans, the multiplier,
    project_values and verify's exact Gram check all run on it.  The points
    xs are taken in chunks and the atoms in blocks so that a block holds at
    most quat_core._BLOCK_ELEMENTS pairs, and the ladder arrays stay
    cache-sized.
    Per block the pair invariants are computed once and one walk of
    zonal_kernel._kernel_rungs yields W_k and P_m for every index some
    kernel needs; each kernel's weight contraction is one GEMV into its row
    of `sums`, and one update adds c * sums to every row of the result.
    Every block array (the invariants, the walk's rungs and the W_k P_m
    product) is a view into one stack of _ENGINE_BUFFERS block-sized buffers
    allocated per call, so the walk allocates nothing per rung.
    With no kernel the values are zeros and nothing is computed.
    """
    for ck in cks:
        if ck.index.n != measure.n:
            raise ValueError("measure and kernels live on different spheres")
    out = np.zeros((len(cks), xs.shape[0]))
    if not cks:
        return out
    by_k: dict[int, dict[int, list[int]]] = {}
    for row, ck in enumerate(cks):
        by_k.setdefault(ck.index.k, {}).setdefault(ck.index.m, []).append(row)
    coeffs = np.array([ck.c for ck in cks])[:, None]

    chunk = max(1, min(xs.shape[0], quat_core._BLOCK_ELEMENTS))
    block = max(1, quat_core._BLOCK_ELEMENTS // chunk)
    stack = quat_core._aligned_empty((_ENGINE_BUFFERS, chunk * min(block, measure.natoms)))
    stack[0].fill(1.0)
    sums = np.empty((len(cks), chunk))
    for p0, lo in itertools.product(range(0, xs.shape[0], chunk), range(0, measure.natoms, block)):
        xc = xs[p0 : p0 + chunk]
        pts = measure.points[lo : lo + block]
        wb = measure.weights[lo : lo + block]
        bufs = [b[: len(xc) * len(pts)].reshape(len(xc), len(pts)) for b in stack]
        a, s = pair_invariants_matrix(xc, pts, out=[bufs[1], bufs[8], bufs[4]])
        for k, m, wk, pm in _kernel_rungs(measure.n, a, s, by_k, bufs[:8]):
            # W_0 = P_0 = 1, and multiplying by exactly 1.0 changes no bit
            terms = pm if k == 0 else wk if m == 0 else np.multiply(wk, pm, out=bufs[4])
            for row in by_k[k][m]:
                np.matmul(terms, wb, out=sums[row, : len(xc)])
        block_sums = sums[:, : len(xc)]
        out[:, p0 : p0 + chunk] += np.multiply(block_sums, coeffs, out=block_sums)
    return out


def spectrum_scan(
    measure: DiscreteMeasure,
    bank: KernelBank,
    h_max: int,
    epsilon: float,
    probes: int = 384,
    seed: int = 0,
    indices: Sequence[tuple[int, int]] | None = None,
) -> SpectrumReport:
    """Estimate ||pi_{h,m} mu||^2 for all indices with h <= h_max.

    The estimate is the average of the squared projection over uniform probe
    points.  For i.i.d.-sampled atom lists this average exceeds the true
    squared norm by the floor (sum w^2) * K(x, x), and under the null of a
    vanishing projection it fluctuates around the floor with a chi-square
    spread of about floor * sqrt(2/dim) on top of probe noise.  The nonzero
    flag therefore fires when the floor-corrected estimate exceeds four
    combined standard errors.  Single-atom measures are taken at face value
    (no floor: they are exact measures, not samples).

    An explicit `indices` subset restricts the scan to those (h, m) pairs.
    """
    if h_max < 0:
        raise ValueError("h_max must be non-negative")
    xs = sphere_samples(measure.n, probes, [seed, measure.n, _TAG_SCAN])
    if indices is None:
        indices = [(idx.h, idx.m) for idx in index_range(measure.n, h_max)]
    else:
        indices = list(indices)
    cks = [bank[hm] for hm in indices]

    m_eff = measure.effective_atoms()
    denom = 1.0 - 1.0 / m_eff if m_eff > 1.000001 else 0.0
    sw2 = measure.sum_sq_weight()

    proj = _projection_matrix(measure, cks, xs)

    entries = []
    for (h, m), ck, g in zip(indices, cks, proj):
        v = g * g
        norm_sq = float(np.mean(v))
        stderr = float(np.std(v, ddof=1)) / math.sqrt(probes) if probes > 1 else 0.0
        diag = ck.diagonal()
        if denom > 0.0:
            floor = sw2 * diag
            corrected = (norm_sq - floor) / denom
            # chi-square null fluctuation of the atom realization
            null_std = math.sqrt(stderr**2 + 2.0 * floor**2 / max(diag, 1.0)) / denom
        else:
            floor = 0.0
            corrected = norm_sq
            null_std = stderr
        entries.append(
            SpectrumEntry(
                h=h,
                m=m,
                in_cone=in_cone(h, m, epsilon),
                norm_sq=norm_sq,
                mc_stderr=stderr,
                flagged_nonzero=bool(corrected > 4.0 * null_std),
                floor=floor,
                norm_sq_corrected=corrected,
            )
        )
    return SpectrumReport(
        n=measure.n,
        h_max=h_max,
        epsilon=epsilon,
        probes=probes,
        seed=seed,
        measure_name=measure.name,
        entries=entries,
    )


@dataclass(frozen=True)
class MultiplierResult:
    values: Array
    last_shell_magnitude: float
    h_max: int
    epsilon: float


def apply_multiplier(
    measure: DiscreteMeasure,
    bank: KernelBank,
    epsilon: float,
    h_max: int,
    xs: Array,
) -> MultiplierResult:
    """Cone multiplier sum_{h <= h_max} psi(h, m) (pi_{h,m} mu)(x).

    Indices where the cutoff vanishes are skipped, and the rest share one
    projection matrix; the magnitude of the h = h_max shell is reported as a
    truncation-tail heuristic.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    indices = [(idx.h, idx.m) for idx in index_range(measure.n, h_max)]
    cutoff = np.array([psi(float(h), float(m), epsilon) for h, m in indices])
    live = np.flatnonzero(cutoff)
    proj = _projection_matrix(measure, [bank[indices[i]] for i in live], xs)
    weights = cutoff[live]
    total = weights @ proj
    last = np.array([indices[i][0] == h_max for i in live], dtype=bool)
    last_shell = weights[last] @ proj[last]
    return MultiplierResult(
        values=total,
        last_shell_magnitude=float(np.max(np.abs(last_shell))) if xs.shape[0] else 0.0,
        h_max=h_max,
        epsilon=epsilon,
    )


def function_measure(
    f,
    n: int,
    atoms: int,
    seed: int,
    name: str = "",
    pilot: int = 8192,
) -> DiscreteMeasure:
    """Materialize the signed measure f * sigma as weighted atoms.

    Atoms are drawn from the density |f| by rejection against a pilot bound,
    with signed weights sign(f) * Z / atoms where Z estimates the L1 mass.
    Compared to uniform atoms with weights f/N this concentrates atoms where
    f lives, which shrinks the projection noise of sharply peaked functions
    by orders of magnitude.  f must map (M, 4n) point arrays to (M,) values.
    """
    ss = np.random.SeedSequence([seed, n, 73])
    pilot_pts = sphere_samples(n, pilot, [seed, n, 74])
    bound = 1.05 * float(np.max(np.abs(f(pilot_pts))))
    if bound <= 0.0:
        raise ValueError("cannot materialize the zero function")

    chunk = 1 << 15
    rows, signs = [], []
    accepted = proposed = 0
    children = iter(ss.spawn(4096))
    while accepted < atoms:
        try:
            rng = np.random.default_rng(next(children))
        except StopIteration:
            raise RuntimeError("rejection sampling failed to accept enough atoms") from None
        g = rng.standard_normal((chunk, 4 * n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = f(g)
        u = rng.random(chunk)
        # acceptance probability clipped at 1; values above the pilot bound
        # contribute a slight bias acceptable at this accuracy
        keep = u < np.minimum(np.abs(vals) / bound, 1.0)
        proposed += chunk
        rows.append(g[keep])
        signs.append(np.sign(vals[keep]))
        accepted += int(np.count_nonzero(keep))
    pts = np.concatenate(rows)[:atoms]
    sgn = np.concatenate(signs)[:atoms]
    z_est = bound * accepted / proposed
    return DiscreteMeasure(pts, sgn * (z_est / atoms), name=name or "materialized")


def cone_gap_check(xi1_norm: float, xi2_norm: float) -> float:
    """(sqrt(a^2 + b^2) - b) / (2 sqrt(a^2 + b^2)) for component norms a, b.

    Equals 1/2 exactly when b = 0 and tends to 1/2 as b/a -> 0, which is the
    arithmetic behind the multiplier's ellipticity transverse to the flow
    directions.
    """
    if xi1_norm < 0 or xi2_norm < 0:
        raise ValueError("component norms must be non-negative")
    r = math.hypot(xi1_norm, xi2_norm)
    if r == 0.0:
        raise ValueError("cone_gap_check needs a nonzero covector")
    return (r - xi2_norm) / (2.0 * r)
