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

import numpy as np

from .quat_core import Array, _aligned_empty, _left_mul_matrix, seeded_rng, sphere_samples
from .spectral import DiscreteMeasure, KernelBank, SpectrumReport, spectrum_scan

_TAG_ORBIT = 41
_TAG_REFS = 42

# estimator tolerance at ~1e5 samples; used by the consistency verdict
DIM_TOLERANCE = 0.4

# GEMM values per distance block (1 MB of float64) and atoms per column tile
_DISTANCE_BLOCK = 131_072
_DISTANCE_TILE = 1024
# OpenBLAS (0.3.31, AVX-512) computes the last ncols % 8 columns of a large product
# with a remainder kernel whose values can differ in the last bit
_LANE = 8
# reference atoms kept by correlation_dimension, and radii in its fit window
_MAX_REFS = 4096
_N_BINS = 16
# hits handled per slice of a tile
_HIT_SLICE = 8192


def gen_point_mass(x0: Array) -> DiscreteMeasure:
    return DiscreteMeasure(x0[None, :], np.array([1.0]), name="point")


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
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts[:, :4] = g
    else:
        pts[:, : 4 * k] = sphere_samples(k, count, [seed, n, k])
    return DiscreteMeasure(pts, np.full(count, 1.0 / count), name=f"subsphere:{k}")


def gen_sp1_orbit(x0: Array, count: int, seed: int) -> DiscreteMeasure:
    """Atoms q * x0 for uniform unit quaternions q (a 3-dimensional orbit)."""
    g = seeded_rng(seed, _TAG_ORBIT).standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # batched Hamilton products on stacks of 2048 left-multiplication matrices, so that
    # no (count, 4, 4) stack is held; each row's product is its own, so the stack size
    # does not show in the bits
    pts = np.empty((count, x0.size))
    for lo in range(0, count, 2048):
        mats = _left_mul_matrix(*g[lo : lo + 2048].T).transpose(2, 0, 1)
        pts[lo : lo + len(mats)] = (x0.reshape(-1, 4) @ mats.transpose(0, 2, 1)).reshape(len(mats), -1)
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


def _spans(lo: int, hi: int, size: int):
    """[lo, hi) cut at lo + multiples of size; a last span shorter than a lane joins the one before."""
    cuts = list(range(lo, hi, size))[1:]
    if cuts and hi - cuts[-1] < _LANE:
        cuts.pop()
    ends = [lo, *cuts, hi]
    return zip(ends[:-1], ends[1:])


def _lane_spans(spans):
    """Column spans widened to whole lanes and merged where they meet.

    Merging keeps widened spans from sharing a column, which would meet its pairs twice.
    """
    merged = []
    for c0, c1 in sorted((c0 // _LANE * _LANE, -(-c1 // _LANE) * _LANE) for c0, c1 in spans if c0 < c1):
        if merged and c0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], c1)
        else:
            merged.append([c0, c1])
    return merged


def _gram_tiles(x: Array, y: Array, columns=None, order=None):
    """Yield (r0, c0, g) with g = (2 x[r0:r1]) @ y[c0:c1].T, each g overwriting the last.

    A pair's squared distance is (sq_i + sq_j) - g_ij.  columns(r0, r1) gives the column
    spans that block r0:r1 walks (every column when None); they are widened to whole
    lanes and merged, and callers whose spans meet the block's rows drop j <= i where a
    tile overlaps its block (c0 < r1).  With order, the columns are the rows of
    y[order], gathered a tile at a time, so no permuted copy of y is made.  Every product
    has at least 2 rows (callers pass x with at least 2) and whole lanes of columns (a
    tile past the last column reads zero rows, which g leaves out), so no value comes
    from a matrix-vector product or a remainder kernel, and g_ij has the same bits
    whatever the block, tile and span.
    """
    m = len(y) if order is None else len(order)
    cols = max(_LANE, _DISTANCE_TILE // _LANE * _LANE)
    rows = max(_LANE, _DISTANCE_BLOCK // cols // _LANE * _LANE)
    # on a cache-line boundary: 16 to 48 bytes past one, the tiles' GEMMs ran about 7% slower
    buf = _aligned_empty(((rows + _LANE) * cols,))
    for r0, r1 in _spans(0, len(x), rows):
        x2 = 2.0 * x[r0:r1]  # exact doubling: G's rounding is kept, and (2a).b == (2b).a bit for bit
        for lo, hi in _lane_spans([(0, m)] if columns is None else columns(r0, r1)):
            for c0, c1 in _spans(lo, hi, cols):
                yc = y[c0:c1] if order is None else y[order[c0:c1]]
                if c1 > m:
                    yc = np.concatenate([yc, np.zeros((c1 - m, y.shape[1]))])
                g = np.matmul(x2, yc.T, out=buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0))
                yield r0, c0, g[:, : m - c0]


def _margin(sq: Array, t: float) -> float:
    """Slack for judging squared distances up to t by their GEMM values g.

    d2 = fl(fl(sq_i + sq_j) - g) lies within u(2 max sq + t) of sq_i + sq_j - g (u the
    unit roundoff).  The slack is four times that: twice for comparing two pairs, and
    twice again for the rounding of the thresholds built from it.
    """
    return 2.0 * np.finfo(np.float64).eps * (2.0 * float(sq.max()) + t)


def _farthest_axis(x: Array) -> Array:
    """Unit vector from the mean of the rows of x to the row farthest from it.

    Rows that do not spread (one distinct row) give the first coordinate axis.
    """
    c = x - x.mean(axis=0)
    spread = np.sum(c * c, axis=1)
    k = int(np.argmax(spread))
    if not spread[k] > 0.0:
        return np.eye(x.shape[1])[0]
    return c[k] / math.sqrt(float(spread[k]))


def _pair_counts(
    points: Array,
    weights: Array,
    ref_idx: Array,
    ref_w: Array,
    edges: Array,
    uniform: bool,
) -> Array:
    """Weighted pair counts below each edge (cumulative over bins) from references to atoms.

    Repeat references are folded into one row weighted by their summed draws (their
    multiplicity when uniform, which keeps the counts integers).  With the distinct
    references first, the walk meets each unordered pair once and weighs it
    rho_i w_j + rho_j w_i, rho being 0 off the references.  Only pairs whose GEMM value
    admits d2 <= edges[-1]**2 get an exact squared distance; they are binned with
    np.histogram's semantics (half-open bins, last edge closed, d2 < 0 in bin 0).

    The references, then the other atoms, are sorted by their projection q on a unit
    axis u, and each block of references walks only the atoms whose projection lies
    within `reach` of the block's.  The atoms of a pair that g >= thr keeps lie within
    reach of each other, |q_i - q_j| <= |x_i - x_j| for any unit u, and reach covers
    the rounding of q; so the band drops only pairs the threshold drops, and the walk
    keeps the same pairs with the same Gram bits whatever u and the order of the atoms.
    """
    m = len(points)
    refs, inv = np.unique(ref_idx, return_inverse=True)
    n_refs = len(refs)
    rho = np.zeros(m)
    rho[refs] = np.bincount(inv, None if uniform else ref_w)
    sq = np.sum(points * points, axis=1)
    # a lone reference walks with the next atom at rho 0: a 1-row block is not a GEMM
    n_rows = max(2, n_refs)

    edges_sq = edges * edges
    t = float(edges_sq[-1])
    margin = _margin(sq, t)
    thr = 2.0 * float(sq.min()) - t - margin
    # g >= thr bounds a pair's squared distance by t + margin + 2 (max sq - min sq), up
    # to the rounding of g and of the norms, which `rounding` * max sq covers (d terms per
    # dot product); the factor 1 + 1e-9 and the last term cover the projections' rounding
    sq_max = float(sq.max())
    rounding = 4.0 * points.shape[1] * np.finfo(np.float64).eps
    reach = (1.0 + 1e-9) * math.sqrt(t + margin + 2.0 * (sq_max - float(sq.min())) + rounding * sq_max)
    reach += rounding * math.sqrt(sq_max)

    q = points @ _farthest_axis(points[refs])
    rest = np.delete(np.arange(m), refs)
    order = np.concatenate([refs[np.argsort(q[refs])], rest[np.argsort(q[rest])]])
    del inv, rest
    q, rho, sq = q[order], rho[order], sq[order]
    w = None if uniform else weights[order]

    def band(r0, r1):
        # the references from the block's first row on sort at or above its own; the
        # other atoms, from n_refs on, are cut at both ends
        lo = float(q[r0]) - reach
        hi = float(q[min(r1, n_refs) - 1]) + reach
        tail = q[n_refs:]
        return [
            (r0, max(r1, r0 + int(np.searchsorted(q[r0:n_refs], hi, side="right")))),
            (n_refs + int(np.searchsorted(tail, lo)), n_refs + int(np.searchsorted(tail, hi, side="right"))),
        ]

    # d2 past the last edge falls in an overflow bin, dropped at the end
    bin_edges = np.append(edges_sq[:-1], np.nextafter(t, np.inf))
    hist = np.zeros(len(edges_sq))
    for r0, c0, g in _gram_tiles(points[order[:n_rows]], points, band, order):
        hist += _tile_hist(g, r0, c0, _tile_hits(g, r0, c0, thr), sq, rho, w, bin_edges)
    return np.cumsum(hist[:-1])


def _tile_hits(g: Array, r0: int, c0: int, thr: float) -> Array:
    """Flat indices in g of the pairs j > i of one tile (rows from r0, columns from c0) with g >= thr."""
    mask = g >= thr
    # drop the pairs j <= i where the tile overlaps its block (row by row: an in-place
    # operation on a strided view of the mask allocates as much as the mask)
    for k in range(max(0, c0 - r0), len(g)):
        mask[k, : r0 + k - c0 + 1] = False
    return np.flatnonzero(mask)


def _tile_hist(g: Array, r0: int, c0: int, hits: Array, sq: Array, rho: Array, w, bin_edges: Array) -> Array:
    """Weighted counts in each bin of a tile's hits (rows from r0, columns from c0).

    w None stands for equal weights.  The hits are handled a slice at a time, so a
    dense tile's temporaries stay small.
    """
    hist = np.zeros(len(bin_edges))
    for s0 in range(0, len(hits), _HIT_SLICE):
        idx = hits[s0 : s0 + _HIT_SLICE]
        i, j = np.divmod(idx, g.shape[1])
        i += r0
        j += c0
        # in place, with the bits of max((sq_i + sq_j) - g, 0) and rho_i w_j + rho_j w_i
        d2 = sq[i]
        d2 += sq[j]
        d2 -= g.ravel()[idx]
        np.maximum(d2, 0.0, out=d2)
        if w is None:
            wts = rho[i]
            wts += rho[j]
        else:
            wts = rho[i] * w[j]
            wts += rho[j] * w[i]
        del i, j
        # a bin index is the number of edges past the first at or below d2 (a few
        # vectorized passes beat a binary search per pair)
        bins = np.zeros(len(d2), dtype=np.min_scalar_type(len(bin_edges)))
        for e in bin_edges[1:]:
            bins += d2 >= e
        hist += np.bincount(bins, wts, minlength=len(bin_edges))
        del d2, wts, bins  # before the next slice's arrays
    return hist


def _probe(points: Array, rows: Array, fill: float, select):
    """Yield (row, d2): exact squared distances of the pairs select(g, widen) keeps in each tile.

    The tiles run points[rows] against every atom, with each row's entry for itself set
    to fill.  Two pairs whose GEMM values g differ by more than widen cannot swap order
    in squared distance, however d2 rounds.
    """
    sq = np.sum(points * points, axis=1)
    widen = 2.0 * float(sq.max() - sq.min()) + _margin(sq, 4.0 * float(sq.max()))
    for r0, c0, g in _gram_tiles(points[rows], points):
        own = rows[r0 : r0 + len(g)] - c0
        k = np.flatnonzero((own >= 0) & (own < g.shape[1]))
        g[k, own[k]] = fill
        i, j = np.divmod(np.flatnonzero(select(g, widen)), g.shape[1])
        yield r0 + i, (sq[rows[r0 + i]] + sq[c0 + j]) - g[i, j]


def _max_sq_distance(points: Array, rows: Array) -> float:
    """Largest squared distance (at least 0) from points[rows] to another atom: the farthest pairs have the smallest g."""
    pairs = _probe(points, rows, np.inf, lambda g, widen: g <= g.min() + widen)
    return max([0.0, *(float(d2.max()) for _, d2 in pairs)])


def _nearest_sq_distances(points: Array, rows: Array) -> Array:
    """Each row's smallest squared distance from points[rows] to another atom: its nearest atoms have its largest g."""
    nn = np.full(len(rows), np.inf)
    for i, d2 in _probe(points, rows, -np.inf, lambda g, widen: g >= (g.max(axis=1) - widen)[:, None]):
        np.minimum.at(nn, i, d2)
    return nn


def correlation_dimension(measure: DiscreteMeasure, seed: int = 0) -> DimensionEstimate:
    """Correlation-integral slope of a nonnegative discrete measure.

    All pairs are used when the measure has at most _MAX_REFS atoms; larger
    measures are thinned to _MAX_REFS reference atoms drawn proportionally to
    their weights, which leaves C(r) unbiased up to normalization (and the
    log-log slope is normalization-free).  The fit window is
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

    uniform = bool(np.all(w == w[0]))
    if m <= _MAX_REFS:
        ref_idx = np.arange(m)
        ref_w = wn
    else:
        rng = seeded_rng(seed, _TAG_REFS)
        ref_idx = np.sort(rng.choice(m, size=_MAX_REFS, replace=True, p=wn))
        ref_w = np.full(_MAX_REFS, 1.0 / _MAX_REFS)

    # rough diameter from reference pairs only
    diameter = math.sqrt(_max_sq_distance(pts, ref_idx[:: max(1, len(ref_idx) // 512)]))
    if diameter < 1e-9:
        return degenerate()

    nn = _nearest_sq_distances(pts, ref_idx[:256])
    r_lo = 2.0 * math.sqrt(np.median(np.maximum(nn, 0.0)))
    r_hi = diameter / 4.0
    # duplicated atoms can make the median nearest-neighbour distance 0
    if not 0.0 < r_lo < r_hi:
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
    sq = np.sum(pts * pts, axis=1)
    total = 0.0
    # each unordered pair once, doubled; j <= i reads inf and adds 0
    for r0, c0, g in _gram_tiles(pts, pts, lambda r0, r1: [(r0, len(pts))]):
        r1, c1 = r0 + len(g), c0 + g.shape[1]
        d2 = np.add.outer(sq[r0:r1], sq[c0:c1])
        d2 -= g
        if c0 < r1:
            d2[np.arange(r0, r1)[:, None] >= np.arange(c0, c1)] = np.inf
        d = np.sqrt(np.maximum(d2, 0.0, out=d2))
        total += 2.0 * float(np.sum(w[r0:r1][:, None] * w[c0:c1] * d ** (-s)))
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
    correlation dimension falls clearly below the bound; a degenerate estimate
    measures nothing, so it cannot make a report inconsistent.
    """
    if not measure.nonnegative:
        raise ValueError("consistency reports require nonnegative measures")
    scan = spectrum_scan(measure, bank, h_max, epsilon, probes=probes, seed=seed)
    flagged = tuple((e.h, e.m) for e in scan.flagged_in_cone())
    plausible = not any(h >= (h_max + 1) // 2 for h, _ in flagged)
    dim_est = correlation_dimension(measure, seed=seed)
    bound = float(4 * measure.n - 4)
    consistent = not plausible or dim_est.degenerate or dim_est.s_hat >= bound - DIM_TOLERANCE
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
