"""Self-contained invariant suite behind the `verify` CLI command.

Each check returns a CheckResult; the runner aggregates them into a JSON
summary whose bytes depend only on the configuration (seeds included), so
repeated runs are byte-identical.  Orthogonality and normalization of the
kernels are checked exactly, by a Gauss rule for the Gram matrix of every
index up to h_max; idempotency is the one streamed Monte Carlo cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import quat_core
from .diffops import eigencheck, l1_l2_identity
from .ortho_poly import jacobi_ladder
from .quat_core import Array, SpherePoint, pair_invariants_matrix, seeded_rng, sphere_sample_chunks, sphere_samples
from .spectral import DiscreteMeasure, _projection_matrix, cone_gap_check, psi
from .zonal_kernel import _kernel_row, index_range

_TAG_PAIRS = 51
_TAG_PRODUCT = 52

EIGEN_REL_TOL = 5e-3
EIGEN_ABS_TOL = 1e-3
# the exact identities are checked for every 2m <= h <= _L1_L2_H_MAX and 2 <= n <= _L1_L2_N_MAX
_L1_L2_H_MAX = 100
_L1_L2_N_MAX = 5
# kernel products drawn by the Monte Carlo idempotency check
_PAIRS = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_l1_l2() -> CheckResult:
    grid = np.arange(_L1_L2_H_MAX + 1)
    h, m = np.meshgrid(grid, grid[: _L1_L2_H_MAX // 2 + 1], indexing="ij")
    h, m = h[2 * m <= h], m[2 * m <= h]
    worst = 0.0
    for n in range(2, _L1_L2_N_MAX + 1):
        first, second = l1_l2_identity(h, m, n)
        worst = max(worst, np.max(np.abs(first - h)), np.max(np.abs(second - (h - 2 * m))))
    return CheckResult(
        name="l1_l2_identity",
        passed=worst <= 1e-12,
        detail=f"max deviation {worst:.3e} over h<={_L1_L2_H_MAX}, n<={_L1_L2_N_MAX}",
    )


def _first_spike(mag: np.ndarray, floor: float) -> int | None:
    """First i with mag[i] > 10 max(median(mag[i-8 : i+9]), floor), windows cut at the ends; len(mag) >= 17."""
    edges = [*range(8), *range(len(mag) - 8, len(mag))]
    med = np.empty_like(mag)
    med[8:-8] = np.median(np.lib.stride_tricks.sliding_window_view(mag, 17), axis=1)
    med[edges] = [np.median(mag[max(0, i - 8) : i + 9]) for i in edges]
    spikes = np.flatnonzero(mag > 10.0 * np.maximum(med, floor))
    return int(spikes[0]) if spikes.size else None


def check_psi(epsilon: float) -> CheckResult:
    problems = []
    for h in (1, 2, 4, 8, 100):
        if abs(psi(float(h), h / 2.0, epsilon) - 1.0) > 0.0:
            problems.append(f"psi({h}, {h/2}) != 1")
    if psi(4.0, 0.0, epsilon) != 0.0:
        problems.append("psi(4, 0) != 0")
    for u in (1.0, 1.7, 3.0):
        for v in (0.45 * u, 0.5 * u, 0.55 * u):
            if abs(psi(2 * u, 2 * v, epsilon) - psi(u, v, epsilon)) > 1e-14:
                problems.append(f"homogeneity fails at ({u}, {v})")
    # smoothness: scaled central differences up to order 3 must not spike
    grid_v = np.linspace(0.3, 0.7, 801)
    vals = psi(np.full_like(grid_v, 2.0), 2.0 * grid_v, epsilon)
    step = grid_v[1] - grid_v[0]
    d = vals
    for order in range(1, 4):
        d = np.diff(d) / step
        mag = np.abs(d)
        floor = 1e-3 * float(np.max(mag)) if np.max(mag) > 0 else 1.0
        i = _first_spike(mag, floor)
        if i is not None:
            problems.append(f"order-{order} difference spikes at v={grid_v[i]:.3f}")
    return CheckResult(
        name="psi_properties",
        passed=not problems,
        detail="; ".join(problems) if problems else "cutoff value/support/homogeneity/smoothness ok",
    )


def check_cone_gap(epsilon: float) -> CheckResult:
    problems = []
    if cone_gap_check(1.0, 0.0) != 0.5:
        problems.append("b=0 did not give exactly 1/2")
    if cone_gap_check(0.0, 1.0) != 0.0:
        problems.append("a=0 did not give 0")
    prev = -math.inf
    for k in range(1, 21):
        val = cone_gap_check(1.0, 2.0**-k)
        if abs(val - 0.5) >= 2.0**-k:
            problems.append(f"error bound fails at k={k}")
        if val <= prev:
            problems.append(f"not monotone at k={k}")
        prev = val
        if k >= 6 and psi(1.0, val, epsilon) != 1.0:
            problems.append(f"psi(1, value) != 1 at k={k}")
    return CheckResult(
        name="cone_gap_convergence",
        passed=not problems,
        detail="; ".join(problems) if problems else "converges to 1/2 inside the cutoff plateau",
    )


def check_eigenvalues(
    bank, n: int, h_max: int, fd_step: float, seed: int
) -> CheckResult:
    x0 = SpherePoint(sphere_samples(n, 1, [seed, 61])[0])
    worst = ("", 0.0)
    for idx in index_range(n, h_max):
        rep = eigencheck(bank[(idx.h, idx.m)], x0, probes=8, step=fd_step, seed=seed)
        for err, true in (
            (rep.rel_err_delta, rep.lambda_delta_true),
            (rep.rel_err_gamma, rep.lambda_gamma_true),
        ):
            tol = EIGEN_REL_TOL if true != 0.0 else EIGEN_ABS_TOL
            if err > tol and err > worst[1]:
                worst = (f"({idx.h},{idx.m})", err)
    passed = worst[0] == ""
    detail = "all eigenvalues within tolerance" if passed else f"worst offender {worst[0]} with error {worst[1]:.3e}"
    return CheckResult(name="eigencheck", passed=passed, detail=detail)


def _merge_moments(moments, block: Array):
    """Chan-Golub-LeVeque merge of (count, mean, centred sum of squares) per row with a (T, R) block.

    The block is overwritten with its centred values.
    """
    count, mean, m2 = moments
    rows = block.shape[1]
    b_mean = block.mean(axis=1)
    centred = np.subtract(block, b_mean[:, None], out=block)
    b_m2 = np.einsum("ij,ij->i", centred, centred)
    total = count + rows
    delta = b_mean - mean
    return total, mean + delta * (rows / total), m2 + b_m2 + delta * delta * (count * rows / total)


def _product_moments(kernels, ends: Array, pieces) -> tuple[Array, Array]:
    """Mean and stderr over the sample rows y of K1(x, y) K2(y, z), for every trial in one pass.

    Trial t takes its kernels (K1, K2) from kernels[t] and x, z from rows 2t
    and 2t + 1 of ends.  Each piece of at most quat_core._SAMPLE_PIECE rows
    (such as those of sphere_sample_chunks) is one block: one GEMM call
    gives the invariants of every endpoint, one contiguous row per
    endpoint; then each trial's two kernel rows walk the ladders.  All of it
    runs in one buffer stack: a, s, and a scratch region that holds
    pair_invariants_matrix's third buffer, then zonal_kernel._kernel_row's
    eight buffers (the first holding ones; the second kernel row goes into
    their scratch) and the trial products.
    """
    e, t = len(ends), len(kernels)
    stack = quat_core._aligned_empty((2 * e + max(e, 8 + t), quat_core._SAMPLE_PIECE))
    moments = (0, np.zeros(t), np.zeros(t))
    for ys in pieces:
        w = len(ys)
        a, s, c = (stack[lo : lo + e].reshape(-1)[: e * w].reshape(e, w) for lo in (0, e, 2 * e))
        pair_invariants_matrix(ends, ys, out=[a, s, c])
        bufs, prods = stack[2 * e : 2 * e + 8, :w], stack[2 * e + 8 : 2 * e + 8 + t, :w]
        # the ones share rows with c, which the GEMM call overwrites
        bufs[0].fill(1.0)
        for i, (ck1, ck2) in enumerate(kernels):
            _kernel_row(ck1.index, a[2 * i], s[2 * i], ck1.c, bufs, prods[i])
            prods[i] *= _kernel_row(ck2.index, a[2 * i + 1], s[2 * i + 1], ck2.c, bufs, bufs[4])
        moments = _merge_moments(moments, prods)
    count, mean, m2 = moments
    if count < 2:
        raise ValueError(f"a Monte Carlo product needs at least 2 samples, got {count}")
    return mean, np.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _product_integrals(trials, n: int, n_samples: int, seed: int, tag: int) -> list:
    """Per trial (K1, K2): (est, stderr, K1(x, z)) for the integral of K1(x, y) K2(y, z) dsigma(y).

    Every trial draws its own x and z; the samples y are one stream, keyed
    [seed, tag], shared by all trials and walked once.
    """
    targets, ends = [], []
    for trial, (ck1, ck2) in enumerate(trials):
        x, z = sphere_samples(n, 2, [seed + trial, tag + 1, ck1.index.h, ck2.index.h, ck1.index.m, ck2.index.m])
        targets.append(float(ck1.values(x, z[None, :])[0]))
        ends += [x, z]
    est, stderr = _product_moments(trials, np.stack(ends), sphere_sample_chunks(n, n_samples, [seed, tag]))
    return [(float(e), float(se), target) for e, se, target in zip(est, stderr, targets)]


def _gauss_rule(n: int, u_nodes: int, s_nodes: int) -> tuple[Array, Array]:
    """Points y and weights of a product Gauss rule for functions of t = <e_1, y> on S^{4n-1}.

    With s = |t|^2 ~ Beta(2, 2n - 2) and a = Re t = sqrt(s) u, where u, the
    real part of a uniform S^3 point, has density (2/pi) sqrt(1 - u^2)
    (Dai and Xu 2013, ch. 1), the rule takes Gauss-Chebyshev-U nodes in u
    and Gauss-Legendre nodes on [0, 1] in s, times the Beta density.  It
    integrates a^p s^q exactly when p <= 2 u_nodes - 1 and
    p/2 + q + 2n - 2 <= 2 s_nodes - 1.  Node (s, u) becomes the point
    y = (sqrt(s) (u, sqrt(1 - u^2), 0, 0), sqrt(1 - s), 0, ...).

    The Legendre nodes are the roots of P_M, M = s_nodes, by five Newton
    steps from cos(pi (i + 3/4) / (M + 1/2)) (four reach 1e-16), not the
    eigenvalues of the Jacobi matrix: an eigensolver would page 0.8 MB of
    LAPACK code into the process.
    """
    theta = np.arange(1, u_nodes + 1) * (math.pi / (u_nodes + 1))
    u, wu = np.cos(theta), 2.0 * np.sin(theta) ** 2 / (u_nodes + 1)
    x = np.cos(math.pi * (np.arange(s_nodes) + 0.75) / (s_nodes + 0.5))
    for _ in range(5):
        p_prev, p = [r.copy() for r in itertools.islice(jacobi_ladder(0.0, 0.0, x), s_nodes + 1)][-2:]
        dp = s_nodes * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    s = (x + 1.0) / 2.0
    ws = (2 * n - 2) * (2 * n - 1) * s * (1.0 - s) ** (2 * n - 3) / ((1.0 - x * x) * dp * dp)
    s, u = np.repeat(s, u_nodes), np.tile(u, s_nodes)
    y = np.zeros((s.size, 4 * n))
    y[:, 0] = np.sqrt(s) * u
    y[:, 1] = np.sqrt(s) * np.sqrt(1.0 - u * u)
    y[:, 4] = np.sqrt(1.0 - s)
    return y, np.outer(ws, wu).reshape(-1)


def check_orthogonality(bank, n: int, h_max: int, n_samples: int, seed: int) -> CheckResult:
    """The Gram matrix G_ij = integral K_i(e_1, y) K_j(e_1, y) dsigma(y) of every index with h <= h_max is diag(dim).

    A product of two kernels is a polynomial in (a, s) of weighted degree at
    most 2 h_max, a counting 1 and s counting 2, so _gauss_rule with
    h_max + 1 nodes in u and h_max // 2 + n in s integrates it exactly up to
    rounding.  The kernel rows are one call of spectral's kernel-sum engine
    on the point mass at e_1.  An entry fails when it misses by more than
    1e-12 sqrt(dim_i dim_j).
    Nothing is sampled: n_samples and seed are unused.
    """
    indices = index_range(n, h_max)
    if len(indices) < 2:
        raise ValueError(f"orthogonality needs two distinct indices, but h_max {h_max} gives only (0,0)")
    cks = [bank[(idx.h, idx.m)] for idx in indices]
    y, w = _gauss_rule(n, h_max + 1, h_max // 2 + n)
    rows = _projection_matrix(DiscreteMeasure(np.eye(1, 4 * n), np.ones(1)), cks, y)
    gram = (rows * w) @ rows.T
    dims = np.array([ck.index.dimension for ck in cks], dtype=np.float64)
    miss = np.abs(gram - np.diag(dims)) > 1e-12 * np.sqrt(np.outer(dims, dims))
    failures = []
    for i, j in np.argwhere(np.triu(miss)):
        hm1, hm2 = (f"({ck.index.h},{ck.index.m})" for ck in (cks[i], cks[j]))
        if i == j:
            failures.append(f"{hm1}: norm {gram[i, i]:.6g} vs dimension {int(dims[i])}")
        else:
            failures.append(f"{hm1}x{hm2}: {gram[i, j]:.3e} vs 0")
    return CheckResult(
        name="orthogonality",
        passed=not failures,
        detail="; ".join(failures)
        if failures
        else f"Gram matrix of the {len(indices)} kernels with h <= {h_max} is diag(dim) by an exact Gauss rule",
    )


def check_idempotency(bank, n: int, h_max: int, n_samples: int, seed: int) -> CheckResult:
    rng = seeded_rng(seed, _TAG_PAIRS + 1)
    indices = index_range(n, min(h_max, 5))
    trials = []
    for _ in range(_PAIRS):
        idx = indices[int(rng.integers(len(indices)))]
        trials.append((bank[(idx.h, idx.m)],) * 2)
    failures = []
    results = _product_integrals(trials, n, n_samples, seed, _TAG_PRODUCT + 7)
    for (ck, _), (est, stderr, target) in zip(trials, results):
        if abs(est - target) > 4.0 * stderr + 1e-9 * max(abs(target), 1.0):
            failures.append(f"({ck.index.h},{ck.index.m}): |{est:.4e} - {target:.4e}| vs 4se {4*stderr:.3e}")
    for idx in indices:
        ck = bank[(idx.h, idx.m)]
        # a kernel's diagonal is its exact dimension, whether or not a product drew it
        if abs(ck.diagonal() - idx.dimension) > 1e-12 * idx.dimension:
            failures.append(f"({idx.h},{idx.m}): diagonal {ck.diagonal():.6g} vs dimension {idx.dimension}")
    return CheckResult(
        name="idempotency",
        passed=not failures,
        detail="; ".join(failures) if failures else f"{_PAIRS} equal-index products reproduce K within 4 stderr",
    )


def run_verification(bank, n: int, h_max: int, epsilon: float, n_samples: int, fd_step: float, seed: int) -> dict:
    """Run every invariant check and return a deterministic summary dict."""
    checks = [
        check_l1_l2(),
        check_psi(epsilon),
        check_cone_gap(epsilon),
        check_eigenvalues(bank, n, min(h_max, 6), fd_step, seed),
        check_orthogonality(bank, n, h_max, n_samples, seed),
        check_idempotency(bank, n, h_max, n_samples, seed),
    ]
    return {
        "params": {
            "n": n,
            "h_max": h_max,
            "epsilon": epsilon,
            "mc_samples": n_samples,
            "fd_step": fd_step,
            "seed": seed,
        },
        "checks": [c.to_json_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
