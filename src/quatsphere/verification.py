"""Self-contained invariant suite behind the `verify` CLI command.

Each check returns a CheckResult; the runner aggregates them into a JSON
summary whose bytes depend only on the configuration (seeds included), so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffops import FDConfig, eigencheck, l1_l2_identity
from .quat_core import SpherePoint, seeded_rng, sphere_samples
from .spectral import cone_gap_check, psi
from .zonal_kernel import (
    CalibratedKernel,
    UnusableKernelError,
    _kernel_products,
    index_range,
)

_TAG_PAIRS = 51
_TAG_PRODUCT = 52

EIGEN_REL_TOL = 5e-3
EIGEN_ABS_TOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def check_l1_l2(n_max: int = 5, h_max: int = 100) -> CheckResult:
    grid = np.arange(h_max + 1)
    h, m = np.meshgrid(grid, grid[: h_max // 2 + 1], indexing="ij")
    h, m = h[2 * m <= h], m[2 * m <= h]
    worst = 0.0
    for n in range(2, n_max + 1):
        first, second = l1_l2_identity(h, m, n)
        worst = max(worst, np.max(np.abs(first - h)), np.max(np.abs(second - (h - 2 * m))))
    return CheckResult(
        name="l1_l2_identity",
        passed=worst <= 1e-12,
        detail=f"max deviation {worst:.3e} over h<={h_max}, n<={n_max}",
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
    cfg = FDConfig(step=fd_step, richardson=True)
    x0 = SpherePoint(sphere_samples(n, 1, [seed, 61])[0])
    worst = ("", 0.0)
    unusable = []
    for idx in index_range(n, h_max):
        try:
            rep = eigencheck(bank[(idx.h, idx.m)], x0, probes=8, cfg=cfg, seed=seed)
        except UnusableKernelError:
            unusable.append(f"({idx.h},{idx.m})")
            continue
        for err, true in (
            (rep.rel_err_delta, rep.lambda_delta_true),
            (rep.rel_err_gamma, rep.lambda_gamma_true),
        ):
            tol = EIGEN_REL_TOL if true != 0.0 else EIGEN_ABS_TOL
            if err > tol and err > worst[1]:
                worst = (f"({idx.h},{idx.m})", err)
    passed = worst[0] == "" and not unusable
    if passed:
        detail = "all eigenvalues within tolerance"
    elif unusable:
        detail = "uncalibratable kernels: " + ", ".join(unusable)
    else:
        detail = f"worst offender {worst[0]} with error {worst[1]:.3e}"
    return CheckResult(name="eigencheck", passed=passed, detail=detail)


def _product_integral(
    ck1: CalibratedKernel, ck2: CalibratedKernel, ys: np.ndarray, seed: int, tag: int
) -> tuple[float, float, float]:
    """MC estimate of integral K1(x, y) K2(y, z) dsigma(y) over the rows ys, its stderr, and K1(x, z)."""
    ck1.require_usable()
    ck2.require_usable()
    x, z = sphere_samples(ck1.index.n, 2, [seed, tag + 1, ck1.index.h, ck2.index.h, ck1.index.m, ck2.index.m])
    prod = _kernel_products(ck1.index, ck2.index, x, z, ys, ck1.c, ck2.c)
    est = float(np.mean(prod))
    stderr = float(np.std(prod, ddof=1)) / math.sqrt(len(ys))
    return est, stderr, float(ck1.values(x, z[None, :])[0])


def check_orthogonality(bank, n: int, h_max: int, n_samples: int, seed: int, pairs: int = 10) -> CheckResult:
    rng = seeded_rng(seed, _TAG_PAIRS)
    indices = index_range(n, min(h_max, 5))
    ys = sphere_samples(n, n_samples, [seed, _TAG_PRODUCT])
    failures = []
    for trial in range(pairs):
        i1, i2 = rng.choice(len(indices), size=2, replace=False)
        ck1, ck2 = bank[(indices[i1].h, indices[i1].m)], bank[(indices[i2].h, indices[i2].m)]
        try:
            est, stderr, _ = _product_integral(ck1, ck2, ys, seed + trial, _TAG_PRODUCT)
        except UnusableKernelError as exc:
            failures.append(str(exc))
            continue
        # the rounding floor covers degenerate cases with (near-)zero variance
        if abs(est) > 4.0 * stderr + 1e-9:
            failures.append(f"{(ck1.index.h, ck1.index.m)}x{(ck2.index.h, ck2.index.m)}: {est:.3e} vs 4se {4*stderr:.3e}")
    return CheckResult(
        name="orthogonality",
        passed=not failures,
        detail="; ".join(failures) if failures else f"{pairs} distinct-index products vanish within 4 stderr",
    )


def check_idempotency(bank, n: int, h_max: int, n_samples: int, seed: int, pairs: int = 10) -> CheckResult:
    rng = seeded_rng(seed, _TAG_PAIRS + 1)
    indices = index_range(n, min(h_max, 5))
    ys = sphere_samples(n, n_samples, [seed, _TAG_PRODUCT + 7])
    failures = []
    for trial in range(pairs):
        idx = indices[int(rng.integers(len(indices)))]
        ck = bank[(idx.h, idx.m)]
        try:
            est, stderr, target = _product_integral(ck, ck, ys, seed + trial, _TAG_PRODUCT + 7)
        except UnusableKernelError as exc:
            failures.append(str(exc))
            continue
        if abs(est - target) > 4.0 * stderr + 1e-9 * max(abs(target), 1.0):
            failures.append(f"({idx.h},{idx.m}): |{est:.4e} - {target:.4e}| vs 4se {4*stderr:.3e}")
    for idx in indices:
        ck = bank[(idx.h, idx.m)]
        # a usable kernel's diagonal is its exact dimension, whether or not a product drew it
        if ck.usable and abs(ck.diagonal() - idx.dimension) > 1e-12 * idx.dimension:
            failures.append(f"({idx.h},{idx.m}): diagonal {ck.diagonal():.6g} vs dimension {idx.dimension}")
    return CheckResult(
        name="idempotency",
        passed=not failures,
        detail="; ".join(failures) if failures else f"{pairs} equal-index products reproduce K within 4 stderr",
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
