"""Finite-difference realizations of the sphere's invariant operators.

T_i, T_j, T_k differentiate along the one-parameter flows x -> exp(-axis*t)x;
the sublaplacian is -(T_i^2 + T_j^2 + T_k^2) and the Laplace-Beltrami
operator is realized as minus the sum of second derivatives along geodesics
in an orthonormal tangent frame.  Both operators then have non-negative
spectra: h(h + 4n - 2) and (h - 2m)(h - 2m + 2) on the joint eigenspaces.

Functions passed to the operators must be vectorized: they map an array of
points of shape (..., 4n) to values of shape (...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat_core import AXES, Array, _apply_axis_flat, geodesic_points, sphere_samples, tangent_frame
from .zonal_kernel import CalibratedKernel

PointFunction = Callable[[Array], Array]

_TAG_EIGEN = 21
# uniform candidates drawn per eigencheck, before the |f| filter
_POOL_SIZE = 128


class DegenerateProbesError(RuntimeError):
    """Raised when every candidate probe sits too close to a zero of f."""


def _great_circle_sum(f: PointFunction, pts: Array, directions: Callable[[Array], Array], step: float) -> Array:
    """Minus the summed second differences of f along t -> cos(t) y + sin(t) e.

    The sum runs over the unit tangents e in directions(pts), shape (P, C, 4n),
    at every point y of the (P, 4n) array pts; each difference, at steps tau
    and tau/2, is Richardson-extrapolated.  The centres and every stencil
    point go to f as one (P, S, 4n) array.
    """
    if not 1e-4 <= step <= 1e-1:
        raise ValueError(f"step must lie in [1e-4, 1e-1], got {step}")
    taus = np.array([step, step / 2.0])
    # curves[p, c, t, 0 or 1] is the point at +tau_t or -tau_t along direction c from pts[p]
    dirs = directions(pts)[:, :, None, None, :]
    curves = geodesic_points(pts[:, None, None, None, :], dirs, np.stack([taus, -taus], axis=1))
    vals = f(np.concatenate([pts[:, None, :], curves.reshape(len(pts), -1, pts.shape[-1])], axis=1))
    side = vals[:, 1:].reshape(curves.shape[:-1])
    second = (side[..., 0] - 2.0 * vals[:, 0, None, None] + side[..., 1]) / (taus * taus)
    return -np.sum((4.0 * second[..., 1] - second[..., 0]) / 3.0, axis=1)


def gamma_apply(f: PointFunction, pts: Array, step: float = 1e-2) -> Array:
    """Sublaplacian -(T_i^2 + T_j^2 + T_k^2) applied to f at each point of a (P, 4n) array.

    For a unit imaginary u, exp(-u t) x = cos(t) x - sin(t) u x: each flow is
    the great circle through x along -u x.
    """
    return _great_circle_sum(f, pts, lambda y: np.stack([-_apply_axis_flat(y, ax) for ax in AXES], axis=1), step)


def laplace_beltrami_apply(f: PointFunction, pts: Array, step: float = 1e-2) -> Array:
    """Laplace-Beltrami operator (positive spectrum convention) at each point of a (P, 4n) array.

    Sums second central differences of t -> f(cos(t) y + sin(t) e) over an
    orthonormal tangent frame {e} and negates, so eigenfunctions of degree h
    return +h(h + 4n - 2) times themselves.
    """
    return _great_circle_sum(f, pts, tangent_frame, step)


@dataclass(frozen=True)
class EigencheckReport:
    h: int
    m: int
    n: int
    lambda_delta_est: float
    lambda_gamma_est: float
    lambda_delta_true: float
    lambda_gamma_true: float
    rel_err_delta: float
    rel_err_gamma: float
    probes_used: int


def _error(est: float, true: float) -> float:
    # relative error where the target is nonzero, absolute at zero eigenvalues
    return abs(est - true) / abs(true) if true != 0.0 else abs(est)


def eigencheck(
    ck: CalibratedKernel,
    x0: Array,
    probes: int = 8,
    step: float = 1e-2,
    seed: int = 0,
) -> EigencheckReport:
    """Estimate both eigenvalues on the kernel section y -> K(x0, y).

    Probes are the first `probes` of _POOL_SIZE uniform points with
    |f| > 0.1 max|f| (ratio estimates blow up near zeros of f); the median
    across probes is reported.
    """
    idx = ck.index
    f = ck.section(x0)
    pool = sphere_samples(idx.n, _POOL_SIZE, [seed, idx.h, idx.m, _TAG_EIGEN])
    fvals = f(pool)
    cutoff = 0.1 * float(np.max(np.abs(fvals)))
    eligible = np.flatnonzero(np.abs(fvals) > cutoff)
    if eligible.size == 0:
        raise DegenerateProbesError(f"no probe with |f| above 0.1*max for {idx}")
    chosen = eligible[:probes]

    lam_d = float(np.median(laplace_beltrami_apply(f, pool[chosen], step) / fvals[chosen]))
    lam_g = float(np.median(gamma_apply(f, pool[chosen], step) / fvals[chosen]))
    return EigencheckReport(
        h=idx.h,
        m=idx.m,
        n=idx.n,
        lambda_delta_est=lam_d,
        lambda_gamma_est=lam_g,
        lambda_delta_true=idx.lambda_delta,
        lambda_gamma_true=idx.lambda_gamma,
        rel_err_delta=_error(lam_d, idx.lambda_delta),
        rel_err_gamma=_error(lam_g, idx.lambda_gamma),
        probes_used=len(chosen),
    )


def l1_l2_identity(h, m, n: int) -> tuple:
    """Eigenvalues of sqrt(Delta + (2n-1)^2 Id) - (2n-1) Id and sqrt(Id + Gamma) - Id.

    Both radicands are perfect squares, (h + 2n - 1)^2 and (h - 2m + 1)^2,
    so the returned pair equals (h, h - 2m) exactly.  h and m may be integer
    arrays of one shape; np.sqrt rounds like math.sqrt.
    """
    h, m = np.asarray(h), np.asarray(m)
    if np.any(2 * m > h):
        raise ValueError("need 2m <= h")
    lam_delta = h * (h + 4 * n - 2)
    lam_gamma = (h - 2 * m) * (h - 2 * m + 2)
    first = np.sqrt(lam_delta + (2 * n - 1) ** 2) - (2 * n - 1)
    second = np.sqrt(1.0 + lam_gamma) - 1.0
    return first, second
