"""Stable evaluation of the polynomial families used by the zonal kernels.

Jacobi polynomials P_m^{(alpha,beta)} and the scaled Chebyshev-U family
W_k(a, s) = |q|^k U_k(a/|q|) (a = Re q, s = |q|^2) are both evaluated by
their three-term recurrences, which stay well conditioned for the degrees
used here (m up to ~30).  Each recurrence is written once, as a ladder
generator yielding degree after degree: the pointwise evaluators take one
rung, and the kernel-sum engine in spectral walks every rung it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class JacobiParams:
    alpha: float
    beta: float
    degree: int

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError(f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})")
        if self.degree < 0:
            raise ValueError(f"degree must be non-negative, got {self.degree}")


def jacobi_ladder(alpha: float, beta: float, x):
    """Yield P_0, P_1, P_2, ... of P_m^{(alpha,beta)}(x) by the three-term recurrence.

    x is used as given (no domain check); only two rungs are alive at a time.
    """
    p_prev = np.ones_like(x)
    yield p_prev
    apb = alpha + beta
    p = 0.5 * (alpha - beta + (apb + 2.0) * x)
    yield p
    k = 2
    while True:
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c2 = (2.0 * k + apb - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
        yield p
        k += 1


def cheb_ladder(a, s):
    """Yield W_0, W_1, W_2, ... of W_k(a, s) = |q|^k U_k(a/|q|) (see cheb_u_scaled).

    a and s must share one shape; only two rungs are alive at a time.
    """
    w_prev = np.ones_like(a)
    yield w_prev
    w = 2.0 * a
    yield w
    while True:
        w, w_prev = 2.0 * a * w - s * w_prev, w
        yield w


def _rung(ladder, k: int):
    """The k-th value a ladder yields."""
    for _ in range(k):
        next(ladder)
    return next(ladder)


def jacobi_eval(params: JacobiParams, x):
    """P_m^{(alpha,beta)}(x) for x in [-1, 1] (scalar or array).

    Inputs may overshoot the interval by up to 1e-12 (floating-point inner
    products); anything worse is rejected.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < -1.0 - _DOMAIN_TOL) or np.any(arr > 1.0 + _DOMAIN_TOL):
        raise ValueError("jacobi_eval argument outside [-1, 1] beyond tolerance")
    arr = np.clip(arr, -1.0, 1.0)
    p = _rung(jacobi_ladder(params.alpha, params.beta, arr), params.degree)
    return p if isinstance(x, np.ndarray) else float(p)


def cheb_u_scaled(k: int, a, s):
    """W_k(a, s) = |q|^k U_k(a/|q|) with a = Re q, s = |q|^2.

    Polynomial in (a, s): W_0 = 1, W_1 = 2a, W_k = 2a W_{k-1} - s W_{k-2},
    so the |q| = 0 singularity of U_k(a/|q|) never appears.
    """
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    a_arr = np.asarray(a, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr < -_DOMAIN_TOL):
        raise ValueError("s = |q|^2 must be non-negative")
    if np.any(a_arr * a_arr > s_arr + _DOMAIN_TOL):
        raise ValueError("need a^2 <= s (a is the real part of a quaternion of norm sqrt(s))")

    w = _rung(cheb_ladder(*np.broadcast_arrays(a_arr, s_arr)), k)
    return w if isinstance(a, np.ndarray) or isinstance(s, np.ndarray) else float(w)


def binomial(a: int, b: int) -> int:
    """Exact integer binomial coefficient C(a, b) for 0 <= b <= a."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise TypeError("binomial expects integers")
    if b < 0 or a < 0 or b > a:
        raise ValueError(f"binomial requires 0 <= b <= a, got a={a}, b={b}")
    return math.comb(int(a), int(b))
