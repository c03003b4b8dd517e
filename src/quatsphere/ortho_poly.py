"""Stable evaluation of the polynomial families used by the zonal kernels.

Jacobi polynomials P_m^{(alpha,beta)} and the scaled Chebyshev-U family
W_k(a, s) = |q|^k U_k(a/|q|) (a = Re q, s = |q|^2) are both evaluated by
their three-term recurrences, which stay well conditioned for the degrees
used here (m up to ~30).  Each recurrence is written once, as a ladder
generator yielding degree after degree: the pointwise evaluators take one
rung, and the kernel-sum engine in spectral walks every rung it needs.

A ladder writes each rung in place into one of three rotating buffers, so
a yielded rung is valid only until the ladder advances.  The engine passes
block-sized buffers it reuses for every block; without them a ladder
allocates its own, so each pointwise evaluation returns a fresh array.
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


def jacobi_ladder(alpha: float, beta: float, x, out=None):
    """Yield P_0, P_1, P_2, ... of P_m^{(alpha,beta)}(x) by the three-term recurrence.

    x is used as given (no domain check).  Every rung is written in place
    into one of three rotating arrays of x's shape: `out` (three float64
    arrays) or, if None, three the ladder allocates.  A yielded rung is
    valid only until the ladder advances.
    """
    p_prev, p, nxt = out if out is not None else [np.empty(np.shape(x)) for _ in range(3)]
    p_prev.fill(1.0)
    yield p_prev
    apb = alpha + beta
    # 0.5 * (alpha - beta + (apb + 2.0) * x)
    np.multiply(x, apb + 2.0, out=p)
    np.add(p, alpha - beta, out=p)
    np.multiply(p, 0.5, out=p)
    yield p
    k = 2
    while True:
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c2 = (2.0 * k + apb - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        # ((c2 + c3 * x) * p - c4 * p_prev) / c1
        np.multiply(x, c3, out=nxt)
        np.add(nxt, c2, out=nxt)
        np.multiply(nxt, p, out=nxt)
        np.multiply(p_prev, c4, out=p_prev)
        np.subtract(nxt, p_prev, out=nxt)
        np.divide(nxt, c1, out=nxt)
        p_prev, p, nxt = p, nxt, p_prev
        yield p
        k += 1


def cheb_ladder(a, s, out=None):
    """Yield W_0, W_1, W_2, ... of W_k(a, s) = |q|^k U_k(a/|q|) (see cheb_u_scaled).

    a and s must share one shape.  Every rung is written in place into one of
    three rotating arrays of that shape: `out` (three float64 arrays) or, if
    None, three the ladder allocates.  A yielded rung is valid only until the
    ladder advances.
    """
    w_prev, w, nxt = out if out is not None else [np.empty(np.shape(a)) for _ in range(3)]
    w_prev.fill(1.0)
    yield w_prev
    np.multiply(a, 2.0, out=w)
    yield w
    while True:
        # 2.0 * a * w - s * w_prev
        np.multiply(a, 2.0, out=nxt)
        np.multiply(nxt, w, out=nxt)
        np.multiply(s, w_prev, out=w_prev)
        np.subtract(nxt, w_prev, out=nxt)
        w_prev, w, nxt = w, nxt, w_prev
        yield w


def _rung(ladder, k: int):
    """The k-th value a ladder yields."""
    for _ in range(k):
        next(ladder)
    return next(ladder)


def jacobi_eval(params: JacobiParams, x, out=None):
    """P_m^{(alpha,beta)}(x) for x in [-1, 1] (scalar or array).

    Inputs may overshoot the interval by up to 1e-12 (floating-point inner
    products); anything worse is rejected.  `out` is None or four float64
    arrays of x's shape: the clipped x goes into the first (which may be x
    itself) and the ladder's rungs into the other three, so the value is
    valid only until they are reused.
    """
    arr = np.asarray(x, dtype=np.float64)
    if (arr < -1.0 - _DOMAIN_TOL).any() or (arr > 1.0 + _DOMAIN_TOL).any():
        raise ValueError("jacobi_eval argument outside [-1, 1] beyond tolerance")
    arr = np.clip(arr, -1.0, 1.0, out=None if out is None else out[0])
    p = _rung(jacobi_ladder(params.alpha, params.beta, arr, out=None if out is None else out[1:]), params.degree)
    return p if isinstance(x, np.ndarray) else float(p)


def cheb_u_scaled(k: int, a, s, out=None):
    """W_k(a, s) = |q|^k U_k(a/|q|) with a = Re q, s = |q|^2.

    Polynomial in (a, s): W_0 = 1, W_1 = 2a, W_k = 2a W_{k-1} - s W_{k-2},
    so the |q| = 0 singularity of U_k(a/|q|) never appears.  `out` is None
    or the ladder's three rotating float64 arrays (see cheb_ladder).
    """
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    a_arr = np.asarray(a, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    if (s_arr < -_DOMAIN_TOL).any():
        raise ValueError("s = |q|^2 must be non-negative")
    if (a_arr * a_arr > s_arr + _DOMAIN_TOL).any():
        raise ValueError("need a^2 <= s (a is the real part of a quaternion of norm sqrt(s))")

    if a_arr.shape != s_arr.shape:
        a_arr, s_arr = np.broadcast_arrays(a_arr, s_arr)
    w = _rung(cheb_ladder(a_arr, s_arr, out=out), k)
    return w if isinstance(a, np.ndarray) or isinstance(s, np.ndarray) else float(w)


def binomial(a: int, b: int) -> int:
    """Exact integer binomial coefficient C(a, b) for 0 <= b <= a."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise TypeError("binomial expects integers")
    if b < 0 or a < 0 or b > a:
        raise ValueError(f"binomial requires 0 <= b <= a, got a={a}, b={b}")
    return math.comb(int(a), int(b))
