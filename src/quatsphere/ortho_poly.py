"""Stable evaluation of the polynomial families used by the zonal kernels.

Jacobi polynomials P_m^{(alpha,beta)} and the scaled Chebyshev-U family
W_k(a, s) = |q|^k U_k(a/|q|) (a = Re q, s = |q|^2) are both evaluated by
their three-term recurrences, which stay well conditioned for the degrees
used here (m up to ~30).  Each recurrence is written once, as a ladder
generator yielding degree after degree: the pointwise evaluators take one
rung, and zonal_kernel._kernel_rungs walks every rung the kernels need.

Both ladders yield as rung 0 an all-ones buffer that they never write, so
one such buffer, filled once, serves every ladder of a walk.  They write
each later rung in place into one of two alternating buffers (the Chebyshev
ladder also keeps 2a in a third), so a yielded rung is valid only until the
ladder advances, and they write a scratch buffer only while they advance,
so a caller may use it between rungs.  Values the recurrence knows exactly
are not recomputed: 1 * v = v, and halving a float that is not subnormal
only moves its exponent, so each rung has the bits of the plain recurrence
(the kernel walk's 2s - 1 is 0 or a multiple of 2^-53, never subnormal).
The kernel walk passes buffers its callers reuse for every block; the
pointwise evaluators check their domain and let the ladder allocate, so
each call returns a fresh array.
"""

from __future__ import annotations

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


def _ladder_buffers(shape, count: int) -> list:
    """An all-ones array and count - 1 empty float64 arrays of one shape."""
    return [np.ones(shape)] + [np.empty(shape) for _ in range(count - 1)]


def jacobi_ladder(alpha: float, beta: float, x, out=None):
    """Yield P_0, P_1, P_2, ... of P_m^{(alpha,beta)}(x) by the three-term recurrence.

    x is used as given (no domain check).  `out` is four float64 arrays of
    x's shape, or None for four the ladder allocates: out[0] holds ones and
    is yielded as P_0 (the ladder never writes it), P_1, P_2, ... are
    written in place into out[1] and out[2] in turn, and out[3] is scratch
    the ladder writes only while it advances.  A yielded rung is valid only
    until the ladder advances.
    """
    ones, p, nxt, tmp = out if out is not None else _ladder_buffers(np.shape(x), 4)
    yield ones
    apb = alpha + beta
    # 0.5 * (alpha - beta + (apb + 2.0) * x), with the exact halving moved onto the constants
    np.multiply(x, (apb + 2.0) / 2.0, out=p)
    np.add(p, (alpha - beta) / 2.0, out=p)
    yield p
    p_prev, k = ones, 2
    while True:
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c2 = (2.0 * k + apb - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        # ((c2 + c3 * x) * p - c4 * p_prev) / c1, written over p_prev, where c4 * P_0 = c4
        np.multiply(x, c3, out=tmp)
        np.add(tmp, c2, out=tmp)
        np.multiply(tmp, p, out=tmp)
        if p_prev is ones:
            np.subtract(tmp, c4, out=nxt)
        else:
            np.multiply(p_prev, c4, out=nxt)
            np.subtract(tmp, nxt, out=nxt)
        np.divide(nxt, c1, out=nxt)
        p_prev, p = p, nxt
        nxt = p_prev
        yield p
        k += 1


def cheb_ladder(a, s, out=None):
    """Yield W_0, W_1, W_2, ... of W_k(a, s) = |q|^k U_k(a/|q|) (see cheb_u_scaled).

    a and s must share one shape.  `out` is five float64 arrays of that
    shape, or None for five the ladder allocates: out[0] holds ones and is
    yielded as W_0 (the ladder never writes it), out[1] receives W_1 = 2a
    and keeps it for every later rung (it may be a itself, which is then
    overwritten), W_2, W_3, ... are written in place into out[2] and out[3]
    in turn, and out[4] is scratch the ladder writes only while it advances.
    A yielded rung is valid only until the ladder advances.
    """
    ones, two_a, w, nxt, tmp = out if out is not None else _ladder_buffers(np.shape(a), 5)
    yield ones
    np.multiply(a, 2.0, out=two_a)
    yield two_a
    # W_2 = 2a * 2a - s * W_0, where s * W_0 = s
    np.multiply(two_a, two_a, out=w)
    np.subtract(w, s, out=w)
    yield w
    w_prev = two_a
    while True:
        # 2a * W_{k-1} - s * W_{k-2}, written over W_{k-2} once W_1 = 2a is behind
        np.multiply(two_a, w, out=tmp)
        np.multiply(s, w_prev, out=nxt)
        np.subtract(tmp, nxt, out=nxt)
        w_prev, w = w, nxt
        nxt = w_prev
        yield w


def _rung(ladder, k: int):
    """The k-th value a ladder yields."""
    for _ in range(k):
        next(ladder)
    return next(ladder)


def _require_invariants(a: Array, s: Array):
    """Reject (a, s) that are not Re q and |q|^2 of one quaternion q, beyond rounding."""
    if (s < -_DOMAIN_TOL).any():
        raise ValueError("s = |q|^2 must be non-negative")
    if (a * a > s + _DOMAIN_TOL).any():
        raise ValueError("need a^2 <= s (a is the real part of a quaternion of norm sqrt(s))")


def _require_unit_interval(x: Array):
    """Reject x outside [-1, 1] by more than 1e-12 (floating-point inner products)."""
    if (x < -1.0 - _DOMAIN_TOL).any() or (x > 1.0 + _DOMAIN_TOL).any():
        raise ValueError("Jacobi polynomial argument outside [-1, 1] beyond tolerance")


def jacobi_eval(params: JacobiParams, x):
    """P_m^{(alpha,beta)}(x) for x in [-1, 1] (scalar or array), clipped after the check."""
    arr = np.asarray(x, dtype=np.float64)
    _require_unit_interval(arr)
    p = _rung(jacobi_ladder(params.alpha, params.beta, np.clip(arr, -1.0, 1.0)), params.degree)
    return p if isinstance(x, np.ndarray) else float(p)


def cheb_u_scaled(k: int, a, s):
    """W_k(a, s) = |q|^k U_k(a/|q|) with a = Re q, s = |q|^2.

    Polynomial in (a, s): W_0 = 1, W_1 = 2a, W_k = 2a W_{k-1} - s W_{k-2},
    so the |q| = 0 singularity of U_k(a/|q|) never appears.
    """
    if k < 0:
        raise ValueError(f"degree must be non-negative, got {k}")
    a_arr, s_arr = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(s, dtype=np.float64))
    _require_invariants(a_arr, s_arr)
    w = _rung(cheb_ladder(a_arr, s_arr), k)
    return w if isinstance(a, np.ndarray) or isinstance(s, np.ndarray) else float(w)
