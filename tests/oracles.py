"""Reference implementations the tests compare the library against.

Each computes its quantity the obvious way, one quaternion at a time, from
the Hamilton product quat_core._left_mul_matrix, which test_quat_core checks
against i j = k and its relatives.  Quaternions are 4-vectors (re, i, j, k).
"""

import math

import numpy as np

from quatsphere.ortho_poly import JacobiParams, cheb_u_scaled, jacobi_eval
from quatsphere.quat_core import AXES, _left_mul_matrix, pair_invariants, pair_invariants_matrix
from quatsphere.verification import _merge_moments
from quatsphere.zonal_kernel import _kernel_row, raw_kernel_values


def conj(q):
    """Quaternion conjugate of a (..., 4) array."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def left_mul(points, q):
    """Left-multiply every quaternion coordinate of (..., 4n) points by the quaternion q."""
    shaped = points.reshape(*points.shape[:-1], -1, 4)
    return (shaped @ _left_mul_matrix(*q).T).reshape(points.shape)


def inner(x, y):
    """Quaternionic inner product <x, y> = sum_i x_i conj(y_i) of two flat vectors."""
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} != {y.shape}")
    return sum(_left_mul_matrix(*xi) @ conj(yi) for xi, yi in zip(x.reshape(-1, 4), y.reshape(-1, 4)))


def exp_imag(u, tol=1e-12):
    """exp(u) for purely imaginary u: cos|u| + (u/|u|) sin|u|."""
    if abs(u[0]) > tol:
        raise ValueError(f"exp_imag requires a purely imaginary argument, got re={u[0]}")
    theta = math.sqrt(u[1] ** 2 + u[2] ** 2 + u[3] ** 2)
    if theta == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    s = math.sin(theta) / theta
    return np.array([math.cos(theta), u[1] * s, u[2] * s, u[3] * s])


def flow_points(points, axis, t):
    """(..., 4n) points moved along the flow x -> exp(-axis t) x."""
    u = np.zeros(4)
    u[1 + AXES.index(axis)] = -t
    return left_mul(points, exp_imag(u))


def raw_kernel(idx, x, y):
    """The library's kernel without its constant, W_k P_m, between two sphere points."""
    if x.size != 4 * idx.n or y.size != 4 * idx.n:
        raise ValueError("points and kernel index live on different spheres")
    a, s = pair_invariants(x, y[None, :])
    return float(raw_kernel_values(idx, a[0], s[0]))


def paper_raw_kernel(idx, a, s):
    """The paper's displayed kernel formula at the invariants a = Re<x,y>, s = |<x,y>|^2.

    (k+1)(h+2m-1) / ((2n-2)(2n-1)) * C(h-m+2n-2, 2n-3) * W_k(a, s) * P_m^{(2n-3, k+1)}(2s - 1),
    with k = h - 2m.  Its constant is negative at (0, 0) and 0 at (1, 0).
    """
    h, m, n, k = idx.h, idx.m, idx.n, idx.k
    pref = (k + 1) * (h + 2 * m - 1) / ((2 * n - 2) * (2 * n - 1))
    jacobi = jacobi_eval(JacobiParams(2 * n - 3, k + 1, m), 2.0 * np.asarray(s, dtype=np.float64) - 1.0)
    return pref * math.comb(h - m + 2 * n - 2, 2 * n - 3) * cheb_u_scaled(k, a, s) * jacobi


def row_major_samples(n, count, seed):
    """quat_core.sphere_samples(n, count, seed), each piece drawn into its own rows and divided there.

    Each 65536-row substream comes from its own spawned generator, drawn in
    pieces of 4096 rows, and each row is divided by its norm from
    np.linalg.norm, floored at 1e-300.
    """
    keys = [seed] if np.ndim(seed) == 0 else list(seed)
    substream, piece = 1 << 16, 4096
    out = np.empty((count, 4 * n))
    for ci, child in enumerate(np.random.SeedSequence(keys).spawn(-(-count // substream))):
        rng = np.random.default_rng(child)
        end = min((ci + 1) * substream, count)
        for lo in range(ci * substream, end, piece):
            g = rng.standard_normal(out=out[lo : min(lo + piece, end)])
            g /= np.maximum(np.linalg.norm(g, axis=1), 1e-300)[:, None]
    return out


def chunked_product_moments(kernels, ends, samples):
    """Mean and stderr of verification's product pass, walking a whole sample array chunk by chunk.

    Trial t multiplies K1(x, y) by K2(y, z) for its pair kernels[t] = (K1, K2),
    with x, z rows 2t and 2t + 1 of ends; each endpoint row is walked on its
    own.  Each 65536-row chunk is taken in blocks of 4096 rows, and each
    block is one GEMM call and one moment merge, in separate buffers.
    """
    chunk, block = 1 << 16, 4096
    flat = np.empty((3, len(ends) * block))
    bufs = np.empty((8, block))
    bufs[0] = 1.0
    prods = np.empty((len(kernels), block))
    moments = (0, np.zeros(len(kernels)), np.zeros(len(kernels)))
    for c0 in range(0, len(samples), chunk):
        rows = samples[c0 : c0 + chunk]
        for lo in range(0, len(rows), block):
            ys = rows[lo : lo + block]
            w = len(ys)
            a, s = pair_invariants_matrix(ends, ys, out=[v[: len(ends) * w].reshape(-1, w) for v in flat])
            for t, (ck1, ck2) in enumerate(kernels):
                prods[t, :w] = _kernel_row(ck1.index, a[2 * t], s[2 * t], ck1.c, bufs[:, :w], bufs[4, :w])
                prods[t, :w] *= _kernel_row(ck2.index, a[2 * t + 1], s[2 * t + 1], ck2.c, bufs[:, :w], bufs[4, :w])
            moments = _merge_moments(moments, prods[:, :w])
    count, mean, m2 = moments
    return mean, np.sqrt(m2 / (count - 1)) / math.sqrt(count)


def three_buffer_jacobi_ladder(alpha, beta, x, out=None):
    """The Jacobi ladder as ortho_poly once wrote it: three rotating buffers, P_0 filled by each ladder, P_1 in 3 passes."""
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


def three_buffer_cheb_ladder(a, s, out=None):
    """The Chebyshev ladder as ortho_poly once wrote it: three rotating buffers, 2a recomputed per rung."""
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


def three_buffer_kernel_rungs(n, a, s, wanted):
    """(k, m, W_k, P_m) for each m in wanted[k], walked as zonal_kernel once did, on the three-buffer ladders."""
    x = np.clip(2.0 * s - 1.0, -1.0, 1.0)
    for k, w in zip(range(max(wanted) + 1), three_buffer_cheb_ladder(a, s)):
        if k in wanted:
            degrees = wanted[k]
            for m, p in zip(range(max(degrees) + 1), three_buffer_jacobi_ladder(2 * n - 3, k + 1, x)):
                if m in degrees:
                    yield k, m, w, p
