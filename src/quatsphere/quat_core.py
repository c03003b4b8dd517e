"""Geometry, sampling and pair invariants on the unit sphere of H^n.

Points of H^n are stored as flat float64 vectors in R^{4n}, with each
quaternion coordinate laid out as four consecutive reals (re, i, j, k).
The quaternionic inner product is <x, y> = sum_i x_i * conj(y_i); its real
part coincides with the Euclidean dot product of the flattened vectors,
which is what makes the kernel machinery BLAS-friendly.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

Array = np.ndarray

AXES = ("i", "j", "k")

# Left multiplication q -> u*q as a 4x4 matrix acting on (re, i, j, k).
def _left_mul_matrix(w: float, x: float, y: float, z: float) -> Array:
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ],
        dtype=np.float64,
    )


_AXIS_MATRICES = {
    "i": _left_mul_matrix(0.0, 1.0, 0.0, 0.0),
    "j": _left_mul_matrix(0.0, 0.0, 1.0, 0.0),
    "k": _left_mul_matrix(0.0, 0.0, 0.0, 1.0),
}


def _apply_axis_flat(vec: Array, axis: str) -> Array:
    """Left-multiply every quaternion coordinate of a flat vector by i, j or k."""
    mat = _AXIS_MATRICES[axis]
    shaped = vec.reshape(*vec.shape[:-1], -1, 4)
    return (shaped @ mat.T).reshape(vec.shape)


def unit_point(v: Array) -> Array:
    """v flattened and normalized: a point of the unit sphere of H^n as a (4n,) row."""
    flat = np.asarray(v, dtype=np.float64).reshape(-1)
    if flat.size % 4 or flat.size < 8:
        raise ValueError("sphere points live in R^{4n} with n >= 2")
    nrm = float(np.linalg.norm(flat))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return flat / nrm


# perfbench/workloads.py's x0_point is the one caller; the benchmark change that renames it drops this
SpherePoint = unit_point


def tangent_frame(pts: Array) -> Array:
    """Orthonormal frames of T_y S^{4n-1} at each point y of a (P, 4n) array, shape (P, 4n-1, 4n).

    The frames come from one stacked QR.  The first three rows are iy, jy,
    ky (already orthonormal and orthogonal to y); the remaining 4n-4 rows
    complete the frame via QR.
    """
    count, dim = pts.shape
    axis_vecs = np.stack([_apply_axis_flat(pts, ax) for ax in AXES], axis=1)
    seed_cols = np.concatenate([pts[:, :, None], axis_vecs.transpose(0, 2, 1)], axis=2)
    q, _ = np.linalg.qr(np.concatenate([seed_cols, np.broadcast_to(np.eye(dim), (count, dim, dim))], axis=2))
    return np.concatenate([axis_vecs, q[:, :, 4:dim].transpose(0, 2, 1)], axis=1)


def geodesic_points(y: Array, e: Array, ts: Array) -> Array:
    """Points cos(t)*y + sin(t)*e, broadcasting ts against the leading axes of y and e.

    For one point y and direction e of shape (4n,) the result has shape (len(ts), 4n).
    """
    ts = np.asarray(ts, dtype=np.float64)[..., None]
    return np.cos(ts) * y + np.sin(ts) * e


# ---------------------------------------------------------------------------
# Seeded sampling.  All stochastic operations derive their generator from an
# explicit integer key sequence.  A sample set is split into substreams of
# _SAMPLE_SUBSTREAM rows, each from its own spawned generator and drawn in
# pieces of at most _SAMPLE_PIECE rows.  A row depends only on the seed and
# its position, not on the count or on how the pieces are consumed.
# ---------------------------------------------------------------------------

_SAMPLE_SUBSTREAM = 1 << 16
# rows per piece: a piece is one block of verification's product pass, one
# GEMM of every endpoint against its samples.  Blocks of 4096 rows ran that
# pass as fast as 8192 or 16384 with the least memory.  One piece buffer is
# 0.25 MiB at n = 2 and 0.63 MiB at n = 5; a whole substream would be 4.0
# and 10.5 MiB
_SAMPLE_PIECE = 4096


def seeded_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator for a tuple of non-negative integer keys."""
    if any(k < 0 for k in keys):
        raise ValueError("seed keys must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _column_sums(panel: Array) -> Array:
    """Sums of a (d, rows) panel down its columns, d >= 8, with the bits of np.add.reduce along a row of d.

    numpy sums a contiguous row pairwise: up to 128 values in eight
    interleaved accumulators, combined as a tree, then the remainder in
    order; a longer row as the sum of two halves, the first a multiple of 8
    long.  Here each step is one array pass over the columns, written into
    the panel's leading rows.  Returns panel[0].
    """
    d = len(panel)
    if d > 128:
        half = d // 2 - d // 2 % 8
        _column_sums(panel[:half])
        return np.add(panel[0], _column_sums(panel[half:]), out=panel[0])
    tail = d - d % 8
    for i in range(8, tail, 8):
        np.add(panel[:8], panel[i : i + 8], out=panel[:8])
    np.add(panel[0:8:2], panel[1:8:2], out=panel[0:8:2])
    np.add(panel[0:8:4], panel[2:8:4], out=panel[0:8:4])
    np.add(panel[0], panel[4], out=panel[0])
    for i in range(tail, d):
        np.add(panel[0], panel[i], out=panel[0])
    return panel[0]


def _row_norms(g: Array, panel: Array) -> Array:
    """The Euclidean norms of the rows of g, floored at 1e-300, as panel[0].

    The sums of squares have the bits of np.linalg.norm's, but each step is
    an array pass over all rows (_column_sums), not one short reduction per
    row.  `panel` is C-contiguous (g.shape[1], len(g)) scratch.
    """
    np.multiply(g.T, g.T, out=panel)
    nrm = np.sqrt(_column_sums(panel), out=panel[0])
    return np.maximum(nrm, 1e-300, out=nrm)


def sphere_sample_chunks(n: int, count: int, seed: int | Sequence[int]):
    """Iterator over count seeded uniform points on S^{4n-1}, one piece of rows at a time.

    Uniformity comes from normalizing 4n-dimensional Gaussians.  Each
    _SAMPLE_SUBSTREAM rows come from an independently spawned substream,
    drawn in order in pieces of at most _SAMPLE_PIECE rows; no piece
    crosses a substream boundary.  The seed is an integer (anything
    operator.index accepts) or a sequence of them.  The arguments are
    checked on the call.

    Each piece is a (rows, 4n) view whose transpose is a C-contiguous
    (4n, rows) panel, so a GEMM against the samples reads one contiguous
    operand.  The panels share one reused buffer, so a yielded piece is
    valid only until the iterator advances.  The layout is part of the bits
    of a product against the piece: OpenBLAS rounds some ragged widths
    differently by operand layout (a (20x8)(8x341) product of normals
    differed in 39 of its 6820 entries between the panel and the transposed
    rows; the 4096-row pieces agreed).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    try:
        keys = [operator.index(seed)]
    except TypeError:
        keys = list(seed)
    if any(k < 0 for k in keys):
        raise ValueError("seed keys must be non-negative")
    children = np.random.SeedSequence(keys).spawn((count + _SAMPLE_SUBSTREAM - 1) // _SAMPLE_SUBSTREAM)
    dim = 4 * n
    panels = np.empty(dim * min(count, _SAMPLE_PIECE))

    def pieces():
        for ci, child in enumerate(children):
            rng = np.random.default_rng(child)
            end = min((ci + 1) * _SAMPLE_SUBSTREAM, count)
            for lo in range(ci * _SAMPLE_SUBSTREAM, end, _SAMPLE_PIECE):
                rows = min(_SAMPLE_PIECE, end - lo)
                panel = panels[: dim * rows].reshape(dim, rows)
                # standard_normal fills in order, so the pieces of a substream
                # are the rows of one draw of the whole substream
                g = rng.standard_normal((rows, dim))
                nrm = _row_norms(g, panel)
                # the norms are the panel's first row, so it is divided last
                np.divide(g.T[1:], nrm, out=panel[1:])
                np.divide(g.T[0], nrm, out=nrm)
                # the draw is freed before the piece is used
                del g
                yield panel.T

    return pieces()


def sphere_samples(n: int, count: int, seed: int | Sequence[int]) -> Array:
    """(count, 4n) array of i.i.d. uniform points on S^{4n-1}: the rows of sphere_sample_chunks' pieces."""
    # the iterator checks the arguments before the buffer is made
    pieces = sphere_sample_chunks(n, count, seed)
    out = np.empty((count, 4 * n))
    lo = 0
    for piece in pieces:
        out[lo : lo + len(piece)] = piece
        lo += len(piece)
    return out


# ---------------------------------------------------------------------------
# Pairwise kernel invariants.  Every zonal quantity depends on (x, y) only
# through a = Re<x, y> and s = |<x, y>|^2.
# ---------------------------------------------------------------------------

# Pairs per block of the kernel-sum engine: 32768 float64 elements are
# 256 KB per block array.  spectral._projection_matrix holds nine such
# buffers per call (spectral._ENGINE_BUFFERS) and reuses them for every block
# and rung: 2.25 MiB in all, about one 2 MB L2 cache.  tracemalloc measured a
# 2.46 MiB peak for one 384-probe, 25-index call over 5000 atoms.
_BLOCK_ELEMENTS = 32_768


def _aligned_empty(shape) -> Array:
    """np.empty(shape) of float64 that starts on a 64-byte cache-line boundary.

    malloc aligns a large block to 16 bytes only, so where a buffer starts
    depends on what the process allocated before, and the scan engine's
    block loops are sensitive to it: one 384-probe scan over 5000 atoms took
    143 ms with its buffer stack on a boundary and 173-178 ms with it 8 to
    24 bytes past one (one BLAS thread, 2-vCPU Xeon VM).
    """
    count = math.prod(shape)
    raw = np.empty(count + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + count].reshape(shape)


def pair_invariants(x_vec: Array, points: Array) -> tuple[Array, Array]:
    """(a, s) between one point x and a (P, 4n) array of points: the one-row pair_invariants_matrix."""
    a, s = pair_invariants_matrix(x_vec[None, :], points)
    return a[0], s[0]


def pair_invariants_matrix(xs: Array, ys: Array, out=None) -> tuple[Array, Array]:
    """(a, s) matrices of shape (len(xs), len(ys)) between two point arrays.

    `out` is None or three float64 arrays of that shape: a and s are written
    into the first two, and the third is scratch.  The axis rotations go to
    whichever operand has fewer rows: the axis matrices are antisymmetric,
    so (R x).y = -x.(R y), and s only needs c^2.
    """
    a, s, c = out if out is not None else [np.empty((len(xs), len(ys))) for _ in range(3)]
    np.matmul(xs, ys.T, out=a)
    np.multiply(a, a, out=s)
    rotate_xs = len(xs) <= len(ys)
    for ax in AXES:
        if rotate_xs:
            np.matmul(_apply_axis_flat(xs, ax), ys.T, out=c)
        else:
            np.matmul(xs, _apply_axis_flat(ys, ax).T, out=c)
        np.multiply(c, c, out=c)
        s += c
    return a, s
