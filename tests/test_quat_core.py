import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsphere import (
    HVector,
    Quaternion,
    SpherePoint,
    exp_imag,
    flow,
    geodesic,
    inner,
    quat_mul,
    sample_sphere,
    sphere_samples,
    tangent_frame,
)
from quatsphere.quat_core import (
    I, J, K, ONE, _aligned_empty, pair_invariants, pair_invariants_matrix, sphere_sample_chunks,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_relations():
    assert (I * J).isclose(K)
    assert (J * I).isclose(-K)
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)
    assert (I * I).isclose(-ONE)


def test_identity_and_bilinear_expansion():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert quat_mul(q, ONE).isclose(q)
    assert quat_mul(ONE, q).isclose(q)
    # (1+i)(1+j) = 1 + i + j + k
    assert quat_mul(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0)).isclose(Quaternion(1, 1, 1, 1))


@given(quats, quats)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12 * max(1.0, p.norm() * q.norm())


@given(quats, quats, quats)
@settings(max_examples=100, deadline=None)
def test_associativity(p, q, r):
    left = (p * q) * r
    right = p * (q * r)
    scale = max(1.0, left.norm())
    assert (left - right).norm() <= 1e-10 * scale


@given(quats)
@settings(max_examples=100, deadline=None)
def test_conj_involution(q):
    assert q.conj().conj().isclose(q)


def test_inner_basic():
    e1 = HVector([ONE, Quaternion()])
    e2 = HVector([Quaternion(), ONE])
    assert inner(e1, e1).isclose(ONE)
    assert inner(e1, e2).isclose(Quaternion())
    # <(i,0),(j,0)> = i * conj(j) = -k
    x = HVector([I, Quaternion()])
    y = HVector([J, Quaternion()])
    assert inner(x, y).isclose(-K)


def test_inner_mismatch_raises():
    a = HVector(np.zeros((2, 4)) + np.eye(2, 4))
    b = HVector(np.zeros((3, 4)) + np.eye(3, 4))
    with pytest.raises(ValueError):
        inner(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_inner_conjugate_symmetry(seed):
    pts = sphere_samples(3, 2, seed)
    x, y = HVector(pts[0]), HVector(pts[1])
    fwd, bwd = inner(x, y), inner(y, x)
    assert bwd.isclose(fwd.conj(), tol=1e-12)


def test_inner_self_is_norm_squared():
    pts = sphere_samples(2, 1, 42) * 1.7
    v = HVector(pts[0])
    self_inner = inner(v, v)
    assert abs(self_inner.re - v.norm() ** 2) <= 1e-12
    assert abs(self_inner.im_i) + abs(self_inner.im_j) + abs(self_inner.im_k) <= 1e-12


def test_exp_imag_values():
    assert exp_imag(Quaternion()).isclose(ONE)
    assert exp_imag(Quaternion(0, math.pi / 2, 0, 0)).isclose(I)
    with pytest.raises(ValueError):
        exp_imag(Quaternion(0.5, 1, 0, 0))


@given(finite, finite, finite)
@settings(max_examples=100, deadline=None)
def test_exp_imag_unit_norm(b, c, d):
    u = exp_imag(Quaternion(0.0, b, c, d))
    assert abs(u.norm() - 1.0) <= 1e-12


def test_flow_fixes_time_zero_and_antipode():
    e1 = SpherePoint.basis(2)
    assert np.allclose(flow(e1, "i", 0.0).vec, e1.vec)
    # exp(-i pi) = -1
    assert np.allclose(flow(e1, "i", math.pi).vec, -e1.vec, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from("ijk"), finite, finite)
@settings(max_examples=60, deadline=None)
def test_flow_group_law_and_isometry(seed, axis, s, t):
    x = SpherePoint(sphere_samples(2, 1, seed)[0])
    composed = flow(flow(x, axis, s), axis, t)
    direct = flow(x, axis, s + t)
    assert np.max(np.abs(composed.vec - direct.vec)) <= 1e-10
    assert abs(np.linalg.norm(flow(x, axis, t).vec) - 1.0) <= 1e-12


def _gram_schmidt(rows):
    out = []
    for r in rows:
        v = r.copy()
        for u in out:
            v -= (v @ u) * u
        out.append(v / np.linalg.norm(v))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_frame(n):
    y = SpherePoint(sphere_samples(n, 1, [17, n])[0])
    frame = tangent_frame(y)
    assert frame.shape == (4 * n - 1, 4 * n)
    gram = frame @ frame.T
    assert np.max(np.abs(gram - np.eye(4 * n - 1))) <= 1e-10
    assert np.max(np.abs(frame @ y.vec)) <= 1e-10
    # the first three directions span the same plane as {iy, jy, ky}
    from quatsphere.quat_core import _apply_axis_flat

    oracle = _gram_schmidt([_apply_axis_flat(y.vec, ax) for ax in "ijk"])
    p_frame = frame[:3].T @ frame[:3]
    p_oracle = oracle.T @ oracle
    assert np.max(np.abs(p_frame - p_oracle)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_frame_batched(n):
    from quatsphere.quat_core import _apply_axis_flat

    pts = sphere_samples(n, 7, [18, n])
    frames = tangent_frame(pts)
    assert frames.shape == (7, 4 * n - 1, 4 * n)
    gram = frames @ frames.transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(4 * n - 1))) <= 1e-14
    assert np.max(np.abs(np.einsum("pij,pj->pi", frames, pts))) <= 1e-14
    for p, frame in zip(pts, frames):
        assert np.array_equal(frame[:3], [_apply_axis_flat(p, ax) for ax in "ijk"])
        # the per-point QR frame the batched one replaced
        q, _ = np.linalg.qr(np.concatenate([np.column_stack([p, *frame[:3]]), np.eye(4 * n)], axis=1))
        assert np.max(np.abs(frame[3:] - q[:, 4:].T)) <= 1e-14
        assert np.array_equal(tangent_frame(SpherePoint(p)), tangent_frame(SpherePoint(p).vec[None, :])[0])


def test_geodesic():
    y = SpherePoint(sphere_samples(2, 1, 23)[0])
    e = tangent_frame(y)[4]
    assert np.allclose(geodesic(y, e, 0.0).vec, y.vec)
    assert np.allclose(geodesic(y, e, math.pi).vec, -y.vec, atol=1e-12)
    assert abs(np.linalg.norm(geodesic(y, e, 0.71).vec) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        geodesic(y, y.vec, 0.1)


class TestSampling:
    def test_unit_norm_and_determinism(self):
        a = sphere_samples(2, 1000, 5)
        b = sphere_samples(2, 1000, 5)
        c = sphere_samples(2, 1000, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-12

    def test_chunking_is_invisible(self):
        # crossing the internal chunk boundary must not change the prefix
        big = sphere_samples(2, (1 << 16) + 7, 9)
        small = sphere_samples(2, 1 << 16, 9)
        assert np.array_equal(big[: 1 << 16], small)

    def test_in_place_fill_matches_two_step_reference(self):
        # three chunks, the last one ragged: each chunk is a fresh Gaussian
        # draw divided by its row norms
        count = 2 * (1 << 16) + 5
        ref = np.empty((count, 8))
        for ci, child in enumerate(np.random.SeedSequence([9]).spawn(3)):
            lo, hi = ci << 16, min((ci + 1) << 16, count)
            g = np.random.default_rng(child).standard_normal((hi - lo, 8))
            ref[lo:hi] = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        assert np.array_equal(sphere_samples(2, count, 9), ref)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [1, 1000, 1 << 16, 2 * (1 << 16) + 5])
    def test_chunk_iterator_gives_the_same_rows(self, n, count):
        # one reused buffer, chunks of 65536 rows, the last one ragged
        rows, sizes = [], []
        for chunk in sphere_sample_chunks(n, count, [4, n]):
            rows.append(chunk.copy())
            sizes.append(len(chunk))
        assert sizes == [min(1 << 16, count - lo) for lo in range(0, count, 1 << 16)]
        assert np.array_equal(np.concatenate(rows), sphere_samples(n, count, [4, n]))

    def test_chunk_iterator_reuses_one_buffer(self):
        chunks = sphere_sample_chunks(2, 2 * (1 << 16) + 5, 9)
        first = next(chunks)
        assert all(np.shares_memory(first, chunk) for chunk in chunks)

    def test_chunk_iterator_checks_arguments_on_the_call(self):
        for args in [(1, 5, 0), (2, 0, 0), (2, 5, [-1])]:
            with pytest.raises(ValueError):
                sphere_sample_chunks(*args)

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (10, 32640), (2, 5, 20, 1638)])
    def test_aligned_empty_starts_on_a_cache_line(self, shape):
        arr = _aligned_empty(shape)
        assert arr.shape == shape and arr.dtype == np.float64 and arr.flags.c_contiguous
        assert arr.ctypes.data % 64 == 0

    def test_coordinate_means_vanish(self):
        pts = sphere_samples(2, 1_000_000, 1234)
        bound = 3.0 / math.sqrt(pts.shape[0])
        assert np.max(np.abs(pts.mean(axis=0))) <= bound

    def test_sample_sphere_wrapper(self):
        pts = sample_sphere(2, 3, 8)
        assert len(pts) == 3
        assert all(isinstance(p, SpherePoint) for p in pts)


def test_pair_invariants_match_inner():
    pts = sphere_samples(2, 6, 31)
    x = pts[0]
    a, s = pair_invariants(x, pts)
    am, sm = pair_invariants_matrix(pts[:1], pts)
    for i in range(6):
        q = inner(HVector(x), HVector(pts[i]))
        assert abs(a[i] - q.re) <= 1e-12
        assert abs(s[i] - q.norm() ** 2) <= 1e-12
        assert abs(am[0, i] - a[i]) <= 1e-15
        assert abs(sm[0, i] - s[i]) <= 1e-15
    # the longer operand on the left: the axis rotations move to the right one
    al, sl = pair_invariants_matrix(pts, pts[:2])
    for i in range(6):
        for j in range(2):
            q = inner(HVector(pts[i]), HVector(pts[j]))
            assert abs(al[i, j] - q.re) <= 1e-12
            assert abs(sl[i, j] - q.norm() ** 2) <= 1e-12
