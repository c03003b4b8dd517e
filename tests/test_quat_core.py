import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatsphere
from quatsphere import quat_core, sphere_samples, tangent_frame, unit_point
from quatsphere.quat_core import (
    _aligned_empty, _column_sums, _left_mul_matrix, geodesic_points, pair_invariants, pair_invariants_matrix,
    sphere_sample_chunks,
)

from .oracles import conj, exp_imag, flow_points, inner, row_major_samples

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
quats = st.tuples(finite, finite, finite, finite).map(np.array)
ONE, I, J, K = np.eye(4)


def mul(p, q):
    """Hamilton product p q through the left-multiplication matrix of p."""
    return _left_mul_matrix(*p) @ q


def close(p, q, tol=1e-12):
    return np.linalg.norm(p - q) <= tol


def test_hamilton_relations():
    assert close(mul(I, J), K)
    assert close(mul(J, I), -K)
    assert close(mul(J, K), I)
    assert close(mul(K, I), J)
    assert close(mul(I, I), -ONE)


def test_identity_and_bilinear_expansion():
    q = np.array([0.3, -1.2, 0.7, 2.0])
    assert close(mul(q, ONE), q)
    assert close(mul(ONE, q), q)
    # (1+i)(1+j) = 1 + i + j + k
    assert close(mul(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])), np.array([1, 1, 1, 1]))


@given(quats, quats)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(p, q):
    norm_p, norm_q = np.linalg.norm(p), np.linalg.norm(q)
    assert abs(np.linalg.norm(mul(p, q)) - norm_p * norm_q) <= 1e-12 * max(1.0, norm_p * norm_q)


@given(quats, quats, quats)
@settings(max_examples=100, deadline=None)
def test_associativity(p, q, r):
    left = mul(mul(p, q), r)
    right = mul(p, mul(q, r))
    scale = max(1.0, np.linalg.norm(left))
    assert np.linalg.norm(left - right) <= 1e-10 * scale


@given(quats)
@settings(max_examples=100, deadline=None)
def test_conj_involution(q):
    assert close(conj(conj(q)), q)


def test_inner_basic():
    zero = np.zeros(4)
    e1 = np.concatenate([ONE, zero])
    e2 = np.concatenate([zero, ONE])
    assert close(inner(e1, e1), ONE)
    assert close(inner(e1, e2), zero)
    # <(i,0),(j,0)> = i * conj(j) = -k
    x = np.concatenate([I, zero])
    y = np.concatenate([J, zero])
    assert close(inner(x, y), -K)


def test_inner_mismatch_raises():
    a = (np.zeros((2, 4)) + np.eye(2, 4)).reshape(-1)
    b = (np.zeros((3, 4)) + np.eye(3, 4)).reshape(-1)
    with pytest.raises(ValueError):
        inner(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_inner_conjugate_symmetry(seed):
    x, y = sphere_samples(3, 2, seed)
    fwd, bwd = inner(x, y), inner(y, x)
    assert close(bwd, conj(fwd), tol=1e-12)


def test_inner_self_is_norm_squared():
    v = sphere_samples(2, 1, 42)[0] * 1.7
    self_inner = inner(v, v)
    assert abs(self_inner[0] - np.linalg.norm(v) ** 2) <= 1e-12
    assert np.sum(np.abs(self_inner[1:])) <= 1e-12


def test_exp_imag_values():
    assert close(exp_imag(np.zeros(4)), ONE)
    assert close(exp_imag(np.array([0, math.pi / 2, 0, 0])), I)
    with pytest.raises(ValueError):
        exp_imag(np.array([0.5, 1, 0, 0]))


@given(finite, finite, finite)
@settings(max_examples=100, deadline=None)
def test_exp_imag_unit_norm(b, c, d):
    u = exp_imag(np.array([0.0, b, c, d]))
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_flow_fixes_time_zero_and_antipode():
    e1 = np.eye(8)[0]
    assert np.allclose(flow_points(e1, "i", 0.0), e1)
    # exp(-i pi) = -1
    assert np.allclose(flow_points(e1, "i", math.pi), -e1, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from("ijk"), finite, finite)
@settings(max_examples=60, deadline=None)
def test_flow_group_law_and_isometry(seed, axis, s, t):
    x = sphere_samples(2, 1, seed)[0]
    composed = flow_points(flow_points(x, axis, s), axis, t)
    direct = flow_points(x, axis, s + t)
    assert np.max(np.abs(composed - direct)) <= 1e-10
    assert abs(np.linalg.norm(flow_points(x, axis, t)) - 1.0) <= 1e-12


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
    y = unit_point(sphere_samples(n, 1, [17, n])[0])
    frame = tangent_frame(y[None])[0]
    assert frame.shape == (4 * n - 1, 4 * n)
    gram = frame @ frame.T
    assert np.max(np.abs(gram - np.eye(4 * n - 1))) <= 1e-10
    assert np.max(np.abs(frame @ y)) <= 1e-10
    # the first three directions span the same plane as {iy, jy, ky}
    from quatsphere.quat_core import _apply_axis_flat

    oracle = _gram_schmidt([_apply_axis_flat(y, ax) for ax in "ijk"])
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


def test_geodesic():
    y = unit_point(sphere_samples(2, 1, 23)[0])
    e = tangent_frame(y[None])[0, 4]
    start, antipode, inside = geodesic_points(y, e, [0.0, math.pi, 0.71])
    assert np.allclose(start, y)
    assert np.allclose(antipode, -y, atol=1e-12)
    assert abs(np.linalg.norm(inside) - 1.0) <= 1e-12


def test_unit_point():
    v = np.arange(1.0, 9.0).reshape(2, 4)
    assert np.array_equal(unit_point(v), v.reshape(-1) / float(np.linalg.norm(v)))
    with pytest.raises(ValueError, match="n >= 2"):
        unit_point(np.ones(4))
    with pytest.raises(ValueError, match="n >= 2"):
        unit_point(np.ones(10))
    with pytest.raises(ValueError, match="zero vector"):
        unit_point(np.zeros(8))


def test_sphere_point_is_only_an_alias_in_quat_core():
    # perfbench/workloads.py's x0_point still calls quat_core.SpherePoint; no library module may
    assert quat_core.SpherePoint is quat_core.unit_point
    assert not hasattr(quatsphere, "SpherePoint") and not hasattr(quatsphere, "ConeParams")
    src = Path(quatsphere.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "SpherePoint" in p.read_text() and p.name != "quat_core.py"] == []


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

    def test_samples_match_whole_substream_draws(self):
        # three substreams of 1 << 16 rows, the last one ragged: each is one Gaussian
        # draw divided by its row norms, with the bits of np.linalg.norm's
        count = 2 * (1 << 16) + 5
        for n in (2, 3, 4, 5):
            ref = np.empty((count, 4 * n))
            for ci, child in enumerate(np.random.SeedSequence([9]).spawn(3)):
                lo, hi = ci << 16, min((ci + 1) << 16, count)
                g = np.random.default_rng(child).standard_normal((hi - lo, 4 * n))
                ref[lo:hi] = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
            assert sphere_samples(n, count, 9).tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [1, 1000, 1 << 16, 2 * (1 << 16) + 5])
    def test_chunk_iterator_gives_the_same_rows(self, n, count):
        # one reused buffer, pieces of 4096 rows, the last one ragged
        rows, sizes = [], []
        for chunk in sphere_sample_chunks(n, count, [4, n]):
            rows.append(chunk.copy())
            sizes.append(len(chunk))
        assert sizes == [min(4096, count - lo) for lo in range(0, count, 4096)]
        assert np.array_equal(np.concatenate(rows), row_major_samples(n, count, [4, n]))

    @staticmethod
    def piece_bounds(n, count, seed):
        """(start, stop) rows of each piece sphere_sample_chunks yields, and the rows themselves."""
        bounds, rows, lo = [], [], 0
        for piece in sphere_sample_chunks(n, count, seed):
            # column-major: the product pass's GEMMs read the transpose as one contiguous panel
            assert piece.shape == (len(piece), 4 * n) and piece.T.flags.c_contiguous
            bounds.append((lo, lo + len(piece)))
            rows.append(piece.copy())
            lo += len(piece)
        return bounds, np.concatenate(rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 1 << 16, (1 << 16) + 1, 2 * (1 << 16) + 5])
    def test_pieces_stay_inside_their_substream(self, n, count):
        bounds, rows = self.piece_bounds(n, count, [7, n])
        substreams = [(s0, min(s0 + (1 << 16), count)) for s0 in range(0, count, 1 << 16)]
        assert bounds == [(lo, min(lo + 4096, end)) for s0, end in substreams for lo in range(s0, end, 4096)]
        assert all(lo >> 16 == (hi - 1) >> 16 for lo, hi in bounds)
        assert rows.tobytes() == row_major_samples(n, count, [7, n]).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("count", [1, 4097, (1 << 16) + 5])
    def test_samples_have_the_bits_of_row_major_pieces(self, n, count):
        # sphere_samples copies the column-major pieces' rows; both keep the bits of dividing each row in place
        want = row_major_samples(n, count, [3, n]).tobytes()
        assert sphere_samples(n, count, [3, n]).tobytes() == want
        assert self.piece_bounds(n, count, [3, n])[1].tobytes() == want

    def test_pieces_that_do_not_divide_a_substream(self, monkeypatch):
        # 7000-row pieces: each substream ends in a ragged piece, and the rows do not move
        count = 2 * (1 << 16) + 5
        ref = sphere_samples(3, count, 11)
        monkeypatch.setattr(quat_core, "_SAMPLE_PIECE", 7000)
        bounds, rows = self.piece_bounds(3, count, 11)
        tail = (1 << 16) - 9 * 7000
        sizes = [7000] * 9 + [tail] + [7000] * 9 + [tail] + [5]
        assert [hi - lo for lo, hi in bounds] == sizes
        assert all(lo >> 16 == (hi - 1) >> 16 for lo, hi in bounds)
        assert rows.tobytes() == ref.tobytes()
        assert sphere_samples(3, count, 11).tobytes() == ref.tobytes()

    def test_numpy_integer_seed_matches_the_python_int(self):
        for seed in (np.int64(3), np.uint32(3), np.int8(3)):
            assert np.array_equal(sphere_samples(2, 3, seed), sphere_samples(2, 3, 3))
        assert np.array_equal(sphere_samples(2, 3, [np.int64(3), 5]), sphere_samples(2, 3, [3, 5]))

    def test_float_seed_is_refused(self):
        with pytest.raises(TypeError):
            sphere_samples(2, 3, 3.0)
        with pytest.raises(TypeError):
            sphere_sample_chunks(2, 3, np.float64(3.0))

    @pytest.mark.parametrize("rows", [1, 7, 4096, 4097])
    def test_column_sums_have_the_bits_of_numpy_row_sums(self, rows):
        # numpy halves a row longer than 128, so eight accumulators alone would differ from 4n = 132 on
        rng = np.random.default_rng(rows)
        for dim in range(8, 161, 4):
            sq = rng.standard_normal((rows, dim)) ** 2
            want = np.add.reduce(sq, axis=1)
            assert _column_sums(np.ascontiguousarray(sq.T)).tobytes() == want.tobytes(), dim

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


def test_pair_invariants_match_inner():
    pts = sphere_samples(2, 6, 31)
    x = pts[0]
    a, s = pair_invariants(x, pts)
    am, sm = pair_invariants_matrix(pts[:1], pts)
    for i in range(6):
        q = inner(x, pts[i])
        assert abs(a[i] - q[0]) <= 1e-12
        assert abs(s[i] - np.linalg.norm(q) ** 2) <= 1e-12
        assert abs(am[0, i] - a[i]) <= 1e-15
        assert abs(sm[0, i] - s[i]) <= 1e-15
    # the longer operand on the left: the axis rotations move to the right one
    al, sl = pair_invariants_matrix(pts, pts[:2])
    for i in range(6):
        for j in range(2):
            q = inner(pts[i], pts[j])
            assert abs(al[i, j] - q[0]) <= 1e-12
            assert abs(sl[i, j] - np.linalg.norm(q) ** 2) <= 1e-12
