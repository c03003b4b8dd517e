import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsphere import (
    JacobiParams,
    KernelIndex,
    SpherePoint,
    apply_multiplier,
    calibrate,
    cheb_u_scaled,
    gen_uniform,
    index_range,
    jacobi_eval,
    ortho_poly,
    project_values,
    quat_core,
    spectral,
    spectrum_scan,
    sphere_samples,
    verification,
    zonal_kernel,
)
from quatsphere.quat_core import pair_invariants_matrix, sphere_sample_chunks
from quatsphere.verification import _TAG_PRODUCT, _merge_moments, _product_integrals, _product_moments
from quatsphere.zonal_kernel import raw_kernel_values

from .oracles import chunked_product_moments, paper_raw_kernel, raw_kernel, three_buffer_kernel_rungs


def point_pair_with_invariants(a: float, s: float) -> tuple[SpherePoint, SpherePoint]:
    """x, y on the n=2 sphere with Re<x,y> = a and |<x,y>|^2 = s exactly."""
    assert 0 <= s <= 1 and a * a <= s
    x = SpherePoint.basis(2)
    b = math.sqrt(s - a * a)
    y = np.zeros(8)
    # <e1, y> = conj(y_1), so y_1 = a - b*i gives <x, y> = a + b*i
    y[0], y[1] = a, -b
    y[4] = math.sqrt(1.0 - s)
    return x, SpherePoint(y)


def admissible(h: int, m: int) -> bool:
    """Whether KernelIndex(h, m, 2) can be built."""
    try:
        KernelIndex(h, m, 2)
    except ValueError:
        return False
    return True


class TestIndexSet:
    def test_membership(self):
        assert admissible(4, 2)
        assert not admissible(3, 2)
        assert admissible(0, 0)

    @given(st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_matches_inequality(self, h, m):
        assert admissible(h, m) == (2 * m <= h)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            KernelIndex(-1, 0, 2)
        with pytest.raises(ValueError):
            KernelIndex(3, 2, 2)
        with pytest.raises(ValueError):
            KernelIndex(2, 1, 1)

    def test_index_range_count(self):
        # |{(h, m): 2m <= h <= 6}| = 1+1+2+2+3+3+4
        assert len(index_range(2, 6)) == 16

    def test_eigenvalues(self):
        idx = KernelIndex(3, 1, 2)
        assert idx.lambda_delta == 27.0
        assert idx.lambda_gamma == 3.0


class TestRawKernel:
    def test_hand_expanded_values_at_2_1(self):
        # paper: (1*3)/(2*3) * C(3,1) * W_0 * P_1^{(1,1)}(2s-1) = 3*(2s-1); the library's W_0 P_1 is 2*(2s-1)
        idx = KernelIndex(2, 1, 2)
        assert abs(paper_raw_kernel(idx, 0.5, 0.5) - 0.0) <= 1e-12
        assert abs(paper_raw_kernel(idx, 0.5, 0.7) - 1.2) <= 1e-12
        x, y = point_pair_with_invariants(0.5, 0.5)
        assert abs(raw_kernel(idx, x, y) - 0.0) <= 1e-12
        x, y = point_pair_with_invariants(0.5, 0.7)
        assert abs(raw_kernel(idx, x, y) - 0.8) <= 1e-12

    def test_hand_expanded_values_at_3_1(self):
        # paper: (2*4)/6 * C(4,1) * 2a * P_1^{(1,2)}(2s-1) = (16/3) * 2a * (2 + 2.5 * ((2s-1) - 1))
        idx = KernelIndex(3, 1, 2)
        a, s = 0.5, 0.7
        expected = (2 * 4 / 6) * 4 * (2 * a) * (2 + 2.5 * ((2 * s - 1) - 1))
        assert abs(paper_raw_kernel(idx, a, s) - expected) <= 1e-12
        assert abs(expected - 8.0 / 3.0) <= 1e-12
        # the library's W_1 P_1 = 2a * (2 + 2.5 * ((2s-1) - 1))
        x, y = point_pair_with_invariants(a, s)
        assert abs(raw_kernel(idx, x, y) - 0.5) <= 1e-12

    def test_diagonal_constancy(self):
        idx = KernelIndex(4, 1, 2)
        pts = sphere_samples(2, 100, 77)
        vals = np.array([raw_kernel(idx, SpherePoint(p), SpherePoint(p)) for p in pts])
        assert np.max(np.abs(vals - vals[0])) <= 1e-10 * abs(vals[0])

    def test_symmetry(self):
        idx = KernelIndex(5, 2, 2)
        pts = sphere_samples(2, 20, 78)
        for i in range(0, 20, 2):
            x, y = SpherePoint(pts[i]), SpherePoint(pts[i + 1])
            assert abs(raw_kernel(idx, x, y) - raw_kernel(idx, y, x)) <= 1e-12

    def test_zonality(self):
        # values agree across distinct pairs with matching invariants
        idx = KernelIndex(6, 2, 2)
        x1, y1 = point_pair_with_invariants(0.4, 0.6)
        v1 = raw_kernel(idx, x1, y1)
        # a different pair with the same invariants, built in another position
        x2 = SpherePoint(np.roll(x1.vec, 4))
        y2 = SpherePoint(np.roll(y1.vec, 4))
        v2 = raw_kernel(idx, x2, y2)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_degenerate_prefactor_index_is_not_zero(self):
        # the paper's displayed constant vanishes at (1, 0); the kernel must not
        idx = KernelIndex(1, 0, 2)
        x, y = point_pair_with_invariants(0.5, 0.5)
        assert raw_kernel(idx, x, y) != 0.0

    def test_finite_at_orthogonal_points(self):
        idx = KernelIndex(5, 1, 2)
        x, y = point_pair_with_invariants(0.0, 0.0)
        assert math.isfinite(raw_kernel(idx, x, y))

    @pytest.mark.parametrize("a, s_in, s_out, message", [
        (0.0, -5e-13, -2e-12, "non-negative"),
        (0.5, 0.25 - 5e-13, 0.25 - 2e-12, "a\\^2 <= s"),
        (0.0, 1.0 + 2.5e-13, 1.0 + 2e-12, "outside \\[-1, 1\\]"),
    ], ids=["negative-s", "a-squared-above-s", "2s-1-above-1"])
    def test_values_outside_the_domain_are_rejected(self, a, s_in, s_out, message):
        # s < -1e-12, a^2 > s + 1e-12 and 2s - 1 > 1 + 1e-12 are rejected; within 1e-12 they are not
        idx = KernelIndex(4, 1, 2)
        assert math.isfinite(float(raw_kernel_values(idx, a, s_in)))
        with pytest.raises(ValueError, match=message) as exc:
            raw_kernel_values(idx, a, s_out)
        assert "jacobi_eval" not in str(exc.value)
        with pytest.raises(ValueError, match=message):
            raw_kernel_values(idx, np.array([0.1, a]), np.array([0.2, s_out]))


class TestCalibration:
    def test_constant_index_is_exact(self):
        ck = calibrate(KernelIndex(0, 0, 2), 20_000, seed=3)
        assert ck.c == 1.0
        assert abs(ck.diagonal() - 1.0) <= 1e-9

    def test_sign_absorption_at_0_0(self):
        # the paper's constant is negative there (its K(x, x) is -1/3); the exact constant absorbs the sign
        idx = KernelIndex(0, 0, 2)
        assert idx.dimension / paper_raw_kernel(idx, 1.0, 1.0) < 0
        ck = calibrate(idx, 20_000, seed=3)
        x, y = point_pair_with_invariants(0.2, 0.3)
        assert ck(x, y) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_constant_is_the_exact_rational_rounded_once(self, n):
        # c = dim / (W_k(1, 1) P_m^{(2n-3, k+1)}(1)) = dim / ((k + 1) C(m + 2n - 3, m)), bit for bit
        for idx in index_range(n, 16):
            exact = Fraction(idx.dimension, (idx.k + 1) * math.comb(idx.m + 2 * n - 3, idx.m))
            assert calibrate(idx, 0, 0).c == float(exact), idx

    @pytest.mark.parametrize("n", [2, 3])
    def test_kernel_is_the_paper_formula_normalized(self, n):
        # K = dim / paper_raw(1, 1) * paper_raw wherever the paper's constant is nonzero, i.e. except at (1, 0)
        ys = sphere_samples(n, 40, [n, 17])
        x = ys[0]
        a, s = quat_core.pair_invariants(x, ys)
        for idx in index_range(n, 8):
            if (idx.h, idx.m) == (1, 0):
                continue
            expected = idx.dimension / paper_raw_kernel(idx, 1.0, 1.0) * paper_raw_kernel(idx, a, s)
            got = calibrate(idx, 0, 0).values(x, ys)
            assert np.max(np.abs(got - expected)) <= 1e-12 * idx.dimension, idx

    def test_spreads_and_integer_diagonals(self, bank8):
        for (h, m), ck in bank8.items():
            d = ck.diagonal()
            nearest = max(round(d), 1)
            assert abs(d - nearest) <= 0.02 * nearest, (h, m, d)

    def test_kernel_dim_examples(self, bank8):
        # K(x, x) at 10 random points; dims of the h = 2m column match
        # degree-m harmonics on the quotient 4-sphere
        pts = [SpherePoint(p) for p in sphere_samples(2, 10, [0, 13])]
        for m, expected in [(0, 1), (1, 5), (2, 14), (3, 30), (4, 55)]:
            ck = bank8[(2 * m, m)]
            for x in pts:
                assert abs(ck(x, x) - expected) <= 1e-12 * expected, (m, x.vec)

    def test_diagonal_positive(self, bank8):
        for ck in bank8.values():
            assert ck.diagonal() > 0

    def test_determinism(self):
        a = calibrate(KernelIndex(2, 1, 2), 20_000, seed=11)
        b = calibrate(KernelIndex(2, 1, 2), 20_000, seed=11)
        assert a == b


def harmonic_dim(h: int, n: int) -> int:
    """Dimension of the degree-h spherical harmonics on S^{4n-1} in R^{4n}."""
    d = 4 * n
    return math.comb(h + d - 1, d - 1) - (math.comb(h + d - 3, d - 1) if h >= 2 else 0)


class TestExactConstants:
    def test_dimension_examples(self):
        for (h, m), want in {(0, 0): 1, (2, 1): 5, (4, 2): 14, (2, 0): 30, (8, 4): 55, (3, 1): 32}.items():
            assert KernelIndex(h, m, 2).dimension == want, (h, m)
        assert KernelIndex(1, 0, 3).dimension == 12
        assert KernelIndex(2, 1, 3).dimension == 14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dimensions_sum_to_harmonic_dimension(self, n):
        for h in range(12):
            assert sum(KernelIndex(h, m, n).dimension for m in range(h // 2 + 1)) == harmonic_dim(h, n), h

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_is_the_dimension(self, n):
        for idx in index_range(n, 12):
            ck = calibrate(idx, 10_000, seed=0)
            assert ck.diagonal() == pytest.approx(idx.dimension, rel=1e-12), idx

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_diagonal_has_the_walked_bits(self, n):
        # c (k + 1) C(m + 2n - 3, m) rounds like c W_k(1, 1) P_m(1) from the ladders, which the
        # scans' floors were pinned with; c * float(dimension) differs from it in the last bit on some indices
        for idx in index_range(n, 16):
            ck = calibrate(idx, 0, 0)
            assert ck.diagonal() == ck.c * float(raw_kernel_values(idx, 1.0, 1.0)), idx

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shell_sum_is_the_zonal_harmonic(self, n):
        # sum_m K_{h,m}(x, y) = dim_h C_h^{(2n-1)}(a) / C_h^{(2n-1)}(1), with a = Re<x,y>
        special = pytest.importorskip("scipy.special")
        xs, ys = sphere_samples(n, 20, [3, n]), sphere_samples(n, 20, [4, n])
        a, s = (np.diag(v) for v in pair_invariants_matrix(xs, ys))
        for h in range(13):
            shell = sum(
                calibrate(idx, 10_000, seed=0).c * raw_kernel_values(idx, a, s)
                for idx in (KernelIndex(h, m, n) for m in range(h // 2 + 1))
            )
            dim_h = harmonic_dim(h, n)
            zonal = dim_h * special.eval_gegenbauer(h, 2 * n - 1, a) / special.eval_gegenbauer(h, 2 * n - 1, 1.0)
            assert np.max(np.abs(shell - zonal)) <= 1e-12 * dim_h, h


def pointwise_products(ck1, ck2, count: int, seed: int, trial: int = 0):
    """K1(x, y) K2(y, z) over the rows y of one sample set, from CalibratedKernel.values: the oracle."""
    ys = sphere_samples(2, count, [seed, _TAG_PRODUCT])
    (h1, m1), (h2, m2) = (ck1.index.h, ck1.index.m), (ck2.index.h, ck2.index.m)
    x, z = sphere_samples(2, 2, [seed + trial, _TAG_PRODUCT + 1, h1, h2, m1, m2])
    return ck1.values(x, ys) * ck2.values(z, ys)


class TestBlockedSamplePath:
    @pytest.mark.parametrize("pair", [((3, 1), (3, 1)), ((2, 1), (4, 2))])
    def test_product_integral_matches_pointwise_values(self, bank8, pair):
        ck1, ck2 = bank8[pair[0]], bank8[pair[1]]
        [(est, stderr, _)] = _product_integrals([(ck1, ck2)], 2, 20_000, 5, _TAG_PRODUCT)
        prod = pointwise_products(ck1, ck2, 20_000, 5)
        assert est == pytest.approx(np.mean(prod), rel=1e-12)
        assert stderr == pytest.approx(np.std(prod, ddof=1) / math.sqrt(20_000), rel=1e-12)

    def test_ten_trials_over_ragged_chunks_and_blocks(self, bank8):
        # the count ends in a 5-row chunk, which is also a ragged block
        keys = [(3, 1), (2, 1), (4, 2), (0, 0), (5, 2), (1, 0), (4, 0), (2, 0), (5, 1), (3, 0)]
        trials = [(bank8[keys[t]], bank8[keys[(3 * t + 1) % 10]]) for t in range(10)]
        count = 2 * (1 << 16) + 5
        results = _product_integrals(trials, 2, count, 5, _TAG_PRODUCT)
        for trial, ((ck1, ck2), (est, stderr, _)) in enumerate(zip(trials, results)):
            prod = pointwise_products(ck1, ck2, count, 5, trial)
            assert est == pytest.approx(np.mean(prod), rel=1e-12), trial
            assert stderr == pytest.approx(np.std(prod, ddof=1) / math.sqrt(count), rel=1e-12), trial

    def test_pair_invariants_once_per_sample_block(self, bank8, monkeypatch):
        # all endpoints share the invariants of a block: one GEMM per sample
        # piece, not per endpoint or trial
        calls = []

        def counting(xs, ys, **kw):
            calls.append((xs.shape[0], ys.shape[0]))
            return pair_invariants_matrix(xs, ys, **kw)

        monkeypatch.setattr(verification, "pair_invariants_matrix", counting)
        monkeypatch.setattr(quat_core, "_SAMPLE_PIECE", 7000)
        trials = [(bank8[(3, 1)], bank8[(2, 1)]), (bank8[(4, 2)], bank8[(4, 2)])]
        _product_integrals(trials, 2, (1 << 16) + 5, 5, _TAG_PRODUCT)
        # the first substream is nine whole pieces and a ragged one, and the count ends in a 5-row substream
        assert calls == [(4, 7000)] * 9 + [(4, (1 << 16) - 63_000), (4, 5)]

    @pytest.mark.parametrize("trials", [2, 10])
    def test_pieces_match_the_chunk_then_block_walk(self, bank8, trials):
        # each piece is one block of the walk over 65536-row chunks, so every GEMM and merge keeps its bits
        keys = [(3, 1), (2, 1), (4, 2), (0, 0), (5, 2), (1, 0), (4, 0), (2, 0), (5, 1), (3, 0)]
        kernels = [(bank8[keys[t]], bank8[keys[(3 * t + 1) % 10]]) for t in range(trials)]
        ends = sphere_samples(2, 2 * trials, 8)
        count = 2 * (1 << 16) + 5
        mean, stderr = _product_moments(kernels, ends, sphere_sample_chunks(2, count, 9))
        ref_mean, ref_stderr = chunked_product_moments(kernels, ends, sphere_samples(2, count, 9))
        assert mean.tobytes() == ref_mean.tobytes()
        assert stderr.tobytes() == ref_stderr.tobytes()

    def test_pass_skips_the_checked_evaluators(self, bank8, monkeypatch):
        # the pass walks the ladders on invariants it computed from unit vectors, with no domain re-check
        checked = {zonal_kernel.raw_kernel_values, ortho_poly.cheb_u_scaled, ortho_poly.jacobi_eval}
        calls = []

        def counted(fn):
            def wrapper(*args, **kw):
                calls.append(fn.__name__)
                return fn(*args, **kw)

            return wrapper

        for module in (ortho_poly, zonal_kernel, verification):
            for name, value in list(vars(module).items()):
                if any(value is fn for fn in checked):
                    monkeypatch.setattr(module, name, counted(value))
        kernels = [(bank8[(3, 1)], bank8[(2, 1)]), (bank8[(5, 2)], bank8[(4, 0)])]
        ends = sphere_samples(2, 4, 8)
        _product_moments(kernels, ends, sphere_sample_chunks(2, 10_000, 9))
        assert calls == []
        bank8[(3, 1)].values(ends[0], ends)
        assert "raw_kernel_values" in calls

    def test_equal_pair_integral_is_the_pointwise_mean(self, bank8):
        # the second of two equal trials draws its own x and z and shares the sample rows
        ck = bank8[(2, 1)]
        results = _product_integrals([(ck, ck)] * 2, 2, 20_000, 5, _TAG_PRODUCT)
        prod = pointwise_products(ck, ck, 20_000, 5, trial=1)
        assert results[1][0] == pytest.approx(np.mean(prod), rel=1e-12)

    def test_fewer_than_two_samples_is_an_error(self, bank8):
        with pytest.raises(ValueError, match="at least 2 samples"):
            _product_integrals([(bank8[(2, 1)], bank8[(2, 1)])], 2, 1, 5, _TAG_PRODUCT)


class TestOneWalk:
    def test_walk_yields_the_wanted_rungs_in_order(self):
        # the last pair is a self-pair whose s rounded above 1: its Jacobi argument is clipped to 1
        a = np.array([[0.3, -0.2, 1.0]])
        s = np.array([[0.5, 0.9, 1.0 + 4.4e-16]])
        wanted = {0: (2,), 3: (0, 1), 4: (2,)}
        bufs = [np.ones(a.shape)] + [np.empty(a.shape) for _ in range(7)]
        got = [(k, m, w.copy(), p.copy()) for k, m, w, p in zonal_kernel._kernel_rungs(2, a, s, wanted, bufs)]
        assert [(k, m) for k, m, _, _ in got] == [(0, 2), (3, 0), (3, 1), (4, 2)]
        for k, m, w, p in got:
            assert np.array_equal(w, cheb_u_scaled(k, a, s))
            assert np.array_equal(p, jacobi_eval(JacobiParams(1, k + 1, m), np.minimum(2.0 * s - 1.0, 1.0)))
            assert p[0, 2] == jacobi_eval(JacobiParams(1, k + 1, m), 1.0)

    def test_every_kernel_path_takes_the_one_walk(self, bank8, monkeypatch):
        # spectral starts no ladder of its own, and every kernel path starts one Chebyshev ladder per walk
        assert not any(getattr(v, "__module__", None) == "quatsphere.ortho_poly" for v in vars(spectral).values())
        walk, ladder, walks, chebs = zonal_kernel._kernel_rungs, zonal_kernel.cheb_ladder, [], []

        def counted_walk(caller):
            return lambda *args: walks.append(caller) or walk(*args)

        for module in (zonal_kernel, spectral):
            monkeypatch.setattr(module, "_kernel_rungs", counted_walk(module.__name__))
        monkeypatch.setattr(zonal_kernel, "cheb_ladder", lambda *a, **kw: chebs.append(1) or ladder(*a, **kw))
        mu, xs = gen_uniform(2, 300, seed=3), sphere_samples(2, 8, 4)
        # each path with the module whose walk it must reach
        paths = {
            "scan": (spectral, lambda: spectrum_scan(mu, bank8, 4, 0.1, probes=8, seed=1)),
            "multiplier": (spectral, lambda: apply_multiplier(mu, bank8, 0.2, 4, xs)),
            "project_values": (spectral, lambda: project_values(mu, bank8[(3, 1)], xs)),
            "raw_kernel_values": (zonal_kernel, lambda: raw_kernel_values(KernelIndex(3, 1, 2), 0.2, 0.5)),
            "product pass": (zonal_kernel, lambda: _product_moments(
                [(bank8[(3, 1)], bank8[(2, 1)])], sphere_samples(2, 2, 8), sphere_sample_chunks(2, 100, 9)
            )),
        }
        for name, (module, run) in paths.items():
            walks.clear()
            chebs.clear()
            run()
            assert module.__name__ in walks and len(chebs) == len(walks), name


    @pytest.mark.parametrize("case", ["random", "s = 0", "a = 0", "s rounded above 1", "ragged block"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_walk_has_the_bits_of_the_three_buffer_ladders(self, n, case):
        # the shared ones, the kept 2a, s W_0 = s, c4 P_0 = c4 and P_1's halving moved onto its constants
        # change no bit of any rung k, m <= 32
        rng = np.random.default_rng([n, 7])
        s = rng.uniform(0.0, 1.0, (6, 11))
        a = np.sqrt(s) * rng.uniform(-1.0, 1.0, s.shape)
        if case == "s = 0":
            a, s = np.zeros_like(a), np.zeros_like(s)
        elif case == "a = 0":
            a = np.zeros_like(a)
        elif case == "s rounded above 1":
            a[:, ::2], s[:, ::2] = 1.0, 1.0 + 4.4e-16
        # the engine's layout: views at the head of wider buffers, 2a written over a, and the
        # scratch overwritten between rungs
        stack = np.empty((8, s.size + (13 if case == "ragged block" else 0)))
        stack[0] = 1.0
        bufs = [b[: s.size].reshape(s.shape) for b in stack]
        bufs[1][...] = a
        wanted = {k: range(33) for k in range(33)}
        walk = zonal_kernel._kernel_rungs(n, bufs[1], s, wanted, bufs)
        for got, want in itertools.zip_longest(walk, three_buffer_kernel_rungs(n, a, s, wanted)):
            assert got[:2] == want[:2]
            assert got[2].tobytes() == want[2].tobytes(), want[:2]
            assert got[3].tobytes() == want[3].tobytes(), want[:2]
            bufs[4].fill(np.nan)

    def test_walk_pass_budget(self, monkeypatch):
        # one walk of the 25 indices with h <= 8 at n = 2 makes at most 87 array calls (numpy calls and
        # buffer fills); walking every value afresh, including the ones and 2a at each rung, made 117
        calls = []

        class Counted(np.ndarray):
            def fill(self, value):
                calls.append("fill")
                super().fill(value)

        class CountingNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr
                return lambda *args, **kw: calls.append(name) or attr(*args, **kw)

        a, s = pair_invariants_matrix(sphere_samples(2, 16, 1), sphere_samples(2, 40, 2))
        bufs = [np.ones(a.shape).view(Counted)] + [np.empty(a.shape).view(Counted) for _ in range(7)]
        wanted = {}
        for idx in index_range(2, 8):
            wanted.setdefault(idx.k, []).append(idx.m)
        for module in (ortho_poly, zonal_kernel):
            monkeypatch.setattr(module, "np", CountingNumpy())
        assert sum(1 for _ in zonal_kernel._kernel_rungs(2, a, s, wanted, bufs)) == 25
        assert len(calls) <= 87, len(calls)

    def test_scan_evaluates_no_pointwise_kernel(self, bank8, monkeypatch):
        # a scan's floors take the diagonal in closed form, not from raw_kernel_values at (1, 1)
        calls = []
        for module in (zonal_kernel, spectral, verification):
            for name, value in list(vars(module).items()):
                if value is zonal_kernel.raw_kernel_values:
                    monkeypatch.setattr(module, name, lambda *args, fn=value: calls.append(args) or fn(*args))
        spectrum_scan(gen_uniform(2, 300, seed=3), bank8, 8, 0.1, probes=8, seed=1)
        assert calls == []


class TestStableMoments:
    def test_constant_product_has_zero_stderr(self, bank8):
        ck = bank8[(0, 0)]
        [(est, stderr, target)] = _product_integrals([(ck, ck)], 2, 20_000, 5, _TAG_PRODUCT)
        prod = pointwise_products(ck, ck, 20_000, 5)
        assert np.std(prod, ddof=1) == 0.0
        assert stderr == 0.0
        assert est == target == 1.0

    def test_large_mean_small_variance(self):
        # a mean 1e4 standard deviations from 0: summing x and x^2 would lose about 8 digits of the variance
        rng = np.random.default_rng(3)
        values = 1e4 + rng.standard_normal((2, 70_001))
        moments = (0, np.zeros(2), np.zeros(2))
        for lo in range(0, values.shape[1], 8190):
            moments = _merge_moments(moments, values[:, lo : lo + 8190].copy())
        count, mean, m2 = moments
        assert count == values.shape[1]
        assert mean == pytest.approx(values.mean(axis=1), rel=1e-15)
        assert np.sqrt(m2 / (count - 1)) == pytest.approx(np.std(values, axis=1, ddof=1), rel=1e-12)


def test_section_matches_pointwise(bank8):
    ck = bank8[(3, 1)]
    x0 = SpherePoint(sphere_samples(2, 1, 90)[0])
    pts = sphere_samples(2, 5, 91)
    sec = ck.section(x0)
    vals = sec(pts)
    for i in range(5):
        assert abs(vals[i] - ck(x0, SpherePoint(pts[i]))) <= 1e-12 * max(1.0, abs(vals[i]))
