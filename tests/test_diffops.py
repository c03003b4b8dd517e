import numpy as np
import pytest

from quatsphere import (
    calibrate_bank,
    eigencheck,
    gamma_apply,
    l1_l2_identity,
    laplace_beltrami_apply,
    sphere_samples,
    unit_point,
)
from quatsphere.diffops import DegenerateProbesError
from quatsphere.quat_core import _apply_axis_flat
from quatsphere.zonal_kernel import index_range

from .oracles import flow_points


def const_fn(value=2.5):
    return lambda pts: np.full(pts.shape[:-1], value)


# The per-probe eigencheck the batched stencils replaced, with its operators and
# its per-point QR frame: the oracle of TestBatchedStencils.
def per_point_frame(v):
    dim = v.size
    axis_vecs = [_apply_axis_flat(v, ax) for ax in "ijk"]
    q, _ = np.linalg.qr(np.concatenate([np.column_stack([v, *axis_vecs]), np.eye(dim)], axis=1))
    return np.concatenate([axis_vecs, q[:, 4:dim].T])


def per_probe_extrapolate(estimates):
    return (4.0 * estimates[-1] - estimates[0]) / 3.0


def per_probe_gamma(f, v, step):
    total = 0.0
    for axis in "ijk":
        estimates = []
        for tau in (step, step / 2.0):
            vals = f(np.stack([flow_points(v, axis, tau), v, flow_points(v, axis, -tau)]))
            estimates.append((float(vals[0]) - 2.0 * float(vals[1]) + float(vals[2])) / (tau * tau))
        total += per_probe_extrapolate(estimates)
    return -total


def per_probe_laplace_beltrami(f, v, step):
    f0 = float(f(v[None, :])[0])
    total = 0.0
    for e in per_point_frame(v):
        estimates = []
        for tau in (step, step / 2.0):
            fwd, bwd = f(np.stack([np.cos(t) * v + np.sin(t) * e for t in (tau, -tau)]))
            estimates.append((float(fwd) - 2.0 * f0 + float(bwd)) / (tau * tau))
        total += per_probe_extrapolate(estimates)
    return -total


def per_probe_eigencheck(ck, x0, probes, step, seed):
    """(lambda_delta, lambda_gamma) medians over the probes, one probe at a time."""
    idx = ck.index
    f = ck.section(x0)
    pool = sphere_samples(idx.n, 128, [seed, idx.h, idx.m, 21])
    fvals = f(pool)
    chosen = np.flatnonzero(np.abs(fvals) > 0.1 * float(np.max(np.abs(fvals))))[:probes]
    delta = [per_probe_laplace_beltrami(f, unit_point(pool[i]), step) / float(fvals[i]) for i in chosen]
    gamma = [per_probe_gamma(f, unit_point(pool[i]), step) / float(fvals[i]) for i in chosen]
    return float(np.median(delta)), float(np.median(gamma))


def test_fd_config_validation():
    # the finite-difference step must lie in [1e-4, 1e-1]
    pts = sphere_samples(2, 1, 3)
    for op in (gamma_apply, laplace_beltrami_apply):
        for step in (0.5, 1e-5):
            with pytest.raises(ValueError, match="step must lie"):
                op(const_fn(), pts, step)


class TestOperators:
    def test_constants_are_killed(self):
        x = sphere_samples(2, 1, 3)
        assert abs(gamma_apply(const_fn(), x)[0]) <= 1e-9
        assert abs(laplace_beltrami_apply(const_fn(), x)[0]) <= 1e-9

    def test_kernel_sections_are_eigenfunctions(self, bank8, x0):
        probe = sphere_samples(2, 64, 44)[7][None]
        for (h, m), (lam_d, lam_g) in [((3, 1), (27.0, 3.0)), ((2, 1), (16.0, 0.0)), ((4, 2), (40.0, 0.0))]:
            sec = bank8[(h, m)].section(x0)
            fx = float(sec(probe)[0])
            est_d = laplace_beltrami_apply(sec, probe, 1e-2)[0] / fx
            est_g = gamma_apply(sec, probe, 1e-2)[0] / fx
            assert abs(est_d - lam_d) <= 5e-3 * max(lam_d, 1.0), (h, m)
            assert abs(est_g - lam_g) <= 5e-3 * max(lam_g, 1.0), (h, m)

    def test_operator_linearity_on_sections(self, bank8, x0):
        s1 = bank8[(2, 1)].section(x0)
        s2 = bank8[(3, 0)].section(x0)
        combo = lambda pts: 1.3 * s1(pts) - 0.4 * s2(pts)
        probe = sphere_samples(2, 8, 45)[:1]
        for op in (gamma_apply, laplace_beltrami_apply):
            lhs = op(combo, probe)[0]
            rhs = 1.3 * op(s1, probe)[0] - 0.4 * op(s2, probe)[0]
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_richardson_order_four(self, bank8, x0):
        # halving the step shrinks the Richardson eigenvalue error ~16x
        sec = bank8[(4, 1)].section(x0)
        probe = sphere_samples(2, 40, 46)[17][None]
        fx = float(sec(probe)[0])
        errs = []
        for tau in (4e-2, 2e-2):
            lam = laplace_beltrami_apply(sec, probe, tau)[0] / fx
            errs.append(abs(lam - 40.0))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0


class TestEigencheck:
    def test_constants_index(self, bank8, x0):
        rep = eigencheck(bank8[(0, 0)], x0, probes=6, seed=5)
        assert abs(rep.lambda_delta_est) <= 1e-3
        assert abs(rep.lambda_gamma_est) <= 1e-3

    def test_3_1_within_half_percent(self, bank8, x0):
        rep = eigencheck(bank8[(3, 1)], x0, probes=8, step=1e-2, seed=5)
        assert rep.lambda_delta_true == 27.0 and rep.lambda_gamma_true == 3.0
        assert rep.rel_err_delta <= 5e-3
        assert rep.rel_err_gamma <= 5e-3

    def test_4_2_gamma_vanishes(self, bank8, x0):
        rep = eigencheck(bank8[(4, 2)], x0, probes=8, seed=5)
        assert abs(rep.lambda_delta_est - 40.0) <= 0.2
        assert abs(rep.lambda_gamma_est) <= 1e-3

    def test_degenerate_probes(self, bank8, x0):
        ck = bank8[(5, 1)]

        class Starved:
            # looks like a calibrated kernel but its section vanishes identically
            index = ck.index
            c = ck.c

            def section(self, pt):
                return lambda pts: np.zeros(pts.shape[:-1])

        with pytest.raises(DegenerateProbesError):
            eigencheck(Starved(), x0, probes=4, seed=5)


@pytest.fixture(scope="module")
def bank_n3():
    return calibrate_bank(3, 6)


class TestBatchedStencils:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_probe_oracle(self, bank8, bank_n3, n):
        bank = bank8 if n == 2 else bank_n3
        x0 = unit_point(sphere_samples(n, 1, [3, 61])[0])
        for idx in index_range(n, 6):
            rep = eigencheck(bank[(idx.h, idx.m)], x0, probes=8, step=1e-2, seed=3)
            lam_d, lam_g = per_probe_eigencheck(bank[(idx.h, idx.m)], x0, 8, 1e-2, 3)
            # relative, against 1 at the zero eigenvalues
            assert abs(rep.lambda_delta_est - lam_d) <= 1e-9 * max(abs(lam_d), 1.0), idx
            assert abs(rep.lambda_gamma_est - lam_g) <= 1e-9 * max(abs(lam_g), 1.0), idx

    @pytest.mark.parametrize("n", [2, 3])
    def test_section_evaluated_three_times_per_index(self, bank8, bank_n3, n):
        bank = bank8 if n == 2 else bank_n3
        x0 = unit_point(sphere_samples(n, 1, [3, 61])[0])
        for idx in index_range(n, 6):
            ck, calls = bank[(idx.h, idx.m)], []

            class Counted:
                index, c = ck.index, ck.c

                def section(self, pt):
                    f = ck.section(pt)
                    return lambda pts: calls.append(pts.shape) or f(pts)

            rep = eigencheck(Counted(), x0, probes=8, seed=3)
            # the pool, then one stencil per operator
            assert len(calls) <= 3, (idx, calls)
            assert calls[0] == (128, 4 * n) and rep.probes_used == 8

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("op", [gamma_apply, laplace_beltrami_apply])
    def test_array_and_point_forms_agree(self, n, op):
        # a batch of points against each point as a one-row array; f is
        # evaluated entry by entry, so only the stencil arithmetic can differ
        f = lambda pts: pts[..., 0] ** 3 * pts[..., 5] - 2.0 * pts[..., 3] * pts[..., 6] ** 2 + pts[..., 1]
        points = sphere_samples(n, 6, [4, 63])
        for step in (1e-2, 3e-2):
            batched = op(f, points, step)
            single = np.array([op(f, p[None], step)[0] for p in points])
            assert batched.shape == (6,)
            assert np.max(np.abs(batched - single)) <= 1e-12 * max(1.0, np.max(np.abs(single)))


class TestL1L2:
    def test_example_values(self):
        assert l1_l2_identity(5, 1, 2) == (5.0, 3.0)
        assert l1_l2_identity(0, 0, 3) == (0.0, 0.0)

    def test_exhaustive_exactness(self):
        worst = 0.0
        for n in range(2, 6):
            for h in range(101):
                for m in range(h // 2 + 1):
                    first, second = l1_l2_identity(h, m, n)
                    worst = max(worst, abs(first - h), abs(second - (h - 2 * m)))
        assert worst <= 1e-12

    def test_arrays_match_scalars(self):
        h = np.array([0, 5, 7, 100, 100])
        m = np.array([0, 1, 3, 0, 50])
        first, second = l1_l2_identity(h, m, 4)
        for i in range(len(h)):
            assert (first[i], second[i]) == l1_l2_identity(int(h[i]), int(m[i]), 4)
        assert np.array_equal(first, h) and np.array_equal(second, h - 2 * m)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            l1_l2_identity(1, 1, 2)
        with pytest.raises(ValueError):
            l1_l2_identity(np.array([2, 1]), np.array([1, 1]), 2)
