import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from quatsphere import JacobiParams, cheb_u_scaled, jacobi_eval
from quatsphere.ortho_poly import cheb_ladder, jacobi_ladder


def _gen_binom(z: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (z - k + i) / i
    return out


def abs_cheb_rungs(k: int, a: float, s: float) -> list[float]:
    """W-hat_0..W-hat_k: the W recurrence on absolute values, 2|a| W-hat_{i-1} + s W-hat_{i-2}.

    W-hat_i bounds the terms the W recurrence adds up to rung i, and
    W-hat_{k-i} bounds how an error made at rung i grows by rung k.
    """
    rungs = [1.0, 2.0 * abs(a)]
    for _ in range(k - 1):
        rungs.append(2.0 * abs(a) * rungs[-1] + s * rungs[-2])
    return rungs[: k + 1]


def homogeneity_bound(k: int, a: float, s: float, lam: float) -> float:
    """Running rounding-error bound on |W_k(lam a, lam^2 s) - lam^k W_k(a, s)|.

    (k + 2) u (W-hat_k(lam a, lam^2 s) + lam^k W-hat_k(a, s)), u the unit
    roundoff.  Gradual underflow errs by up to the smallest subnormal eta
    absolute rather than u relative; an eta made at any rung grows by at most
    the W-hat of the rungs left, hence the eta term, which matters only for
    subnormal a or lam a.
    """
    u = np.finfo(np.float64).eps / 2
    eta = np.finfo(np.float64).smallest_subnormal
    lhs = abs_cheb_rungs(k, lam * a, lam * lam * s)
    rhs = abs_cheb_rungs(k, a, s)
    return (k + 2) * (u * (lhs[-1] + lam**k * rhs[-1]) + eta * (sum(lhs) + lam**k * sum(rhs)))


def jacobi_series(alpha: float, beta: float, m: int, x: float) -> float:
    """Independent oracle: finite hypergeometric-form sum."""
    return sum(
        _gen_binom(m + alpha, m - s) * _gen_binom(m + beta, s) * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (m - s)
        for s in range(m + 1)
    )


class TestJacobi:
    def test_degree_zero(self):
        for x in (-1.0, -0.3, 0.0, 1.0):
            assert jacobi_eval(JacobiParams(1.0, 2.0, 0), x) == 1.0

    def test_degree_one_at_one(self):
        # P_1^{(a,b)}(1) = a + 1
        for alpha in (0.5, 1.0, 3.0):
            assert abs(jacobi_eval(JacobiParams(alpha, 2.0, 1), 1.0) - (alpha + 1)) <= 1e-14

    def test_against_series_oracle(self):
        val = jacobi_eval(JacobiParams(1.0, 2.0, 5), 0.3)
        assert abs(val - jacobi_series(1.0, 2.0, 5, 0.3)) <= 1e-10

    @given(
        st.floats(-0.9, 4.0),
        st.floats(-0.9, 4.0),
        st.integers(0, 12),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_series_and_scipy(self, alpha, beta, m, x):
        val = jacobi_eval(JacobiParams(alpha, beta, m), x)
        oracle = jacobi_series(alpha, beta, m, x)
        scale = max(1.0, abs(oracle))
        assert abs(val - oracle) <= 1e-9 * scale
        assert abs(val - special.eval_jacobi(m, alpha, beta, x)) <= 1e-8 * scale

    @given(st.floats(-0.9, 4.0), st.floats(-0.9, 4.0), st.integers(1, 20), st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_three_term_recurrence_residual(self, alpha, beta, m, x):
        k = m + 1
        apb = alpha + beta
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c2 = (2.0 * k + apb - 1.0) * (alpha**2 - beta**2)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        p_next = jacobi_eval(JacobiParams(alpha, beta, m + 1), x)
        p = jacobi_eval(JacobiParams(alpha, beta, m), x)
        p_prev = jacobi_eval(JacobiParams(alpha, beta, m - 1), x)
        residual = c1 * p_next - (c2 + c3 * x) * p + c4 * p_prev
        assert abs(residual) <= 1e-10 * max(1.0, abs(c1 * p_next))

    def test_domain_and_params_validated(self):
        with pytest.raises(ValueError):
            jacobi_eval(JacobiParams(1.0, 1.0, 2), 1.1)
        with pytest.raises(ValueError):
            JacobiParams(-1.5, 0.0, 2)
        with pytest.raises(ValueError):
            JacobiParams(1.0, 0.0, -1)
        # 1e-12 overshoot from rounded inner products is tolerated
        assert jacobi_eval(JacobiParams(1.0, 1.0, 2), 1.0 + 5e-13) == jacobi_eval(
            JacobiParams(1.0, 1.0, 2), 1.0
        )

    def test_vectorized(self):
        xs = np.linspace(-1, 1, 7)
        vals = jacobi_eval(JacobiParams(1.0, 2.0, 3), xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert abs(v - jacobi_eval(JacobiParams(1.0, 2.0, 3), float(x))) <= 1e-14


class TestChebUScaled:
    def test_w2_expansion(self):
        for a, s in [(0.3, 0.5), (-0.7, 0.9), (0.0, 1.0)]:
            assert abs(cheb_u_scaled(2, a, s) - (4 * a * a - s)) <= 1e-14

    def test_unit_circle_closed_form(self):
        # U_3(1/2) = 8/8 - 4/2 = -1
        assert abs(cheb_u_scaled(3, 0.5, 1.0) - (-1.0)) <= 1e-12
        for k in range(0, 11):
            for a in np.linspace(-0.99, 0.99, 21):
                theta = math.acos(a)
                closed = math.sin((k + 1) * theta) / math.sin(theta)
                assert abs(cheb_u_scaled(k, float(a), 1.0) - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_degenerate_inner_product(self):
        for k in range(1, 8):
            assert cheb_u_scaled(k, 0.0, 0.0) == 0.0
        assert cheb_u_scaled(0, 0.0, 0.0) == 1.0

    def test_matches_scipy_chebyu(self):
        for k in range(9):
            for a in np.linspace(-0.95, 0.95, 11):
                assert abs(cheb_u_scaled(k, float(a), 1.0) - special.eval_chebyu(k, a)) <= 1e-10

    @given(
        st.integers(0, 15),
        st.floats(-1.0, 1.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, k, a_frac, lam):
        # W_k(la, l^2 s) = l^k W_k(a, s); pick s >= a^2 by construction
        s = 1.0
        a = a_frac
        lhs = cheb_u_scaled(k, lam * a, lam * lam * s)
        rhs = lam**k * cheb_u_scaled(k, a, s)
        assert abs(lhs - rhs) <= homogeneity_bound(k, a, s, lam)

    @pytest.mark.parametrize("k", range(2, 16))
    @pytest.mark.parametrize("which", ["a", "s"])
    def test_homogeneity_bound_fails_a_perturbed_ladder(self, k, which):
        # the ladder's coefficient 2a or s perturbed by 1e-12 relative, on the
        # left-hand side only: the running-error bound must reject it
        a, s, lam = 0.3, 1.0, 3.0
        rel = 1.0 + 1e-12
        la, ls = (lam * a * rel, lam * lam * s) if which == "a" else (lam * a, lam * lam * s * rel)
        lhs = [float(w) for _, w in zip(range(k + 1), cheb_ladder(np.array(la), np.array(ls)))][-1]
        rhs = lam**k * cheb_u_scaled(k, a, s)
        assert abs(lhs - rhs) > homogeneity_bound(k, a, s, lam)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            cheb_u_scaled(2, 1.0, 0.5)
        with pytest.raises(ValueError):
            cheb_u_scaled(2, 0.0, -0.5)
        with pytest.raises(ValueError):
            cheb_u_scaled(-1, 0.0, 1.0)


def ladder_buffers(shape, count: int) -> list:
    """A ladder's `out`: the shared all-ones array, then count - 1 arrays of garbage."""
    return [np.ones(shape)] + [np.full(shape, np.nan) for _ in range(count - 1)]


def allocating_cheb_rungs(a, s, k_max: int) -> list:
    """W_0..W_k_max by the recurrence written with fresh temporaries (the reference)."""
    rungs = [np.ones_like(a), 2.0 * a]
    while len(rungs) <= k_max:
        rungs.append(2.0 * a * rungs[-1] - s * rungs[-2])
    return rungs[: k_max + 1]


def allocating_jacobi_rungs(alpha, beta, x, m_max: int) -> list:
    """P_0..P_m_max by the recurrence written with fresh temporaries (the reference)."""
    apb = alpha + beta
    rungs = [np.ones_like(x), 0.5 * (alpha - beta + (apb + 2.0) * x)]
    for k in range(2, m_max + 1):
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c2 = (2.0 * k + apb - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        rungs.append(((c2 + c3 * x) * rungs[-1] - c4 * rungs[-2]) / c1)
    return rungs[: m_max + 1]


class TestLadderContract:
    """The ladders write rungs into rotating buffers, with the bits of the recurrence on fresh temporaries."""

    @pytest.fixture(scope="class")
    def invariants(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 1.0, (7, 9))
        a = np.sqrt(s) * rng.uniform(-1.0, 1.0, s.shape)
        return a, s

    @pytest.mark.parametrize("own_buffers", [False, True])
    def test_cheb_rungs_equal_pointwise_bit_for_bit(self, invariants, own_buffers):
        a, s = invariants
        out = ladder_buffers(a.shape, 5) if own_buffers else None
        reference = allocating_cheb_rungs(a, s, 32)
        for k, w in zip(range(33), cheb_ladder(a, s, out=out)):
            assert np.array_equal(w, reference[k])
            assert np.array_equal(w, cheb_u_scaled(k, a, s))

    @pytest.mark.parametrize("own_buffers", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_jacobi_rungs_equal_pointwise_bit_for_bit(self, invariants, own_buffers, n):
        _, s = invariants
        x = 2.0 * s - 1.0
        for k in range(9):
            out = ladder_buffers(x.shape, 4) if own_buffers else None
            reference = allocating_jacobi_rungs(2 * n - 3, k + 1.0, x, 32)
            for m, p in zip(range(33), jacobi_ladder(2 * n - 3, k + 1.0, x, out=out)):
                assert np.array_equal(p, reference[m])
                assert np.array_equal(p, jacobi_eval(JacobiParams(2 * n - 3, k + 1, m), x))

    def test_caller_buffers_hold_the_rungs(self, invariants):
        a, s = invariants
        out = ladder_buffers(a.shape, 5)
        for _, w in zip(range(6), cheb_ladder(a, s, out=out)):
            assert any(w is b for b in out)
        x = 2.0 * s - 1.0
        out = ladder_buffers(x.shape, 4)
        for _, p in zip(range(6), jacobi_ladder(1, 3.0, x, out=out)):
            assert any(p is b for b in out)
        # the shared ones are read, never written
        assert np.array_equal(out[0], np.ones(x.shape))

    def test_two_a_may_overwrite_a(self, invariants):
        a, s = invariants
        reference = allocating_cheb_rungs(a, s, 8)
        own = a.copy()
        out = ladder_buffers(a.shape, 5)
        out[1] = own
        for k, w in zip(range(9), cheb_ladder(own, s, out=out)):
            assert np.array_equal(w, reference[k])
        assert np.array_equal(own, 2.0 * a)

    def test_successive_calls_return_distinct_arrays(self, invariants):
        a, s = invariants
        first = cheb_u_scaled(5, a, s)
        kept = first.copy()
        second = cheb_u_scaled(5, a, s)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        x = 2.0 * s - 1.0
        p1 = jacobi_eval(JacobiParams(1, 2, 4), x)
        p2 = jacobi_eval(JacobiParams(1, 2, 4), x)
        assert not np.shares_memory(p1, p2)

    def test_scalar_input_returns_float(self):
        for k in (0, 1, 5):
            assert type(cheb_u_scaled(k, 0.3, 0.5)) is float
            assert type(jacobi_eval(JacobiParams(1, 2, k), 0.3)) is float

