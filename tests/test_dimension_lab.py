import math

import numpy as np
import pytest

from quatsphere import (
    DiscreteMeasure,
    SpherePoint,
    correlation_dimension,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    s_energy,
    theorem_consistency_report,
)
from quatsphere.dimension_lab import _TAG_ORBIT
from quatsphere.quat_core import Quaternion, left_mul_points, seeded_rng, sphere_samples


class TestGenerators:
    def test_subsphere_support(self):
        mu = gen_subsphere(2, 1, 500, seed=1)
        assert np.max(np.abs(mu.points[:, 4:])) == 0.0
        assert np.max(np.abs(np.linalg.norm(mu.points, axis=1) - 1.0)) <= 1e-12
        with pytest.raises(ValueError):
            gen_subsphere(2, 3, 10, seed=1)

    def test_subsphere_full_k_is_whole_sphere(self):
        mu = gen_subsphere(2, 2, 200, seed=2)
        assert np.min(np.max(np.abs(mu.points[:, 4:]), axis=1)) > 0.0

    def test_orbit_preserves_inner_product_magnitude(self, x0):
        mu = gen_sp1_orbit(x0, 300, seed=3)
        from quatsphere.quat_core import pair_invariants

        _, s = pair_invariants(x0.vec, mu.points)
        assert np.max(np.abs(s - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_orbit_matches_per_atom_products(self, n, seed):
        # the batched Hamilton product against one left multiplication per atom
        x0 = SpherePoint(sphere_samples(n, 1, [seed, 3])[0])
        g = seeded_rng(seed, _TAG_ORBIT).standard_normal((500, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        ref = np.stack([left_mul_points(x0.vec, Quaternion(*row)) for row in g])
        assert np.array_equal(gen_sp1_orbit(x0, 500, seed).points, DiscreteMeasure(ref, np.ones(500)).points)

    def test_uniform_mean_near_zero(self):
        mu = gen_uniform(2, 200_000, seed=4)
        assert np.max(np.abs(mu.points.mean(axis=0))) <= 3.0 / math.sqrt(200_000)

    def test_point_mass(self, x0):
        mu = gen_point_mass(x0)
        assert mu.natoms == 1 and mu.weights[0] == 1.0


class TestCorrelationDimension:
    def test_point_mass_is_zero_exactly(self, x0):
        est = correlation_dimension(gen_point_mass(x0))
        assert est.s_hat == 0.0 and est.degenerate

    def test_replicated_point_mass(self, x0):
        pts = np.tile(x0.vec, (500, 1))
        est = correlation_dimension(DiscreteMeasure(pts, np.full(500, 1 / 500)))
        assert est.s_hat == 0.0 and est.degenerate

    def test_small_sphere_estimate(self):
        # quick sanity at modest sample size; the acceptance suite runs 1e5
        est = correlation_dimension(gen_sp1_orbit(SpherePoint.basis(2), 20_000, seed=5), seed=1)
        assert abs(est.s_hat - 3.0) <= 0.4

    def test_subsphere_estimate(self):
        est = correlation_dimension(gen_subsphere(2, 1, 20_000, seed=6), seed=1)
        assert abs(est.s_hat - 3.0) <= 0.4

    def test_permutation_invariance_exact(self):
        mu = gen_uniform(2, 1500, seed=7)
        est1 = correlation_dimension(mu, seed=2)
        perm = np.random.default_rng(0).permutation(1500)
        est2 = correlation_dimension(DiscreteMeasure(mu.points[perm], mu.weights[perm]), seed=2)
        assert est1.s_hat == est2.s_hat

    def test_rejects_signed_measures(self):
        mu = gen_uniform(2, 100, seed=8).scaled(-1.0)
        with pytest.raises(ValueError):
            correlation_dimension(mu)

    def test_explicit_grid(self):
        mu = gen_subsphere(2, 1, 5_000, seed=9)
        est = correlation_dimension(mu, r_grid=np.geomspace(0.15, 0.5, 10), seed=3)
        assert abs(est.s_hat - 3.0) <= 0.5
        assert len(est.r_values) == 10

    def test_weighted_estimator(self):
        mu0 = gen_subsphere(2, 1, 8_000, seed=10)
        # non-uniform but comparable weights should not move the slope much
        w = 1.0 + 0.5 * np.sin(np.arange(8_000))
        mu = DiscreteMeasure(mu0.points, w / w.sum())
        est = correlation_dimension(mu, seed=4)
        assert abs(est.s_hat - 3.0) <= 0.5


class TestSEnergy:
    def test_antipodal_pair(self):
        v = np.zeros(8)
        v[0] = 1.0
        mu = DiscreteMeasure(np.stack([v, -v]), np.array([0.5, 0.5]))
        assert s_energy(mu, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_refinement_bounded_below_dimension(self):
        e_small = s_energy(gen_uniform(2, 1_000, seed=31), 3.0)
        e_big = s_energy(gen_uniform(2, 10_000, seed=31), 3.0)
        assert 1 / 3 <= e_big / e_small <= 3.0

    def test_refinement_grows_above_dimension(self):
        e_small = s_energy(gen_uniform(2, 1_000, seed=31), 7.5)
        e_big = s_energy(gen_uniform(2, 10_000, seed=31), 7.5)
        assert e_big > 1.5 * e_small

    def test_validation(self):
        mu = gen_uniform(2, 10, seed=1)
        with pytest.raises(ValueError):
            s_energy(mu, 0.0)
        with pytest.raises(ValueError):
            s_energy(mu.scaled(-1.0), 2.0)


class TestConsistencyReport:
    def test_uniform_is_plausible_and_consistent(self, bank8):
        mu = gen_uniform(2, 20_000, seed=41)
        rep = theorem_consistency_report(mu, bank8, 0.1, 8, seed=5)
        assert rep.cone_condition_plausible
        assert rep.dim_estimate.s_hat >= rep.bound_4n_minus_4
        assert rep.consistent

    def test_point_mass_contrapositive(self, bank8, x0):
        rep = theorem_consistency_report(gen_point_mass(x0), bank8, 0.1, 8, seed=5)
        assert not rep.cone_condition_plausible
        assert any(h >= 4 for h, _ in rep.flagged_in_cone)
        assert rep.consistent

    def test_orbit_contrapositive(self, bank8, x0):
        rep = theorem_consistency_report(gen_sp1_orbit(x0, 20_000, seed=42), bank8, 0.1, 8, seed=5)
        assert not rep.cone_condition_plausible
        assert rep.dim_estimate.s_hat < rep.bound_4n_minus_4
        assert rep.consistent

    def test_rejects_signed(self, bank8):
        mu = gen_uniform(2, 100, seed=43).scaled(-1.0)
        with pytest.raises(ValueError):
            theorem_consistency_report(mu, bank8, 0.1, 4, seed=5)

    def test_json_fields(self, bank8, x0):
        rep = theorem_consistency_report(gen_point_mass(x0), bank8, 0.1, 4, seed=5)
        d = rep.to_json_dict()
        for key in ("cone_condition_plausible", "dim_estimate", "bound_4n_minus_4", "consistent"):
            assert key in d
