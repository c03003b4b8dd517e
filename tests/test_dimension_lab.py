import math
import tracemalloc

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
from quatsphere import dimension_lab
from quatsphere.dimension_lab import _TAG_ORBIT, _pair_counts, _sq_distance_blocks
from quatsphere.quat_core import seeded_rng, sphere_samples

from .oracles import left_mul


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
        ref = np.stack([left_mul(x0.vec, row) for row in g])
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


def full_matrix_pair_counts(points, weights, ref_idx, ref_w, edges, uniform):
    """Reference: one distance matrix over every reference pair, all of it histogrammed."""
    sq = np.sum(points * points, axis=1)
    d2 = sq[ref_idx][:, None] + sq[None, :] - 2.0 * (points[ref_idx] @ points.T)
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(len(ref_idx)), ref_idx] = np.inf
    wprod = None if uniform else ref_w[:, None] * weights[None, :]
    return np.cumsum(np.histogram(d2, bins=edges * edges, weights=wprod)[0])


class TestPairCounts:
    @staticmethod
    def duplicated_atoms():
        # 60 atoms twice over; their squared distances round to either side of 0
        pts = gen_uniform(2, 400, seed=3).points
        pts = np.concatenate([pts, pts[:60]])
        w = 1.0 + 0.5 * np.sin(np.arange(len(pts)))
        return pts, w / w.sum()

    def test_duplicates_round_below_zero(self):
        pts, _ = self.duplicated_atoms()
        d2 = np.concatenate([d2 for _, _, d2 in _sq_distance_blocks(pts, np.arange(len(pts)))])
        assert np.min(d2[np.arange(60), np.arange(400, 460)]) < 0.0

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("thinned", [False, True])
    def test_counts_match_full_matrix_histogram(self, uniform, thinned):
        pts, w = self.duplicated_atoms()
        if thinned:
            ref_idx = np.sort(np.random.default_rng(1).choice(len(pts), size=300, replace=True, p=w))
            ref_w = np.full(300, 1.0 / 300)
        else:
            ref_idx, ref_w = np.arange(len(pts)), w
        edges = np.concatenate([[0.0], np.geomspace(0.05, 0.6, 12)])
        got = _pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        want = full_matrix_pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        assert want[0] > 0  # the coincident pairs land in the first bin
        if uniform:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_pairs_on_edges(self):
        # squared distances 1, 4 and 9 fall exactly on the squared edges
        pts = np.zeros((3, 8))
        pts[1, 0], pts[2, 0] = 1.0, 3.0
        ref_idx, w = np.arange(3), np.full(3, 1.0 / 3)
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        got = _pair_counts(pts, w, ref_idx, w, edges, True)
        assert np.array_equal(got, [0, 2, 6])
        assert np.array_equal(got, full_matrix_pair_counts(pts, w, ref_idx, w, edges, True))

    @pytest.mark.parametrize("block", [1000, 4_000_000])
    def test_block_size_is_invisible(self, block, monkeypatch):
        mu0 = gen_subsphere(2, 1, 5_000, seed=10)
        w = 1.0 + 0.5 * np.sin(np.arange(5_000))
        fixtures = [gen_uniform(2, 310, seed=11), mu0, DiscreteMeasure(mu0.points, w / w.sum())]
        want = [correlation_dimension(mu, seed=4).s_hat for mu in fixtures]
        # 1000 gives 3-row blocks with a ragged last block at 310 atoms, one row at 5000
        monkeypatch.setattr(dimension_lab, "_DISTANCE_BLOCK", block)
        got = [correlation_dimension(mu, seed=4).s_hat for mu in fixtures]
        assert got == pytest.approx(want, rel=1e-12)

    def test_column_tiles_are_invisible(self, monkeypatch):
        mu = gen_uniform(2, 3_000, seed=12)
        want = correlation_dimension(mu, seed=4)
        e_want = s_energy(mu, 3.0)
        monkeypatch.setattr(dimension_lab, "_DISTANCE_TILE", 700)  # five tiles of 600 atoms
        got = correlation_dimension(mu, seed=4)
        assert got.c_values == want.c_values and got.s_hat == want.s_hat
        assert s_energy(mu, 3.0) == pytest.approx(e_want, rel=1e-12)

    def test_memory_stays_cache_sized(self):
        tracemalloc.start()
        try:
            correlation_dimension(gen_uniform(2, 20_000, 21), seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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
