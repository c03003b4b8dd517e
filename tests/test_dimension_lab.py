import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from quatsphere import (
    DiscreteMeasure,
    correlation_dimension,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    s_energy,
    theorem_consistency_report,
)
from quatsphere import dimension_lab
from quatsphere.dimension_lab import (
    _TAG_ORBIT,
    _farthest_axis,
    _gram_tiles,
    _max_sq_distance,
    _nearest_sq_distances,
    _pair_counts,
)
from quatsphere.quat_core import _left_mul_matrix, seeded_rng, sphere_samples, unit_point

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

        _, s = pair_invariants(x0, mu.points)
        assert np.max(np.abs(s - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_orbit_matches_per_atom_products(self, n, seed):
        # the batched Hamilton product against one left multiplication per atom
        x0 = unit_point(sphere_samples(n, 1, [seed, 3])[0])
        g = seeded_rng(seed, _TAG_ORBIT).standard_normal((500, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        ref = np.stack([left_mul(x0, row) for row in g])
        assert np.array_equal(gen_sp1_orbit(x0, 500, seed).points, DiscreteMeasure(ref, np.ones(500)).points)

    def test_orbit_stacks_do_not_show(self):
        # 4500 atoms make three stacks of products, the last one ragged; each atom keeps
        # the bits of one batched product over all of them
        x0 = unit_point(sphere_samples(3, 1, [5, 3])[0])
        g = seeded_rng(5, _TAG_ORBIT).standard_normal((4500, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        mats = _left_mul_matrix(*g.T).transpose(2, 0, 1)
        want = DiscreteMeasure((x0.reshape(-1, 4) @ mats.transpose(0, 2, 1)).reshape(4500, -1), np.ones(4500))
        assert gen_sp1_orbit(x0, 4500, 5).points.tobytes() == want.points.tobytes()

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
        pts = np.tile(x0, (500, 1))
        est = correlation_dimension(DiscreteMeasure(pts, np.full(500, 1 / 500)))
        assert est.s_hat == 0.0 and est.degenerate

    def test_small_sphere_estimate(self):
        # quick sanity at modest sample size; the acceptance suite runs 1e5
        est = correlation_dimension(gen_sp1_orbit(np.eye(8)[0], 20_000, seed=5), seed=1)
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

    def test_weight_scale_is_invisible(self, x0):
        # unequal weights far below 1e-8 still take the weighted path
        mu = DiscreteMeasure.combine(gen_sp1_orbit(x0, 3000, 1), gen_uniform(2, 3000, 2).scaled(0.05))
        est = correlation_dimension(mu, seed=1)
        for scale in (1e-6, 1e-9):
            assert correlation_dimension(mu.scaled(scale), seed=1).s_hat == pytest.approx(est.s_hat, rel=1e-12)

    def test_rejects_signed_measures(self):
        mu = gen_uniform(2, 100, seed=8).scaled(-1.0)
        with pytest.raises(ValueError):
            correlation_dimension(mu)

    def test_benchmark_fixtures_are_pinned(self):
        # the criterion 7 fixtures at 10 000 atoms, seed 1, as a walk of every reference row
        # against every atom computes them
        pinned = json.loads((Path(__file__).parent / "data" / "dimension_fixtures_seed1.json").read_text())
        x0 = unit_point(sphere_samples(2, 1, [1, 71])[0])
        fixtures = {
            "uniform": gen_uniform(2, 10_000, 1),
            "sp1-orbit": gen_sp1_orbit(x0, 10_000, 1),
            "subsphere:1": gen_subsphere(2, 1, 10_000, 1),
        }
        for name, mu in fixtures.items():
            est = correlation_dimension(mu, seed=1)
            want = pinned[name]
            assert list(est.c_values) == want["c_values"], name
            assert list(est.r_values) == want["r_values"], name
            assert (est.s_hat, est.residual) == (want["s_hat"], want["residual"]), name

    def test_one_dominant_weight(self):
        # every draw is atom 7: the walk has one distinct reference
        mu0 = gen_subsphere(2, 1, 5_000, seed=13)
        w = np.full(5_000, 1e-30)
        w[7] = 1.0
        est = correlation_dimension(DiscreteMeasure(mu0.points, w), seed=4)
        assert not est.degenerate
        edges = np.concatenate([[0.0], est.r_values])
        # two rows of atom 7 stand for its 4096 draws
        want = full_matrix_pair_counts(mu0.points, w / w.sum(), np.array([7, 7]), np.array([0.5, 0.5]), edges, False)
        np.testing.assert_allclose(est.c_values, want, rtol=1e-12, atol=0.0)

    def test_duplicated_atoms(self):
        # every atom twice: the median nearest-neighbour distance is 0, and the fit window
        # starts at r_hi / 16 as when it would start past r_hi
        pts = gen_uniform(2, 300, seed=3).points
        mu = DiscreteMeasure(np.concatenate([pts, pts]), np.full(600, 1.0 / 600))
        est = correlation_dimension(mu, seed=1)
        assert not est.degenerate
        assert est.r_min == est.r_max / 16.0 > 0.0
        edges = np.concatenate([[0.0], est.r_values])
        want = full_matrix_pair_counts(mu.points, mu.weights, np.arange(600), mu.weights, edges, True)
        assert np.array_equal(est.c_values, want)

    def test_weighted_estimator(self):
        mu0 = gen_subsphere(2, 1, 8_000, seed=10)
        # non-uniform but comparable weights should not move the slope much
        w = 1.0 + 0.5 * np.sin(np.arange(8_000))
        mu = DiscreteMeasure(mu0.points, w / w.sum())
        est = correlation_dimension(mu, seed=4)
        assert abs(est.s_hat - 3.0) <= 0.5


def full_matrix_sq_distances(points, rows):
    """Reference: squared distances from points[rows] to every atom in one product; self-pairs read inf.

    The product's columns are padded to whole lanes, as the walk's are: OpenBLAS computes
    the last ncols % 8 columns of a large product with a kernel that rounds differently.
    """
    padded = np.concatenate([points, np.zeros((-len(points) % dimension_lab._LANE, points.shape[1]))])
    sq = np.sum(points * points, axis=1)
    d2 = sq[rows][:, None] + sq[None, :] - 2.0 * (points[rows] @ padded.T)[:, : len(points)]
    d2[np.arange(len(rows)), rows] = np.inf
    return d2


def full_matrix_pair_counts(points, weights, ref_idx, ref_w, edges, uniform):
    """Reference: one distance matrix over every reference pair, all of it histogrammed."""
    d2 = np.maximum(full_matrix_sq_distances(points, ref_idx), 0.0)
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
        sq = np.sum(pts * pts, axis=1)
        d2 = np.concatenate([np.add.outer(sq[r0 : r0 + len(g)], sq) - g for r0, _, g in _gram_tiles(pts, pts)])
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

    @pytest.mark.parametrize("uniform", [True, False])
    def test_one_distinct_reference(self, uniform):
        # a lone reference row walks with a zero-weight partner, so its products stay GEMMs:
        # edges on its exact squared distances catch a matrix-vector product's rounding
        pts, w = self.duplicated_atoms()
        ref_idx, ref_w = np.full(300, 410), np.full(300, 1.0 / 300)
        d2 = np.sort(full_matrix_sq_distances(pts, ref_idx[:2])[0])
        d2 = d2[(d2 > 0.0) & (d2 < np.inf)]
        r = np.sqrt(d2)
        edges = np.concatenate([[0.0], r[r * r == d2]])
        got = _pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        want = full_matrix_pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        assert want[0] > 0  # atom 410 has a duplicate
        if uniform:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("thinned", [False, True])
    def test_probes_match_full_matrix(self, thinned, block, scaled, monkeypatch):
        pts, w = self.duplicated_atoms()
        if scaled:
            # norms from 0.5 to 1.5: an atom's nearest neighbour need not have its largest Gram value
            pts = pts * (1.0 + 0.5 * np.sin(np.arange(len(pts)) % 400))[:, None]
        rows = np.arange(len(pts))
        if thinned:
            rows = np.sort(np.random.default_rng(2).choice(len(pts), size=300, replace=True, p=w))
        if block:
            # 8-row blocks against tiles of 96 columns
            monkeypatch.setattr(dimension_lab, "_DISTANCE_BLOCK", block)
            monkeypatch.setattr(dimension_lab, "_DISTANCE_TILE", 100)
        d2 = full_matrix_sq_distances(pts, rows)
        nn = _nearest_sq_distances(pts, rows)
        assert np.array_equal(nn, d2.min(axis=1))
        assert np.min(nn) < 0.0  # a duplicated atom's squared distance rounds below 0
        assert _max_sq_distance(pts, rows) == np.max(d2, where=d2 < np.inf, initial=0.0)

    def test_pair_on_the_last_edge_below_the_bare_threshold(self):
        # 256 sign flips of one vector share its squared norm, so 2 min(sq) - t bounds every
        # pair's Gram value tightly; a pair whose d2 rounds down onto the last edge t can have
        # its Gram value below that bound, and only the rounding margin keeps it
        x = np.random.default_rng(0).standard_normal(8)
        pts = np.array(list(itertools.product([1.0, -1.0], repeat=8))) * x
        sq = np.sum(pts * pts, axis=1)
        g = (2.0 * pts) @ pts.T
        d2 = (sq[:, None] + sq[None, :]) - g
        d2 = d2[g < 2.0 * sq[0] - d2]
        edge = d2[np.sqrt(d2) ** 2 == d2]
        assert len(edge) > 0
        w = np.full(256, 1.0 / 256)
        edges = np.array([0.0, math.sqrt(edge.max()) / 2, math.sqrt(edge.max())])
        got = _pair_counts(pts, w, np.arange(256), w, edges, True)
        assert np.array_equal(got, full_matrix_pair_counts(pts, w, np.arange(256), w, edges, True))

    def test_zero_radius(self):
        # with a first radius of 0, bin 0 holds nothing: d2 below 0 is clipped to 0, as np.histogram sees it
        pts, w = self.duplicated_atoms()
        ref_idx, edges = np.arange(len(pts)), np.array([0.0, 0.0, 0.1, 0.3])
        got = _pair_counts(pts, w, ref_idx, w, edges, True)
        want = full_matrix_pair_counts(pts, w, ref_idx, w, edges, True)
        assert want[0] == 0 and want[1] > 0
        assert np.array_equal(got, want)

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
        # 1000 gives 8-row blocks (14 in the last at 310 atoms), 4e6 one block
        monkeypatch.setattr(dimension_lab, "_DISTANCE_BLOCK", block)
        got = [correlation_dimension(mu, seed=4).s_hat for mu in fixtures]
        assert got == pytest.approx(want, rel=1e-12)

    def test_column_tiles_are_invisible(self, monkeypatch):
        mu = gen_uniform(2, 3_000, seed=12)
        want = correlation_dimension(mu, seed=4)
        e_want = s_energy(mu, 3.0)
        monkeypatch.setattr(dimension_lab, "_DISTANCE_TILE", 700)  # tiles of 696 columns in place of 1024
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

    def test_memory_of_the_benchmark_fixtures(self):
        # the criterion 7 fixtures at 10 000 atoms, seed 0: the tracemalloc peaks, in bytes,
        # of a walk over every (reference, atom) pair, after a small warm-up call (the first
        # call of a process allocates about 1 MiB more, once)
        bounds = {"uniform": 2_448_352, "sp1-orbit": 2_589_454, "subsphere:1": 2_588_970}
        x0 = unit_point(sphere_samples(2, 1, [0, 71])[0])
        fixtures = {
            "uniform": gen_uniform(2, 10_000, 0),
            "sp1-orbit": gen_sp1_orbit(x0, 10_000, 0),
            "subsphere:1": gen_subsphere(2, 1, 10_000, 0),
        }
        correlation_dimension(gen_uniform(2, 100, 1), seed=1)
        peaks = {}
        for name, mu in fixtures.items():
            tracemalloc.start()
            try:
                correlation_dimension(mu, seed=0)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(peaks[name] <= bound for name, bound in bounds.items()), peaks


class TestBandWalk:
    """The pair walk visits only atoms within reach along an axis through the references."""

    @staticmethod
    def check(pts, w, ref_idx, ref_w, edges, uniform):
        got = _pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        want = full_matrix_pair_counts(pts, w, ref_idx, ref_w, edges, uniform)
        assert want[-1] > 0
        if uniform:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_lone_reference(self, uniform):
        pts = gen_subsphere(2, 2, 3_000, seed=14).points
        w = 1.0 + 0.5 * np.cos(np.arange(3_000))
        w /= w.sum()
        edges = np.concatenate([[0.0], np.geomspace(0.05, 0.8, 10)])
        self.check(pts, w, np.full(50, 1234), np.full(50, 1.0 / 50), edges, uniform)

    @pytest.mark.parametrize("extra", range(1, 8))
    def test_references_past_a_whole_lane(self, extra):
        # 16 + extra distinct references and every atom within reach: the lane-widened
        # spans of the references and of the other atoms overlap, and must be merged
        pts = gen_uniform(2, 700, seed=15).points
        w = np.full(700, 1.0 / 700)
        ref_idx = np.sort(np.random.default_rng(extra).choice(700, size=16 + extra, replace=False))
        edges = np.array([0.0, 0.5, 1.0, 2.5])
        self.check(pts, w, ref_idx, np.full(16 + extra, 1.0 / (16 + extra)), edges, True)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_references_without_scatter(self, uniform):
        # two distinct reference atoms at one point: no axis to take, and no warning
        pts, w = TestPairCounts.duplicated_atoms()
        ref_idx = np.array([5, 405, 405, 5, 5])
        edges = np.concatenate([[0.0], np.geomspace(0.05, 0.6, 12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(pts, w, ref_idx, np.full(5, 0.2), edges, uniform)
        assert np.array_equal(_farthest_axis(pts[[5, 405]]), np.eye(8)[0])

    @pytest.mark.parametrize("thinned", [False, True])
    def test_unequal_weights(self, thinned):
        pts = gen_sp1_orbit(unit_point(np.arange(1.0, 9.0)), 2_500, seed=16).points
        w = 1.0 + 0.5 * np.sin(np.arange(2_500))
        w /= w.sum()
        if thinned:
            ref_idx = np.sort(np.random.default_rng(3).choice(2_500, size=600, replace=True, p=w))
            ref_w = np.full(600, 1.0 / 600)
        else:
            ref_idx, ref_w = np.arange(2_500), w
        edges = np.concatenate([[0.0], np.geomspace(0.02, 0.4, 16)])
        self.check(pts, w, ref_idx, ref_w, edges, False)

    def test_pruning_of_the_benchmark_fixtures(self, monkeypatch):
        # the criterion 7 fixtures at 10 000 atoms, seed 1: the Gram values the walk computes,
        # bounded by 1.02 times those of a band along the principal axis of the references'
        # scatter (a walk of every (reference, atom) pair computes 28.2M)
        bounds = {"uniform": 19_510_752, "sp1-orbit": 14_799_760, "subsphere:1": 14_776_288}
        walked, walking = dict.fromkeys(bounds, 0), []
        gram_tiles, pair_counts = dimension_lab._gram_tiles, dimension_lab._pair_counts

        def counted_tiles(*args, **kw):
            for tile in gram_tiles(*args, **kw):
                if walking:
                    walked[walking[0]] += tile[2].size
                yield tile

        def counted_walk(*args, **kw):
            walking.append(name)
            try:
                return pair_counts(*args, **kw)
            finally:
                walking.clear()

        monkeypatch.setattr(dimension_lab, "_gram_tiles", counted_tiles)
        monkeypatch.setattr(dimension_lab, "_pair_counts", counted_walk)
        x0 = unit_point(sphere_samples(2, 1, [1, 71])[0])
        fixtures = {
            "uniform": gen_uniform(2, 10_000, 1),
            "sp1-orbit": gen_sp1_orbit(x0, 10_000, 1),
            "subsphere:1": gen_subsphere(2, 1, 10_000, 1),
        }
        for name, mu in fixtures.items():
            correlation_dimension(mu, seed=1)
        assert all(0 < walked[name] <= 1.02 * bound for name, bound in bounds.items()), walked

    def test_pair_on_the_last_edge_along_the_axis(self):
        # a lone reference a (axis e_0, its fallback) and b with a - b = e_0 exactly, on the
        # last edge: all squared norms are 0.8125, so reach exceeds |a - b| by 1e-9 relative
        # and little more.  b sorts at column 15, first of 14 atoms at projection -0.5 and
        # past the block's own lane, so a band that stopped short of it would not take it
        # back when widened to whole lanes
        def atom(x0, k, v):
            x = np.zeros(8)
            x[0], x[k] = x0, v
            return x

        a = atom(0.5, 1, 0.75)
        below = [atom(-0.75, k, v) for k in range(1, 8) for v in (0.5, -0.5)]
        edge = [atom(-0.5, k, v) for k in range(1, 8) for v in (0.75, -0.75)]
        pts = np.array([a, *edge, *below])
        assert np.all(np.sum(pts * pts, axis=1) == 0.8125)
        w = np.full(len(pts), 1.0 / len(pts))
        edges = np.array([0.0, 0.5, 1.0])
        got = _pair_counts(pts, w, np.zeros(1, dtype=int), np.ones(1), edges, True)
        assert np.array_equal(got, full_matrix_pair_counts(pts, w, np.zeros(1, dtype=int), np.ones(1), edges, True))
        assert np.array_equal(got, [0, 1])  # the pair (a, b) alone, at squared distance 1


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

    def test_degenerate_estimate_is_not_a_counterexample(self, bank8):
        # 50 uniform atoms leave too few nonzero bins to fit: the estimate measures nothing
        rep = theorem_consistency_report(gen_uniform(2, 50, seed=0), bank8, 0.1, 8, seed=0)
        assert rep.cone_condition_plausible and rep.dim_estimate.degenerate
        assert rep.consistent

    def test_json_fields(self, bank8, x0):
        rep = theorem_consistency_report(gen_point_mass(x0), bank8, 0.1, 4, seed=5)
        d = rep.to_json_dict()
        for key in ("cone_condition_plausible", "dim_estimate", "bound_4n_minus_4", "consistent"):
            assert key in d
