import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsphere import (
    ConeParams,
    DiscreteMeasure,
    SpherePoint,
    apply_multiplier,
    cone_gap_check,
    gen_point_mass,
    gen_uniform,
    in_cone,
    kernel,
    project,
    project_values,
    psi,
    spectrum_scan,
    sphere_samples,
)
from quatsphere import spectral
from quatsphere.quat_core import pair_invariants_matrix
from quatsphere.spectral import function_measure


class TestDiscreteMeasure:
    def test_construction_renormalizes(self):
        pts = 2.0 * sphere_samples(2, 3, 1)
        mu = DiscreteMeasure(pts, np.ones(3))
        assert np.max(np.abs(np.linalg.norm(mu.points, axis=1) - 1.0)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((0, 8)), np.zeros(0))
        with pytest.raises(ValueError):
            DiscreteMeasure(sphere_samples(2, 2, 1), np.ones(3))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.ones((2, 7)), np.ones(2))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.full((1, 8), np.nan), np.ones(1))

    def test_effective_atoms(self):
        mu = gen_uniform(2, 100, seed=2)
        assert abs(mu.effective_atoms() - 100.0) <= 1e-9
        pm = gen_point_mass(SpherePoint.basis(2))
        assert pm.effective_atoms() == 1.0

    def test_combine_and_scale(self):
        a = gen_uniform(2, 10, seed=3)
        b = gen_uniform(2, 5, seed=4)
        both = DiscreteMeasure.combine(a, b.scaled(-2.0))
        assert both.natoms == 15
        assert abs(both.total_weight() - (1.0 - 2.0)) <= 1e-12
        assert not both.nonnegative


class TestCone:
    def test_examples(self):
        assert in_cone(4, 2, 0.3)
        assert in_cone(4, 2, 0.01)
        assert not in_cone(4, 0, 0.1)
        assert not in_cone(0, 0, 0.4)

    def test_boundary_is_excluded(self):
        # |2/5 - 1/2| = 0.1 exactly: strict inequality must exclude it
        assert not in_cone(5, 2, 0.1)
        assert in_cone(5, 2, 0.1000001)

    @given(st.integers(0, 60), st.integers(0, 30), st.floats(0.01, 0.49))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_inequality(self, h, m, eps):
        if 2 * m > h:
            with pytest.raises(ValueError):
                in_cone(h, m, eps)
            return
        expected = h > 0 and abs(m / h - 0.5) * (2 * h) < eps * (2 * h) and abs(2 * m - h) < 2 * h * eps
        assert in_cone(h, m, eps) == (h > 0 and abs(2 * m - h) < 2 * h * eps)

    def test_cone_params_validation(self):
        with pytest.raises(ValueError):
            ConeParams(0.0)
        with pytest.raises(ValueError):
            ConeParams(0.5)


class TestPsi:
    def test_plateau_and_support(self):
        for h in (1, 2, 5, 9, 40):
            assert psi(float(h), h / 2.0, 0.1) == 1.0
        assert psi(4.0, 0.0, 0.1) == 0.0
        assert psi(0.0, 0.0, 0.1) == 0.0
        # support boundary
        assert psi(10.0, 4.0, 0.1) == 0.0  # |0.4 - 0.5| = 0.1 >= eps
        assert 0.0 < psi(10.0, 4.3, 0.1) < 1.0

    def test_zero_homogeneity_above_one(self):
        for u in (1.0, 1.5, 3.7):
            for v in (0.42 * u, 0.5 * u, 0.56 * u):
                assert psi(2 * u, 2 * v, 0.1) == pytest.approx(psi(u, v, 0.1), abs=1e-14)

    def test_radial_truncation(self):
        assert psi(0.4, 0.2, 0.1) == 0.0
        assert 0.0 < psi(0.75, 0.375, 0.1) < 1.0
        assert psi(1.0, 0.5, 0.1) == 1.0

    def test_smooth_no_spikes(self):
        vs = np.linspace(0.3, 0.7, 801)
        vals = psi(np.full_like(vs, 2.0), 2.0 * vs, 0.1)
        step = vs[1] - vs[0]
        d = vals
        for order in range(1, 4):
            d = np.diff(d) / step
            mag = np.abs(d)
            floor = 1e-3 * float(np.max(mag))
            for i in range(len(mag)):
                lo, hi = max(0, i - 8), min(len(mag), i + 9)
                med = float(np.median(mag[lo:hi]))
                assert mag[i] <= 10.0 * max(med, floor), (order, vs[i])


class TestProject:
    def test_point_mass_is_kernel_section(self, bank8, x0):
        ck = bank8[(3, 1)]
        mu = gen_point_mass(x0)
        x = SpherePoint(sphere_samples(2, 1, 12)[0])
        assert project(mu, ck, x) == pytest.approx(kernel(ck, x, x0), abs=1e-12)

    def test_constant_component_of_point_mass(self, bank8, x0):
        assert project(gen_point_mass(x0), bank8[(0, 0)], x0) == pytest.approx(1.0, rel=2e-2)

    def test_uniform_atoms_have_small_projections(self, bank8):
        mu = gen_uniform(2, 20_000, seed=6)
        x = SpherePoint(sphere_samples(2, 1, 13)[0])
        for hm in [(1, 0), (2, 1), (4, 2)]:
            ck = bank8[hm]
            bound = 4.0 * math.sqrt(ck.diagonal() * mu.sum_sq_weight())
            assert abs(project(mu, ck, x)) <= bound

    def test_linearity(self, bank8, x0):
        ck = bank8[(2, 1)]
        a = gen_uniform(2, 50, seed=7)
        b = gen_uniform(2, 80, seed=8)
        x = SpherePoint(sphere_samples(2, 1, 14)[0])
        combo = DiscreteMeasure.combine(a.scaled(1.7), b.scaled(-0.3))
        lhs = project(combo, ck, x)
        rhs = 1.7 * project(a, ck, x) - 0.3 * project(b, ck, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_project_values_blocks_match(self, bank8):
        mu = gen_uniform(2, 1000, seed=9)
        xs = sphere_samples(2, 7, 15)
        vals = project_values(mu, bank8[(4, 1)], xs)
        singles = [project(mu, bank8[(4, 1)], SpherePoint(x)) for x in xs]
        assert np.allclose(vals, singles, atol=1e-12)


class TestSpectrumScan:
    def test_uniform_flags_only_constant(self, bank8):
        mu = gen_uniform(2, 20_000, seed=11)
        scan = spectrum_scan(mu, bank8, 6, 0.1, probes=384, seed=3)
        assert [(e.h, e.m) for e in scan.flagged()] == [(0, 0)]

    def test_point_mass_norms_match_dimensions(self, bank8, x0):
        scan = spectrum_scan(gen_point_mass(x0), bank8, 6, 0.1, probes=384, seed=3)
        for e in scan.entries:
            diag = bank8[(e.h, e.m)].diagonal()
            # ||pi delta||^2 = K(x0, x0), estimated with probe noise
            assert abs(e.norm_sq - diag) <= max(4.0 * e.mc_stderr, 0.02 * diag), (e.h, e.m)
        assert {(e.h, e.m) for e in scan.flagged_in_cone()} == {(2, 1), (4, 2), (6, 3)}

    def test_section_measure_concentrates(self, bank8, x0):
        ck = bank8[(3, 1)]
        ys = sphere_samples(2, 40_000, [77])
        mu = DiscreteMeasure(ys, ck.values(x0.vec, ys) / 40_000, name="section")
        scan = spectrum_scan(mu, bank8, 6, 0.1, probes=384, seed=3)
        assert [(e.h, e.m) for e in scan.flagged()] == [(3, 1)]
        assert scan.entry(3, 1).norm_sq_corrected == pytest.approx(ck.diagonal(), rel=0.1)

    def test_report_serialization(self, bank8, tmp_path):
        mu = gen_uniform(2, 500, seed=12)
        scan = spectrum_scan(mu, bank8, 3, 0.1, probes=64, seed=3)
        jpath, cpath = tmp_path / "s.json", tmp_path / "s.csv"
        scan.write_json(jpath)
        scan.write_csv(cpath)
        import csv as _csv
        import json as _json

        blob = _json.loads(jpath.read_text())
        assert len(blob["entries"]) == len(scan.entries)
        rows = list(_csv.reader(cpath.read_text().splitlines()))
        assert rows[0] == ["h", "m", "in_cone", "norm_sq", "mc_stderr", "flagged_nonzero"]
        assert len(rows) == 1 + len(scan.entries)
        # round-trip: norms in the CSV parse back to the exact floats
        assert float(rows[1][3]) == scan.entries[0].norm_sq

    def test_indices_subset(self, bank8, x0):
        scan = spectrum_scan(gen_point_mass(x0), bank8, 6, 0.1, probes=64, seed=3, indices=[(2, 1)])
        assert len(scan.entries) == 1
        assert scan.entries[0].h == 2

    def test_scan_matches_single_kernel_projections(self, bank8):
        # the shared-recurrence engine must agree with the pointwise kernel
        mu = gen_uniform(2, 3_000, seed=15)
        scan = spectrum_scan(mu, bank8, 7, 0.1, probes=96, seed=3)
        xs = sphere_samples(2, 96, [3, 2, 31])  # the scan's probe stream
        for hm in [(0, 0), (3, 1), (6, 2), (7, 0), (5, 2)]:
            direct = np.array([mu.weights @ bank8[hm].values(x, mu.points) for x in xs])
            assert np.mean(direct**2) == pytest.approx(scan.entry(*hm).norm_sq, rel=1e-12)


class TestMultiplier:
    def test_uniform_is_annihilated(self, bank8):
        # the only surviving component of a uniform sample is (0, 0), which the
        # cutoff excludes by the origin convention
        mu = gen_uniform(2, 5_000, seed=13)
        xs = sphere_samples(2, 16, 17)
        out = apply_multiplier(mu, bank8, 0.1, 6, xs)
        floor = math.sqrt(sum(
            psi(float(h), float(m), 0.1) ** 2 * bank8[(h, m)].diagonal()
            for h in range(7) for m in range(h // 2 + 1)
        ) * mu.sum_sq_weight())
        assert np.max(np.abs(out.values)) <= 5.0 * floor

    def test_out_of_cone_component_is_ignored(self, bank8, x0):
        # adding a (4, 0) section to the measure must not change the output
        eps = 0.1
        xs = sphere_samples(2, 12, 18)
        mu = gen_point_mass(x0)
        base = apply_multiplier(mu, bank8, eps, 6, xs)

        ck40 = bank8[(4, 0)]
        ys = sphere_samples(2, 30_000, [19])
        addon = DiscreteMeasure(ys, ck40.values(x0.vec, ys) / 30_000, name="(4,0) bump")
        mixed = DiscreteMeasure.combine(mu, addon)
        out = apply_multiplier(mixed, bank8, eps, 6, xs)

        # tolerance: the addon's sampling noise leaks into in-cone shells
        leak = math.sqrt(sum(
            psi(float(h), float(m), eps) ** 2 * bank8[(h, m)].diagonal()
            for h in range(7) for m in range(h // 2 + 1)
        ) * addon.sum_sq_weight())
        assert np.max(np.abs(out.values - base.values)) <= 5.0 * leak

    def test_matches_pointwise_kernel_sum(self, bank8):
        mu = gen_uniform(2, 2_000, seed=16)
        xs = sphere_samples(2, 24, 21)
        eps, h_max = 0.2, 8
        out = apply_multiplier(mu, bank8, eps, h_max, xs)
        direct = np.zeros(len(xs))
        for h in range(h_max + 1):
            for m in range(h // 2 + 1):
                weight = psi(float(h), float(m), eps)
                if weight != 0.0:
                    ck = bank8[(h, m)]
                    direct += weight * np.array([mu.weights @ ck.values(x, mu.points) for x in xs])
        assert np.max(np.abs(out.values - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_pair_invariants_once_per_atom_block(self, bank8, monkeypatch):
        # all indices share the invariants of a block: one GEMM per block, not per index
        calls = []

        def counting(xs, ys):
            calls.append(ys.shape[0])
            return pair_invariants_matrix(xs, ys)

        monkeypatch.setattr(spectral, "pair_invariants_matrix", counting)
        monkeypatch.setattr(spectral, "_BLOCK_ELEMENTS", 16 * 300)
        mu = gen_uniform(2, 1_000, seed=17)
        apply_multiplier(mu, bank8, 0.2, 8, sphere_samples(2, 16, 22))
        assert calls == [300, 300, 300, 100]

    def test_last_shell_reported(self, bank8, x0):
        xs = sphere_samples(2, 8, 20)
        out = apply_multiplier(gen_point_mass(x0), bank8, 0.1, 6, xs)
        shell = psi(6.0, 3.0, 0.1) * project_values(gen_point_mass(x0), bank8[(6, 3)], xs)
        assert out.last_shell_magnitude == pytest.approx(float(np.max(np.abs(shell))), rel=1e-12)


class TestFunctionMeasure:
    def test_materializes_a_kernel_section(self, bank8, x0):
        ck = bank8[(2, 1)]
        f = ck.section(x0)
        mu = function_measure(f, 2, 30_000, seed=21)
        # total signed mass approximates <f, 1> = 0; L1 mass is positive
        assert abs(mu.total_weight()) <= 0.05 * np.sum(np.abs(mu.weights))
        # its (2, 1) projection at x0 approximates ||K(x0,.)||^2 = diag
        val = project(mu, ck, x0)
        assert val == pytest.approx(ck.diagonal(), rel=0.05)

    def test_rejects_zero_function(self):
        with pytest.raises(ValueError):
            function_measure(lambda pts: np.zeros(pts.shape[:-1]), 2, 100, seed=1)


class TestConeGap:
    def test_exact_endpoints(self):
        assert cone_gap_check(1.0, 0.0) == 0.5
        assert cone_gap_check(0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            cone_gap_check(0.0, 0.0)
        with pytest.raises(ValueError):
            cone_gap_check(-1.0, 1.0)

    def test_monotone_convergence_into_plateau(self):
        prev = -1.0
        for k in range(1, 21):
            val = cone_gap_check(1.0, 2.0**-k)
            assert abs(val - 0.5) < 2.0**-k
            assert val > prev
            prev = val
            if k >= 6:
                assert psi(1.0, val, 0.1) == 1.0
