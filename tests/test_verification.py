import dataclasses
import tracemalloc

import numpy as np
import pytest

from quatsphere import CalibratedKernel, calibrate_bank, verification, zonal_kernel
from quatsphere.spectral import DiscreteMeasure, _projection_matrix, psi
from quatsphere.verification import _first_spike, _gauss_rule


def first_spike_loop(mag, floor):
    """The per-entry scan check_psi made before the sliding-window median: the oracle."""
    for i in range(len(mag)):
        lo, hi = max(0, i - 8), min(len(mag), i + 9)
        med = float(np.median(mag[lo:hi]))
        if mag[i] > 10.0 * max(med, floor):
            return i
    return None


class TestFirstSpike:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(17, 900))
        mag = rng.lognormal(0.0, 0.5, size)
        # spikes at the head, in the interior and at the tail, each present or not
        for where in (rng.integers(0, 8), rng.integers(8, size - 8), rng.integers(size - 8, size)):
            if rng.random() < 0.5:
                mag[where] *= rng.uniform(5.0, 40.0)
        floor = float(rng.choice([0.0, 1e-3 * mag.max(), 2.0]))
        assert _first_spike(mag, floor) == first_spike_loop(mag, floor)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_loop_at_the_threshold(self, seed):
        # a spike at, or 1e-9 above or below, ten times its window's median: any other window flips it
        rng = np.random.default_rng(100 + seed)
        size = int(rng.integers(17, 900))
        mag = rng.lognormal(0.0, 0.5, size)
        where = int(rng.choice([rng.integers(0, 8), rng.integers(8, size - 8), rng.integers(size - 8, size)]))
        mag[where] = 1e6
        med = np.median(mag[max(0, where - 8) : where + 9])
        mag[where] = 10.0 * med * (1.0 + rng.choice([-1e-9, 0.0, 1e-9]))
        assert _first_spike(mag, 0.0) == first_spike_loop(mag, 0.0)

    @pytest.mark.parametrize("where", [0, 3, 7, 8, 400, 790, 791, 797])
    def test_single_spike_found_everywhere(self, where):
        mag = np.ones(798)
        mag[where] = 50.0
        assert _first_spike(mag, 1e-3) == first_spike_loop(mag, 1e-3) == where

    @pytest.mark.parametrize("bump, detail", [
        (0.6, "order-2 difference spikes at v=0.599; order-3 difference spikes at v=0.599"),
        (0.3015, "order-2 difference spikes at v=0.300; order-3 difference spikes at v=0.300"),
        (0.6985, "order-2 difference spikes at v=0.698; order-3 difference spikes at v=0.697"),
    ])
    def test_check_psi_reports_first_spike(self, monkeypatch, bump, detail):
        # psi raised by 1e-4 at the one grid point v/u = bump; the details are the per-entry scan's
        def bumped(u, v, eps):
            return psi(u, v, eps) + 1e-4 * (np.abs(np.asarray(v) / np.asarray(u) - bump) < 2e-4)

        monkeypatch.setattr(verification, "psi", bumped)
        result = verification.check_psi(0.1)
        assert not result.passed
        assert result.detail == detail


class TestSharedSamples:
    @pytest.mark.parametrize("check, draws", [
        pytest.param(verification.check_orthogonality, [], id="check_orthogonality"),
        pytest.param(verification.check_idempotency, [2] * 6 + [3000], id="check_idempotency"),
    ])
    def test_one_sample_draw_per_check(self, bank8, monkeypatch, check, draws):
        # whether drawn whole or streamed in chunks; the exact orthogonality check draws nothing
        counts = []

        def counting(draw):
            def counted(n, count, seed):
                counts.append(count)
                return draw(n, count, seed)

            return counted

        monkeypatch.setattr(verification, "sphere_samples", counting(verification.sphere_samples))
        monkeypatch.setattr(verification, "sphere_sample_chunks", counting(verification.sphere_sample_chunks))
        monkeypatch.setattr(verification, "_PAIRS", 6)
        result = check(bank8, 2, 8, 3000, 7)
        assert result.passed, result.detail
        assert sorted(counts) == draws


    @pytest.mark.parametrize("n", [3, 5])
    def test_streamed_sample_set_bounds_memory(self, n):
        # 2e5 samples: at n = 3 the whole sample set alone is 18.3 MiB;
        # streamed in 4096-row pieces the peak is 2.7 MiB at n = 3 and
        # 3.2 MiB at n = 5 after one earlier check in the process, so it
        # does not grow with n; the first check in a fresh process also
        # holds its once-per-process allocations and peaks at 3.4 and
        # 3.9 MiB, 0.08 MiB under the bound at n = 5
        bank = calibrate_bank(n, 6)
        tracemalloc.start()
        try:
            result = verification.check_idempotency(bank, n, 6, 200_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed, result.detail
        assert peak < 4 * 2**20, peak


def gram_error(n, h_max, u_nodes, s_nodes):
    """max |G - diag(dim)| / sqrt(dim_i dim_j) of the kernels with h <= h_max under a Gauss rule of the given size."""
    indices = verification.index_range(n, h_max)
    bank = calibrate_bank(n, h_max)
    y, w = _gauss_rule(n, u_nodes, s_nodes)
    rows = _projection_matrix(DiscreteMeasure(np.eye(1, 4 * n), np.ones(1)), [bank[(i.h, i.m)] for i in indices], y)
    dims = np.array([i.dimension for i in indices], dtype=np.float64)
    return float(np.max(np.abs((rows * w) @ rows.T - np.diag(dims)) / np.sqrt(np.outer(dims, dims))))


class TestExactGram:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gram_is_diagonal_to_rounding(self, n):
        """The Gram error over h_max <= 16 stays below 1e-12 sqrt(dim_i dim_j).

        Measured worst over n = 2..5 and h_max = 1..16: 3.7e-15 (at n = 2, h_max = 14).
        """
        for h_max in range(1, 17):
            assert gram_error(n, h_max, h_max + 1, h_max // 2 + n) < 1e-12
            result = verification.check_orthogonality(calibrate_bank(n, h_max), n, h_max, 1, 1)
            count = len(verification.index_range(n, h_max))
            assert result.detail == f"Gram matrix of the {count} kernels with h <= {h_max} is diag(dim) by an exact Gauss rule"
            assert result.passed

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("h_max", [1, 6, 11])
    def test_one_node_fewer_is_not_exact(self, n, h_max):
        # the node counts are the least that integrate every product of two kernels exactly
        assert gram_error(n, h_max, h_max, h_max // 2 + n) > 1e-3
        assert gram_error(n, h_max, h_max + 1, h_max // 2 + n - 1) > 1e-3

    def test_rule_integrates_the_sphere_moments(self):
        # E[s^j] = prod_{i<j} (2 + i) / (2n + i) and E[a^2 s^j] = E[s^(j+1)] / 4 at n = 3,
        # with j + 1 <= 7, the highest power of s that six nodes integrate against the Beta(2, 4) density
        y, w = _gauss_rule(3, 4, 6)
        a, s = y[:, 0], y[:, 0] ** 2 + y[:, 1] ** 2
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, rtol=0, atol=1e-15)
        moment = 1.0
        for j in range(7):
            assert abs(w @ s**j - moment) < 1e-15
            assert abs(w @ (a * a * s**j) - moment * (2 + j) / (6 + j) / 4) < 1e-15
            moment *= (2 + j) / (6 + j)

    @pytest.mark.parametrize("nodes", [1, 2, 5, 13, 20])
    def test_legendre_nodes_match_numpy(self, nodes):
        # one u node (u = 0, weight 1) leaves the s rule alone: Gauss-Legendre on [0, 1] times 6 s (1 - s) at n = 2
        y, w = _gauss_rule(2, 1, nodes)
        s = 1.0 - y[:, 4] ** 2
        x, wx = np.polynomial.legendre.leggauss(nodes)
        order = np.argsort(s)
        assert np.allclose(s[order], (x + 1.0) / 2.0, rtol=0, atol=1e-15)
        assert np.allclose(w[order], wx / 2.0 * 6.0 * (1.0 + x) / 2.0 * (1.0 - x) / 2.0, rtol=1e-13, atol=0)

    def test_beta_k_jacobi_kernel_fails(self, monkeypatch):
        # Jacobi beta = k in place of k + 1; calibrate still rescales each kernel to its exact diagonal,
        # so a diagonal check (criterion 3) cannot see the defect
        ladder = zonal_kernel.jacobi_ladder
        monkeypatch.setattr(zonal_kernel, "jacobi_ladder",
                            lambda alpha, beta, x, out=None: ladder(alpha, beta - 1, x, out=out))
        bank = calibrate_bank(2, 6)
        assert all(abs(ck.diagonal() - ck.index.dimension) < 1e-12 * ck.index.dimension for ck in bank.values())
        result = verification.check_orthogonality(bank, 2, 6, 200_000, 1)
        assert not result.passed
        entries = result.detail.split("; ")
        off_diagonal = [e for e in entries if ")x(" in e]
        norms = {e.split(":")[0]: float(e.split()[2]) / int(e.split()[-1]) for e in entries if ": norm " in e}
        assert len(off_diagonal) == 9
        assert len(norms) + len(off_diagonal) == len(entries)
        assert min(norms.values()) == pytest.approx(0.692, abs=1e-3)  # a 31% miss, at (6,3)
        assert "4se" not in result.detail

    def test_scaled_constant_fails_above_h_5(self, bank8):
        # the Monte Carlo check this replaced drew indices with h <= 5 only
        bank = dict(bank8)
        bank[(7, 2)] = dataclasses.replace(bank8[(7, 2)], c=1.5 * bank8[(7, 2)].c)
        result = verification.check_orthogonality(bank, 2, 8, 200_000, 1)
        dim = bank8[(7, 2)].index.dimension
        assert not result.passed
        assert result.detail == f"(7,2): norm {2.25 * dim:.6g} vs dimension {dim}"  # a 125% miss


class TestIdempotencyDiagonals:
    @staticmethod
    def drawn_index(seed):
        # the one index a single-product check draws
        indices = verification.index_range(2, 5)
        idx = indices[int(verification.seeded_rng(seed, verification._TAG_PAIRS + 1).integers(len(indices)))]
        return (idx.h, idx.m)

    def test_scaled_constant_fails_without_being_drawn(self, bank8, monkeypatch):
        drawn = self.drawn_index(7)
        key = (3, 1) if drawn != (3, 1) else (4, 1)
        bank = dict(bank8)
        bank[key] = dataclasses.replace(bank8[key], c=1.5 * bank8[key].c)
        monkeypatch.setattr(verification, "_PAIRS", 1)
        result = verification.check_idempotency(bank, 2, 8, 3000, 7)
        assert not result.passed
        dim = bank8[key].index.dimension
        assert result.detail == f"({key[0]},{key[1]}): diagonal {1.5 * bank8[key].diagonal():.6g} vs dimension {dim}"

    def test_zero_constant_is_evaluated_and_rejected(self, bank8, monkeypatch):
        # a kernel is its index and its constant: c = 0 evaluates to zeros, its drawn product
        # reproduces its zero K(x, z), and the Gram and diagonal checks both name the index
        assert [f.name for f in dataclasses.fields(CalibratedKernel)] == ["index", "c"]
        drawn = self.drawn_index(7)
        bank = dict(bank8)
        bank[drawn] = dataclasses.replace(bank8[drawn], c=0.0)
        label, dim = f"({drawn[0]},{drawn[1]})", bank8[drawn].index.dimension
        gram = verification.check_orthogonality(bank, 2, 8, 200_000, 1)
        assert not gram.passed
        assert gram.detail == f"{label}: norm 0 vs dimension {dim}"
        monkeypatch.setattr(verification, "_PAIRS", 1)
        idem = verification.check_idempotency(bank, 2, 8, 3000, 7)
        assert not idem.passed
        assert idem.detail == f"{label}: diagonal 0 vs dimension {dim}"
