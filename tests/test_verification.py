import dataclasses
import tracemalloc

import numpy as np
import pytest

from quatsphere import calibrate_bank, verification
from quatsphere.spectral import psi
from quatsphere.verification import _first_spike


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
    @pytest.mark.parametrize("check", [verification.check_orthogonality, verification.check_idempotency])
    def test_one_sample_draw_per_check(self, bank8, monkeypatch, check):
        # whether drawn whole or streamed in chunks
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
        assert sorted(counts) == [2] * 6 + [3000]


    @pytest.mark.parametrize("n", [3, 5])
    def test_streamed_sample_set_bounds_memory(self, n):
        # 2e5 samples: at n = 3 the whole sample set alone is 18.3 MiB;
        # streamed in 4096-row pieces the peak is 2.7 MiB at n = 3 and
        # 3.2 MiB at n = 5, so it does not grow with n
        bank = calibrate_bank(n, 6)
        tracemalloc.start()
        try:
            result = verification.check_orthogonality(bank, n, 6, 200_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed, result.detail
        assert peak < 4 * 2**20, peak


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

    def test_unusable_kernel_keeps_its_entry(self, bank8, monkeypatch):
        drawn = self.drawn_index(7)
        bank = dict(bank8)
        bank[drawn] = dataclasses.replace(bank8[drawn], spread=0.5)
        monkeypatch.setattr(verification, "_PAIRS", 1)
        result = verification.check_idempotency(bank, 2, 8, 3000, 7)
        with pytest.raises(verification.UnusableKernelError) as exc:
            bank[drawn].require_usable()
        assert result.detail == str(exc.value)
