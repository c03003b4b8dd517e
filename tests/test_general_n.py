"""Smoke coverage for n > 2: the machinery is generic in the sphere dimension."""

import numpy as np
import pytest

from quatsphere import (
    KernelIndex,
    calibrate,
    eigencheck,
    sphere_samples,
    tangent_frame,
    unit_point,
)


@pytest.fixture(scope="module")
def bank_n3():
    return {
        (h, m): calibrate(KernelIndex(h, m, 3), 100_000, seed=7)
        for (h, m) in [(1, 0), (2, 1)]
    }


def test_s11_eigenvalues(bank_n3):
    # on S^11 (n=3): lambda_delta = h(h+10), lambda_gamma = (h-2m)(h-2m+2)
    x0 = unit_point(sphere_samples(3, 1, [1])[0])
    rep = eigencheck(bank_n3[(1, 0)], x0, probes=6, seed=2)
    assert abs(rep.lambda_delta_est - 11.0) <= 0.05
    assert abs(rep.lambda_gamma_est - 3.0) <= 0.02
    rep = eigencheck(bank_n3[(2, 1)], x0, probes=6, seed=2)
    assert abs(rep.lambda_delta_est - 24.0) <= 0.12
    assert abs(rep.lambda_gamma_est) <= 1e-3


def test_s11_dimensions(bank_n3):
    # degree-1 harmonics on S^11 span R^12; K(x, x) is the dimension at every x
    pts = [unit_point(p) for p in sphere_samples(3, 10, [3])]
    for key, dim in [((1, 0), 12.0), ((2, 1), 14.0)]:
        for x in pts:
            assert bank_n3[key].values(x, x[None, :])[0] == pytest.approx(dim, rel=1e-12)


def test_s11_frame_shape():
    frame = tangent_frame(sphere_samples(3, 1, [2]))[0]
    assert frame.shape == (11, 12)
    assert np.max(np.abs(frame @ frame.T - np.eye(11))) <= 1e-10
