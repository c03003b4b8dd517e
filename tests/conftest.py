import pytest

from quatsphere import calibrate_bank, sphere_samples, unit_point

BANK_N = 2
BANK_H_MAX = 8
BANK_SAMPLES = 200_000


@pytest.fixture(scope="session")
def bank8():
    """Exact kernels for n=2, h <= 8."""
    return calibrate_bank(BANK_N, BANK_H_MAX)


@pytest.fixture(scope="session")
def x0():
    return unit_point(sphere_samples(2, 1, [5, 71])[0])
