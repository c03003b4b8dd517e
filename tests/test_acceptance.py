"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured figure next to its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

from quatsphere import (
    apply_multiplier,
    calibrate_bank,
    cone_gap_check,
    correlation_dimension,
    eigencheck,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    l1_l2_identity,
    psi,
    spectrum_scan,
    theorem_consistency_report,
)
from quatsphere.cli import main
from quatsphere.spectral import function_measure, in_cone
from quatsphere.verification import _product_integrals, _TAG_PRODUCT
from quatsphere.zonal_kernel import index_range
from quatsphere.quat_core import seeded_rng, sphere_samples

from .conftest import BANK_SAMPLES
from .oracles import chunked_product_moments

EPSILON = 0.1


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_eigenvalue_reproduction(bank8, x0):
    t0 = time.monotonic()
    worst = 0.0
    pair_3_1 = None
    for idx in index_range(2, 6):
        rep = eigencheck(bank8[(idx.h, idx.m)], x0, probes=8, step=1e-2, seed=99)
        for err, true in ((rep.rel_err_delta, rep.lambda_delta_true), (rep.rel_err_gamma, rep.lambda_gamma_true)):
            # rel_err reduces to an absolute error at zero eigenvalues
            worst = max(worst, err)
        if (idx.h, idx.m) == (3, 1):
            pair_3_1 = (rep.lambda_delta_est, rep.lambda_gamma_est)
    elapsed = time.monotonic() - t0
    ok = worst <= 5e-3 and elapsed < 120.0 and abs(pair_3_1[0] - 27.0) <= 0.14 and abs(pair_3_1[1] - 3.0) <= 0.015
    report(1, "FD eigenvalues h(h+4n-2), (h-2m)(h-2m+2) within 0.5% for h <= 6", ok,
           f"worst err {worst:.2e}, (3,1) -> ({pair_3_1[0]:.4f}, {pair_3_1[1]:.4f}), {elapsed:.1f}s")
    assert ok


def test_criterion_2_l1_l2_identity():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 6):
        for h in range(101):
            for m in range(h // 2 + 1):
                first, second = l1_l2_identity(h, m, n)
                worst = max(worst, abs(first - h), abs(second - (h - 2 * m)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "sqrt-shift identities give (h, h-2m) exactly for h <= 100, n <= 5", ok,
           f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_calibration_self_consistency():
    t0 = time.monotonic()
    bank6 = calibrate_bank(2, 6)
    elapsed = time.monotonic() - t0
    worst_dim_dev = max(abs(ck.diagonal() - ck.index.dimension) / ck.index.dimension for ck in bank6.values())
    ok = worst_dim_dev <= 1e-12 and elapsed < 300.0
    report(3, "every calibrated diagonal equals its dimension to 1e-12 (h <= 6)", ok,
           f"worst dimension dev {worst_dim_dev:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_orthogonality_idempotency(bank8):
    indices = index_range(2, 5)
    rng = seeded_rng(314, 1)
    worst_z = 0.0
    distinct = []
    for _ in range(5):
        i1, i2 = rng.choice(len(indices), size=2, replace=False)
        distinct.append((bank8[(indices[i1].h, indices[i1].m)], bank8[(indices[i2].h, indices[i2].m)]))
    # the product pass pairs a kernel only with itself: distinct pairs are walked by the oracle, on the
    # endpoints and samples the pass would draw
    ends = np.concatenate([
        sphere_samples(2, 2, [400 + trial, _TAG_PRODUCT + 1, ck1.index.h, ck2.index.h, ck1.index.m, ck2.index.m])
        for trial, (ck1, ck2) in enumerate(distinct)
    ])
    samples = sphere_samples(2, BANK_SAMPLES, [400, _TAG_PRODUCT])
    for est, stderr in zip(*chunked_product_moments(distinct, ends, samples)):
        worst_z = max(worst_z, abs(est) / (stderr + 1e-30))
    equal = []
    for _ in range(5):
        idx = indices[int(rng.integers(len(indices)))]
        equal.append(bank8[(idx.h, idx.m)])
    for est, stderr, target in _product_integrals(equal, 2, BANK_SAMPLES, 500, _TAG_PRODUCT + 7):
        z = abs(est - target) / (stderr + 1e-9 * max(abs(target), 1.0))
        worst_z = max(worst_z, z)
    ok = worst_z <= 4.0
    report(4, "product integrals vanish (distinct) / reproduce K (equal) within 4 stderr", ok,
           f"worst |z| {worst_z:.2f} over 10 pairs")
    assert ok


def test_criterion_5_multiplier_support(bank8, x0):
    delta = gen_point_mass(x0)
    f3 = lambda pts: apply_multiplier(delta, bank8, EPSILON, 8, pts).values

    mu_small = function_measure(f3, 2, 100_000, seed=44, name="L3(point)")
    scan_small = spectrum_scan(mu_small, bank8, 8, EPSILON, probes=384, seed=33)
    out_of_cone_flags = [(e.h, e.m) for e in scan_small.entries if not e.in_cone and e.flagged_nonzero]

    half_cone = [(h, m) for h in range(9) for m in range(h // 2 + 1) if h > 0 and in_cone(h, m, EPSILON / 2)]
    scan_ref = spectrum_scan(delta, bank8, 8, EPSILON, probes=256, seed=33, indices=half_cone)
    mu_big = function_measure(f3, 2, 1_000_000, seed=44, name="L3(point)")
    scan_big = spectrum_scan(mu_big, bank8, 8, EPSILON, probes=256, seed=33, indices=half_cone)
    worst_rel = max(
        abs(scan_big.entry(h, m).norm_sq_corrected - scan_ref.entry(h, m).norm_sq_corrected)
        / scan_ref.entry(h, m).norm_sq_corrected
        for h, m in half_cone
    )
    ok = not out_of_cone_flags and worst_rel <= 0.02
    report(5, "multiplier output: out-of-cone components zero, C(eps/2) components unchanged within 2%", ok,
           f"out-of-cone flags {out_of_cone_flags}, worst in-cone rel diff {worst_rel:.4f}")
    assert ok


def test_criterion_6_cone_gap_limit():
    ok = True
    detail = ""
    prev = -1.0
    for k in range(1, 21):
        val = cone_gap_check(1.0, 2.0**-k)
        if not (abs(val - 0.5) < 2.0**-k and val > prev):
            ok, detail = False, f"failure at k={k}"
            break
        prev = val
        if k >= 6 and psi(1.0, val, EPSILON) != 1.0:
            ok, detail = False, f"psi(1, value) != 1 at k={k}"
            break
    report(6, "(sqrt(a^2+b^2)-b)/(2 sqrt(a^2+b^2)) -> 1/2 with error < 2^-k, inside the cutoff plateau", ok, detail)
    assert ok


def test_criterion_7_dimension_estimator(x0):
    t0 = time.monotonic()
    results = {}
    results["uniform S^7"] = (correlation_dimension(gen_uniform(2, 100_000, seed=21), seed=9).s_hat, 7.0)
    results["sp1 orbit"] = (correlation_dimension(gen_sp1_orbit(x0, 100_000, seed=22), seed=9).s_hat, 3.0)
    results["subsphere S^3"] = (correlation_dimension(gen_subsphere(2, 1, 100_000, seed=23), seed=9).s_hat, 3.0)
    point_est = correlation_dimension(gen_point_mass(x0), seed=9).s_hat
    elapsed = time.monotonic() - t0
    ok = all(abs(got - want) <= 0.4 for got, want in results.values()) and point_est == 0.0 and elapsed < 180.0
    detail = ", ".join(f"{k}: {got:.2f}" for k, (got, want) in results.items())
    report(7, "correlation dimension: S^7 = 7 +/- 0.4, two 3-spheres = 3 +/- 0.4, point = 0 exact", ok,
           f"{detail}, point: {point_est}, {elapsed:.0f}s")
    assert ok


def test_criterion_8_contrapositive_consistency(bank8, x0):
    fixtures = {
        "uniform": gen_uniform(2, 20_000, seed=41),
        "point": gen_point_mass(x0),
        "sp1-orbit": gen_sp1_orbit(x0, 20_000, seed=42),
        "subsphere:1": gen_subsphere(2, 1, 20_000, seed=43),
    }
    h_max = 8
    ok = True
    notes = []
    for name, mu in fixtures.items():
        rep = theorem_consistency_report(mu, bank8, EPSILON, h_max, seed=5)
        if not rep.consistent:
            ok = False
            notes.append(f"{name}: inconsistent")
        if rep.dim_estimate.s_hat < rep.bound_4n_minus_4:
            deep = [hm for hm in rep.flagged_in_cone if hm[0] >= h_max / 2]
            if not deep:
                ok = False
                notes.append(f"{name}: no in-cone flag at h >= {h_max // 2}")
            else:
                notes.append(f"{name}: dim {rep.dim_estimate.s_hat:.2f}, in-cone {deep}")
        else:
            notes.append(f"{name}: dim {rep.dim_estimate.s_hat:.2f}, cone clear")
    report(8, "fixtures with dim < 4n-4 show in-cone spectrum at h >= h_max/2; none inconsistent", ok,
           "; ".join(notes))
    assert ok


def test_criterion_9_verify_determinism(tmp_path):
    args = ["verify", "--n", "2", "--h-max", "3", "--mc-samples", "20000", "--seed", "5"]
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    rc1 = main([*args, "--out", str(out1)])
    rc2 = main([*args, "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    report(9, "verify twice with identical config produces byte-identical JSON summaries", ok,
           f"exit codes ({rc1}, {rc2}), identical={identical}")
    assert ok
