"""The four benchmark workloads: scan, multiplier, dimension and verify.

Each workload has a set-up (kernel banks and fixture measures, the work a
user pays before the first result), a round (the timed operations, repeated
for the run's length) and checks on the first round's outputs.  Every
operation and every correctness expectation goes through a Ledger, so an
exception or a wrong output becomes a counted failure and the workload goes
on where it can.

Library calls go through module attributes (`spectral.spectrum_scan`, not a
name imported into this file), so the traced run sees them.  This module is
imported after run.py has put the checkout's src/ on the path.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from quatsphere import dimension_lab, quat_core, spectral, verification, zonal_kernel

from exact import eigenspace_dim, self_check
from spans import PROPOSED

# CLI defaults (quatsphere.cli.RunConfig)
EPSILON = 0.1
MC_SAMPLES = 200_000
PROBES = 384
FD_STEP = 1e-2
# Fixtures are smaller than the CLI's --atoms default of 2e4 so that a run
# holds several rounds: on a shared 2-core machine identical rounds varied
# by 10-30%, and a run needs many of them.  Scan fixtures stay well
# above ROADMAP item 3's crossover of about 2 x probes = 768 atoms.
SCAN_ATOMS = 5_000
DIMENSION_ATOMS = 10_000

# Where each correctness expectation comes from.  Expectations marked with a
# ROADMAP item fail on some seeds of the current code for the reason that
# item describes; they count as failures but do not make the run incorrect.
SOURCES = {
    "exact.reference": "the Weyl-formula dimensions reproduce the values the tests assert and sum to the "
                       "degree-h harmonics (ROADMAP item 1's closed form)",
    "bank.index": "criterion 3 (test_criterion_3_calibration_self_consistency): a calibrated kernel is usable "
                  "and its diagonal c*raw(1,1) lies within 2% of the eigenspace dimension, here the exact one",
    "repeat": "criterion 9: seeded computations give identical outputs when repeated",
    "scan.uniform.only_constant": "test_uniform_flags_only_constant: a sampled uniform measure is flagged only at (0,0)",
    "scan.point.norms": "test_point_mass_norms_match_dimensions: a point mass has norm_sq within max(4 stderr, 2%) "
                        "of K(x0,x0); the test asserts it for h <= 6 at one seed, and other seeds and h = 7, 8 "
                        "break it (ROADMAP item 3)",
    "scan.point.in_cone": "test_point_mass_norms_match_dimensions: a point mass is flagged at every in-cone index",
    "scan.point.every_index": "||pi_{h,m} delta||^2 = dim > 0, so a point mass is flagged at every index "
                              "(ROADMAP item 3)",
    "scan.sp1-orbit.deep_cone": "criterion 8: a fixture of dimension 3 < 4n-4 is flagged in the cone at some h >= 4",
    "scan.subsphere.deep_cone": "criterion 8: a fixture of dimension 3 < 4n-4 is flagged in the cone at some h >= 4",
    "multiplier.out_of_cone": "criterion 5: the multiplier output has no flagged out-of-cone component",
    "multiplier.half_cone": "criterion 5: C(eps/2) components of L3(point) match the point within 2% at 1e6 "
                            "atoms, carried to this atom count at the Monte Carlo rate sqrt(1e6/atoms)",
    "dimension.uniform": "criterion 7: the uniform S^7 fixture estimates 7 +/- 0.4",
    "dimension.sp1-orbit": "criterion 7: the Sp(1) orbit estimates 3 +/- 0.4",
    "dimension.subsphere": "criterion 7: the subsphere S^3 estimates 3 +/- 0.4",
    "dimension.point": "criterion 7: a point mass estimates exactly 0",
    "verify.check": "acceptance criteria 1, 2, 4 and 6 and the verify command: every run_verification check passes",
}

KNOWN = {
    1: "ROADMAP item 1: Monte Carlo calibration constants are off by up to a few percent and can come out unusable",
    3: "ROADMAP item 3: probe averaging is noisy for a point mass and misses its high-h components",
    5: "ROADMAP item 5: the correlation-dimension estimate of uniform S^7 is biased and noisy",
    "flag": "ROADMAP item 3 and aim 3: the 4-sigma flag treats the chi-square null of a low-dimensional index "
            "as Gaussian and has no measured false-positive rate, so a null measure gets a stray flag on some seeds",
    "mc": "ROADMAP aim 3: the 4-stderr Monte Carlo checks have no measured false-positive rate, "
          "and heavy-tailed kernel products trip them on some seeds",
}

# Largest diagonal gap still put down to the Monte Carlo defect: four standard
# errors of c for a usable kernel (probe spread under 5%, 6 probes), twice the
# largest gap, 3.9%, seen over 60 banks.  A constant scaled by 1.5 is off by 50%.
KNOWN_DIAG_GAP = 0.08

# library exceptions that come from the calibration defect of ROADMAP item 1
KNOWN_ERRORS = {"CalibrationError": KNOWN[1], "UnusableKernelError": KNOWN[1]}


@dataclass
class Failure:
    name: str
    detail: str
    known: str | None


class DependencyFailed(Exception):
    """An expectation could not be checked because an operation it needs failed."""

    def __init__(self, label: str):
        super().__init__(f"{label} failed earlier")
        self.label = label


@dataclass
class Ledger:
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    passed: list[str] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=dict)  # wall time per operation label
    ops: set[str] = field(default_factory=set)

    def op(self, label: str, fn: Callable, /, *args, **kwargs) -> Any:
        """Run one operation; an exception is a failure and returns None.

        An operation repeated in later rounds counts once, and fails once,
        so `attempted` and `failed` depend on the seed, not on how many
        rounds fit in the run.  The `repeat` expectation covers the rounds
        after the first.
        """
        first = label not in self.ops
        if first:
            self.ops.add(label)
            self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the workload must go on after any library error
            kind = type(exc).__name__
            if all(f.name != label for f in self.failures):
                self.failures.append(Failure(label, f"raised {kind}: {exc}", KNOWN_ERRORS.get(kind)))
            return None
        self.seconds.setdefault(label, []).append(time.perf_counter() - start)
        if first:
            self.passed.append(label)
        return result

    def expect(self, name: str, check: Callable[[], tuple[bool, str]], known: str | None = None):
        """Record one expectation; check returns (ok, detail) and may raise.

        An expectation whose operation failed inherits that failure's known
        defect, if it had one.
        """
        self.attempted += 1
        try:
            ok, detail = check()
        except DependencyFailed as exc:
            ok, detail = False, str(exc)
            known = next((f.known for f in self.failures if f.name == exc.label), None)
        except Exception as exc:
            ok, detail, known = False, f"raised {type(exc).__name__}: {exc}", None
        if ok:
            self.passed.append(name)
        else:
            self.failures.append(Failure(name, detail, known))

    @property
    def correct(self) -> bool:
        return all(f.known for f in self.failures)


def _need(value, label: str):
    if value is None:
        raise DependencyFailed(label)
    return value


def x0_point(n: int, seed: int):
    return quat_core.SpherePoint(quat_core.sphere_samples(n, 1, [seed, 71])[0])


def calibrated_bank(n: int, h_max: int, seed: int) -> dict:
    """The kernel bank calibrate_bank builds, leaving out indices that raise.

    A missing index is counted by check_bank.
    """
    bank = {}
    for idx in zonal_kernel.index_range(n, h_max):
        try:
            bank[(idx.h, idx.m)] = zonal_kernel.calibrate(idx, MC_SAMPLES, seed)
        except Exception:
            pass
    return bank


def diagonal(ck) -> tuple[float, int, float]:
    """c*raw(1,1), the exact eigenspace dimension, and their relative gap."""
    idx = ck.index
    diag = ck.c * float(zonal_kernel.raw_kernel_values(idx, 1.0, 1.0))
    dim = eigenspace_dim(idx.h, idx.m, idx.n)
    return diag, dim, abs(diag - dim) / dim


def kernel_dim_err(bank: dict) -> float:
    """Largest relative gap between c*raw(1,1) and the exact dimension."""
    return max((diagonal(ck)[2] for ck in bank.values()), default=0.0)


def check_bank(ledger: Ledger, bank: dict, n: int, h_max: int):
    """One expectation per calibrated index: present, usable, diagonal within 2%.

    A missing or unusable kernel, or a diagonal off by no more than
    KNOWN_DIAG_GAP, is the Monte Carlo defect of ROADMAP item 1.  A larger gap
    is a wrong constant or a wrong closed form, and fails the run.
    """
    for h in range(h_max + 1):
        for m in range(h // 2 + 1):
            name = f"bank.index n={n} ({h},{m})"
            ck = bank.get((h, m))
            if ck is None or not getattr(ck, "usable", True):
                detail = "calibration raised" if ck is None else f"unusable (spread {ck.spread:.3f})"
                ledger.expect(name, lambda detail=detail: (False, detail), known=KNOWN[1])
                continue
            try:
                diag, dim, gap = diagonal(ck)
            except Exception as exc:
                ledger.expect(name, lambda exc=exc: (False, f"raised {type(exc).__name__}: {exc}"))
                continue
            ledger.expect(name, lambda diag=diag, dim=dim, gap=gap: (gap <= 0.02, f"diagonal {diag:.4f} vs {dim}"),
                          known=KNOWN[1] if gap <= KNOWN_DIAG_GAP else None)


def check_reference(ledger: Ledger):
    problems = self_check()
    ledger.expect("exact.reference", lambda: (not problems, "; ".join(problems)))


class Workload:
    name = ""

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def round(self, state: dict, ledger: Ledger, inst) -> tuple[dict, tuple]:
        """Run the timed operations; return outputs and a fingerprint of them."""
        raise NotImplementedError

    def check(self, state: dict, out: dict, ledger: Ledger) -> dict[str, float]:
        """Record the expectations on one round's outputs; return quality metrics.

        Operations run here only to check outputs are not part of run_s.
        """
        raise NotImplementedError


def usable_indices(bank: dict, h_max: int) -> list[tuple[int, int]]:
    """Indices whose kernel calibrated usably.

    A scan over an unusable kernel raises; leaving the index out keeps the
    scan's work nearly the same on seeds where calibration fails, and the
    failure itself is counted once, by check_bank.
    """
    return [
        (h, m) for h in range(h_max + 1) for m in range(h // 2 + 1)
        if (h, m) in bank and getattr(bank[(h, m)], "usable", True)
    ]


def _flags(report) -> set:
    return {(e.h, e.m) for e in report.entries if e.flagged_nonzero}


class Scan(Workload):
    name = "scan"

    def setup(self, seed):
        x0 = x0_point(2, seed)
        return {
            "seed": seed,
            "bank": calibrated_bank(2, 8, seed),
            "measures": {
                "uniform": dimension_lab.gen_uniform(2, SCAN_ATOMS, seed),
                "sp1-orbit": dimension_lab.gen_sp1_orbit(x0, SCAN_ATOMS, seed),
                "subsphere:1": dimension_lab.gen_subsphere(2, 1, 400, seed),
                "point": dimension_lab.gen_point_mass(x0),
            },
        }

    def round(self, state, ledger, inst):
        out = {}
        indices = usable_indices(state["bank"], 8)
        for name, mu in state["measures"].items():
            out[name] = ledger.op(f"scan {name}", spectral.spectrum_scan,
                                  mu, state["bank"], 8, EPSILON, probes=PROBES, seed=state["seed"], indices=indices)
        fingerprint = tuple(e.norm_sq for r in out.values() if r is not None for e in r.entries)
        return out, fingerprint

    def check(self, state, out, ledger):
        bank = state["bank"]
        check_reference(ledger)
        check_bank(ledger, bank, 2, 8)
        uniform, point = out["uniform"], out["point"]
        # One stray flag besides (0,0) is the flag defect; more, or no flag at
        # (0,0), is a wrong output.
        stray = _flags(uniform) - {(0, 0)} if uniform is not None else set()
        ledger.expect("scan.uniform.only_constant",
                      lambda: (_flags(_need(uniform, "scan uniform")) == {(0, 0)}, f"flagged {sorted(_flags(uniform))}"),
                      known=KNOWN["flag"] if len(stray) == 1 and (0, 0) in _flags(uniform) else None)

        def point_norms():
            bad = []
            for e in _need(point, "scan point").entries:
                diag = diagonal(bank[(e.h, e.m)])[0]
                if abs(e.norm_sq - diag) > max(4.0 * e.mc_stderr, 0.02 * diag):
                    bad.append((e.h, e.m))
            return not bad, f"outside tolerance at {bad}"

        ledger.expect("scan.point.norms", point_norms, known=KNOWN[3])
        ledger.expect("scan.point.in_cone", lambda: (
            all(e.flagged_nonzero for e in _need(point, "scan point").entries if e.in_cone),
            f"in-cone flags {sorted((e.h, e.m) for e in point.flagged_in_cone())}"))
        ledger.expect("scan.point.every_index", lambda: (
            all(e.flagged_nonzero for e in _need(point, "scan point").entries),
            f"not flagged at {[(e.h, e.m) for e in point.entries if not e.flagged_nonzero]}"), known=KNOWN[3])
        for name, key in (("sp1-orbit", "scan.sp1-orbit.deep_cone"), ("subsphere:1", "scan.subsphere.deep_cone")):
            rep = out[name]
            ledger.expect(key, lambda rep=rep, name=name: (
                any(h >= 4 for h, _ in ((e.h, e.m) for e in _need(rep, f"scan {name}").flagged_in_cone())),
                f"in-cone flags {[(e.h, e.m) for e in rep.flagged_in_cone()]}"))

        quality = {"kernel_dim_err": kernel_dim_err(bank)}
        if point is not None:
            quality["point_norm_err"] = max(
                abs(e.norm_sq - eigenspace_dim(e.h, e.m, 2)) / eigenspace_dim(e.h, e.m, 2) for e in point.entries
            )
        return quality


class Multiplier(Workload):
    name = "multiplier"
    # Criterion 5's 2% gap at 1e6 atoms is 10% at 4e4 atoms.  Over eight
    # seeds the largest gap was 8.1% at 3e4 atoms and 4.9% at 5e4.  At 4e4
    # atoms rejection sampling runs about 30 chunks of 32768 proposals, so
    # one chunk more or less moves the work by a few percent only.
    atoms = 40_000
    # a pilot of 2^17 points steadies the rejection bound, and with it the
    # number of proposals, across seeds (the library default is 8192)
    pilot = 1 << 17

    def setup(self, seed):
        x0 = x0_point(2, seed)
        return {"seed": seed, "bank": calibrated_bank(2, 8, seed), "delta": dimension_lab.gen_point_mass(x0)}

    def round(self, state, ledger, inst):
        bank, delta = state["bank"], state["delta"]

        def f3(points):
            if inst is not None and inst.recorder is not None:
                inst.recorder.add(PROPOSED, float(points.shape[0]))
            return spectral.apply_multiplier(delta, bank, EPSILON, 8, points).values

        mu = ledger.op("materialize L3(point)", spectral.function_measure,
                       f3, 2, self.atoms, state["seed"], name="L3(point)", pilot=self.pilot)
        return {"mu": mu}, () if mu is None else (mu.weights[0], mu.points.sum())

    def check(self, state, out, ledger):
        # criterion 5's scans have the scan workload's shape, so they run
        # once here, outside the timed rounds
        bank, delta, seed, mu = state["bank"], state["delta"], state["seed"], out["mu"]
        scan = half_mu = None
        half = [(h, m) for h in range(1, 9) for m in range(h // 2 + 1) if spectral.in_cone(h, m, EPSILON / 2)]
        if mu is not None:
            scan = ledger.op("scan L3(point)", spectral.spectrum_scan, mu, bank, 8, EPSILON,
                             probes=PROBES, seed=seed, indices=usable_indices(bank, 8))
            half_mu = ledger.op("half-cone scan L3(point)", spectral.spectrum_scan,
                                mu, bank, 8, EPSILON, probes=256, seed=seed, indices=half)
        ref = ledger.op("half-cone scan point", spectral.spectrum_scan,
                        delta, bank, 8, EPSILON, probes=256, seed=seed, indices=half)
        check_reference(ledger)
        check_bank(ledger, bank, 2, 8)
        ledger.expect("multiplier.out_of_cone", lambda: (
            not [e for e in _need(scan, "scan L3(point)").entries if not e.in_cone and e.flagged_nonzero],
            f"out-of-cone flags {[(e.h, e.m) for e in scan.entries if not e.in_cone and e.flagged_nonzero]}"))
        quality = {"kernel_dim_err": kernel_dim_err(bank)}
        if half_mu is not None and ref is not None:
            quality["cone_rel_err"] = max(
                abs(half_mu.entry(h, m).norm_sq_corrected - ref.entry(h, m).norm_sq_corrected)
                / ref.entry(h, m).norm_sq_corrected
                for h, m in half
            )
        tol = 0.02 * math.sqrt(1e6 / self.atoms)

        def half_cone():
            _need(mu, "materialize L3(point)")
            _need(half_mu, "half-cone scan L3(point)")
            _need(ref, "half-cone scan point")
            return quality["cone_rel_err"] <= tol, f"worst in-cone gap {quality['cone_rel_err']:.4f} vs {tol:.4f}"

        ledger.expect("multiplier.half_cone", half_cone)
        return quality


class Dimension(Workload):
    name = "dimension"
    # fixture name -> (expectation, true dimension, known defect)
    fixtures = {
        "uniform": ("dimension.uniform", 7.0, KNOWN[5]),
        "sp1-orbit": ("dimension.sp1-orbit", 3.0, None),
        "subsphere:1": ("dimension.subsphere", 3.0, None),
        "point": ("dimension.point", 0.0, None),
    }

    def setup(self, seed):
        x0 = x0_point(2, seed)
        return {
            "seed": seed,
            "measures": {
                "uniform": dimension_lab.gen_uniform(2, DIMENSION_ATOMS, seed),
                "sp1-orbit": dimension_lab.gen_sp1_orbit(x0, DIMENSION_ATOMS, seed),
                "subsphere:1": dimension_lab.gen_subsphere(2, 1, DIMENSION_ATOMS, seed),
                "point": dimension_lab.gen_point_mass(x0),
            },
        }

    def round(self, state, ledger, inst):
        out = {}
        for name, mu in state["measures"].items():
            out[name] = ledger.op(f"dimension {name}", dimension_lab.correlation_dimension, mu, seed=state["seed"])
        return out, tuple(est.s_hat for est in out.values() if est is not None)

    def check(self, state, out, ledger):
        worst = 0.0
        for name, (key, true, known) in self.fixtures.items():
            est = out[name]
            if name == "point":
                ledger.expect(key, lambda est=est: (_need(est, "dimension point").s_hat == 0.0, f"s_hat {est.s_hat}"))
            else:
                ledger.expect(key, lambda est=est, true=true, name=name: (
                    abs(_need(est, f"dimension {name}").s_hat - true) <= 0.4, f"s_hat {est.s_hat:.3f} vs {true}"), known=known)
            if est is not None:
                worst = max(worst, abs(est.s_hat - true))
        return {"dim_abs_err": worst}


class Verify(Workload):
    name = "verify"
    dims = (2, 3)
    h_max = 6

    def setup(self, seed):
        return {"seed": seed, "rounds": 0, "banks": {n: calibrated_bank(n, self.h_max, seed) for n in self.dims}}

    @staticmethod
    def checks(bank, n: int, h_max: int, seed: int) -> dict[str, Callable]:
        """The checks run_verification makes, in its order and with its arguments."""
        return {
            "l1_l2": lambda: verification.check_l1_l2(),
            "psi": lambda: verification.check_psi(EPSILON),
            "cone_gap": lambda: verification.check_cone_gap(EPSILON),
            "eigenvalues": lambda: verification.check_eigenvalues(bank, n, min(h_max, 6), FD_STEP, seed),
            "orthogonality": lambda: verification.check_orthogonality(bank, n, h_max, MC_SAMPLES, seed),
            "idempotency": lambda: verification.check_idempotency(bank, n, h_max, MC_SAMPLES, seed),
        }

    def round(self, state, ledger, inst):
        """The first round, the untimed warm-up, calls run_verification.

        Later rounds make its checks one by one, so that run_s can take the
        fastest time of each 0.1-1 s check rather than of a 2 s call; the
        repeat expectation then confirms they reproduce its checks.
        """
        seed, out = state["seed"], {}
        for n, bank in state["banks"].items():
            if state["rounds"] == 0:
                summary = ledger.op(f"run_verification n={n}", verification.run_verification,
                                    bank, n, self.h_max, EPSILON, MC_SAMPLES, FD_STEP, seed)
                out[n] = summary and summary["checks"]
            else:
                results = [ledger.op(f"verify n={n} {name}", call)
                           for name, call in self.checks(bank, n, self.h_max, seed).items()]
                out[n] = [r and r.to_json_dict() for r in results]
        state["rounds"] += 1
        return out, tuple((n, c["name"], c["passed"], c["detail"]) for n, cs in out.items() if cs for c in cs if c)

    def check(self, state, out, ledger):
        check_reference(ledger)
        for n, bank in state["banks"].items():
            check_bank(ledger, bank, n, self.h_max)
            for check in out[n] or ():
                ledger.expect(f"verify.check n={n} {check['name']}",
                              lambda check=check: (check["passed"], check["detail"]), known=check_known(check))
        return {"kernel_dim_err": max(kernel_dim_err(bank) for bank in state["banks"].values())}


def check_known(check: dict) -> str | None:
    """The known defect behind a failed run_verification check, if every failure has one.

    A failure that names an unusable kernel is ROADMAP item 1.  A Monte Carlo
    product that misses by 4 to 6 stderr is the untested false-positive rate
    of aim 3; idempotency may also miss by up to 10% of K(x, z), the size of
    the calibration error.  A larger miss, such as the 50% a constant scaled
    by 1.5 gives, or any other failing check, is not known.
    """
    if check["passed"]:
        return None
    detail = check["detail"]
    if "uncalibratable" in detail:
        return KNOWN[1]
    if check["name"] not in ("orthogonality", "idempotency"):
        return None
    kinds = set()
    for entry in detail.split("; "):
        if "unusable" in entry:
            kinds.add(1)
        elif m := _IDEMPOTENCY_MISS.search(entry):
            est, target, four_se = map(float, m.groups())
            if abs(est - target) > max(1.5 * four_se, 0.1 * abs(target)):
                return None
            kinds.add("mc")
        elif m := _ORTHOGONALITY_MISS.search(entry):
            est, four_se = map(float, m.groups())
            if abs(est) > 1.5 * four_se:
                return None
            kinds.add("mc")
        else:
            return None
    return "; ".join(KNOWN[k] for k in sorted(kinds, key=str))


# the failure entries of verification.check_idempotency and check_orthogonality
_IDEMPOTENCY_MISS = re.compile(r"\|(\S+) - (\S+)\| vs 4se (\S+)")
_ORTHOGONALITY_MISS = re.compile(r"\): (\S+) vs 4se (\S+)")


WORKLOADS = {w.name: w for w in (Scan(), Multiplier(), Dimension(), Verify())}
