"""Command-line entry point for calibration, scans, verification and reports.

Measure files are plain text: a header line "# n=<n>" followed by one atom
per line as 4n+1 comma-separated reals (ambient coordinates, then weight).
In place of a file, the built-in fixtures uniform | point | subsphere:<k> |
sp1-orbit may be named directly; they are generated from (n, atoms, seed).

Exit codes: 0 success; 1 a check failed, or a kernel could not be calibrated
or is flagged unusable; 2 a usage, parameter or I/O error.  Errors print one
line on stderr rather than a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dimension_lab import (
    correlation_dimension,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    theorem_consistency_report,
)
from .quat_core import SpherePoint, sphere_samples
from .spectral import DiscreteMeasure, apply_multiplier, spectrum_scan
from .verification import run_verification
from .zonal_kernel import CalibrationError, KernelCache, UnusableKernelError, calibrate_bank, index_range

_TAG_FIXTURE = 71
_TAG_MULT = 72


class UsageError(Exception):
    """CLI-level problem: bad flags, malformed files, missing inputs."""


@dataclass
class RunConfig:
    n: int = 2
    h_max: int = 12
    epsilon: float = 0.1
    mc_samples: int = 200_000
    probes: int | None = None
    seed: int = 0
    fd_step: float = 1e-2
    cache_path: str = "calibration_cache.json"
    output_path: str | None = None
    atoms: int = 20_000

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("n must be at least 2")
        if self.h_max < 0 or self.mc_samples < 1 or self.seed < 0:
            raise UsageError("h_max, mc_samples must be positive and seed non-negative")
        if not 0.0 < self.epsilon < 0.5:
            raise UsageError("epsilon must lie in (0, 1/2)")
        if not 1e-4 <= self.fd_step <= 1e-1:
            raise UsageError("fd_step must lie in [1e-4, 1e-1]")
        if self.atoms < 1:
            raise UsageError("atoms must be positive")

    def probe_count(self, default: int) -> int:
        return self.probes if self.probes is not None else default


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value: str):
    if name in ("epsilon", "fd_step"):
        return float(value)
    if name in ("cache_path", "output_path"):
        return value
    return int(value)


def load_config_file(path: str) -> dict:
    """Flat key=value config; keys match RunConfig field names."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# measure files and fixtures
# ---------------------------------------------------------------------------


def save_measure(measure: DiscreteMeasure, path: str | Path):
    with open(path, "w") as fh:
        fh.write(f"# n={measure.n}\n")
        for row, w in zip(measure.points, measure.weights):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(w)!r}\n")


def load_measure(path: str | Path) -> DiscreteMeasure:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].strip().startswith("# n="):
        raise UsageError(f"{path}:1: missing '# n=<n>' header")
    try:
        n = int(lines[0].strip()[4:])
    except ValueError:
        raise UsageError(f"{path}:1: malformed header {lines[0]!r}") from None
    width = 4 * n + 1
    rows, weights = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise UsageError(f"{path}:{lineno}: expected {width} comma-separated values, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
        rows.append(vals[:-1])
        weights.append(vals[-1])
    if not rows:
        raise UsageError(f"{path}: no atoms found")
    pts = np.asarray(rows)
    norms = np.linalg.norm(pts, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > 1e-6:
        print(f"warning: renormalized atoms deviating from the sphere by up to {worst:.2e}", file=sys.stderr)
    return DiscreteMeasure(pts, np.asarray(weights), name=Path(path).stem)


def resolve_measure(name: str, cfg: RunConfig) -> DiscreteMeasure:
    """A fixture name or a measure file path."""
    if name == "uniform":
        return gen_uniform(cfg.n, cfg.atoms, cfg.seed)
    if name == "point":
        x0 = SpherePoint(sphere_samples(cfg.n, 1, [cfg.seed, _TAG_FIXTURE])[0])
        return gen_point_mass(x0)
    if name == "sp1-orbit":
        x0 = SpherePoint(sphere_samples(cfg.n, 1, [cfg.seed, _TAG_FIXTURE])[0])
        return gen_sp1_orbit(x0, cfg.atoms, cfg.seed)
    if name.startswith("subsphere:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"malformed fixture name {name!r}") from None
        try:
            return gen_subsphere(cfg.n, k, cfg.atoms, cfg.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if Path(name).exists():
        return load_measure(name)
    raise UsageError(f"{name!r} is neither a fixture name nor an existing file")


def _bank(cfg: RunConfig, h_max: int | None = None):
    """Calibrate (or load) every kernel up to h_max, updating the cache."""
    cache = KernelCache(cfg.cache_path)
    bank = calibrate_bank(
        cfg.n,
        cfg.h_max if h_max is None else h_max,
        cfg.mc_samples,
        cfg.seed,
        probes=cfg.probe_count(6),
        cache=cache,
    )
    return bank


def _bank_from_cache(cfg: RunConfig):
    """Load calibrated kernels strictly from the cache; never recalibrate."""
    cache = KernelCache(cfg.cache_path)
    bank, missing = {}, []
    for idx in index_range(cfg.n, cfg.h_max):
        ck = cache.get(idx)
        if ck is None:
            missing.append(f"({idx.h},{idx.m})")
        else:
            bank[(idx.h, idx.m)] = ck
    if missing:
        raise UsageError(
            f"calibration cache {cfg.cache_path!r} is missing {len(missing)} entries "
            f"(first: {', '.join(missing[:4])}); run "
            f"`quatsphere calibrate --n {cfg.n} --h-max {cfg.h_max}` first"
        )
    return bank


def _out_base(cfg: RunConfig, default: str) -> Path:
    base = Path(cfg.output_path) if cfg.output_path else Path(default)
    if base.suffix:
        base = base.with_suffix("")
    base.parent.mkdir(parents=True, exist_ok=True)
    return base


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_calibrate(cfg: RunConfig) -> int:
    cache = KernelCache(cfg.cache_path)
    for idx in index_range(cfg.n, cfg.h_max):
        ck = cache.get_or_calibrate(idx, cfg.mc_samples, cfg.seed, cfg.probe_count(6))
        print(f"({idx.h},{idx.m}): c={ck.c:+.6e} spread={ck.spread:.4f}")
    cache.save()
    print(f"cache written to {cfg.cache_path}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    bank = _bank(cfg)
    summary = run_verification(
        bank, cfg.n, cfg.h_max, cfg.epsilon, cfg.mc_samples, cfg.fd_step, cfg.seed
    )
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        Path(cfg.output_path).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.output_path).write_text(text)
    else:
        sys.stdout.write(text)
    failing = [c["name"] for c in summary["checks"] if not c["passed"]]
    if failing:
        print("FAILED checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_spectrum(measure_name: str, cfg: RunConfig) -> int:
    measure = resolve_measure(measure_name, cfg)
    if measure.n != cfg.n:
        raise UsageError(f"measure has n={measure.n} but config says n={cfg.n}")
    bank = _bank_from_cache(cfg)
    report = spectrum_scan(
        measure, bank, cfg.h_max, cfg.epsilon,
        probes=cfg.probe_count(384), seed=cfg.seed,
    )
    base = _out_base(cfg, "spectrum")
    report.write_csv(base.with_suffix(".csv"))
    report.write_json(base.with_suffix(".json"))
    for e in report.flagged():
        print(f"nonzero at ({e.h},{e.m}) in_cone={e.in_cone} norm_sq={e.norm_sq:.4e}")
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}")
    return 0


def cmd_multiplier(measure_name: str, cfg: RunConfig) -> int:
    measure = resolve_measure(measure_name, cfg)
    if measure.n != cfg.n:
        raise UsageError(f"measure has n={measure.n} but config says n={cfg.n}")
    bank = _bank_from_cache(cfg)
    xs = sphere_samples(cfg.n, cfg.probe_count(64), [cfg.seed, _TAG_MULT])
    result = apply_multiplier(measure, bank, cfg.epsilon, cfg.h_max, xs)
    base = _out_base(cfg, "multiplier")
    _write_json(
        base.with_suffix(".json"),
        {
            "measure": measure.name,
            "epsilon": cfg.epsilon,
            "h_max": cfg.h_max,
            "last_shell_magnitude": result.last_shell_magnitude,
            "values": [float(v) for v in result.values],
        },
    )
    print(f"last-shell magnitude {result.last_shell_magnitude:.4e} (truncation tail heuristic)")
    print(f"wrote {base.with_suffix('.json')}")
    return 0


def cmd_dimension(measure_name: str, cfg: RunConfig) -> int:
    measure = resolve_measure(measure_name, cfg)
    est = correlation_dimension(measure, seed=cfg.seed)
    base = _out_base(cfg, "dimension")
    _write_json(base.with_suffix(".json"), est.to_json_dict())
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write("r,C\n")
        for r, c in zip(est.r_values, est.c_values):
            fh.write(f"{r!r},{c!r}\n")
    print(f"dimension estimate {est.s_hat:.3f} (residual {est.residual:.3f})")
    print(f"wrote {base.with_suffix('.json')} and {base.with_suffix('.csv')}")
    return 0


def cmd_report(measure_name: str, cfg: RunConfig) -> int:
    measure = resolve_measure(measure_name, cfg)
    if measure.n != cfg.n:
        raise UsageError(f"measure has n={measure.n} but config says n={cfg.n}")
    bank = _bank_from_cache(cfg)
    report = theorem_consistency_report(
        measure, bank, cfg.epsilon, cfg.h_max, seed=cfg.seed,
        probes=cfg.probe_count(384),
    )
    base = _out_base(cfg, "report")
    _write_json(base.with_suffix(".json"), report.to_json_dict())
    print(
        f"cone condition plausible: {report.cone_condition_plausible}; "
        f"dim estimate {report.dim_estimate.s_hat:.3f} vs bound {report.bound_4n_minus_4}; "
        f"consistent: {report.consistent}"
    )
    print(f"wrote {base.with_suffix('.json')}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--n", type=int)
    p.add_argument("--h-max", dest="h_max", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--probes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--fd-step", dest="fd_step", type=float)
    p.add_argument("--cache", dest="cache_path")
    p.add_argument("--out", dest="output_path")
    p.add_argument("--atoms", type=int, help="atom count for generated fixtures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatsphere", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_measure in [
        ("calibrate", False),
        ("verify", False),
        ("spectrum", True),
        ("multiplier", True),
        ("dimension", True),
        ("report", True),
    ]:
        p = sub.add_parser(name)
        if needs_measure:
            p.add_argument("measure", help="fixture name or measure file")
        _add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        if not Path(args.config).exists():
            raise UsageError(f"config file {args.config!r} not found")
        values.update(load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(args.measure, cfg)
        if args.command == "multiplier":
            return cmd_multiplier(args.measure, cfg)
        if args.command == "dimension":
            return cmd_dimension(args.measure, cfg)
        if args.command == "report":
            return cmd_report(args.measure, cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (CalibrationError, UnusableKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
