"""Command-line entry point for verification, scans, multipliers and reports.

Each command takes only the options it reads (the COMMANDS table): verify
takes --n --h-max --epsilon --mc-samples --seed --fd-step --out; spectrum,
multiplier and report take a measure and --n --h-max --epsilon --probes
--seed --atoms --out; dimension takes a measure and --n --seed --atoms --out.
Each also takes --config FILE, flat key=value lines keyed by the RunConfig
field names of those options (output_path for --out); flags win over the
file.  Any other flag or key is a usage error.

A measure is a file (a header line "# n=<n>", then one atom per line as 4n+1
comma-separated reals: ambient coordinates, then weight) or one of the
built-in fixtures uniform | point | subsphere:<k> | sp1-orbit, generated
from (n, atoms, seed).  A file's n must be the --n of the command.

Every command builds the kernels it needs from their exact constants, so no
command depends on an earlier run.

Exit codes: 0 success; 1 a check failed or the eigencheck probes are
degenerate; 2 a usage, parameter or I/O error, or a run too large for memory.
Errors print one line on stderr rather than a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .diffops import DegenerateProbesError
from .dimension_lab import (
    DimensionEstimate,
    correlation_dimension,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    theorem_consistency_report,
)
from .quat_core import sphere_samples, unit_point
from .spectral import DiscreteMeasure, apply_multiplier, spectrum_scan
from .verification import run_verification
from .zonal_kernel import calibrate_bank

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
    probes: int = 384
    seed: int = 0
    fd_step: float = 1e-2
    atoms: int = 20_000
    output_path: str = ""

    def __post_init__(self):
        for name, least in (("n", 2), ("h_max", 0), ("mc_samples", 2), ("probes", 1), ("seed", 0), ("atoms", 1)):
            if getattr(self, name) < least:
                words = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
                raise UsageError(f"{name} must be {words}, got {getattr(self, name)}")
        if not 0.0 < self.epsilon < 0.5:
            raise UsageError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if not 1e-4 <= self.fd_step <= 1e-1:
            raise UsageError(f"fd_step must lie in [1e-4, 1e-1], got {self.fd_step}")


# every option parses as the type of its default
_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def load_config_file(path: str, command: str) -> dict:
    """Flat key=value config; keys are the RunConfig fields `command` reads."""
    options = COMMANDS[command].options
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TYPES:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in options:
            raise UsageError(f"{path}:{lineno}: {command} does not read key {key!r}")
        try:
            out[key] = _TYPES[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# measure files and fixtures
# ---------------------------------------------------------------------------


def load_measure(path: str | Path) -> DiscreteMeasure:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].strip().startswith("# n="):
        raise UsageError(f"{path}:1: missing '# n=<n>' header")
    try:
        n = int(lines[0].strip()[4:])
    except ValueError:
        raise UsageError(f"{path}:1: malformed header {lines[0]!r}") from None
    if n < 2:
        raise UsageError(f"{path}:1: n must be at least 2, got {n}")
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
        if not all(map(math.isfinite, vals)):
            raise UsageError(f"{path}:{lineno}: values must be finite")
        if not any(vals[:-1]):
            raise UsageError(f"{path}:{lineno}: atom is the zero vector")
        rows.append(vals[:-1])
        weights.append(vals[-1])
    if not rows:
        raise UsageError(f"{path}: no atoms found")
    pts = np.asarray(rows)
    # the measure checks the atoms before any warning is printed
    measure = DiscreteMeasure(pts, np.asarray(weights), name=Path(path).stem)
    norms = np.linalg.norm(pts, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > 1e-6:
        print(f"warning: renormalized atoms deviating from the sphere by up to {worst:.2e}", file=sys.stderr)
    return measure


def resolve_measure(name: str, cfg: RunConfig) -> DiscreteMeasure:
    """A fixture name or a measure file path; a file's measure must live in the dimension cfg.n."""
    if name == "uniform":
        return gen_uniform(cfg.n, cfg.atoms, cfg.seed)
    if name == "point":
        x0 = unit_point(sphere_samples(cfg.n, 1, [cfg.seed, _TAG_FIXTURE])[0])
        return gen_point_mass(x0)
    if name == "sp1-orbit":
        x0 = unit_point(sphere_samples(cfg.n, 1, [cfg.seed, _TAG_FIXTURE])[0])
        return gen_sp1_orbit(x0, cfg.atoms, cfg.seed)
    if name.startswith("subsphere:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"malformed fixture name {name!r}") from None
        return gen_subsphere(cfg.n, k, cfg.atoms, cfg.seed)  # a ValueError for a bad k exits 2 from main
    if Path(name).exists():
        measure = load_measure(name)
        if measure.n != cfg.n:
            raise UsageError(f"measure has n={measure.n} but config says n={cfg.n}")
        return measure
    raise UsageError(f"{name!r} is neither a fixture name nor an existing file")


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


def cmd_verify(cfg: RunConfig) -> int:
    bank = calibrate_bank(cfg.n, cfg.h_max)
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


def cmd_spectrum(measure: DiscreteMeasure, cfg: RunConfig) -> int:
    bank = calibrate_bank(cfg.n, cfg.h_max)
    report = spectrum_scan(
        measure, bank, cfg.h_max, cfg.epsilon,
        probes=cfg.probes, seed=cfg.seed,
    )
    base = _out_base(cfg, "spectrum")
    report.write_csv(base.with_suffix(".csv"))
    report.write_json(base.with_suffix(".json"))
    for e in report.flagged():
        print(f"nonzero at ({e.h},{e.m}) in_cone={e.in_cone} norm_sq={e.norm_sq:.4e}")
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}")
    return 0


def cmd_multiplier(measure: DiscreteMeasure, cfg: RunConfig) -> int:
    bank = calibrate_bank(cfg.n, cfg.h_max)
    xs = sphere_samples(cfg.n, cfg.probes, [cfg.seed, _TAG_MULT])
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


def _estimate_text(est: DimensionEstimate) -> str:
    return "degenerate" if est.degenerate else f"{est.s_hat:.3f}"


def cmd_dimension(measure: DiscreteMeasure, cfg: RunConfig) -> int:
    est = correlation_dimension(measure, seed=cfg.seed)
    base = _out_base(cfg, "dimension")
    _write_json(base.with_suffix(".json"), est.to_json_dict())
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write("r,C\n")
        for r, c in zip(est.r_values, est.c_values):
            fh.write(f"{r!r},{c!r}\n")
    print(f"dimension estimate {_estimate_text(est)} (residual {est.residual:.3f})")
    print(f"wrote {base.with_suffix('.json')} and {base.with_suffix('.csv')}")
    return 0


def cmd_report(measure: DiscreteMeasure, cfg: RunConfig) -> int:
    bank = calibrate_bank(cfg.n, cfg.h_max)
    report = theorem_consistency_report(
        measure, bank, cfg.epsilon, cfg.h_max, seed=cfg.seed,
        probes=cfg.probes,
    )
    base = _out_base(cfg, "report")
    _write_json(base.with_suffix(".json"), report.to_json_dict())
    print(
        f"cone condition plausible: {report.cone_condition_plausible}; "
        f"dim estimate {_estimate_text(report.dim_estimate)} vs bound {report.bound_4n_minus_4}; "
        f"consistent: {report.consistent}"
    )
    print(f"wrote {base.with_suffix('.json')}")
    return 0


# ---------------------------------------------------------------------------
# the command table and argument plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    run: Callable[..., int]  # run(cfg), or run(measure, cfg) when it takes a measure
    takes_measure: bool
    options: tuple[str, ...]  # the RunConfig fields it reads, in --help order
    defaults: dict = dataclasses.field(default_factory=dict)  # where they differ from RunConfig's


_MEASURE_OPTIONS = ("n", "h_max", "epsilon", "probes", "seed", "atoms", "output_path")

COMMANDS = {
    "verify": Command(cmd_verify, False, ("n", "h_max", "epsilon", "mc_samples", "seed", "fd_step", "output_path")),
    "spectrum": Command(cmd_spectrum, True, _MEASURE_OPTIONS),
    "multiplier": Command(cmd_multiplier, True, _MEASURE_OPTIONS, {"probes": 64}),
    "dimension": Command(cmd_dimension, True, ("n", "seed", "atoms", "output_path")),
    "report": Command(cmd_report, True, _MEASURE_OPTIONS),
}


_HELP = {"mc_samples": "samples of the Monte Carlo idempotency check (orthogonality is exact)"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatsphere", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        if command.takes_measure:
            p.add_argument("measure", help="fixture name or measure file")
        p.add_argument("--config", help="flat key=value config file")
        for option in command.options:
            flag = "--out" if option == "output_path" else "--" + option.replace("_", "-")
            p.add_argument(flag, dest=option, type=_TYPES[option], help=_HELP.get(option))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    command = COMMANDS[args.command]
    values = dict(command.defaults)
    if args.config:
        if not Path(args.config).exists():
            raise UsageError(f"config file {args.config!r} not found")
        values.update(load_config_file(args.config, args.command))
    for option in command.options:
        given = getattr(args, option)
        if given is not None:
            values[option] = given
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = config_from_args(args)
        if command.takes_measure:
            return command.run(resolve_measure(args.measure, cfg), cfg)
        return command.run(cfg)
    except DegenerateProbesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
