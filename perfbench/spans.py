"""Span recorder and per-layer instrumentation for the traced benchmark run.

Spans are kept in memory as [name, start, end, parent] rows and written out
as JSON when the run ends.  Instrumentation wraps the public functions of
each quatsphere module at every attribute that refers to them (a function
imported by name into another module is wrapped there too), so the spans sit
at the layer boundaries without touching the library's source.  Nothing is
wrapped outside an `Instrumentation.installed()` block, so untraced runs
execute the library unchanged.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LAYERS = ("quat_core", "ortho_poly", "zonal_kernel", "spectral", "dimension_lab", "diffops", "verification")

Counter = Callable[[tuple, dict, Any], float]


class SpanRecorder:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self, name: str):
        self.name = name
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.

        A span's self time is its duration minus the durations of its direct
        children; spans nest because the benchmark is single-threaded.  Time
        inside a recursive call is counted once in the total.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own[name] = own.get(name, 0.0) + dur - child[sid]
            # count a recursive call's time once
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] = total.get(name, 0.0) + dur
        return total, own

    def to_json_dict(self) -> dict:
        return {"name": self.name, "spans": self.spans, "counters": self.counters}


@dataclass(frozen=True)
class Probe:
    """One public function of a layer and the metrics reported for it."""

    metric: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    report: tuple[str, ...]  # any of calls, total_s, self_s and counter names
    counters: dict[str, Counter] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]

    @property
    def attr_path(self) -> list[str]:
        return self.metric.split(".")[1:]


def _size(x) -> float:
    return float(np.size(x))


def _gflop(args, kwargs, result) -> float:
    # four (M x d) @ (d x N) products: a and the three imaginary components
    xs, ys = args[0], args[1]
    return 8.0 * xs.shape[0] * ys.shape[0] * xs.shape[1] / 1e9


def _distance_pairs(args, kwargs, result) -> float:
    # pair counts run max_refs (default 4096) reference atoms against all atoms
    atoms = args[0].natoms
    max_refs = kwargs.get("max_refs", 4096)
    return float(min(atoms, max_refs) * atoms)


def _check_failed(args, kwargs, result) -> float:
    return 0.0 if result.passed else 1.0


PROBES = (
    Probe("quat_core.sphere_samples", ("calls", "self_s", "points"),
          {"points": lambda a, k, r: float(r.shape[0])}),
    Probe("quat_core.pair_invariants", ("calls", "self_s", "pairs"),
          {"pairs": lambda a, k, r: _size(r[0])}),
    Probe("quat_core.pair_invariants_matrix", ("calls", "self_s", "pairs", "gflop"),
          {"pairs": lambda a, k, r: _size(r[0]), "gflop": _gflop}),
    Probe("ortho_poly.jacobi_eval", ("calls", "self_s", "elements"),
          {"elements": lambda a, k, r: _size(r)}),
    Probe("ortho_poly.cheb_u_scaled", ("calls", "self_s", "elements"),
          {"elements": lambda a, k, r: _size(r)}),
    Probe("zonal_kernel.calibrate", ("calls", "self_s", "failed", "unusable"),
          {"unusable": lambda a, k, r: 0.0 if r.usable else 1.0}),
    Probe("zonal_kernel.raw_kernel_values", ("calls", "self_s", "elements"),
          {"elements": lambda a, k, r: _size(r)}),
    Probe("zonal_kernel.CalibratedKernel.values", ("calls", "pairs"),
          {"pairs": lambda a, k, r: _size(r)}),
    Probe("spectral.spectrum_scan", ("calls", "total_s", "self_s", "kernel_pairs", "kernel_pairs_per_s"),
          {"kernel_pairs": lambda a, k, r: float(a[0].natoms * r.probes * len(r.entries))}),
    Probe("spectral.project_values", ("calls", "self_s", "pairs"),
          {"pairs": lambda a, k, r: float(a[0].natoms * r.shape[0])}),
    Probe("spectral.apply_multiplier", ("calls", "total_s", "points"),
          {"points": lambda a, k, r: _size(r.values)}),
    Probe("spectral.function_measure", ("total_s", "self_s", "proposed", "accepted", "accept_ratio"),
          {"accepted": lambda a, k, r: float(r.natoms)}),
    Probe("dimension_lab.correlation_dimension", ("calls", "total_s", "distance_pairs"),
          {"distance_pairs": _distance_pairs}),
    Probe("dimension_lab.gen_sp1_orbit", ("total_s",)),
    Probe("dimension_lab.gen_uniform", ("total_s",)),
    Probe("dimension_lab.gen_subsphere", ("total_s",)),
    Probe("diffops.eigencheck", ("calls", "total_s", "probes_used", "probes_requested"),
          {"probes_used": lambda a, k, r: float(r.probes_used),
           "probes_requested": lambda a, k, r: float(k.get("probes", a[2] if len(a) > 2 else 8))}),
    Probe("diffops.laplace_beltrami_apply", ("calls", "self_s")),
    Probe("diffops.gamma_apply", ("calls", "self_s")),
    *(Probe(f"verification.check_{name}", ("total_s",), {"checks_failed": _check_failed})
      for name in ("l1_l2", "psi", "cone_gap", "eigenvalues", "orthogonality", "idempotency")),
)

# the benchmark's own rejection-sampling density counts the points it is
# evaluated at (pilot included) under this name
PROPOSED = "spectral.function_measure.proposed"


def _resolve(probe: Probe):
    """(owner, attribute name, function) for a probe, or None if it is gone."""
    try:
        owner = importlib.import_module(f"quatsphere.{probe.layer}")
    except ImportError:
        return None
    path = probe.attr_path
    for name in path[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, path[-1], None)
    return (owner, path[-1], fn) if callable(fn) else None


class Instrumentation:
    """Wraps every probed function while installed; records into `recorder`."""

    def __init__(self):
        self.recorder: SpanRecorder | None = None
        self.present = [p for p in PROBES if _resolve(p) is not None]
        self.absent = {p.metric for p in PROBES if _resolve(p) is None}

    def _wrap(self, probe: Probe, fn):
        inst = self

        def wrapper(*args, **kwargs):
            rec = inst.recorder
            rec.add(probe.metric + ".calls")
            sid = rec.open(probe.metric)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.add(probe.metric + ".failed")
                raise
            finally:
                rec.close(sid)
            for name, count in probe.counters.items():
                try:
                    value = count(args, kwargs, result)
                except Exception:  # a later library changed this result; the metric is absent
                    inst.absent.add(f"{probe.metric}.{name}")
                    continue
                rec.add(f"{probe.metric}.{name}", value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, recorder: SpanRecorder):
        """Patch every attribute that refers to a probed function, then restore."""
        patches = []  # (owner, name, original)
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("quatsphere") and m is not None]
        for probe in self.present:
            owner, attr, fn = _resolve(probe)
            wrapper = self._wrap(probe, fn)
            if len(probe.attr_path) > 1:  # a method: patch the class attribute
                patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, name, value))
                        setattr(mod, name, wrapper)
        self.recorder = recorder
        try:
            yield recorder
        finally:
            self.recorder = None
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)


def layer_metrics(inst: Instrumentation, setup: SpanRecorder, rounds: list[SpanRecorder]) -> dict[str, float]:
    """Per-layer metrics: the traced set-up plus the mean over traced rounds."""

    def one(rec: SpanRecorder) -> dict[str, float]:
        total, own = rec.times()
        out = {}
        for probe in inst.present:
            for key in probe.report:
                if key == "total_s":
                    out[f"{probe.metric}.total_s"] = total.get(probe.metric, 0.0)
                elif key == "self_s":
                    out[f"{probe.metric}.self_s"] = own.get(probe.metric, 0.0)
                elif key in ("kernel_pairs_per_s", "accept_ratio"):
                    continue  # ratios are formed after summing
                else:
                    out[f"{probe.metric}.{key}"] = rec.counters.get(f"{probe.metric}.{key}", 0.0)
        out["verification.checks_failed"] = sum(
            rec.counters.get(f"{p.metric}.checks_failed", 0.0) for p in inst.present if p.layer == "verification"
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.split(".", 1)[0] == layer)
        return out

    merged = {k: v for k, v in one(setup).items() if k not in inst.absent}
    per_round = [one(r) for r in rounds]
    for key in merged:
        if per_round:
            merged[key] += sum(r[key] for r in per_round) / len(per_round)
    scan = "spectral.spectrum_scan"
    if f"{scan}.total_s" in merged:
        t = merged[f"{scan}.total_s"]
        merged[f"{scan}.kernel_pairs_per_s"] = merged[f"{scan}.kernel_pairs"] / t if t > 0 else 0.0
    fm = "spectral.function_measure"
    if f"{fm}.accepted" in merged:
        proposed = merged[f"{fm}.proposed"]
        merged[f"{fm}.accept_ratio"] = merged[f"{fm}.accepted"] / proposed if proposed > 0 else 0.0
    return merged


def write_trace(path, recorders: list[SpanRecorder], extra: dict):
    payload = {**extra, "recorders": [r.to_json_dict() for r in recorders]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
