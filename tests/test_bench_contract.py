"""The benchmark runs against this checkout and reports a correct result.

perfbench/workloads.py builds its kernel banks through zonal_kernel.calibrate
and leaves out every index that raises, so a change to that API shows up
there as an emptied bank and a failed scan, not as an error here.

Only a traced run reports the per-layer metrics BENCHMARK.json lists, and
perfbench/spans.py leaves a metric out, printing an `absent:` line, when its
probed name no longer resolves or its counter raises.  A counter runs only
when its function is called, and the three workloads call different ones:
eigencheck's `probes_requested` runs only in verify and
correlation_dimension's `distance_pairs` only in dimension (a traced scan
reads both as 0), so each workload gets a traced run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the counter that only this workload's traced run exercises
OWN_COUNTER = {
    "verify": "diffops.eigencheck.probes_requested",
    "dimension": "dimension_lab.correlation_dimension.distance_pairs",
}


@pytest.mark.parametrize(
    "workload, trace",
    [("scan", 0), ("dimension", 0), ("verify", 0), ("scan", 1), ("verify", 1), ("dimension", 1)],
    ids=["scan", "dimension", "verify", "scan-traced", "verify-traced", "dimension-traced"],
)
def test_workload_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    if trace:
        listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        assert [name for name in listed if name not in result["metrics"]] == []
        assert [line for line in proc.stdout.splitlines() if "absent:" in line] == []
        if workload in OWN_COUNTER:
            assert result["metrics"][OWN_COUNTER[workload]]["value"] > 0
        if workload == "scan":
            # CalibratedKernel.usable is a constant now, so the unusable count must read 0 from real calls
            assert result["metrics"]["zonal_kernel.calibrate.calls"]["value"] > 0
            assert result["metrics"]["zonal_kernel.calibrate.unusable"]["value"] == 0
