"""The benchmark runs against this checkout and reports a correct result.

perfbench/workloads.py builds its kernel banks through zonal_kernel.calibrate
and leaves out every index that raises, so a change to that API shows up
there as an emptied bank and a failed scan, not as an error here.

Only a traced run reports the per-layer metrics BENCHMARK.json lists, and
perfbench/spans.py leaves a metric out, printing an `absent:` line, when its
probed name no longer resolves or its counter raises.  Which probes are
present depends on name resolution alone, and scan's set-up calls the one
counter that reads a kernel attribute, so one traced scan covers them all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [("scan", 0), ("dimension", 0), ("verify", 0), ("scan", 1)],
    ids=["scan", "dimension", "verify", "scan-traced"],
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
