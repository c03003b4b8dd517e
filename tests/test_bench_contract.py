"""The benchmark runs against this checkout and reports a correct result.

perfbench/workloads.py builds its kernel banks through zonal_kernel.calibrate
and leaves out every index that raises, so a change to that API shows up
there as an emptied bank and a failed scan, not as an error here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scan", "dimension", "verify"])
def test_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
