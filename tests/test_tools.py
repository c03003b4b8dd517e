"""The cost tools in tools/ still find every function they time.

Each tool times a layer by wrapping a function of the library by name; a
layer whose function is gone would print "-" (or stop) rather than a time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tool", ["pair_walk_costs.py", "product_pass_costs.py"])
def test_every_layer_is_timed(tool):
    proc = subprocess.run(
        [sys.executable, f"tools/{tool}", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    columns = header.split()
    assert rows
    for row in rows:
        name, *values = row.split()
        assert len(values) == len(columns) - 1, row
        for column, value in zip(columns[1:], values):
            assert value.replace(".", "", 1).isdigit(), f"{name}: {column} reads {value!r}"
