"""The traced run's counts repeat exactly.

    python3 -m pytest perfbench/test_counts.py -q     # about 3 minutes

Runs the traced run of each workload twice and requires every count to be
equal, so that a later claim resting on a count (such as fewer gate
applications) compares like with like.  Timings are not compared.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ts_readme", "ts_wide_t2", "ts_maps")


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".bytes")) or name in {
        "kernels.row_gates", "kernels.bytes_computed", "circuits.forward_rows",
        "training.epochs", "metrics.map_points", "cli.files_written", "cli.bytes_written",
        "trace.spans",
    }


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    counts = {name for name in first["metrics"] if is_count(name)}
    assert {"kernels.per_row.calls", "kernels.row_gates", "kernels.bytes_computed",
            "training.epochs", "metrics.map_points", "cli.bytes_written"} <= counts
    for name in sorted(counts):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["kernels.row_gates"]["value"] > 0
