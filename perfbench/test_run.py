"""Output-form test of the benchmark: every workload at reduced size, with
tracing off and on.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# env ")
    env = json.loads(lines[0][len("# env "):])
    assert env["kernel_path"] in ("numba", "numpy")
    assert all(int(cap) <= env["nproc"] for cap in env["thread_cap"].values())
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_output_form(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["value"] >= 0


def test_at_most_the_parallelogram_fails():
    result = _run("assemble-fine", 0)
    # one pass attempts two meshes x (generate, io, staggered, sdg1, sdg2),
    # validate on the poly mesh, and the parallelogram
    assert result["attempted"] % 12 == 0
    assert result["failed"] <= result["attempted"] // 12


def test_layer_times_add_up_to_traced_wall():
    metrics = _run("converge", 1)["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    parts = sum(m["value"] for name, m in metrics.items()
                if m["unit"] == "s" and name != "trace.wall_s")
    assert parts == pytest.approx(wall, rel=1e-9)
