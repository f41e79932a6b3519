"""Self-test of the benchmark: each workload at a tiny size, in both modes.

    python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, trace, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            out[workload, trace] = (lines, json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(results, workload, trace):
    lines, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac: 0.0" in lines
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        row = re.compile(rf"{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n=[1-9]\d*$")
        assert any(row.match(line) for line in lines), m["name"]


def test_layers_touched_per_workload(results):
    for workload in WORKLOADS:
        layer = results[workload, 1][1]["metrics"]
        assert (layer["orbits.enumerate_points.calls"]["value"] > 0) == (workload == "scan")
        assert (layer["trace_algebra.calls"]["value"] > 0) == (workload == "orbit-search")


def test_move_counts_repeat(results):
    lines, result = results["orbit-search", 1]
    again = json.loads(run("orbit-search", 1).stdout.splitlines()[-1])
    for name, m in result["metrics"].items():
        if name.startswith("moves.") and name.endswith(".calls"):
            assert again["metrics"][name] == m


def test_refuses_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("scan", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
