"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs untraced once and traced twice: every check passes,
every metric registered in BENCHMARK.json is printed, and every count
repeats exactly between the two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_workloads_registered():
    assert [w["name"] for w in SPEC["workloads"]] == ["enum", "series", "realize"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload):
    plain = _result(_run(ROOT, workload, 0))
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0

    first, second = (_result(_run(ROOT, workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    assert first["metrics"]["fail_share"]["value"] == 0
    assert first["metrics"]["unknown_share"]["value"] == 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "enum", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
