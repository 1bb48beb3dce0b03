"""Smoke test of the demos: each runs to the end and prints its checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, line",
    [
        ("cusp_walkthrough.py", "prefix matches:     True"),
        ("glue_and_garland.py", "reglued == whole:  True"),
        ("witness_clouds.py", "manual rebuild matches: True"),
    ],
)
def test_demo_runs(demo, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
