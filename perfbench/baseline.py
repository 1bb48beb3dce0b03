"""Record the benchmark figures of the checked-out program.

    python3 perfbench/baseline.py [--seeds 1 2 ...] [--out perfbench/baseline.json]

Runs `run.py` on every workload of BENCHMARK.json, untraced once per seed
and traced once, each for the registered `run_seconds`. For each workload it
writes the per-seed results, the median of each end-to-end metric in the
form of one result line, the spread of each metric (distance between the
first and third quartile over the median), the traced result, and the
commit, Python version and CPU count the figures belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in args.seeds:
            res = _run(name, seed, seconds, 0)
            runs.append({"seed": seed, **res})
            print(name, seed, {k: v["value"] for k, v in res["metrics"].items()}, flush=True)
        medians, spreads = {}, {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            medians[m["name"]] = {"value": med, "unit": m["unit"]}
            spreads[m["name"]] = (q3 - q1) / med
        print(name, "spread", spreads, flush=True)
        out["workloads"][name] = {
            "result": {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": medians,
            },
            "spread": spreads,
            "runs": runs,
            "traced": {"seed": args.seeds[0], **_run(name, args.seeds[0], seconds, 1)},
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
