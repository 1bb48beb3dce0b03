"""The padictrees benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload {enum,series,realize} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. Every job is a `padictrees` command line
passed in-process to `padictrees.cli.main`, from one process and one thread.
The job list of the workload is run pass after pass until `--seconds` have
gone by (and at least three times). Only the `main` call of each job is
timed; each output is checked outside the timed region, against an
independent route on the first pass and against the first pass's bytes
afterwards.

`--trace 0` reports the end-to-end metrics: `wall_s`, the time of one pass
over the job list (the sum of each job's median); `setup_s`, the median of
several set-ups (fresh import of the package, seeded input generation, input
files); `peak_rss_mb`; and `out_mb`, the bytes the CLI writes in one pass.
`--trace 1` alternates untraced passes with passes traced at the module
boundaries (see `tracer.py`) and reports per-layer calls, inclusive and self
times, counts from return values, and the tracing overhead (traced minus
untraced median pass time).

The speed of a shared machine drifts by a tenth and more over minutes, for
every process on it alike, which no number of passes within one run can
average out. So the run also times a fixed reference kernel just before
every job. Each job time in `wall_s` is the measured time multiplied by the
speed factor REFERENCE_S over the kernel's median time just before the job,
and `setup_s` is multiplied by the run's median factor: seconds at the
machine speed at which the kernel takes REFERENCE_S. The measured seconds
and the median factor are printed as well.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The command exits 1 when a
job fails or a check does not hold, and 2 when the package cannot be
imported from `src/` of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_REPS = 5
REFERENCE_REPS = 5  # reference kernel runs before each job
# median time of reference_kernel() on the machine the benchmark was defined
# on (x86-64, 2 CPUs, Python 3.11.7)
REFERENCE_S = 0.0034
WORKDIR = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fresh_import():
    """Import padictrees from src/ of this checkout, dropping cached modules."""
    for name in list(sys.modules):
        if name == "padictrees" or name.startswith("padictrees.") or name == "datum_gen":
            del sys.modules[name]
    cli = importlib.import_module("padictrees.cli")
    src = ROOT / "src" / "padictrees"
    if Path(cli.__file__).resolve().parent != src:
        raise ImportError(f"padictrees imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Set up SETUP_REPS times; return the last job list and the median time."""
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = workdir / f"setup{rep}"
        t0 = time.perf_counter()
        _fresh_import()
        rep_dir.mkdir(parents=True)
        jobs = workloads.build(workload, seed, str(rep_dir), tiny)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def reference_kernel() -> int:
    """Fixed pure-Python work (integer arithmetic, tuples, a dict, a list)
    that gauges the machine's current speed."""
    acc, table, out = 1, {}, []
    for i in range(4000):
        key = (i % 97, i % 89)
        acc = (acc * 6364136223846793005 + i) % (1 << 64)
        table[key] = table.get(key, 0) + (acc >> 40)
        out.append(key)
    return acc + len(out) + len(table)


def _clear_caches():
    # Each CLI call is a process of its own, so no memo of the package may
    # carry over from one job to the next.
    for name, mod in list(sys.modules.items()):
        if name.startswith("padictrees."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Runner:
    """Runs passes over a job list and keeps the check results."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.statuses = 0
        self.unknown = 0
        self.digests = {}  # job name -> digest of all its output bytes
        self.out_bytes = []  # per pass
        self.job_walls = {job.name: [] for job in jobs}
        # untraced job times multiplied by the speed factor taken just before
        self.scaled_walls = {job.name: [] for job in jobs}
        self.speed = []
        self.problems = []

    def run_pass(self, tr=None) -> float:
        cli = importlib.import_module("padictrees.cli")
        wall = 0.0
        out_bytes = 0
        for jid, job in enumerate(self.jobs):
            _clear_caches()
            gc.collect()
            reference = []
            for _ in range(REFERENCE_REPS):
                t0 = time.perf_counter()
                reference_kernel()
                reference.append(time.perf_counter() - t0)
            stdout, stderr = io.StringIO(), io.StringIO()
            rc, err = None, ""
            if tr is not None:
                tr.job = jid
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = cli.main(list(job.argv))
            except Exception:
                err = traceback.format_exc()
            t1 = time.perf_counter()
            if tr is not None:
                tr.end_job()
            wall += t1 - t0
            if tr is None:
                self.job_walls[job.name].append(t1 - t0)
                self.speed.append(REFERENCE_S / statistics.median(reference))
                self.scaled_walls[job.name].append((t1 - t0) * self.speed[-1])
            self.attempted += 1
            text = stdout.getvalue()
            if rc is None:
                self._fail(job, f"raised\n{err}")
                continue
            data = [text.encode()] + [Path(f).read_bytes() for f in job.outputs if Path(f).exists()]
            out_bytes += sum(len(b) for b in data)
            digest = hashlib.sha256(b"\0".join(data)).hexdigest()
            if job.name not in self.digests:
                try:
                    res = job.check(rc, text)
                except Exception:
                    res = workloads.Outcome(False, traceback.format_exc())
                self.statuses += res.statuses
                self.unknown += res.unknown
                if not res.ok:
                    self._fail(job, f"{res.detail}\n{stderr.getvalue()}")
                    continue
                self.digests[job.name] = digest
            elif digest != self.digests[job.name] or rc != 0:
                self._fail(job, f"exit {rc}, output differs from the first pass")
        self.out_bytes.append(out_bytes)
        return wall

    def _fail(self, job, why):
        self.failed += 1
        self.problems.append(f"{job.name}: {' '.join(job.argv)}: {why.strip()}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float):
    deadline = time.perf_counter() + seconds
    walls = []
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(runner.run_pass())
    return walls


def measure_traced(runner: Runner, seconds: float, workload: str):
    """Alternate untraced and traced passes; per-layer medians of the traced ones."""
    tr = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, summaries, counts = [], [], [], []
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        tr.reset()
        tr.install()
        try:
            traced.append(runner.run_pass(tr))
        finally:
            tr.uninstall()
        summaries.append(tr.summary())
        counts.append(dict(tr.counts))
    if any(c != counts[0] for c in counts) or any(
        {k: v["calls"] for k, v in s.items()} != {k: v["calls"] for k, v in summaries[0].items()}
        for s in summaries
    ):
        runner.problems.append("per-layer counts differ between traced passes")
        runner.failed += 1
    missing = sorted(n for n in tracing.EXPECTED[workload] if summaries[0][n]["calls"] == 0)
    if missing:
        raise RuntimeError(f"traced targets never called on {workload}: {', '.join(missing)}")
    return tr, plain, traced, summaries, counts[0]


def layer_metrics(summaries, counts, plain, traced, runner):
    """Every per-layer metric of BENCHMARK.json, by its name.

    `<span or layer>.calls` is a count; `.total_s` and `.self_s` are the
    medians over the traced passes; other names are counts taken from
    return values, or the ratios below.
    """
    s0 = summaries[0]
    statuses = counts["enum_trees.statuses"]
    certify = s0["padic.newton_certify"]["calls"]
    derived = {
        "enum_trees.kept_share": counts["enum_trees.lifted_nodes"] / statuses if statuses else 0.0,
        "padic.newton_certify.certified_share":
            counts["padic.newton_certify.certified"] / certify if certify else 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "fail_share": runner.failed / runner.attempted,
        "unknown_share": runner.unknown / runner.statuses if runner.statuses else 0.0,
    }
    m = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        key, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        elif key in s0 and field == "calls":
            value = s0[key]["calls"]
        elif key in s0 and field in ("total_s", "self_s"):
            value = statistics.median(s[key][field] for s in summaries)
        else:
            raise KeyError(f"per-layer metric {name} has no source")
        m[name] = _metric(value, spec["unit"])
    return m


def _print_table(summaries):
    s0 = summaries[0]
    print(f"{'span':34} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for key in tracing.LAYERS + [n for n in s0 if n not in tracing.LAYERS]:
        if s0[key]["calls"]:
            total = statistics.median(s[key]["total_s"] for s in summaries)
            own = statistics.median(s[key]["self_s"] for s in summaries)
            print(f"{key:34} {s0[key]['calls']:9d} {total:10.4f} {own:10.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padictrees benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "padictrees" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'padictrees'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        _fresh_import()
    except ImportError as exc:
        print(f"perfbench: cannot import padictrees: {exc}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        jobs, setup_s = setup(args.workload, args.seed, workdir, args.tiny)
        runner = Runner(jobs)
        print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs; "
              f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
        if args.trace:
            tr, plain, traced, summaries, counts = measure_traced(runner, args.seconds, args.workload)
            metrics = layer_metrics(summaries, counts, plain, traced, runner)
            _print_table(summaries)
            print(f"passes: {len(plain)} untraced, median {statistics.median(plain):.4f} s; "
                  f"{len(traced)} traced, median {statistics.median(traced):.4f} s")
            spans = WORKDIR / f"spans-{args.workload}-{args.seed}.txt"
            tr.dump(str(spans), [j.name for j in jobs])
            print(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
        else:
            walls = measure(runner, args.seconds)
            # each job's median over the passes, summed over the job list
            wall = sum(statistics.median(w) for w in runner.job_walls.values())
            speed = statistics.median(runner.speed)
            metrics = {
                "wall_s": _metric(sum(statistics.median(w) for w in runner.scaled_walls.values()), "s"),
                "setup_s": _metric(setup_s * speed, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "out_mb": _metric(statistics.median(runner.out_bytes) / 1e6, "MB"),
            }
            print(f"passes: {len(walls)}, " + " ".join(f"{w:.4f}" for w in walls))
            print(f"measured wall {wall} s, setup {setup_s} s; median speed factor {speed}")
            print(f"fail_share {runner.failed / runner.attempted} ratio")
            unknown = runner.unknown / runner.statuses if runner.statuses else 0.0
            print(f"unknown_share {unknown} ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, walls in runner.job_walls.items():
        print(f"job {name} median {statistics.median(walls):.4f} s over {len(walls)} runs")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    ok = runner.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
