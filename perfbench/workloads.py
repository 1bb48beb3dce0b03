"""Job lists of the three workloads and the output checks for each job.

A job is one `padictrees` command line. `build(workload, seed, workdir, tiny)`
writes the job's input files into `workdir` and returns the jobs; `Job.check`
verifies a finished job against a route independent of the one the CLI took
and runs outside the timed region.

The modules of `padictrees` are looked up when `build` is called, so that the
set-up measurement in `run.py` can import them afresh for each repetition.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("enum", "series", "realize")


@dataclass
class Job:
    name: str
    argv: list[str]
    outputs: list[str]  # files the command writes, sidecars included
    check: Callable[[int, str], "Outcome"]


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    statuses: int = 0  # lift statuses the command reported
    unknown: int = 0  # of which Unknown


def _pkg(module: str):
    return importlib.import_module(f"padictrees.{module}")


def _write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Job]:
    rng = random.Random(seed)
    if workload == "enum":
        return _enum_jobs(rng, workdir, tiny)
    if workload == "series":
        return _series_jobs(rng, workdir, tiny)
    if workload == "realize":
        return _realize_jobs(rng, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# enum: `padictrees enum SYS --depth D --out F`
# ---------------------------------------------------------------------------

# (name, p, depth, tiny depth): the singular, smooth (Hensel), exhaustion-
# heavy and full-space cases. All but x^2 = 0 stop one depth below the size
# at which they take seconds, so that a run holds several passes.
_ENUM = [
    ("cusp-p5", 5, 5, 3),
    ("cusp-p3", 3, 7, 4),
    ("parabola-p5", 5, 5, 3),
    ("double-root-p3", 3, 16, 6),
    ("zp-p5", 5, 6, 3),
]


def _enum_jobs(rng: random.Random, workdir: str, tiny: bool) -> list[Job]:
    ps, datum = _pkg("polysys"), _pkg("datum")
    jobs = []
    for name, p, depth, tiny_depth in _ENUM:
        d = tiny_depth if tiny else depth
        if name.startswith("cusp"):
            # x^3 = y^2 moved by an integer shift: the witness moves with the
            # system and the layer sizes stay those of the cusp datum
            shift = (rng.randrange(-p**3, p**3), rng.randrange(-p**3, p**3))
            system = ps.cusp_system(p).translate(shift)
            want = datum.expand_counts(datum.cusp_datum(p), (), p, d)
        elif name.startswith("parabola"):
            shift = (rng.randrange(-p**3, p**3), rng.randrange(-p**3, p**3))
            system = ps.make_system(p, 2, [[(1, (0, 1)), (-1, (2, 0))]], [(0, 0)])
            system = system.translate(shift)
            want = [p**k for k in range(d + 1)]
        elif name.startswith("double-root"):
            system = ps.make_system(p, 1, [[(1, (2,))]])
            want = datum.expand_counts(datum.point_datum(), (), p, d)
        else:
            system = ps.make_system(p, 1, [], allow_empty=True)
            want = datum.expand_counts(datum.zpn_datum(1, p), (), p, d)
        src = _write_json(f"{workdir}/{name}.sys.json", system.to_json())
        out = f"{workdir}/{name}.tree.json"
        jobs.append(Job(
            name,
            ["enum", src, "--depth", str(d), "--out", out],
            [out, out + ".status.json"],
            _enum_check(out, want),
        ))
    return jobs


def _enum_check(out: str, want: list[int]):
    def check(rc: int, stdout: str) -> Outcome:
        with open(out) as fh:
            tree = json.load(fh)
        with open(out + ".status.json") as fh:
            rows = json.load(fh)["statuses"]
        # A Newton row's "depth" holds the certificate's depth, which
        # overwrites the class depth; the other rows keep the class depth.
        # So a tree node passes when no row at its depth and label says
        # anything but yes, and some yes row carries its label.
        not_yes_at = {(r["depth"], tuple(r["label"])) for r in rows if r["status"] != "yes"}
        yes_labels = {tuple(r["label"]) for r in rows if r["status"] == "yes"}
        unknown = sum(r["status"] == "unknown" for r in rows)
        sizes = [len(layer) for layer in tree["layers"]]
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}")
        if sizes != want:
            problems.append(f"layer sizes {sizes} != {want}")
        not_yes = sum(
            (d, tuple(lab)) in not_yes_at or tuple(lab) not in yes_labels
            for d, layer in enumerate(tree.get("labels", []))
            for lab in layer
        )
        if not_yes:
            problems.append(f"{not_yes} tree nodes without status yes")
        return Outcome(not problems, "; ".join(problems), len(rows), unknown)
    return check


# ---------------------------------------------------------------------------
# series: `padictrees poincare --datum D --p P --coeffs K`
# ---------------------------------------------------------------------------

_SERIES_COEFFS, _SERIES_TINY_COEFFS = 10, 4
_SERIES_RANDOM = [(3, 2), (5, 2)]  # (p, number of seeded random data)


def _series_jobs(rng: random.Random, workdir: str, tiny: bool) -> list[Job]:
    import datum_gen

    datum = _pkg("datum")
    K = _SERIES_TINY_COEFFS if tiny else _SERIES_COEFFS
    data = [
        ("zpn2-p5", datum.zpn_datum(2, 5), 5),
        ("zpn2-p3", datum.zpn_datum(2, 3), 3),
        ("cusp-p3", datum.cusp_datum(3), 3),
        ("cusp-p5", datum.cusp_datum(5), 5),
    ]
    if tiny:
        data = [d for d in data if d[0] in ("zpn2-p3", "cusp-p3")]
    for p, count in _SERIES_RANDOM:
        for i, D in enumerate(datum_gen.sample_data(rng.randrange(2**32), count, p, K)):
            data.append((f"random-p{p}-{i}", D, p))
    jobs = []
    for name, D, p in data:
        src = _write_json(f"{workdir}/{name}.datum.json", D.to_json())
        want = datum.expand_counts(D, (), p, K)
        jobs.append(Job(
            name,
            ["poincare", "--datum", src, "--p", str(p), "--coeffs", str(K)],
            [],
            _series_check(want),
        ))
    return jobs


def _series_check(want: list[int]):
    def check(rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(False, f"exit {rc}")
        got = [Fraction(c) for c in json.loads(stdout)["coeffs"]]
        if got != want:
            return Outcome(False, f"series {got} != expand_counts {want}")
        return Outcome(True)
    return check


# ---------------------------------------------------------------------------
# realize: `padictrees realize D --p P --depth d --check --out F`
# ---------------------------------------------------------------------------

# (p, depth, nodes, smallest, largest): seeded random leafless data are
# drawn until their expansions hold `nodes` nodes between them, less at most
# `smallest`. A datum counts when its expansion has between `smallest` and
# `largest` nodes, or any number that fits once fewer than twice `smallest`
# remain. The seed then changes the data but hardly the work, which grows
# with the nodes, and the draws end quickly.
_REALIZE_RANDOM = [(3, 6, 3000, 40, 400), (5, 5, 3000, 40, 400)]
_REALIZE_TINY_RANDOM = [(3, 4, 60, 5, 60), (5, 4, 60, 5, 60)]


def _random_leafless(rng: random.Random, p, depth, nodes, smallest, largest):
    import datum_gen

    datum = _pkg("datum")
    out = []
    while nodes >= smallest:
        D = datum_gen.random_leafless_datum(rng, rng.randint(0, 1))
        if datum.validate(D):
            continue
        size = sum(datum.expand_counts(D, (), p, depth))
        if size <= nodes and (smallest <= size <= largest or nodes < 2 * smallest):
            out.append(D)
            nodes -= size
    return out


def _realize_jobs(rng: random.Random, workdir: str, tiny: bool) -> list[Job]:
    datum = _pkg("datum")
    data = [
        ("cusp-p3", datum.cusp_datum(3), 3, 4 if tiny else 8),
        ("cusp-p5", datum.cusp_datum(5), 5, 3 if tiny else 5),
    ]
    for p, depth, *nodes in _REALIZE_TINY_RANDOM if tiny else _REALIZE_RANDOM:
        for i, D in enumerate(_random_leafless(rng, p, depth, *nodes)):
            data.append((f"random-p{p}-{i}", D, p, depth))
    jobs = []
    for name, D, p, d in data:
        src = _write_json(f"{workdir}/{name}.datum.json", D.to_json())
        out = f"{workdir}/{name}.cloud.json"
        jobs.append(Job(
            name,
            ["realize", src, "--p", str(p), "--depth", str(d), "--check", "--out", out],
            [out],
            _realize_check(out),
        ))
    return jobs


def _realize_check(out: str):
    WitnessCloud = _pkg("realize").WitnessCloud

    def check(rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(False, f"exit {rc} from --check")
        with open(out) as fh:
            data = json.load(fh)
        cloud = WitnessCloud.from_json(data)
        if cloud.to_json() != data:
            return Outcome(False, "cloud JSON does not round-trip")
        return Outcome(True)
    return check
