"""Spans at the module boundaries of `padictrees`, recorded from outside.

`Tracer.install()` replaces each target function with a wrapper in every
`padictrees` module that holds a reference to it (a name imported with
`from .x import f` is a separate binding in each importing module), and
methods on their class. While a job is active (`Tracer.job` is set) each
call records one span: name, start, end, parent span and job id. Spans are
kept in flat arrays in memory and written out by `Tracer.dump`.

`Tracer.summary()` turns the spans into calls, inclusive time and self time
per name and per layer (module). Self time is a span's duration minus the
durations of its direct children; one thread runs every job, so children
never overlap and their durations sum to the part of the parent they cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# (layer, attribute): the public functions at each layer's boundary.
TARGETS = [
    ("cli", "main"),
    ("enum_trees", "lifted_tree"),
    ("enum_trees", "naive_tree"),
    ("padic", "newton_certify"),
    ("padic", "eth_root_lift"),
    ("polysys", "PolySystem.eval_poly"),
    ("polysys", "PolySystem.partial"),
    ("polysys", "PolySystem.jacobian_minor"),
    ("trees", "TruncTree.to_json"),
    ("trees", "from_points"),
    ("trees", "is_isomorphic"),
    ("trees", "product"),
    ("gamma", "cell_gf"),
    ("gamma", "members"),
    ("ratfun", "gf_add"),
    ("ratfun", "gf_mul"),
    ("ratfun", "substitute"),
    ("ratfun", "expand_series"),
    ("datum", "validate"),
    ("datum", "expand"),
    ("poincare", "datum_poincare"),
    ("realize", "realize"),
    ("realize", "verify_realization"),
]

LAYERS = sorted({layer for layer, _ in TARGETS})


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


# Spans each workload must record; a target listed here that is never
# called means the wiring missed a binding, and the traced run fails.
EXPECTED = {
    "enum": {
        "cli.main", "enum_trees.lifted_tree", "enum_trees.naive_tree",
        "padic.newton_certify", "polysys.eval_poly", "polysys.partial",
        "polysys.jacobian_minor", "trees.to_json",
    },
    "series": {
        "cli.main", "poincare.datum_poincare", "datum.validate",
        "gamma.cell_gf", "gamma.members", "ratfun.gf_add", "ratfun.gf_mul",
        "ratfun.substitute", "ratfun.expand_series",
    },
    "realize": {
        "cli.main", "realize.realize", "realize.verify_realization",
        "trees.from_points", "trees.is_isomorphic", "trees.product",
        "padic.eth_root_lift", "datum.expand", "datum.validate",
    },
}


def _observers():
    """Counts taken from return values at the boundary, keyed by span name.

    They run when the job has ended, outside every span.
    """
    padic = importlib.import_module("padictrees.padic")
    enum_trees = importlib.import_module("padictrees.enum_trees")

    def lifted(counts, result):
        tree, statuses = result
        counts["enum_trees.lifted_nodes"] += tree.num_nodes()
        counts["enum_trees.statuses"] += len(statuses)
        for st in statuses.values():
            if isinstance(st, enum_trees.Yes):
                kind = "yes_newton" if isinstance(st.certificate, padic.Certified) else "yes_witness"
            elif isinstance(st, enum_trees.No):
                kind = "no"
            else:
                kind = "unknown"
            counts[f"enum_trees.status_{kind}"] += 1

    def naive(counts, result):
        counts["enum_trees.naive_nodes"] += result.num_nodes()

    def newton(counts, result):
        counts["padic.newton_certify.certified"] += isinstance(result, padic.Certified)

    def expand(counts, result):
        counts["datum.expand_nodes"] += result.num_nodes()

    def cloud(counts, result):
        counts["realize.cloud_points"] += len(result.points)

    return {
        "enum_trees.lifted_tree": lifted,
        "enum_trees.naive_tree": naive,
        "padic.newton_certify": newton,
        "datum.expand": expand,
        "realize.realize": cloud,
    }


COUNT_NAMES = [
    "enum_trees.lifted_nodes", "enum_trees.statuses",
    "enum_trees.status_yes_newton", "enum_trees.status_yes_witness",
    "enum_trees.status_no", "enum_trees.status_unknown",
    "enum_trees.naive_nodes", "padic.newton_certify.certified",
    "datum.expand_nodes", "realize.cloud_points",
]


class Tracer:
    def __init__(self):
        self.names = [span_name(layer, attr) for layer, attr in TARGETS]
        self.layer_of = [layer for layer, _ in TARGETS]
        self.job = -1  # spans are recorded only while a job is active
        self._patches = []  # (owner, attribute, original, wrapper)
        self._observe = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counts."""
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name = array("H")
        self.jobid = array("l")
        # 1 when no enclosing span has the same name (resp. layer): the
        # inclusive time of a recursive function counts only those spans
        self.outer = array("b")
        self.layer_outer = array("b")
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._layer_active = {layer: 0 for layer in LAYERS}
        self._pending = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    # -- wiring ------------------------------------------------------------

    def install(self):
        """Wrap every target in every module that binds it; fail if one is missing."""
        if self._patches:
            return
        mods = [m for n, m in list(sys.modules.items())
                if n == "padictrees" or n.startswith("padictrees.")]
        self._observe = _observers()
        for nid, (layer, attr) in enumerate(TARGETS):
            mod = importlib.import_module(f"padictrees.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise RuntimeError(f"trace target padictrees.{layer}.{attr} is missing")
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig, self._wrap(nid, orig)))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                raise RuntimeError(f"trace target padictrees.{layer}.{attr} is missing")
            wrapper = self._wrap(nid, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig, wrapper))
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def _wrap(self, nid: int, fn):
        tr = self
        layer = self.layer_of[nid]
        observe = self._observe.get(self.names[nid])

        def wrapper(*args, **kwargs):
            if tr.job < 0:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.start.append(0)
            tr.end.append(0)
            tr.parent.append(tr._stack[-1])
            tr.name.append(nid)
            tr.jobid.append(tr.job)
            tr.outer.append(tr._active[nid] == 0)
            tr.layer_outer.append(tr._layer_active[layer] == 0)
            tr._stack.append(idx)
            tr._active[nid] += 1
            tr._layer_active[layer] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr._layer_active[layer] -= 1
                tr._active[nid] -= 1
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if observe is not None:
                tr._pending.append((observe, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def end_job(self):
        """Leave the active job and take the counts from its return values."""
        self.job = -1
        for observe, result in self._pending:
            observe(self.counts, result)
        self._pending = []

    # -- arithmetic --------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name and per layer."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        keys = self.names + LAYERS
        calls = dict.fromkeys(keys, 0)
        total = dict.fromkeys(keys, 0)
        self_ns = dict.fromkeys(keys, 0)
        for i in range(n):
            name = self.names[self.name[i]]
            layer = self.layer_of[self.name[i]]
            dur = end[i] - start[i]
            own = dur - child[i]
            calls[name] += 1
            calls[layer] += 1
            self_ns[name] += own
            self_ns[layer] += own
            if self.outer[i]:
                total[name] += dur
            if self.layer_outer[i]:
                total[layer] += dur
        return {
            key: {"calls": calls[key], "total_s": total[key] / 1e9, "self_s": self_ns[key] / 1e9}
            for key in keys
        }

    def dump(self, path: str, jobs: list[str]):
        """Write the spans: a JSON header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "format": 1,
                "fields": ["name", "start_ns", "end_ns", "parent", "job"],
                "names": self.names,
                "jobs": jobs,
            }) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.start[i]} {self.end[i]} "
                         f"{self.parent[i]} {self.jobid[i]}\n")
