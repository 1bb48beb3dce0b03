"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints a single "[An name] PASS/FAIL" line on the real stdout
(bypassing capture) and then asserts, so a plain pytest run shows the
per-criterion outcomes inline.
"""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

from datum_gen import sample_data
from test_gamma import expand_box

from padictrees.cli import main as cli_main
from padictrees.datum import (
    cusp_datum,
    expand,
    expand_counts,
    point_datum,
    y_datum,
    zpn_datum,
)
from padictrees.enum_trees import (
    Unknown,
    lifted_tree,
    naive_tree,
    tree_on_ball,
    tree_on_cheese,
)
from padictrees.gamma import GammaCell, INFINITY, LinearFn, cell_members
from padictrees.padic import (
    eth_root_lift,
    from_int,
    power_residue_index,
    pval,
    val,
    vec,
)
from padictrees.poincare import datum_poincare
from padictrees.polysys import cusp_system, make_system
from padictrees.ratfun import expand_series
from padictrees.realize import RealizationContext, realize, u_fn, verify_realization
from padictrees.trees import (
    Ball,
    Cheese,
    attach,
    find_node_by_label,
    from_points,
    full_tree,
    is_isomorphic,
    path_tree,
    product,
    subtree,
    y_tree,
)


_writer = None


@pytest.fixture(autouse=True)
def _terminal(request):
    """Route criterion lines to the live terminal despite output capture."""
    global _writer
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        _writer = tr.write_line
    else:
        _writer = lambda s: print(s, file=sys.__stdout__, flush=True)
    yield


def _emit(name, ok, detail):
    mark = "PASS" if ok else "FAIL"
    line = f"[{name}] {mark}" + (f" {detail}" if detail else "")
    _writer(line)


def run_criterion(name, body):
    """Run one criterion body, print its outcome line, then assert."""
    try:
        detail = body()
    except BaseException as exc:
        _emit(name, False, f"{type(exc).__name__}: {exc}")
        raise
    _emit(name, True, detail or "")


def parabola(p):
    return make_system(p, 2, [[(1, (0, 1)), (-1, (2, 0))]])


def cubic_line(p):
    # y = x^3 + x, smooth over Z_p
    return make_system(p, 2, [[(1, (0, 1)), (-1, (3, 0)), (-1, (1, 0))]])


def test_a1_full_space(tmp_path, capsys):
    def body():
        t0 = time.monotonic()
        sys_path = tmp_path / "full.json"
        sys_path.write_text(
            json.dumps(make_system(3, 2, [], allow_empty=True).to_json())
        )
        code = cli_main(
            ["enum", str(sys_path), "--depth", "4", "--format", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0
        layers = [int(x) for x in out.split()]
        assert layers == [1, 9, 81, 729, 6561]
        assert layers == [3 ** (2 * lam) for lam in range(5)]
        series = expand_series(datum_poincare(zpn_datum(2, 3), 3), 4)
        assert series == [Fraction(c) for c in layers]
        dt = time.monotonic() - t0
        assert dt < 5, f"took {dt:.1f}s"
        return f"layers {layers} in {dt:.2f}s"

    run_criterion("A1 full space", body)


def test_a2_point_and_y():
    def body():
        cap = 8
        assert is_isomorphic(expand(point_datum(), (), 3, cap), path_tree(cap))
        for p in (3, 5):
            for kappa in (0, 1, 3, 5):
                t = expand(y_datum(kappa, m=0), (), p, cap)
                pts = [vec(p, cap + 2, [0]), vec(p, cap + 2, [p**kappa])]
                want = from_points(pts, Ball((0,), 0), cap)
                assert is_isomorphic(t, want), (p, kappa)
        return "point = path; Y(kappa) = two-point tree, kappa in {0,1,3,5}"

    run_criterion("A2 point and Y", body)


def test_a3_cusp_end_to_end():
    def body():
        t0 = time.monotonic()
        p, cap = 5, 6
        t, statuses = lifted_tree(cusp_system(p), cap, cap)
        assert t.layer_sizes() == [1, 5, 21, 103, 521, 2603, 13011]
        assert not any(isinstance(st, Unknown) for st in statuses.values())
        assert is_isomorphic(t, expand(cusp_datum(p), (), p, cap))
        ch = t.children_index()
        assert len(ch[0][0]) == p
        spine1 = find_node_by_label(t, 1, (0, 0))
        heads = [
            (1, i) for i in range(t.layer_sizes()[1]) if i != spine1[1]
        ]
        assert len(heads) == p - 1
        for h in heads:
            assert is_isomorphic(subtree(t, h), full_tree(1, p, cap - 1))
        for kappa in (2, 4):
            sp = find_node_by_label(t, kappa, (0, 0))
            assert len(ch[kappa][sp[1]]) == 1 + (p - 1) // 2
        # kappa = 2 side branches double at absolute depth 3
        sp2 = find_node_by_label(t, 2, (0, 0))
        sp3 = find_node_by_label(t, 3, (0, 0))
        for i in ch[2][sp2[1]]:
            if i != sp3[1]:
                assert len(ch[3][i]) == 2 * p
        # kappa = 4 side branches double at absolute depth 6; one extra
        # layer of the expansion makes the doubling visible
        e7 = expand(cusp_datum(p), (), p, 7)
        ch7 = e7.children_index()
        side5 = [i for i in ch7[4][0] if i != 0]
        assert len(side5) == 2
        for i in side5:
            st5 = subtree(e7, (5, i))
            assert st5.layer_sizes() == [1, p, 2 * p * p]
        dt = time.monotonic() - t0
        assert dt < 60, f"took {dt:.1f}s"
        return f"spine/head/bifurcation structure verified in {dt:.1f}s"

    run_criterion("A3 cusp end-to-end", body)


def test_a4_three_way_consistency():
    def body():
        checked = []
        for name, datum_of_p, sys_of_p, primes, caps in (
            (
                "point",
                lambda p: point_datum(),
                lambda p: make_system(p, 1, [[(1, (1,))]]),
                (2, 3, 5),
                {},
            ),
            (
                "zp",
                lambda p: zpn_datum(1, p),
                lambda p: make_system(p, 1, [], allow_empty=True),
                (2, 3, 5),
                {},
            ),
            (
                "zpn2",
                lambda p: zpn_datum(2, p),
                lambda p: make_system(p, 2, [], allow_empty=True),
                (2, 3, 5),
                {3: 5, 5: 4},
            ),
            ("cusp", cusp_datum, cusp_system, (3, 5), {3: 8, 5: 6}),
        ):
            for p in primes:
                cap = caps.get(p, 8)
                datum = datum_of_p(p)
                series = expand_series(datum_poincare(datum, p), cap)
                counts = expand_counts(datum, (), p, cap)
                assert series == [Fraction(c) for c in counts], (name, p)
                lifted, _ = lifted_tree(sys_of_p(p), cap, cap)
                assert lifted.layer_sizes() == counts, (name, p)
                checked.append(f"{name}@p={p}")
        return f"{len(checked)} cases: " + " ".join(checked)

    run_criterion("A4 three-way Poincare", body)


def _random_cell(rng, m):
    bounds = []
    cong = []
    for i in range(m):
        coeffs = [Fraction(rng.randint(0, 3)) for _ in range(i)]
        lo = LinearFn(tuple(coeffs), Fraction(rng.randint(0, 3)))
        if rng.random() < 0.5:
            hi = INFINITY
        else:
            hi = LinearFn(tuple(coeffs), lo.const + rng.randint(0, 6))
        bounds.append((lo, hi))
        rho = rng.randint(1, 4)
        cong.append((rng.randrange(rho), rho))
    return GammaCell(tuple(bounds), tuple(cong))


def test_a5_cell_gf_oracle():
    from padictrees.gamma import cell_gf

    def body():
        t0 = time.monotonic()
        rng = random.Random(4455)
        for _ in range(50):
            c = _random_cell(rng, rng.randint(1, 2))
            box = (12,) * c.m
            got = expand_box(cell_gf(c), box)
            want = {pt: Fraction(1) for pt in cell_members(c, box)}
            assert got == want, c
        dt = time.monotonic() - t0
        assert dt < 30, f"took {dt:.1f}s"
        return f"50 random cells vs lattice sums in {dt:.1f}s"

    run_criterion("A5 cell generating functions", body)


def test_a6_roots_and_residues():
    def body():
        rng = random.Random(66)
        prec = 20
        lifts = 0
        for p in (2, 3, 5):
            for e in range(1, 7):
                ve = pval(p, e)
                for _ in range(100):
                    delta = ve + 1 + rng.randint(0, 2)
                    z = 1 + p**delta * rng.randrange(p ** (prec - delta))
                    y = from_int(p, prec, pow(z, e, p**prec))
                    root = eth_root_lift(y, e, delta)
                    assert root.residue == z % p ** (prec - ve)
                    lifts += 1
        checks = 0
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            e = rng.randint(1, 6)
            v = rng.randint(0, 3)
            u = rng.randrange(p**20)
            u += (1 - u) % p  # force a unit
            x = from_int(p, 24, p**v * u)
            s = from_int(p, 24, 1 + p * rng.randrange(p**20))
            t = x
            for _ in range(e):
                t = t * s
            assert power_residue_index(x, e) == power_residue_index(t, e)
            checks += 1
        return f"{lifts} root round trips, {checks} residue-index checks"

    run_criterion("A6 roots and power residues", body)


def test_a7_u_function_suite():
    def body():
        rng = random.Random(77)
        exact = 0
        pairs = 0
        violations = 0
        for _ in range(20):
            p = rng.choice((3, 5))
            ctx = RealizationContext(p, 24)
            m = rng.randint(1, 2)
            e = rng.randint(1, 4)
            # slopes at least 1 keep ell above every coordinate valuation
            bs = [e + rng.randint(0, 2 * e) for _ in range(m)]
            beta = rng.randint(0, 2) * e
            ell = LinearFn(
                tuple(Fraction(b, e) for b in bs), Fraction(beta, e)
            )
            # exactness: unit parts 1 mod p make v(u) = ell(v-vector)
            for _ in range(20):
                ks = [rng.randint(0, 3) for _ in range(m)]
                lv = ell.value(ks)
                if lv.denominator != 1:
                    continue
                xs = [p**k * (1 + p * rng.randrange(p**5)) for k in ks]
                assert val(u_fn(ell, vec(p, 24, xs), ctx)) == int(lv)
                exact += 1
            # 1-Lipschitz on each valuation stratum, 50 valid pairs per fn
            done = 0
            while done < 50:
                ks = [rng.randint(0, 3) for _ in range(m)]
                if ell.value(ks).denominator != 1:
                    continue
                done += 1
                xs = [p**k * (1 + p * rng.randrange(p**5)) for k in ks]
                d = rng.randint(max(ks) + 1, 12)
                ys = [a + p**d * rng.randrange(p**4) for a in xs]
                x, y = vec(p, 24, xs), vec(p, 24, ys)
                diff = min(
                    v if isinstance(v, int) else 99
                    for v in [val(c) for c in (x - y).coords]
                )
                du = val(u_fn(ell, x, ctx) - u_fn(ell, y, ctx))
                pairs += 1
                if isinstance(du, int) and du < min(diff, 20):
                    violations += 1
        assert pairs >= 1000
        assert violations == 0
        return f"{exact} exact valuations, {pairs} Lipschitz pairs, 0 violations"

    run_criterion("A7 u-function suite", body)


def test_a8_realization():
    def body():
        cases = [(point_datum(), 3, 8)]
        cases += [(y_datum(k, m=0), 3, 8) for k in (0, 1, 3, 5)]
        cases += [(cusp_datum(3), 3, 8), (cusp_datum(5), 5, 5)]
        for seed, p in ((303, 3), (404, 5)):
            cases += [(D, p, 8) for D in sample_data(seed, 10, p, 8)]
        for D, p, cap in cases:
            cloud = realize(D, cap, p=p)
            report = verify_realization(cloud, D, p, cap)
            assert report.ok, (report.message, D)
        return f"{len(cases)} data realized and verified"

    run_criterion("A8 realization", body)


def test_a9_smooth_shape():
    def body():
        cap = 5
        for make in (parabola, cubic_line):
            for p in (3, 5):
                sys = make(p)
                lifted, _ = lifted_tree(sys, cap, cap)
                assert is_isomorphic(
                    lifted, naive_tree(sys, cap), with_labels=True
                )
                ch = lifted.children_index()
                for d in range(1, cap):
                    for kids in ch[d]:
                        assert len(kids) == p, (p, d)
        return "p children everywhere below the root; lifted = naive"

    run_criterion("A9 smooth-case shape", body)


def test_a10_glue_identity():
    def body():
        sys = cusp_system(5)
        cap = 3
        outer = Ball((0, 0), 0)
        full = tree_on_ball(sys, outer, cap)
        configs = [
            [Ball((0, 0), 1)],
            [Ball((0, 0), 2)],
            [Ball((1, 1), 1), Ball((0, 0), 2)],
        ]
        for holes in configs:
            cheese = Cheese(outer, tuple(holes), 5)
            glued = tree_on_cheese(sys, cheese, cap)
            for h in holes:
                d = h.radius - outer.radius
                node = find_node_by_label(glued, d, h.reduced_center(5))
                glued = attach(glued, node, tree_on_ball(sys, h, cap - d))
            assert is_isomorphic(glued, full), holes
        return "3 hole configurations re-glue to the full tree"

    run_criterion("A10 glue identity", body)
