"""Tests for residue-class enumeration and three-valued lifting."""

import json
import random
from fractions import Fraction

import pytest

from padictrees.cli import main
from padictrees.datum import cusp_datum, expand_counts, point_datum
from padictrees.enum_trees import (
    Garland,
    No,
    Unknown,
    Yes,
    garland_trees,
    lifted_tree,
    naive_tree,
    tree_on_ball,
    tree_on_cheese,
)
from padictrees.errors import DomainError, NodeBudgetExceeded
from padictrees.padic import pval, vec
from padictrees.polysys import PolySystem, _int_det, cusp_system, make_system
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
    restrict,
    subtree,
    y_tree,
)
from test_children import _random_system


def parabola(p):
    return make_system(p, 2, [[(1, (0, 1)), (-1, (2, 0))]])  # y - x^2


def line(p):
    return make_system(p, 1, [[(1, (1,))]])  # x = 0


def test_naive_line_is_path():
    for p in (2, 3, 5):
        t = naive_tree(line(p), 5)
        assert is_isomorphic(t, path_tree(5))


def test_naive_cusp_depth_one():
    t = naive_tree(cusp_system(5), 1)
    assert t.layer_sizes() == [1, 5]


def test_naive_cusp_frozen_layers():
    t = naive_tree(cusp_system(5), 4)
    assert t.layer_sizes() == [1, 5, 45, 225, 1125]


def test_naive_parabola():
    t = naive_tree(parabola(3), 3)
    assert t.layer_sizes() == [1, 3, 9, 27]


def test_naive_labels_are_solutions():
    sys = cusp_system(5)
    t = naive_tree(sys, 3)
    for d in range(4):
        for lab in t.labels[d]:
            assert sys.eval_poly(0, lab) % 5**d == 0


def test_naive_node_budget():
    with pytest.raises(NodeBudgetExceeded):
        naive_tree(make_system(5, 2, [], allow_empty=True), 6, node_budget=1000)


def test_extension_search_budget_names_the_class():
    # x^2 = 2 * 3^6 has 8 naive nodes to depth 3, and the search needs 16
    sys = make_system(3, 1, [[(1, (2,)), (-2 * 3**6, ())]])
    assert naive_tree(sys, 3, node_budget=10).num_nodes() == 8
    with pytest.raises(NodeBudgetExceeded) as info:
        lifted_tree(sys, 3, 3, node_budget=10)
    msg = str(info.value)
    assert "extension-search budget of 10 nodes ran out" in msg
    assert "depth 0, label (0,)" in msg
    assert isinstance(info.value.__cause__, NodeBudgetExceeded)
    lifted_tree(sys, 3, 3, node_budget=16)


def _cubes():
    return make_system(3, 3, [[(1, (3, 0, 0)), (1, (0, 3, 0)), (3, (0, 0, 3))]])


def test_cut_search_still_answers_every_naive_node():
    # x^3 + y^3 + 3 z^3 = 0: the per-class search budget of 4000 runs out
    # below some classes at depth 4
    sys = _cubes()
    t, statuses = lifted_tree(sys, 4, 3)
    naive = naive_tree(sys, 4)
    for d in range(5):
        for lab in naive.labels[d]:
            assert (d, tuple(lab)) in statuses
    unknown = [st for st in statuses.values() if isinstance(st, Unknown)]
    assert unknown
    # a cut search names the search budget, not the certification window
    assert {st.budget for st in unknown} == {4000}
    assert t.num_nodes() <= naive.num_nodes()


def test_cut_searches_share_their_newton_tests(monkeypatch):
    # every class below a cut search searches again; the Newton tests it
    # repeats, the failed ones too, are answered from a memo
    from padictrees import enum_trees

    seen = {}
    certify = enum_trees.newton_certify

    def counted(sys, x):
        key = (tuple(c.residue for c in x.coords), x.coords[0].prec)
        seen[key] = seen.get(key, 0) + 1
        return certify(sys, x)

    monkeypatch.setattr(enum_trees, "newton_certify", counted)
    _, statuses = lifted_tree(_cubes(), 4, 3)
    assert any(isinstance(st, Unknown) for st in statuses.values())
    assert seen and max(seen.values()) == 1


def test_cut_search_exits_with_unknown(tmp_path, capsys):
    path = tmp_path / "cubes.json"
    path.write_text(json.dumps(_cubes().to_json()))
    out = str(tmp_path / "tree.json")
    argv = ["enum", str(path), "--depth", "4", "--cert-budget", "50", "--out", out]
    assert main(argv) == 3
    assert "Unknown statuses remain" in capsys.readouterr().err
    with open(out + ".status.json") as fh:
        rows = json.load(fh)["statuses"]
    unknown = [r for r in rows if r["status"] == "unknown"]
    assert unknown and all(r["budget"] == 50 for r in unknown)


def test_lifted_parabola_equals_naive():
    t, statuses = lifted_tree(parabola(3), 3, 3)
    assert is_isomorphic(t, naive_tree(parabola(3), 3), with_labels=True)
    assert all(isinstance(st, Yes) for st in statuses.values())


def test_lifted_cusp_frozen_layers():
    t, statuses = lifted_tree(cusp_system(5), 6, 6)
    assert t.layer_sizes() == [1, 5, 21, 103, 521, 2603, 13011]
    assert not any(isinstance(st, Unknown) for st in statuses.values())


def test_lifted_no_solution():
    # x^2 = p has no solution in Z_p for odd p
    sys = make_system(3, 1, [[(1, (2,)), (-3, (0,))]])
    t, statuses = lifted_tree(sys, 2, 2)
    assert t.empty
    assert isinstance(statuses[(0, (0,))], No)


def test_lifted_is_subtree_of_naive():
    for sys, cap in ((cusp_system(3), 5), (parabola(5), 3)):
        lifted, _ = lifted_tree(sys, cap, cap)
        naive = naive_tree(sys, cap)
        for d in range(cap + 1):
            naive_labels = {tuple(l) for l in naive.labels[d]}
            for lab in lifted.labels[d]:
                assert tuple(lab) in naive_labels


def test_delta_monotonicity():
    sys = cusp_system(5, with_witness=False)
    yes_sets = []
    for delta in (0, 1, 2, 3):
        _, statuses = lifted_tree(sys, 3, delta)
        yes_sets.append(
            {k for k, st in statuses.items() if isinstance(st, Yes)}
        )
        no_set = {k for k, st in statuses.items() if isinstance(st, No)}
        # a No never flips back at higher delta
        for bigger in (delta + 1, delta + 2):
            _, st2 = lifted_tree(sys, 3, bigger)
            for k in no_set:
                assert not isinstance(st2[k], Yes)
    for small, big in zip(yes_sets, yes_sets[1:]):
        assert small <= big


def test_translation_equivariance():
    sys = cusp_system(5)
    shifted = sys.translate((2, 3))
    t1, _ = lifted_tree(sys, 4, 4)
    t2, _ = lifted_tree(shifted, 4, 4)
    assert is_isomorphic(t1, t2)
    # labels translate along: x on X iff x - shift on translated X
    labs1 = sorted(((a - 2) % 5, (b - 3) % 5) for a, b in
                   [tuple(l) for l in t1.labels[1]])
    labs2 = sorted(tuple(l) for l in t2.labels[1])
    assert labs1 == labs2


def test_smooth_system_full_branching():
    for p in (3, 5):
        sys = parabola(p)
        lifted, _ = lifted_tree(sys, 4, 4)
        naive = naive_tree(sys, 4)
        assert is_isomorphic(lifted, naive, with_labels=True)
        ch = lifted.children_index()
        for d in range(1, 4):
            for kids in ch[d]:
                assert len(kids) == p


def test_empty_system_is_full_tree():
    sys = make_system(3, 2, [], allow_empty=True)
    t, _ = lifted_tree(sys, 3, 0)
    assert is_isomorphic(t, full_tree(2, 3, 3))


def test_unknown_statuses_surface():
    # without the origin witness the singular path cannot be certified
    sys = cusp_system(5, with_witness=False)
    _, statuses = lifted_tree(sys, 2, 0)
    assert any(isinstance(st, Unknown) for st in statuses.values())


def test_tree_on_whole_ball_matches_lifted():
    sys = cusp_system(5)
    t1 = tree_on_ball(sys, Ball((0, 0), 0), 3)
    t2, _ = lifted_tree(sys, 3, 3)
    assert is_isomorphic(t1, t2, with_labels=True)


def test_tree_on_smooth_ball_is_full_arity_one():
    # around (1,1) the cusp is a smooth curve: p points per level
    t = tree_on_ball(cusp_system(5), Ball((1, 1), 1), 3)
    assert t.layer_sizes() == [1, 5, 25, 125]


def test_tree_on_ball_missing_x_is_empty():
    t = tree_on_ball(cusp_system(5), Ball((2, 1), 1), 3)
    assert t.empty


def test_tree_on_cheese_cuts_hole():
    sys = cusp_system(5)
    cheese = Cheese(Ball((0, 0), 0), (Ball((0, 0), 1),), 5)
    t = tree_on_cheese(sys, cheese, 3)
    full, _ = lifted_tree(sys, 3, 3)
    # the hole node stays as a leaf; its descendants are gone
    hole = find_node_by_label(t, 1, (0, 0))
    assert t.children_index()[1][hole[1]] == []
    glued = attach(t, hole, tree_on_ball(sys, Ball((0, 0), 1), 2))
    assert is_isomorphic(glued, full)


def test_tree_on_cheese_whose_ball_misses_x_is_empty():
    # x^2 = 2 has no 3-adic point, so the ball tree is empty and has no
    # labels to look a hole up in; the cheese tree is empty too
    sys = make_system(3, 1, [[(1, (2,)), (-2, ())]])
    cheese = Cheese(Ball((0,), 0), (Ball((1,), 1),), 3)
    t = tree_on_cheese(sys, cheese, 3)
    assert t.empty and t.layer_sizes() == [0, 0, 0, 0]
    # a hole below the tree is still refused
    with pytest.raises(DomainError, match="hole outside the truncated tree"):
        tree_on_cheese(sys, Cheese(Ball((0,), 0), (Ball((1,), 4),), 3), 3)


def test_negative_search_budget_is_refused(tmp_path, capsys):
    sys = cusp_system(5)
    with pytest.raises(DomainError, match="negative search budget -5"):
        lifted_tree(sys, 2, 2, search_budget=-5)
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(sys.to_json()))
    out = str(tmp_path / "t.json")
    argv = ["enum", str(path), "--depth", "2", "--cert-budget", "-5", "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: negative search budget -5\n"
    assert not (tmp_path / "t.json").exists()


def test_local_views_refuse_what_does_not_fit_the_system():
    sys = cusp_system(5)
    with pytest.raises(DomainError, match="ball dimension mismatch"):
        tree_on_ball(sys, Ball((0,), 0), 2)
    # a radius-5 hole lies below a depth-3 tree of the radius-0 ball
    cheese = Cheese(Ball((0, 0), 0), (Ball((0, 0), 5),), 5)
    with pytest.raises(DomainError, match="hole outside the truncated tree"):
        tree_on_cheese(sys, cheese, 3)
    with pytest.raises(DomainError, match="garland dimension mismatch"):
        garland_trees(sys, Garland((0,), 1, 1, 1, (1,), 0), [1], 2)


def test_garland_components_along_cusp():
    sys = cusp_system(5)
    g = Garland((0, 0), 2, 1, 2, (1, 0), 0)
    assert g.member_kappas(3) == [2, 4, 6]
    cap = 3
    for kappa, t in garland_trees(sys, g, [2, 4], cap):
        want = product(full_tree(1, 5, cap), y_tree(kappa // 2 - 1, cap))
        assert is_isomorphic(t, want), kappa


def test_garland_missing_x():
    sys = cusp_system(5)
    g = Garland((0, 1), 1, 1, 1, (1, 0), 0)
    for _, t in garland_trees(sys, g, [1, 2], 2):
        assert t.empty


def test_garland_validation():
    with pytest.raises(DomainError):
        Garland((0, 0), 1, 0, 1, (1, 0), 0)
    g = Garland((0, 0), 2, 1, 2, (5, 0), 0)
    with pytest.raises(DomainError):
        garland_trees(cusp_system(5), g, [2], 2)
    with pytest.raises(DomainError):
        garland_trees(cusp_system(5), Garland((0, 0), 2, 1, 2, (1, 0), 0), [3], 2)


def test_system_json_round_trip(tmp_path):
    sys = cusp_system(5)
    path = tmp_path / "sys.json"
    path.write_text(__import__("json").dumps(sys.to_json()))
    back = PolySystem.load(str(path))
    assert back == sys


def _root_system(p, roots, mults):
    """prod (x - a)^m over the roots, with the repeated roots as witnesses."""
    coeffs = [1]  # lowest degree first
    for a, m in zip(roots, mults):
        for _ in range(m):
            coeffs = [0] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= a * coeffs[k + 1]
    poly = [(c, (k,)) for k, c in enumerate(coeffs) if c]
    return make_system(p, 1, [poly], [(a,) for a, m in zip(roots, mults) if m > 1])


def test_lifted_tree_of_roots_matches_from_points():
    # the lifted tree of a finite set of integer roots is the tree of the
    # points: No pruning away from the roots, Hensel or Newton at simple
    # roots, witnesses or exact representatives at repeated ones. A window
    # of delta = 8 certifies every class of roots in [-4, 4].
    rng = random.Random(806)
    kinds = set()
    for _ in range(80):
        p, cap = rng.choice((2, 3, 5)), rng.randint(1, 6)
        roots = rng.sample(range(-4, 5), rng.randint(1, 3))
        mults = [rng.choice((1, 1, 2)) for _ in roots]
        t, statuses = lifted_tree(_root_system(p, roots, mults), cap, 8)
        case = (p, cap, roots, mults)
        assert not any(isinstance(st, Unknown) for st in statuses.values()), case
        want = from_points([vec(p, cap, [a]) for a in roots], Ball((0,), 0), cap)
        assert is_isomorphic(t, want, with_labels=True), case
        kinds |= {st.kind for st in statuses.values() if isinstance(st, Yes)}
    assert kinds == {"witness", "newton", "exact", "hensel"}


def test_classes_below_a_no_are_implied(tmp_path):
    sys = cusp_system(5, with_witness=False)
    _, statuses = lifted_tree(sys, 3, 3)
    naive = naive_tree(sys, 3)
    kids = naive.children_index()
    implied = 0
    for d in range(1, 3):
        for i, lab in enumerate(naive.labels[d]):
            st = statuses[d, tuple(lab)]
            parent = tuple(x % 5 ** (d - 1) for x in lab)
            if not isinstance(st, No) or isinstance(statuses[d - 1, parent], No):
                continue
            # every naive class below a decided No answers with that No
            stack = [(d, i)]
            while stack:
                dd, j = stack.pop()
                assert statuses[dd, tuple(naive.labels[dd][j])] is st
                if dd < 3:
                    below = kids[dd][j]
                    implied += len(below)
                    stack += [(dd + 1, c) for c in below]
    assert implied == 100
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(sys.to_json()))
    out = str(tmp_path / "tree.json")
    assert main(["enum", str(path), "--depth", "3", "--out", out]) == 0
    with open(out + ".status.json") as fh:
        rows = json.load(fh)["statuses"]
    by_key = {(r["depth"], tuple(r["label"])): r for r in rows}
    assert len(by_key) == len(rows) < len(statuses)
    for (d, lab), row in by_key.items():
        if d:
            parent = by_key[d - 1, tuple(x % 5 ** (d - 1) for x in lab)]
            assert parent["status"] != "no"


def test_listed_walk_stops_below_a_no():
    # x^2 = 0 at p = 3: the naive tree doubles every other depth, but the
    # walk lists only the spine and the children of its classes
    sys = make_system(3, 1, [[(1, (2,))]])
    t, statuses = lifted_tree(sys, 40, 40)
    assert t.layer_sizes() == [1] * 41
    assert len(statuses.listed) < 3 * 41
    assert all(isinstance(statuses[d, (0,)], Yes) for d in range(41))
    # x = 9 mod 27 solves x^2 = 0 mod 3^4 and not mod 3^5: the classes
    # below it are naive, not listed, and answer with its No
    no = statuses[3, (9,)]
    assert no == No(5)
    assert (4, (36,)) not in statuses.listed
    assert statuses[4, (36,)] is no


def test_status_map_answers_exactly_the_naive_classes():
    sys = cusp_system(5, with_witness=False)
    _, statuses = lifted_tree(sys, 3, 3)
    naive = naive_tree(sys, 3)
    assert len(statuses) == naive.num_nodes() > len(statuses.listed)
    assert sorted(statuses) == sorted(
        (d, tuple(lab)) for d in range(4) for lab in naive.labels[d]
    )
    assert dict(statuses.items()) == {k: statuses[k] for k in statuses}
    # (2, 1) misses x^3 = y^2 mod 5; (0, 0) lies past the cap, (25, 0)
    # outside the labels mod 5^2, and (0,) has the wrong length
    for key in ((1, (2, 1)), (4, (0, 0)), (2, (25, 0)), (1, (0,)), (-1, (0, 0))):
        assert key not in statuses
        with pytest.raises(KeyError):
            statuses[key]


@pytest.mark.parametrize("search_budget", [3, 4000])
def test_yes_is_closed_upward_and_the_tree_is_the_naive_yes_classes(search_budget):
    # lifted_tree keeps a listed class exactly when its status is Yes, which
    # is sound because every Yes below the root has a Yes parent
    rng = random.Random(21)
    for _ in range(25):
        sys = _random_system(rng)
        depth = rng.randint(1, 4)
        while True:
            try:
                naive = naive_tree(sys, depth, node_budget=400)
                break
            except NodeBudgetExceeded:
                depth -= 1
        t, statuses = lifted_tree(sys, depth, rng.randint(0, 3), search_budget=search_budget)
        p = sys.p
        for (d, lab), st in statuses.listed.items():
            if d and isinstance(st, Yes):
                assert isinstance(statuses[d - 1, tuple(x % p ** (d - 1) for x in lab)], Yes)
        if not isinstance(statuses[0, (0,) * sys.n], Yes):
            assert t.empty and t.labels is None
            continue
        want = restrict(naive, lambda d, i: isinstance(statuses[d, naive.labels[d][i]], Yes))
        assert t.to_json() == want.to_json(), (sys, depth)


def test_singular_spine_is_never_hensel():
    # an exact solution at a singular point gives margin 0 without a unit
    # minor; reading it as smooth would cover the whole naive subtree
    for sys, cap, datum, origin in (
        (cusp_system(5), 6, cusp_datum(5), (0, 0)),
        (make_system(3, 1, [[(1, (2,))]]), 16, point_datum(), (0,)),
    ):
        t, statuses = lifted_tree(sys, cap, cap)
        assert t.layer_sizes() == expand_counts(datum, (), sys.p, cap)
        for d in range(cap + 1):
            assert statuses[d, origin].kind != "hensel", d
        # a Hensel certificate names a covering class off the spine, with a
        # minor of valuation margin at depth >= margin + 1, on the branch of
        # every class it answers: below it, or above it through a search
        for (d, lab), st in statuses.items():
            if isinstance(st, Yes) and st.kind == "hensel":
                assert st.depth >= st.certificate.margin + 1 and st.label != origin
                m = sys.p ** min(d, st.depth)
                assert [x % m for x in lab] == [x % m for x in st.label], (d, lab)


def test_more_equations_than_variables(tmp_path, capsys):
    # {x = 0, x^2 = 0}: no 2 x 2 minor exists, and every class of the path
    # is decided by its exact representative 0
    sys = make_system(3, 1, [[(1, (1,))], [(1, (2,))]])
    t, statuses = lifted_tree(sys, 4, 4)
    assert t.layer_sizes() == [1, 1, 1, 1, 1]
    assert all(isinstance(st, Yes) and st.kind == "exact" for st in statuses.values())
    path = tmp_path / "kn.json"
    path.write_text(json.dumps(sys.to_json()))
    assert main(["enum", str(path), "--depth", "4", "--format", "text"]) == 0
    assert capsys.readouterr().out.split() == ["1"] * 5


def test_two_equations_in_three_variables():
    # y = x^2, z^2 = y at p = 5: a curve with 2 * 5^d - 1 classes at depth
    # d, decided through 2 x 2 Jacobian minors
    sys = make_system(5, 3, [[(1, (0, 1, 0)), (-1, (2, 0, 0))], [(1, (0, 0, 2)), (-1, (0, 1, 0))]])
    t, statuses = lifted_tree(sys, 4, 4)
    assert t.layer_sizes() == [2 * 5**d - 1 for d in range(5)]
    assert naive_tree(sys, 2).layer_sizes() == [1, 9, 65]
    kinds = set()
    for st in statuses.values():
        if isinstance(st, Yes) and st.kind in ("hensel", "newton"):
            kinds.add(st.kind)
            cert = st.certificate
            assert len(cert.cols) == 2
            assert pval(5, sys.jacobian_minor(st.label, cert.cols)) == cert.margin
    assert "hensel" in kinds


def _fraction_det(mat):
    """The determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_int_det_matches_rational_elimination():
    rng = random.Random(17)
    for k in (3, 4):
        for _ in range(200):
            mat = [[rng.choice((0, 0, 1, -1, rng.randint(-40, 40))) for _ in range(k)] for _ in range(k)]
            assert _int_det(mat) == _fraction_det(mat), mat


def test_deep_singular_spine_needs_no_recursion(tmp_path, capsys):
    # x^2 = 2 * 3^2401 at p = 3 has no point: the extension search walks
    # the spine class 0 down to its death depth 2402 on one stack
    path = tmp_path / "spine.json"
    path.write_text(json.dumps(make_system(3, 1, [[(1, (2,)), (-2 * 3**2401, ())]]).to_json()))
    out = str(tmp_path / "tree.json")
    code = main(["enum", str(path), "--depth", "2", "--delta", "1200", "--out", out])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out + ".status.json") as fh:
        rows = json.load(fh)["statuses"]
    assert rows == [{"depth": 0, "label": [0], "status": "no", "exhausted_at": 2402}]
