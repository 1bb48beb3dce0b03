"""Tests for residue-class enumeration and three-valued lifting."""

import pytest

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
from padictrees.polysys import PolySystem, cusp_system, make_system
from padictrees.trees import (
    Ball,
    Cheese,
    attach,
    find_node_by_label,
    full_tree,
    is_isomorphic,
    path_tree,
    product,
    subtree,
    y_tree,
)


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
