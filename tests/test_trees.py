"""Tests for truncated trees: constructions, isomorphism, cheese surgery."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padictrees.datum import cusp_datum, expand
from padictrees.errors import (
    DepthMismatch,
    DomainError,
    EmptyAttach,
    LabelMissing,
    PrecisionExhausted,
)
from padictrees.padic import vec
from padictrees.trees import (
    Ball,
    Cheese,
    TruncTree,
    attach,
    cheese_restrict,
    empty_tree,
    find_node_by_label,
    from_points,
    full_tree,
    is_isomorphic,
    path_tree,
    product,
    subtree,
    to_dot,
    y_tree,
)


def shuffled_copy(t: TruncTree, seed: int) -> TruncTree:
    """Same tree with every layer's node order permuted."""
    rng = random.Random(seed)
    sizes = t.layer_sizes()
    perm_prev = list(range(sizes[0]))
    parents = []
    for d in range(1, t.depth_cap + 1):
        order = list(range(sizes[d]))
        rng.shuffle(order)
        layer = [0] * sizes[d]
        perm_cur = [0] * sizes[d]
        for new_i, old_i in enumerate(order):
            perm_cur[old_i] = new_i
            layer[new_i] = perm_prev[t.parents[d - 1][old_i]]
        parents.append(layer)
        perm_prev = perm_cur
    return TruncTree(t.depth_cap, parents, empty=t.empty)


def test_basic_shapes():
    assert path_tree(4).layer_sizes() == [1, 1, 1, 1, 1]
    assert full_tree(1, 3, 3).layer_sizes() == [1, 3, 9, 27]
    assert full_tree(2, 2, 2).layer_sizes() == [1, 4, 16]
    assert empty_tree(3).layer_sizes() == [0, 0, 0, 0]
    assert y_tree(3, 5).layer_sizes() == [1, 1, 1, 1, 2, 2]
    assert y_tree(0, 3).layer_sizes() == [1, 2, 2, 2]
    assert y_tree(2, 4).layer_sizes() == [1, 1, 1, 2, 2]


def test_tree_validation():
    with pytest.raises(DomainError):
        TruncTree(-1, [])
    with pytest.raises(DomainError):
        TruncTree(2, [[0]])
    with pytest.raises(DomainError):
        TruncTree(1, [[1]])  # dangling parent
    with pytest.raises(DomainError):
        TruncTree(1, [[0]], labels=[[0], [1, 2]])


def test_children_index():
    t = y_tree(1, 3)
    ch = t.children_index()
    assert ch[0] == [[0]]
    assert ch[1] == [[0, 1]]


def test_product_matches_counts():
    a = full_tree(1, 3, 3)
    b = y_tree(1, 3)
    prod = product(a, b)
    expect = [x * y for x, y in zip(a.layer_sizes(), b.layer_sizes())]
    assert prod.layer_sizes() == expect
    assert is_isomorphic(product(a, b), product(b, a))
    assert is_isomorphic(product(a, path_tree(3)), a)
    assert product(a, empty_tree(3)).empty
    with pytest.raises(DepthMismatch):
        product(a, y_tree(1, 2))


def test_product_full_trees():
    assert is_isomorphic(product(full_tree(1, 3, 3), full_tree(1, 3, 3)),
                         full_tree(2, 3, 3))


def test_attach_and_subtree():
    t = y_tree(2, 5)
    s = full_tree(1, 2, 3)
    glued = attach(t, (3, 0), s)
    # the branch point gains the children of s's root
    assert glued.layer_sizes() == [1, 1, 1, 2, 4, 6]
    back = subtree(glued, (3, 0))
    assert back.layer_sizes() == [1, 3, 5]
    with pytest.raises(EmptyAttach):
        attach(t, (0, 0), empty_tree(5))
    with pytest.raises(DomainError):
        attach(t, (9, 0), s)


def test_attach_truncates_at_cap():
    t = path_tree(2)
    s = full_tree(1, 2, 5)
    glued = attach(t, (1, 0), s)
    assert glued.depth_cap == 2
    assert glued.layer_sizes() == [1, 1, 3]


def test_subtree_roundtrip_identity():
    t = full_tree(1, 2, 4)
    assert is_isomorphic(subtree(t, (0, 0)), t)
    s = subtree(t, (2, 1))
    assert s.layer_sizes() == [1, 2, 4]


def test_from_points_two_point_distance():
    for kappa in (0, 1, 3):
        pts = [vec(3, 10, [0]), vec(3, 10, [3**kappa])]
        t = from_points(pts, Ball((0,), 0), 8)
        assert is_isomorphic(t, y_tree(kappa, 8))


def test_from_points_labels_and_errors():
    pts = [vec(3, 6, [1, 2]), vec(3, 6, [1, 5])]
    t = from_points(pts, Ball((1, 2), 0), 3)
    assert t.label(0, 0) == (0, 0)
    assert t.label(1, 0) == (1, 2)
    assert t.layer_sizes() == [1, 1, 2, 2]
    assert from_points([], Ball((0,), 0), 3).empty
    with pytest.raises(PrecisionExhausted):
        from_points(pts, Ball((1, 2), 0), 7)
    with pytest.raises(DomainError):
        from_points([vec(3, 6, [0, 0])], Ball((1, 0), 1), 2)


def test_from_points_rejects_short_and_mixed_points():
    # the second point knows 2 of the 5 digits depth 5 needs; its missing
    # digits must not be read as zeros
    with pytest.raises(PrecisionExhausted, match="point 1 carries 2 digits"):
        from_points([vec(3, 6, [1]), vec(3, 2, [1])], Ball((0,), 0), 5)
    with pytest.raises(DomainError, match="point 2 has prime 5"):
        from_points([vec(3, 6, [1]), vec(3, 6, [2]), vec(5, 6, [1])], Ball((0,), 0), 5)


def _reference_layers(pts, ball, p, cap):
    """Brute force: at each depth, the residues in order of first point,
    and each one's parent index one layer up."""
    layers, parents = [], []
    for d in range(cap + 1):
        m = p ** (ball.radius + d)
        keys = list(dict.fromkeys(tuple(a % m for a in x.res) for x in pts))
        layers.append(keys)
        if d:
            up = layers[d - 1]
            parents.append([up.index(tuple(a % (m // p) for a in k)) for k in keys])
    return layers, parents


@st.composite
def _point_sets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    radius, cap = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    prec = radius + cap + draw(st.integers(0, 1))
    center = tuple(draw(st.lists(st.integers(0, p**radius - 1), min_size=n, max_size=n)))
    rows = draw(st.lists(
        st.lists(st.integers(0, p ** (prec - radius) - 1), min_size=n, max_size=n),
        min_size=1, max_size=12,
    ))
    pts = [vec(p, prec, [c + p**radius * a for c, a in zip(center, row)]) for row in rows]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))  # repeated points
    order = draw(st.permutations(range(len(pts))))
    return [pts[i] for i in order], Ball(center, radius), p, cap


@settings(max_examples=80, deadline=None)
@given(_point_sets())
def test_from_points_matches_reduction_at_every_depth(case):
    pts, ball, p, cap = case
    t = from_points(pts, ball, cap)
    layers, parents = _reference_layers(pts, ball, p, cap)
    assert t.labels == layers
    assert t.parents == parents


def test_from_points_respects_ball_offset():
    # relative depth counts from the ball radius
    pts = [vec(5, 8, [25]), vec(5, 8, [25 + 125])]
    t = from_points(pts, Ball((0,), 2), 4)
    assert is_isomorphic(t, y_tree(1, 4))


def test_isomorphism_is_order_insensitive():
    for t in (y_tree(2, 5), full_tree(1, 3, 4), product(full_tree(1, 2, 4), y_tree(1, 4))):
        for seed in range(3):
            s = shuffled_copy(t, seed)
            assert is_isomorphic(t, s)


def test_isomorphism_detects_shape_differences():
    assert not is_isomorphic(y_tree(2, 5), y_tree(3, 5))
    with pytest.raises(DepthMismatch):
        is_isomorphic(y_tree(2, 5), y_tree(2, 4))
    assert is_isomorphic(empty_tree(3), empty_tree(3))
    assert not is_isomorphic(empty_tree(3), path_tree(3))
    # same layer sizes, different shapes
    a = TruncTree(2, [[0, 0], [0, 0]])
    b = TruncTree(2, [[0, 0], [0, 1]])
    assert a.layer_sizes() == b.layer_sizes()
    assert not is_isomorphic(a, b)


@st.composite
def _trees(draw, cap):
    """A tree of the given cap: empty, or grown layer by layer with random
    parents, so some nodes above the cap have no children; maybe labelled."""
    if draw(st.integers(0, 7)) == 0:
        return empty_tree(cap)
    parents, size = [], 1
    for _ in range(cap):
        layer = draw(st.lists(st.integers(0, size - 1), max_size=5)) if size else []
        parents.append(layer)
        size = len(layer)
    labels = None
    if draw(st.booleans()):
        sizes = [1] + [len(layer) for layer in parents]
        labels = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for n in sizes]
    return TruncTree(cap, parents, labels=labels)


@st.composite
def _reordered(draw, t):
    """t with the nodes of each layer renumbered by a random permutation,
    each node keeping its label."""
    perms = [draw(st.permutations(range(n))) for n in t.layer_sizes()]
    parents = []
    for d in range(1, t.depth_cap + 1):
        layer = [0] * len(perms[d])
        for old, par in enumerate(t.parents[d - 1]):
            layer[perms[d][old]] = perms[d - 1][par]
        parents.append(layer)
    labels = None
    if t.labels is not None:
        labels = [[None] * len(perm) for perm in perms]
        for d, perm in enumerate(perms):
            for old, new in enumerate(perm):
                labels[d][new] = t.labels[d][old]
    return TruncTree(t.depth_cap, parents, labels=labels, empty=t.empty)


def _canonical(t: TruncTree, with_labels: bool):
    """Brute-force canonical form: (label, sorted forms of the children)."""
    if t.empty:
        return None
    kids = t.children_index()

    def form(d, i):
        label = t.labels[d][i] if with_labels and t.labels else None
        below = sorted(form(d + 1, c) for c in kids[d][i]) if d < t.depth_cap else []
        return (label, tuple(below))

    return form(0, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(_trees).flatmap(
    lambda t: st.tuples(st.just(t), _reordered(t), st.integers(0, 2**32))))
def test_isomorphism_survives_any_reordering(case):
    t, s, seed = case
    assert is_isomorphic(t, s) and is_isomorphic(s, t)
    assert is_isomorphic(t, s, with_labels=True)
    # fresh labels on the reordered copy are ignored unless asked for
    rng = random.Random(seed)
    relabelled = TruncTree(
        s.depth_cap, s.parents, empty=s.empty,
        labels=[[rng.randint(0, 3) for _ in range(n)] for n in s.layer_sizes()],
    )
    assert is_isomorphic(t, relabelled)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(lambda cap: st.tuples(
    _trees(cap), st.one_of(_trees(cap), _trees(cap).flatmap(_reordered)))))
def test_isomorphism_matches_brute_force_canonical_forms(pair):
    a, b = pair
    for with_labels in (False, True):
        want = _canonical(a, with_labels) == _canonical(b, with_labels)
        assert is_isomorphic(a, b, with_labels) is want
        assert is_isomorphic(b, a, with_labels) is want


def test_isomorphism_with_labels():
    a = TruncTree(1, [[0]], labels=[["r"], ["x"]])
    b = TruncTree(1, [[0]], labels=[["r"], ["y"]])
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, b, with_labels=True)


def test_json_round_trip():
    t = from_points([vec(3, 6, [1, 2]), vec(3, 6, [4, 2])], Ball((1, 2), 0), 3)
    t2 = TruncTree.from_json(t.to_json())
    assert is_isomorphic(t, t2, with_labels=True)
    assert t2.to_json() == t.to_json()
    e = TruncTree.from_json(empty_tree(2).to_json())
    assert e.empty


# md5 of json.dumps(t.to_json()) for the trees below, taken while to_json
# still copied each tuple label into a list; returning the labels as stored
# must not change a byte, since JSON writes a tuple as an array
_BIG = 2**64 + 7
_TO_JSON_MD5 = {
    "from_points": "ecb2fb81233ed74ac8ee90bdb6fc1b55",
    "loaded": "bbbb21eaaa9fe1893063960b1f956228",
    "int_labels": "b72c206b664305d37f1b9efdac66cb51",
    "expand": "4f8f8eb82d76783f97ee3e4f450b5e0b",
}


def _to_json_trees():
    return {
        "from_points": from_points(
            [vec(5, 6, [1, 2, 3]), vec(5, 6, [26, 2, 3]), vec(5, 6, [1, 7, 128])],
            Ball((1, 2, 3), 0), 4,
        ),
        "loaded": TruncTree.from_json({
            "format": 1, "depth_cap": 2, "layers": [[0], [0, 1], [0, 1, 2]],
            "parents": [[0, 0], [0, 1, 1]],
            "labels": [[[]], [[_BIG], [3]], [[_BIG, 1], [3, _BIG * _BIG], [-4, 0]]],
        }),
        "int_labels": TruncTree(
            2, [[0, 0], [0, 1, 1]], labels=[[0], [_BIG, -1], [2, 3, _BIG * 5]]
        ),
        "expand": expand(cusp_datum(5), (), 5, 4),
    }


def test_to_json_text_is_unchanged():
    got = {
        name: hashlib.md5(json.dumps(t.to_json()).encode()).hexdigest()
        for name, t in _to_json_trees().items()
    }
    assert got == _TO_JSON_MD5


def test_to_json_round_trips_parents_and_labels():
    for name, t in _to_json_trees().items():
        t2 = TruncTree.from_json(t.to_json())
        assert t2.parents == t.parents, name
        assert t2.labels == t.labels, name
        assert t2.layer_sizes() == t.layer_sizes(), name


def test_label_access():
    with pytest.raises(LabelMissing):
        path_tree(2).label(0, 0)


def test_ball_geometry():
    b = Ball((1, 2), 1)
    assert b.reduced_center(3) == (1, 2)
    assert b.contains_ball(Ball((4, 2), 2), 3)
    assert not b.contains_ball(Ball((0, 2), 2), 3)
    assert b.disjoint(Ball((0, 0), 1), 3)
    with pytest.raises(DomainError):
        Ball((0,), -1)
    with pytest.raises(DomainError):
        Cheese(Ball((0,), 0), (Ball((0,), 1), Ball((3,), 1)), 3)  # overlapping holes


def test_cheese_restrict_and_glue():
    pts = [vec(3, 8, [k]) for k in range(9)]
    t = from_points(pts, Ball((0,), 0), 4)  # full ternary tree with labels
    hole = Ball((1,), 1)
    cheese = Cheese(Ball((0,), 0), (hole,), 3)
    cut = cheese_restrict(t, cheese)
    # the hole node survives as a leaf, its descendants are gone
    assert cut.layer_sizes() == [1, 3, 6, 6, 6]
    node = find_node_by_label(cut, 1, (1,))
    glued = attach(cut, node, subtree(t, find_node_by_label(t, 1, (1,))))
    assert is_isomorphic(glued, t)


def test_cheese_restrict_requires_labels():
    with pytest.raises(LabelMissing):
        cheese_restrict(full_tree(1, 3, 2), Cheese(Ball((0,), 0), (), 3))


def test_to_dot():
    t = y_tree(1, 2)
    dot = to_dot(t)
    assert dot.startswith("digraph")
    assert dot.count("->") == 3
    thick = to_dot(t, thick_edge=lambda d, par, i: d == 1)
    assert thick.count("penwidth") == 1
