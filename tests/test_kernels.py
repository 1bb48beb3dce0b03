"""The shared kernels: polynomial shift, joint depth, CRT, tree restriction,
the LinearFn algebra."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datum_gen import _joint_depths, sample_data
from padictrees.datum import (
    SkeletonDatum,
    TreeDatum,
    joint_depth_fn,
    terminal_branch,
    y_datum,
)
from padictrees.errors import DepthMismatch, DomainError
from padictrees.gamma import (
    INFINITY,
    LinearFn,
    _subst,
    const_fn,
    eval_linear,
    linear,
    linear_from_json,
    linear_json,
    merge_cong,
    var,
    whole_quadrant,
)
from padictrees.polysys import shift_scale
from padictrees.padic import vec
from padictrees.trees import (
    Ball,
    TruncTree,
    empty_tree,
    from_points,
    full_tree,
    is_isomorphic,
    restrict,
    y_tree,
)


def _eval(poly, point):
    total = 0
    for c, exps in poly:
        t = c
        for x, e in zip(point, exps):
            t *= x**e
        total += t
    return total


@st.composite
def _shift_case(draw):
    n = draw(st.integers(1, 3))
    term = st.tuples(
        st.integers(-9, 9),
        st.lists(st.integers(0, 3), min_size=0, max_size=n).map(tuple),
    )
    poly = tuple(draw(st.lists(term, max_size=4)))
    ints = st.lists(st.integers(-30, 30), min_size=n, max_size=n).map(tuple)
    shift, t = draw(ints), draw(ints)
    scale = draw(st.integers(-27, 27))
    mod = draw(st.one_of(st.none(), st.sampled_from([2, 3, 9, 25, 125])))
    return poly, shift, scale, mod, t


@settings(max_examples=200, deadline=None)
@given(_shift_case())
def test_shift_scale_is_the_taylor_shift(case):
    poly, shift, scale, mod, t = case
    g = shift_scale(poly, shift, scale, mod)
    moved = tuple(s + scale * x for s, x in zip(shift, t))
    if mod is None:
        assert _eval(g, t) == _eval(poly, moved)
    else:
        assert (_eval(g, t) - _eval(poly, moved)) % mod == 0
        assert all(0 < c < mod for c, _ in g)
    exps = [e for _, e in g]
    assert exps == sorted(set(exps))
    assert all(len(e) == len(shift) for e in exps)
    assert all(c != 0 for c, _ in g)


def test_shift_scale_defaults_translate():
    # (x + 1)^2 = x^2 + 2x + 1, terms sorted by exponent
    assert shift_scale(((1, (2,)),), (1,)) == ((1, (0,)), (2, (1,)), (1, (2,)))
    # x - x cancels to the zero polynomial
    assert shift_scale(((1, (1,)), (-1, (1,))), (5,), 3) == ()


def test_joint_depth_fn_matches_generated_depths():
    for D in sample_data(seed=11, count=12, p=3, depth_cap=5):
        want = _joint_depths(D.skeleton)
        for j in range(D.skeleton.num_joints):
            fn = joint_depth_fn(D, j)
            if want[j] is None:
                assert fn is INFINITY
            else:
                assert eval_linear(fn, ()) == want[j]


def _ancestors(parents, j):
    out = [j]
    while j:
        j = parents[j]
        out.append(j)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
def test_skeleton_table_matches_root_walks(draws):
    # random joint trees numbered parents first, lengths 1 (leaves: inf)
    parents = (-1,) + tuple(d % (j + 1) for j, d in enumerate(draws))
    kids = set(parents[1:])
    lengths = tuple(
        const_fn(1, 0) if j in kids else INFINITY for j in range(1, len(parents))
    )
    sk = SkeletonDatum(parents, lengths)
    D = TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1, skeleton=sk,
        joint_branches=tuple((j, terminal_branch()) for j in sk.real_joints()),
        bone_branches=(),
    )
    table = D.skeleton_table
    for j in range(1, len(parents)):
        up = _ancestors(parents, j)
        want = INFINITY if j not in kids else const_fn(len(up) - 1, 0)
        assert table.depth_fns[j] == want
        # the latest earlier joint whose deepest common ancestor with j is
        # j's parent
        meets = {i: next(a for a in up if a in _ancestors(parents, i)) for i in range(j)}
        assert table.i_star[j] == max(i for i in range(j) if meets[i] == parents[j])
        assert {a for a in range(len(parents)) if table.is_ancestor(a, j)} == set(up)


def test_joint_depth_fn_parametrized():
    D = y_datum(linear([Fraction(1, 2)], 1), m=1)
    fn = joint_depth_fn(D, 1)
    assert fn == LinearFn((Fraction(1, 2),), Fraction(1))
    for k in range(0, 12, 2):
        assert eval_linear(fn, (k,)) == k // 2 + 1
    assert joint_depth_fn(D, 2) is INFINITY


def test_linear_fn_add_pads():
    f = linear([1, 2], 3)
    g = linear([5], -1)
    assert f + g == linear([6, 2], 2)
    assert g + f == linear([6, 2], 2)


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_scalars = st.one_of(st.integers(-9, 9), _rationals)


def _forms(arity):
    return st.builds(
        LinearFn,
        st.lists(_rationals, min_size=arity, max_size=arity).map(tuple),
        _rationals,
    )


@st.composite
def _compose_case(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    f = draw(_forms(n))
    forms = [draw(_forms(draw(st.integers(0, m)))) for _ in range(n)]
    x = draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))
    return f, forms, x


@settings(max_examples=100, deadline=None)
@given(_compose_case())
def test_compose_substitutes(case):
    f, forms, x = case
    h = f.compose(forms)
    assert h.value(x) == f.value([g.value(x) for g in forms])
    assert h.arity() == max((g.arity() for g in forms), default=0)
    assert all(type(a) is (int if a.denominator == 1 else Fraction)
               for a in h.coeffs + (h.const,))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_linear_fn_arithmetic_agrees_with_value(n, m, data):
    f, g = data.draw(_forms(n)), data.draw(_forms(m))
    c = data.draw(_scalars)
    x = data.draw(st.lists(st.integers(-30, 30), min_size=max(n, m), max_size=max(n, m)))
    fx, gx = f.value(x), g.value(x)
    for h, want, arity in (
        (f + g, fx + gx, max(n, m)),
        (f - g, fx - gx, max(n, m)),
        (-f, -fx, n),
        (f * c, fx * c, n),
        (f + c, fx + c, n),
        (f - c, fx - c, n),
    ):
        assert h.value(x) == want
        assert h.arity() == arity
        assert all(type(a) is (int if a.denominator == 1 else Fraction)
                   for a in h.coeffs + (h.const,))


def _canonical(x) -> bool:
    return type(x) is (int if x.denominator == 1 else Fraction)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_every_built_form_and_value_is_canonical(n, data):
    # an int where a number is integral and a Fraction only where it is not,
    # also when the inputs are integral Fractions (raw holds them)
    numbers = st.lists(_scalars, min_size=n, max_size=n)
    f = linear(data.draw(numbers), data.draw(_scalars))
    raw, g = data.draw(_forms(n)), data.draw(_forms(data.draw(st.integers(0, 3))))
    c = data.draw(_scalars)
    k = data.draw(st.integers(0, n - 1))
    inner = linear(data.draw(st.lists(_scalars, min_size=k, max_size=k)), data.draw(_scalars))
    built = [
        f, const_fn(c, n), *(var(i, n) for i in range(n)),
        raw + g, raw - g, -raw, raw * c, raw + c, raw - c,
        raw.compose([g] * n), linear_from_json(linear_json(raw)),
        linear_from_json({"a": [int(a) for a in raw.coeffs], "b": str(raw.const)}),
        # _subst keeps the coefficients it does not touch, so from canonical forms
        *_subst((f, var(k, n), raw * 1), k, inner),
    ]
    x = data.draw(st.lists(_scalars, min_size=3, max_size=3))
    for h in built:
        assert all(map(_canonical, h.coeffs + (h.const,))), h
        assert _canonical(h.value(x))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(_forms))
def test_integral_rebuilds_the_form(f):
    coeffs, const, e = f.integral()
    assert all(type(a) is int for a in coeffs + (const,))
    assert e == lcm(f.const.denominator, *(a.denominator for a in f.coeffs))
    assert LinearFn(tuple(Fraction(a, e) for a in coeffs), Fraction(const, e)) == f


def test_var_is_a_coordinate():
    assert var(1, 3) == linear([0, 1, 0])
    assert var(1, 3).value((4, 5, 6)) == 5
    for i, arity in ((0, 0), (3, 3), (-1, 2)):
        with pytest.raises(DomainError):
            var(i, arity)
    with pytest.raises(DomainError):
        linear([1, 1]).compose([var(0, 1)])


def test_merge_cong_is_crt():
    for rho1 in range(1, 7):
        for rho2 in range(1, 7):
            for r1 in range(rho1):
                for r2 in range(rho2):
                    both = [k for k in range(72) if k % rho1 == r1 and k % rho2 == r2]
                    merged = merge_cong((r1, rho1), (r2, rho2))
                    if merged is None:
                        assert both == []
                    else:
                        r, mod = merged
                        assert both == list(range(r, 72, mod))


def test_restrict_keeps_kept_paths():
    t = full_tree(1, 2, 3)
    # keep only the first child of every node: a path
    path = restrict(t, lambda d, i: i % 2 == 0)
    assert path.layer_sizes() == [1, 1, 1, 1]
    # a dropped node takes its descendants with it
    assert restrict(t, lambda d, i: d != 1).layer_sizes() == [1, 0, 0, 0]
    # re-rooting below a node with a depth cap
    below = restrict(y_tree(1, 4), lambda d, i: True, (1, 0), 2)
    assert is_isomorphic(below, y_tree(0, 2))
    assert restrict(full_tree(1, 2, 2), lambda d, i: True).labels is None


def test_restrict_carries_labels_and_empty():
    pts = [vec(3, 6, [k]) for k in (0, 1, 4)]
    t = from_points(pts, Ball((0,), 0), 2)  # labels are residues mod 3^d
    odd = restrict(t, lambda d, i: t.labels[d][i][0] % 3 == 1)
    assert odd.labels == [[(0,)], [(1,)], [(1,), (4,)]]
    below = restrict(t, lambda d, i: True, (1, 1))
    assert below.labels == [[(1,)], [(1,), (4,)]]
    labelled_empty = TruncTree(2, [[], []], labels=[[], [], []], empty=True)
    e = restrict(labelled_empty, lambda d, i: True)
    assert e.empty and e.labels == [[], [], []]
    assert restrict(empty_tree(2), lambda d, i: True).layer_sizes() == [0, 0, 0]


def test_restrict_refuses_a_missing_node_and_a_deeper_cap():
    t = full_tree(1, 2, 2)
    for node in ((3, 0), (-1, 0), (1, 2), (2, -1)):
        with pytest.raises(DomainError, match="node reference out of range"):
            restrict(t, lambda d, i: True, node)
    with pytest.raises(DepthMismatch):
        restrict(t, lambda d, i: True, (1, 0), 2)


def test_restrict_asks_keep_only_below_kept_parents_in_layer_order():
    pts = [vec(3, 6, [k]) for k in (0, 1, 4, 5)]
    t = from_points(pts, Ball((0,), 0), 2)
    assert t.labels == [[(0,)], [(0,), (1,), (2,)], [(0,), (1,), (4,), (5,)]]
    calls = []

    def keep(d, i):
        calls.append((d, i))
        return t.labels[d][i] != (1,)

    cut = restrict(t, keep)
    # (2, 1) and (2, 2) lie below the dropped (1,) and are never asked
    assert calls == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 3)]
    assert cut.parents == [[0, 0], [0, 1]]
    assert cut.labels == [[(0,)], [(0,), (2,)], [(0,), (5,)]]
    calls.clear()
    below = restrict(t, keep, (1, 2))
    assert calls == [(2, 3)]
    assert below.parents == [[0]] and below.labels == [[(2,)], [(5,)]]
