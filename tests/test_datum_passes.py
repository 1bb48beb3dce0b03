"""The datum passes read one table per datum part and walk the skeleton in
one loop over its joints; the trees they build are the ones recorded while
expand still recursed joint by joint."""

import hashlib
import importlib
import json
import random

import pytest

from datum_gen import random_branching_datum
from padictrees.datum import (
    TERMINAL,
    SideBranchDatum,
    SkeletonDatum,
    TreeDatum,
    _whole_strip,
    builtin,
    cusp_datum,
    expand,
    star_branch,
    terminal_branch,
    zpn_datum,
)
from padictrees.errors import DomainError, NodeBudgetExceeded, NotLeafless
from padictrees.gamma import INFINITY, const_fn, whole_quadrant
from padictrees.realize import realize

realize_module = importlib.import_module("padictrees.realize")

# sha256 of json.dumps(expand(D, (), p, cap).to_json()), recorded while
# expand still recursed joint by joint
CAPS = {3: 4, 5: 3}
BUILTIN_DIGESTS = {
    ("point", 3): "85969737805954af3dacfe24749454d1fb870c93bcf219d8078a2dd32bc9c6f9",
    ("zp", 3): "721abea703817d8a6bab5a23fdf37d46515aa3dd16d715e67d3f863f6183c025",
    ("zpn(2)", 3): "3a2fb7fae71bfc81dbc0a0e1bf77e56bff699b9407cc01a28664c996befe518a",
    ("cusp", 3): "15e71ef97599e39127dc80203a23ed409b5d5128bb50522bbfdd0a5feb4b246d",
    ("y(0)", 3): "e9f50d75288d70473713214bcf96031412d8e5f6e8a2db1c64d142a18b5a3b96",
    ("y(2)", 3): "a6c7bdf6eb9d9def7d7a7b78ac5da6afef90c339308868065d9aa0d2ce214941",
    ("point", 5): "3916af7a55f8fcfa1520653fab62072700f698080c1b370c37ff87e17cd44b07",
    ("zp", 5): "ae479269f5a1885987424b8833695057f04b65feb36f16a4f118db684ce522ed",
    ("zpn(2)", 5): "5ea9ecbc653ada912062af850e5ce75040921365451c50b15957ae318d3a7545",
    ("cusp", 5): "3be3a20966c84e5508f69c3409de9bfaa5633225d39e43e954bd6c3de6264812",
    ("y(0)", 5): "73bc3b51402b9e7f47fbf1349c279e0c11f1572ca17bbaeb4f1d3dceb48a73c6",
    ("y(2)", 5): "6136fa1a6d5ebaad9530cdb9d8984fa20ea70031009a0632b8357770fed58d6c",
}
# the same over random_branching_datum draws 0..99 of Random(2024), one
# expansion after another: (p, cap) -> digest
FAMILY_DIGESTS = {
    (3, 6): "362be617b84e145498ff5cc2ff859711b267b49a63e920699970e56d5ef841b5",
    (5, 4): "193da345f1f98e196aa01411386566c88fcb7edd83d8bc9fc8153a206417b20f",
}


def _digest(cases):
    h = hashlib.sha256()
    for D, p, cap in cases:
        h.update(json.dumps(expand(D, (), p, cap).to_json()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, p", sorted(BUILTIN_DIGESTS))
def test_builtin_expansions_keep_their_bytes(name, p):
    assert _digest([(builtin(name, p), p, CAPS[p])]) == BUILTIN_DIGESTS[name, p]


def test_branching_expansions_keep_their_bytes():
    rng = random.Random(2024)
    family = [random_branching_datum(rng) for _ in range(100)]
    # a joint numbered out of preorder is met before the subtree of an
    # earlier sibling has been expanded
    out_of_preorder = [
        D for D in family
        if list(D.skeleton_table.enter) != list(range(D.skeleton.num_joints))
    ]
    assert len(out_of_preorder) == 27
    for (p, cap), want in FAMILY_DIGESTS.items():
        assert _digest([(D, p, cap) for D in family]) == want


def test_side_branch_tables():
    br = SideBranchDatum((-1, 0, 0, 1, 3), (TERMINAL, TERMINAL))
    assert br.kids == ((1, 2), (3,), (), (4,), ())
    assert br.depths == (0, 1, 1, 2, 3)
    assert br.leaves() == [2, 4] and br.depth_of(4) == 3
    sk = SkeletonDatum((-1, 0, 0, 1), (const_fn(1, 0),) * 3)
    assert sk.kids == ((1, 2), (3,), (), ())


def test_bone_pieces_follow_the_datum_order():
    D = cusp_datum(5)
    assert D.bone_pieces(1) == [(piece, br) for _, piece, br in D.bone_branches]
    assert D.bone_pieces(0) == []


def test_nested_expansion_names_the_callers_budget():
    # the budget runs out inside a side tree's expansion
    for budget in (60, 200):
        with pytest.raises(NodeBudgetExceeded, match=f"^expansion exceeds {budget} nodes$"):
            expand(zpn_datum(2, 3), (), 3, 3, budget)


def test_a_budget_of_the_tree_size_is_enough():
    # a side tree's root is the leaf node it grows from, counted once
    for name in ("zp", "zpn(2)", "cusp"):
        D = builtin(name, 3)
        for cap in range(4):
            n = expand(D, (), 3, cap).num_nodes()
            assert expand(D, (), 3, cap, n).num_nodes() == n
            with pytest.raises(NodeBudgetExceeded, match=f"^expansion exceeds {n - 1} nodes$"):
                expand(D, (), 3, cap, n - 1)


@pytest.mark.parametrize("p", [1, 0])
def test_realize_refuses_p_below_two(p):
    # the embedding-width loop would never end for these p
    with pytest.raises(DomainError, match=f"p = {p}"):
        realize(zpn_datum(1, 3), 3, p=p)


def test_realize_reports_the_prime_before_the_leaves():
    dead_end = TreeDatum(
        level=0,
        m=0,
        domain=whole_quadrant(0),
        rho=1,
        skeleton=SkeletonDatum((-1, 0), (const_fn(1, 0),)),
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=(),
    )
    with pytest.raises(NotLeafless, match="joint 1 is a dead end"):
        realize(dead_end, 3, p=3)
    with pytest.raises(DomainError, match="p = 4"):
        realize(dead_end, 3, p=4)


def _scanned_i_star(D):
    """i_star by a backward scan from j - 1 to the first joint in the
    subtree of j's parent."""
    table, parents = D.skeleton_table, D.skeleton.parents
    out = [-1]
    for j in range(1, D.skeleton.num_joints):
        i = j - 1
        while not table.is_ancestor(parents[j], i):
            i -= 1
        out.append(i)
    return tuple(out)


def test_i_star_is_the_backward_scan():
    from test_datum import chain_datum

    rng = random.Random(2024)
    family = [random_branching_datum(rng) for _ in range(100)]
    # a star of k joints numbered breadth first, each with one child: every
    # grandchild's parent sits k joints back
    k = 40
    star = TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum(
            (-1,) + (0,) * k + tuple(range(1, k + 1)),
            (const_fn(1, 0),) * k + (INFINITY,) * k,
        ),
        joint_branches=tuple((j, terminal_branch()) for j in range(k + 1)),
        bone_branches=(),
    )
    for D in [chain_datum(300), star] + family:
        assert D.skeleton_table.i_star == _scanned_i_star(D)
    assert star.skeleton_table.i_star[k + 1:] == tuple(range(1, k + 1))


def _dead_end_datum():
    return TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum((-1, 0), (const_fn(1, 0),)),
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=(),
    )


def _leafy_datum():
    # a side branch that stops at depth 1
    return TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum((-1, 0), (INFINITY,)),
        joint_branches=((0, star_branch(1, TERMINAL)),),
        bone_branches=((1, _whole_strip(whole_quadrant(0)), terminal_branch()),),
    )


def _carrying(*sides):
    """A level-1 path whose root grows one leaf per side datum."""
    return TreeDatum(
        level=1, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum((-1, 0), (INFINITY,)),
        joint_branches=((0, SideBranchDatum((-1,) + (0,) * len(sides), sides)),),
        bone_branches=((1, _whole_strip(whole_quadrant(0)), terminal_branch()),),
    )


def test_check_and_size_checks_each_side_datum_once(monkeypatch):
    calls = []
    checked = realize_module._check_and_size

    def counted(D, p, _memo=None):
        calls.append(D)
        return checked(D, p, _memo)

    monkeypatch.setattr(realize_module, "_check_and_size", counted)
    # zpn(2, 7) carries its side data on 48 leaves per branch
    assert realize_module._check_and_size(zpn_datum(2, 7), 7) == (3, 1)
    assert len(calls) == len(set(calls)) == 6
    # the first refusal met in leaf order is the one raised, however often
    # its side datum recurs
    dead, leafy = _dead_end_datum(), _leafy_datum()
    for sides, want in [
        ((dead, dead, leafy), "joint 1 is a dead end"),
        ((leafy, dead, leafy, dead), "a side branch ends at depth 1"),
    ]:
        with pytest.raises(NotLeafless, match=f"^{want}$"):
            realize_module._check_and_size(_carrying(*sides), 3)
        with pytest.raises(NotLeafless, match=f"^{want}$"):
            realize(_carrying(*sides), 3, p=3)
