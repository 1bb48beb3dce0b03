"""Per-call memos of validate and datum_poincare, and shared side data.

Both recursions compute each distinct side datum once per call. The memo
must not change what a caller sees: messages keep their multiplicity and
order, every call returns a fresh list, and a datum whose repeated leaves
share one object gives the same series as one whose copies are distinct.
"""

from dataclasses import replace

from datum_gen import sample_data

from padictrees.datum import (
    TERMINAL,
    SideBranchDatum,
    SkeletonDatum,
    TreeDatum,
    cusp_datum,
    expand_counts,
    point_datum,
    star_branch,
    terminal_branch,
    validate,
    y_datum,
    zpn_datum,
)
from padictrees.gamma import INFINITY, GammaCell, const_fn, whole_quadrant
from padictrees.poincare import datum_poincare
from padictrees.ratfun import expand_series


def _broken_side():
    """A level-1 datum whose two joint leaves carry data of the wrong arity."""
    base = zpn_datum(1, 3)
    return replace(base, joint_branches=((0, star_branch(2, point_datum(1))),))


def _with_joint_branch(br, level=2):
    base = zpn_datum(2, 3)
    return replace(base, level=level, joint_branches=((0, br),))


WRONG_M = "side: side datum has m=1, expected 0"


def test_repeated_broken_side_reports_every_copy():
    for k in (1, 3, 5):
        D = _with_joint_branch(star_branch(k, _broken_side()))
        assert validate(D) == [WRONG_M] * (2 * k)
        assert validate(TreeDatum.from_json(D.to_json())) == [WRONG_M] * (2 * k)


def test_validate_messages_keep_leaf_order():
    a, b, c = _broken_side(), zpn_datum(2, 3), point_datum(0)
    br = SideBranchDatum((-1,) + (0,) * 5, (a, b, c, a, b))
    D = _with_joint_branch(br)
    too_high = "side datum of level 2 inside level 2"
    want = [WRONG_M, WRONG_M, too_high, WRONG_M, WRONG_M, too_high]
    assert validate(D) == want
    assert validate(TreeDatum.from_json(D.to_json())) == want


def test_validate_returns_a_fresh_list():
    for D in (zpn_datum(2, 3), _with_joint_branch(star_branch(2, _broken_side()))):
        first = validate(D)
        first.append("caller's own note")
        second = validate(D)
        assert second is not first
        assert "caller's own note" not in second


def _side_branches(D):
    for br, _ in D.side_data():
        yield br
        for side in br.leaf_data:
            if side is not TERMINAL:
                yield from _side_branches(side)


def _corpus():
    data = [point_datum(), y_datum(2, m=0)]
    for p in (2, 3, 5):
        data += [zpn_datum(1, p), zpn_datum(2, p)]
    data += [cusp_datum(3), cusp_datum(5), zpn_datum(3, 2)]
    for p in (3, 5):
        data += sample_data(11, 6, p, 6)
    return data


def test_json_round_trip_shares_repeated_leaves():
    for D in _corpus():
        E = TreeDatum.from_json(D.to_json())
        assert E == D
        assert hash(E) == hash(D)
        for br in _side_branches(E):
            for prev, leaf in zip(br.leaf_data, br.leaf_data[1:]):
                if leaf == prev:
                    assert leaf is prev
    star = TreeDatum.from_json(zpn_datum(2, 5).to_json()).joint_branch(0)
    assert len({id(side) for side in star.leaf_data}) == 1


def _unshared(D):
    """An equal datum in which no two leaves hold the same object."""

    def fresh(br):
        data = tuple(s if s is TERMINAL else _unshared(s) for s in br.leaf_data)
        return SideBranchDatum(br.parents, data)

    return replace(
        D,
        joint_branches=tuple((j, fresh(br)) for j, br in D.joint_branches),
        bone_branches=tuple(
            (j, piece, fresh(br)) for j, piece, br in D.bone_branches
        ),
    )


def test_shared_and_unshared_data_give_the_same_series():
    for D, p in ((zpn_datum(2, 3), 3), (zpn_datum(2, 5), 5), (cusp_datum(5), 5)):
        U = _unshared(D)
        leaves = U.joint_branch(0).leaf_data
        assert U == D and leaves[0] is not leaves[1]
        assert str(datum_poincare(U, p)) == str(datum_poincare(D, p))


def test_memo_keys_on_the_domain_too():
    # one side object on the odd and on the even bone piece: its series
    # over one piece is not its series over the other
    side = point_datum(1)
    odd = GammaCell(((const_fn(1, 0), INFINITY),), ((1, 2),))
    even = GammaCell(((const_fn(2, 0), INFINITY),), ((0, 2),))
    D = TreeDatum(
        level=1,
        m=0,
        domain=whole_quadrant(0),
        rho=2,
        skeleton=SkeletonDatum((-1, 0), (INFINITY,)),
        joint_branches=((0, terminal_branch()),),
        bone_branches=(
            (1, odd, star_branch(1, side)),
            (1, even, SideBranchDatum((-1, 0, 1), (side,))),
        ),
    )
    assert validate(D) == []
    assert expand_series(datum_poincare(D, 3), 8) == expand_counts(D, (), 3, 8)
