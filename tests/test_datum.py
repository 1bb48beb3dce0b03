"""Tests for tree data: validation, expansion, builtins, derived data."""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from datum_gen import random_leafless_datum, sample_data
from padictrees.cli import main
from padictrees.datum import (
    TERMINAL,
    SideBranchDatum,
    SkeletonDatum,
    TreeDatum,
    builtin,
    cusp_datum,
    expand,
    expand_counts,
    joint_depth_fn,
    point_datum,
    shift_datum_param,
    specialize_param,
    star_branch,
    terminal_branch,
    validate,
    y_datum,
    zpn_datum,
)
from padictrees.errors import (
    InvalidDatum,
    ParameterOutsideDomain,
    PieceNotFound,
)
from padictrees.poincare import datum_poincare
from padictrees.gamma import (
    INFINITY,
    GammaCell,
    GammaSet,
    LinearFn,
    const_fn,
    eval_linear,
    interval_cell,
    linear,
    whole_quadrant,
)
from padictrees.trees import (
    TruncTree,
    full_tree,
    is_isomorphic,
    path_tree,
    y_tree,
)


def make_single_bone(length, pieces, branch=None, m=1, level=0, rho=1):
    """Skeleton root -> virtual leaf with the given bone pieces."""
    sk = SkeletonDatum((-1, 0), (length,))
    joint_branches = [(0, branch or terminal_branch())]
    if length is not INFINITY:
        joint_branches.append((1, terminal_branch()))
    return TreeDatum(
        level=level,
        m=m,
        domain=whole_quadrant(m),
        rho=rho,
        skeleton=sk,
        joint_branches=tuple(joint_branches),
        bone_branches=tuple((1, piece, br) for piece, br in pieces),
    )


def chain_datum(joints):
    """A chain of joints joined by bones of length 1, the last bone infinite,
    every side branch terminal: its tree is a path."""
    sk = SkeletonDatum(
        (-1,) + tuple(range(joints - 1)),
        (const_fn(1, 0),) * (joints - 2) + (INFINITY,),
    )
    return TreeDatum(
        level=0,
        m=0,
        domain=whole_quadrant(0),
        rho=1,
        skeleton=sk,
        joint_branches=tuple((j, terminal_branch()) for j in range(joints - 1)),
        bone_branches=((joints - 1, strip_piece(0, joints - 1), terminal_branch()),),
    )


def strip_piece(m, lo=1, hi=INFINITY, r=0, rho=1):
    """Quadrant x {lo <= lambda <= hi, lambda = r mod rho} as one cell."""
    c = whole_quadrant(m).cells[0]
    lo_fn = lo if not isinstance(lo, int) else const_fn(lo, m)
    hi_fn = hi if hi is INFINITY or not isinstance(hi, int) else const_fn(hi, m)
    return GammaCell(c.bounds + ((lo_fn, hi_fn),), c.cong + ((r, rho),))


def test_skeleton_validation():
    with pytest.raises(InvalidDatum):
        SkeletonDatum((0,), ())  # root must have parent -1
    with pytest.raises(InvalidDatum):
        SkeletonDatum((-1, 0), ())  # missing bone length
    with pytest.raises(InvalidDatum):
        # infinite bone into a non-leaf joint
        SkeletonDatum((-1, 0, 1), (INFINITY, const_fn(2, 0)))
    sk = SkeletonDatum((-1, 0, 0), (const_fn(2, 0), INFINITY))
    assert sk.is_virtual(2) and not sk.is_virtual(1)
    assert sk.real_joints() == [0, 1]


def test_side_branch_validation():
    with pytest.raises(InvalidDatum):
        SideBranchDatum((-1, 0), ())  # one datum per leaf required
    with pytest.raises(InvalidDatum):
        star_branch(0, TERMINAL)
    br = star_branch(2, TERMINAL)
    assert list(br.leaf_nodes) == [1, 2]
    assert br.depths[2] == 1
    assert terminal_branch().is_trivial()
    assert not br.is_trivial()


def test_joint_depth_examples():
    D = make_single_bone(INFINITY, [(strip_piece(0), terminal_branch())], m=0)
    assert eval_linear(joint_depth_fn(D, 0), ()) == 0
    assert eval_linear(joint_depth_fn(D, 1), ()) is INFINITY
    sk = SkeletonDatum((-1, 0, 1), (const_fn(2, 1), linear([1])))
    D2 = TreeDatum(
        level=0, m=1, domain=whole_quadrant(1), rho=1, skeleton=sk,
        joint_branches=(
            (0, terminal_branch()), (1, terminal_branch()), (2, terminal_branch()),
        ),
        bone_branches=(
            (1, strip_piece(1, 1, 1), terminal_branch()),
            (2, strip_piece(1, 3, INFINITY), terminal_branch()),
        ),
    )
    assert eval_linear(joint_depth_fn(D2, 2), (3,)) == 5


def test_point_datum_expands_to_path():
    D = point_datum()
    assert validate(D) == []
    for p in (2, 3, 5):
        t = expand(D, (), p, 6)
        assert is_isomorphic(t, path_tree(6))


def test_y_datum_matches_y_tree():
    for kappa in (0, 1, 3):
        D = y_datum(kappa, m=0)
        assert validate(D) == []
        t = expand(D, (), 3, 6)
        assert is_isomorphic(t, y_tree(kappa, 6))


def test_y_datum_parametric():
    D = y_datum(linear([1]), m=1)
    for kappa in (1, 2, 4):
        t = expand(D, (kappa,), 5, 7)
        assert is_isomorphic(t, y_tree(kappa, 7))


def test_zpn_matches_full_tree():
    for p in (2, 3, 5):
        D0 = zpn_datum(0, p)
        assert is_isomorphic(expand(D0, (), p, 5), path_tree(5))
        for n in (1, 2):
            D = zpn_datum(n, p)
            assert validate(D) == []
            cap = 4 if p == 5 and n == 2 else 5
            assert is_isomorphic(expand(D, (), p, cap), full_tree(n, p, cap))


def test_cusp_datum_shape():
    D = cusp_datum(5)
    assert validate(D) == []
    t = expand(D, (), 5, 6)
    assert t.layer_sizes() == [1, 5, 21, 103, 521, 2603, 13011]
    with pytest.raises(InvalidDatum):
        cusp_datum(2)


def test_cusp_root_and_spine_degrees():
    t = expand(cusp_datum(5), (), 5, 6)
    ch = t.children_index()
    assert len(ch[0][0]) == 5
    # spine nodes sit first in each layer; even depths sprout (p-1)/2 extras
    assert len(ch[2][0]) == 3
    assert len(ch[4][0]) == 3
    assert len(ch[1][0]) == 1
    assert len(ch[3][0]) == 1


def test_builtin_names():
    assert is_isomorphic(expand(builtin("point"), (), 3, 4), path_tree(4))
    assert is_isomorphic(expand(builtin("zp", 3), (), 3, 4), full_tree(1, 3, 4))
    assert is_isomorphic(expand(builtin("zpn(2)", 3), (), 3, 3), full_tree(2, 3, 3))
    assert is_isomorphic(expand(builtin("y(2)"), (), 3, 5), y_tree(2, 5))
    assert builtin("cusp", 5).rho == 2


def test_expand_counts_agrees_with_expand():
    cases = [
        (point_datum(), (), 3, 6),
        (y_datum(2, m=0), (), 3, 6),
        (zpn_datum(2, 3), (), 3, 4),
        (cusp_datum(3), (), 3, 7),
        (cusp_datum(5), (), 5, 6),
        (y_datum(linear([1]), m=1), (3,), 5, 7),
        (chain_datum(1500), (), 3, 1600),
        (
            TreeDatum(
                level=0, m=0, domain=whole_quadrant(0), rho=1,
                skeleton=SkeletonDatum((), ()), joint_branches=(), bone_branches=(),
            ),
            (), 3, 4,
        ),
    ]
    for p in (3, 5):
        cases.extend((D, (), p, 5) for D in sample_data(1, 6, p, 5))
    for D, kappa, p, cap in cases:
        t = expand(D, kappa, p, cap)
        assert expand_counts(D, kappa, p, cap) == t.layer_sizes()
        assert TruncTree.from_json(t.to_json()).to_json() == t.to_json()


def test_expand_counts_refuses_what_expand_refuses():
    # a bone of length k - 2 is too short at k = 1 and 2, where the counts
    # once went on and counted the root more than once
    D = y_datum(linear([1], -2), m=1)
    for k, length in ((1, -1), (2, 0)):
        msg = f"bone into joint 1 has length {length} at {(k,)}"
        for route in (expand, expand_counts):
            with pytest.raises(InvalidDatum, match=re.escape(msg)):
                route(D, (k,), 3, 4)
    assert expand(D, (3,), 3, 4).layer_sizes() == [1, 1, 2, 2, 2]
    assert expand_counts(D, (3,), 3, 4) == [1, 1, 2, 2, 2]


def test_expand_counts_refuses_the_parameters_expand_refuses():
    in_0_to_3 = dataclasses.replace(
        point_datum(1), domain=GammaSet((interval_cell(0, 3),), 1)
    )
    assert validate(in_0_to_3) == []
    for D, kappa, cap in ((in_0_to_3, (5,), 4), (zpn_datum(1, 3), (7,), 3)):
        with pytest.raises(ParameterOutsideDomain) as want:
            expand(D, kappa, 3, cap)
        with pytest.raises(ParameterOutsideDomain) as got:
            expand_counts(D, kappa, 3, cap)
        assert str(got.value) == str(want.value)


def test_deep_chain_expands_without_recursion(tmp_path, capsys):
    D = chain_datum(1500)
    assert is_isomorphic(expand(D, (), 3, 1600), path_tree(1600))
    path = tmp_path / "deep.datum.json"
    path.write_text(json.dumps(D.to_json()))
    assert main(["expand", str(path), "--p", "3", "--depth", "1600", "--format", "text"]) == 0
    assert capsys.readouterr().out.split() == ["1"] * 1601


def test_deep_chain_validates():
    assert validate(chain_datum(1500)) == []


def test_deep_chain_realizes(tmp_path, capsys):
    src = tmp_path / "chain.datum.json"
    src.write_text(json.dumps(chain_datum(400).to_json()))
    out = tmp_path / "chain.cloud.json"
    argv = ["realize", str(src), "--p", "3", "--depth", "405", "--check",
            "--out", str(out)]
    assert main(argv) == 0
    assert "matches the expansion through depth 405" in capsys.readouterr().err


def test_expand_rejects_bad_parameters():
    D = y_datum(linear([1]), m=1)
    with pytest.raises(ParameterOutsideDomain):
        expand(D, (), 3, 4)
    with pytest.raises(ParameterOutsideDomain):
        expand(D, (-2,), 3, 4)


def test_expand_missing_piece():
    D = make_single_bone(
        INFINITY, [(strip_piece(0, 1, 3), terminal_branch())], m=0
    )
    with pytest.raises(PieceNotFound):
        expand(D, (), 3, 6)


def test_validate_reports_problems():
    # negative bone length on the domain
    D = make_single_bone(
        linear([1], -5),
        [(strip_piece(1), terminal_branch())],
        m=1,
    )
    assert any("not positive" in msg for msg in validate(D))
    # overlapping pieces
    D2 = make_single_bone(
        INFINITY,
        [
            (strip_piece(1, 1, INFINITY), terminal_branch()),
            (strip_piece(1, 2, 2), terminal_branch()),
        ],
        m=1,
    )
    assert any("overlap" in msg for msg in validate(D2))
    # level-0 datum with a non-terminal side tree
    D3 = make_single_bone(
        INFINITY,
        [(strip_piece(0), star_branch(1, point_datum(1)))],
        m=0,
        level=0,
    )
    assert any("level-0" in msg for msg in validate(D3))


def test_validate_reports_a_non_integral_bone_once(tmp_path, capsys):
    # the bone length k/2 + 1 is not an integer at k = 1: validate reports
    # it instead of raising NonIntegral from the piece or normality checks
    D = y_datum(linear(["1/2"], 1), m=1)
    for require_normal in (False, True):
        assert validate(D, require_normal) == ["bone 1: 1/2*k1 + 1 = 3/2 at (1,)"]
    path = tmp_path / "half.datum.json"
    path.write_text(json.dumps(D.to_json()))
    assert main(["poincare", "--datum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bone 1:") and err.count("\n") == 1, err


def test_validate_side_level_and_arity():
    # a bone side tree must take m+1 parameters
    D = make_single_bone(
        INFINITY,
        [(strip_piece(0), star_branch(1, point_datum(0)))],
        m=0,
        level=1,
    )
    assert any("expected 1" in msg for msg in validate(D))


def test_datum_json_round_trip():
    for D, p in (
        (point_datum(), 3),
        (y_datum(2, m=0), 3),
        (cusp_datum(5), 5),
        (zpn_datum(2, 3), 3),
    ):
        D2 = TreeDatum.from_json(D.to_json())
        assert D2 == D
        assert is_isomorphic(expand(D2, (), p, 4), expand(D, (), p, 4))


def test_specialize_param():
    D = y_datum(linear([1]), m=1)
    D2 = specialize_param(D, 0, 3)
    assert D2.m == 0
    assert is_isomorphic(expand(D2, (), 3, 7), y_tree(3, 7))
    with pytest.raises(ParameterOutsideDomain):
        specialize_param(D, 0, -1)


def _assert_shift_moves_parameter(D, delta, ks, p=3, cap=5):
    shifted = shift_datum_param(D, 0, delta)
    for k in ks:
        inside = D.domain.contains((k + delta,))
        assert shifted.domain.contains((k,)) == inside
        if inside:
            want = expand(D, (k + delta,), p, cap)
            assert is_isomorphic(expand(shifted, (k,), p, cap), want), (k, delta)


def test_shift_datum_param_moves_the_parameter():
    _assert_shift_moves_parameter(y_datum(linear([1]), m=1), 2, range(4))
    # the one-parameter side data behind bone pieces of random level-1 data
    rng = random.Random(1)
    sides = []
    for _ in range(20):
        D = random_leafless_datum(rng, 1)
        sides += [
            s for _, _, br in D.bone_branches for s in br.leaf_data
            if s is not TERMINAL and s.m == 1
        ]
    assert len(sides) == 45
    for S in sides:
        for delta in (-1, 2):
            _assert_shift_moves_parameter(S, delta, range(6), cap=4)


def test_bone_splitting_invariance():
    # one bone of length 4 versus two consecutive bones of lengths 2 + 2
    piece = strip_piece(0, 1, 3)
    single = TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum((-1, 0, 1), (const_fn(4, 0), INFINITY)),
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=(
            (1, piece, terminal_branch()),
            (2, strip_piece(0, 5, INFINITY), terminal_branch()),
        ),
    )
    split = TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum(
            (-1, 0, 1, 2), (const_fn(2, 0), const_fn(2, 0), INFINITY)
        ),
        joint_branches=(
            (0, terminal_branch()), (1, terminal_branch()), (2, terminal_branch()),
        ),
        bone_branches=(
            (1, strip_piece(0, 1, 1), terminal_branch()),
            (2, strip_piece(0, 3, 3), terminal_branch()),
            (3, strip_piece(0, 5, INFINITY), terminal_branch()),
        ),
    )
    assert is_isomorphic(expand(single, (), 3, 7), expand(split, (), 3, 7))


def test_level_wrapping_invariance():
    # a level-0 datum re-declared at level 1 expands identically
    D = y_datum(2, m=0)
    import dataclasses

    D1 = dataclasses.replace(D, level=1)
    assert validate(D1) == []
    assert is_isomorphic(expand(D, (), 3, 6), expand(D1, (), 3, 6))


def _twin(obj, mixed=False):
    """obj with every linear form rebuilt from Fractions, integral ones
    included; with mixed, only those of every second side datum of each side
    branch, so that int and Fraction forms of equal data meet in the memos."""
    if isinstance(obj, LinearFn):
        return obj if mixed else LinearFn(tuple(map(Fraction, obj.coeffs)), Fraction(obj.const))
    if mixed and isinstance(obj, SideBranchDatum):
        sides = tuple(_twin(d, i % 2 == 0) for i, d in enumerate(obj.leaf_data))
        return SideBranchDatum(obj.parents, sides)
    if isinstance(obj, tuple):
        return tuple(_twin(x, mixed) for x in obj)
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: _twin(getattr(obj, f.name), mixed)
                            for f in dataclasses.fields(obj)})
    return obj


def test_fraction_built_forms_give_the_int_results():
    # forms built from integral Fractions equal and hash like their int
    # twins, and give the same series text and expansion JSON
    even = GammaSet((GammaCell(((const_fn(0), INFINITY),), ((0, 2),)),), 1)
    cases = [(builtin("cusp", 3), ()), (builtin("zpn(2)", 3), ()),
             (y_datum(linear([Fraction(1, 2)], 1), m=1, domain=even), (4,))]
    cases += [(D, ()) for D in sample_data(3, 4, 3, 6)]
    for D, kappa in cases:
        want_gf = str(datum_poincare(D, 3))
        want_tree = json.dumps(expand(D, kappa, 3, 6).to_json())
        for twin in (_twin(D), _twin(D, mixed=True)):
            assert twin == D and hash(twin) == hash(D)
            assert str(datum_poincare(twin, 3)) == want_gf
            assert json.dumps(expand(twin, kappa, 3, 6).to_json()) == want_tree
    # the twin really holds Fractions where the original holds ints
    bound = _twin(builtin("zp", 3)).bone_branches[0][1].bounds[0][0]
    assert type(bound.const) is Fraction


@pytest.mark.parametrize("name, p, digest", [
    ("point", 3, "048bc10bc2b797cf38b3b127f1782d1f"),
    ("zp", 3, "a51d679e047c566c44740933a723376a"),
    ("zpn(2)", 5, "df6d6b6ad820bd5793ae245935330b5f"),
    ("cusp", 3, "f50c72f13f36a0489c046888c7f87c31"),
    ("cusp", 5, "c14cca7da24718decd44bdaf7db43e23"),
    ("y(3)", 3, "3d2d542c2619fedb9f3fea15e092e83c"),
])
def test_builtin_datum_json_is_unchanged(name, p, digest):
    # md5 of the JSON text of each builtin, taken while forms held Fractions
    text = json.dumps(builtin(name, p).to_json())
    assert hashlib.md5(text.encode()).hexdigest() == digest


def test_rational_datum_json_is_unchanged():
    D = y_datum(linear([Fraction(1, 2)], 1), m=1)
    text = json.dumps(D.to_json())
    assert hashlib.md5(text.encode()).hexdigest() == "20c329ae4efdfe0b5b9a57a1a24f28a8"
    assert TreeDatum.from_json(json.loads(text)) == D
