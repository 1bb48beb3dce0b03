"""The bone-piece rule is decided by validate alone, and every route agrees.

Bone pieces lie strictly inside their bone.  validate checks this exactly in
lambda at each sampled parameter point; datum_poincare and realize run
validate and refuse what it reports, so the exact series never counts a
depth twice or beyond a bone's end.
"""

import json
import re
from dataclasses import replace

import pytest

from datum_gen import sample_data
from padictrees.cli import main
from padictrees.datum import (
    COVER_LIMIT,
    SkeletonDatum,
    TreeDatum,
    expand,
    expand_counts,
    terminal_branch,
    validate,
)
from padictrees.errors import InvalidDatum
from padictrees.gamma import INFINITY, const_fn, whole_quadrant
from padictrees.poincare import datum_poincare
from padictrees.ratfun import expand_series
from test_datum import chain_datum, strip_piece


def test_routes_agree_on_sampled_data():
    cap = 10
    for p in (3, 5):
        for D in sample_data(21, 12, p, cap):
            sizes = expand(D, (), p, cap).layer_sizes()
            assert expand_counts(D, (), p, cap) == sizes
            assert expand_series(datum_poincare(D, p), cap) == sizes


def _with_piece(D, j, piece):
    """D with the pieces of bone j replaced by one terminal piece."""
    kept = tuple(b for b in D.bone_branches if b[0] != j)
    return replace(D, bone_branches=kept + ((j, piece, terminal_branch()),))


def _short_second_bone():
    """Bones of length 300 and 5, then an infinite one; the second bone's
    piece is unbounded."""
    return TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum(
            (-1, 0, 1, 2), (const_fn(300, 0), const_fn(5, 0), INFINITY)
        ),
        joint_branches=tuple((j, terminal_branch()) for j in range(3)),
        bone_branches=(
            (1, strip_piece(0, 1, 299), terminal_branch()),
            (2, strip_piece(0, 301), terminal_branch()),
            (3, strip_piece(0, 306), terminal_branch()),
        ),
    )


# the strip of bone 299 in chain_datum(300) is lambda > 298
OVERRUNS = [
    (_with_piece(chain_datum(300), 299, strip_piece(0, 250)), "depth 250 <= 298"),
    (_with_piece(chain_datum(300), 299, strip_piece(0, 1)), "depth 1 <= 298"),
    (_short_second_bone(), "depth inf >= 305"),
]


@pytest.mark.parametrize("D, msg", OVERRUNS)
def test_overrunning_piece_is_rejected_by_every_route(D, msg, tmp_path, capsys):
    assert any(msg in issue for issue in validate(D))
    with pytest.raises(InvalidDatum, match=msg):
        datum_poincare(D, 3)
    path = tmp_path / "overrun.datum.json"
    path.write_text(json.dumps(D.to_json()))
    for argv in (
        ["poincare", "--datum", str(path), "--coeffs", "310"],
        ["realize", str(path), "--p", "3", "--depth", "4"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert msg in err


def test_piece_on_the_bone_boundary_is_accepted():
    D = _with_piece(chain_datum(300), 299, strip_piece(0, 299))
    assert validate(D) == []
    assert expand_series(datum_poincare(D, 3), 310) == expand_counts(D, (), 3, 310)



def _bones(lengths, pieces):
    """A chain of bones of the given lengths (None for the last, infinite
    one); pieces lists (bone, lo, hi) with hi None for no upper bound."""
    lengths = tuple(INFINITY if ln is None else const_fn(ln, 0) for ln in lengths)
    return TreeDatum(
        level=0, m=0, domain=whole_quadrant(0), rho=1,
        skeleton=SkeletonDatum((-1,) + tuple(range(len(lengths))), lengths),
        joint_branches=tuple((j, terminal_branch()) for j in range(len(lengths))),
        bone_branches=tuple(
            (j, strip_piece(0, lo, INFINITY if hi is None else hi), terminal_branch())
            for j, lo, hi in pieces
        ),
    )


# coverage is read past the first depths of a bone: each of these passed a
# check of 8 depths below the parent joint and gave a wrong series
GAPS = [
    (_bones([None], [(1, 1, 10), (1, 12, None)]), ["no piece covers (11,)"]),
    (_bones([None], [(1, 1, 12), (1, 11, None)]),
     ["pieces overlap at (11,)", "pieces overlap at (12,)"]),
    (_bones([20, None], [(1, 1, 14), (1, 16, 19), (2, 21, None)]),
     ["no piece covers (15,)"]),
]


@pytest.mark.parametrize("D, msgs", GAPS)
def test_coverage_is_decided_along_the_whole_bone(D, msgs):
    issues = validate(D)
    assert [msg for msg in issues if "covers" in msg or "overlap" in msg] == [
        f"bone 1: {msg}" for msg in msgs
    ]
    with pytest.raises(InvalidDatum, match=re.escape(msgs[0])):
        datum_poincare(D, 3)


def test_a_coverage_walk_past_the_limit_is_reported():
    # a piece starting at depth 10^30 made validate walk every depth above it
    D = _bones([None], [(1, 1, 10), (1, 10**30, None)])
    msg = f"bone 1: coverage at () needs {10**30} depths, above the limit {COVER_LIMIT}"
    assert validate(D) == [msg]
    with pytest.raises(InvalidDatum, match=re.escape(msg)):
        datum_poincare(D, 3)
