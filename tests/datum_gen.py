"""Random leafless unparametrized tree data for realization tests.

Level-0 data are skeletons whose leaves all follow infinite bones, with
root-only side branches everywhere.  Level-1 data additionally hang finite
side trees (one-point or Y families) behind fintrees whose leaves all sit
at depth >= 1, so the expansions never have leaves.
"""

import random

from padictrees.datum import (
    TERMINAL,
    SideBranchDatum,
    SkeletonDatum,
    TreeDatum,
    expand_counts,
    point_datum,
    terminal_branch,
    validate,
    y_datum,
)
from padictrees.gamma import (
    GammaCell,
    GammaSet,
    INFINITY,
    const_fn,
    linear,
    whole_quadrant,
)


def _random_skeleton(rng, max_joints=3, max_len=3):
    """Rooted joint tree where every leaf follows an infinite bone."""
    n = rng.randint(2, max_joints)
    parents = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
    has_child = [False] * n
    for par in parents[1:]:
        has_child[par] = True
    lengths = []
    for j in range(1, n):
        if has_child[j]:
            lengths.append(const_fn(rng.randint(1, max_len), 0))
        else:
            lengths.append(INFINITY)
    return SkeletonDatum(tuple(parents), tuple(lengths))


def _joint_depths(sk):
    depths = [0] * sk.num_joints
    for j in range(1, sk.num_joints):
        ln = sk.lengths[j - 1]
        if ln is INFINITY:
            depths[j] = None
        else:
            depths[j] = depths[sk.parents[j]] + int(ln.const)
    return depths


def _strip_cells(rng, lo, hi):
    """Cells covering {lo <= lambda <= hi} (hi may be INFINITY)."""
    hi_fn = INFINITY if hi is INFINITY else const_fn(hi, 0)
    whole = GammaCell(((const_fn(lo, 0), hi_fn),), ((0, 1),))
    if rng.random() < 0.6:
        return [whole]
    # split by parity
    return [
        GammaCell(((const_fn(lo, 0), hi_fn),), ((r, 2),)) for r in (0, 1)
    ]


def _random_side(rng, level, m, domain):
    """A side tree datum of the given arity over the given domain."""
    if level < 1 or rng.random() < 0.45:
        return point_datum(m, domain)
    if m == 0:
        length = rng.randint(0, 3)
    else:
        # length lambda + c stays positive on any strip with lambda >= 1
        length = linear([1], rng.randint(0, 2)) if rng.random() < 0.5 else rng.randint(1, 3)
    return y_datum(length, m=m, domain=domain)


def _random_branch(rng, level, m, domain):
    """A side branch whose non-root leaves all carry side trees."""
    if level == 0 or rng.random() < 0.35:
        return terminal_branch()
    shape = rng.choice(["star1", "star2", "chain"])
    if shape == "chain":
        parents = (-1, 0, 1)
        k = 1
    else:
        k = 1 if shape == "star1" else 2
        parents = (-1,) + (0,) * k
    sides = tuple(_random_side(rng, level, m, domain) for _ in range(k))
    return SideBranchDatum(parents, sides)


def random_leafless_datum(rng: random.Random, level: int) -> TreeDatum:
    """A valid leafless datum with m = 0 of the requested level (0 or 1)."""
    sk = _random_skeleton(rng)
    depths = _joint_depths(sk)
    joint_branches = []
    for j in sk.real_joints():
        joint_branches.append(
            (j, _random_branch(rng, level, 0, whole_quadrant(0)))
        )
    bone_branches = []
    for j in range(1, sk.num_joints):
        lo = depths[sk.parents[j]] + 1
        hi = INFINITY if depths[j] is None else depths[j] - 1
        if hi is not INFINITY and hi < lo:
            continue  # bone of length 1: no interior nodes
        for piece in _strip_cells(rng, lo, hi):
            dom = GammaSet((piece,), 1)
            bone_branches.append((j, piece, _random_branch(rng, level, 1, dom)))
    return TreeDatum(
        level=level,
        m=0,
        domain=whole_quadrant(0),
        rho=1,
        skeleton=sk,
        joint_branches=tuple(joint_branches),
        bone_branches=tuple(bone_branches),
    )


def sample_data(seed: int, count: int, p: int, depth_cap: int, max_nodes=60000):
    """Valid random data whose expansion at depth_cap stays below max_nodes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = random_leafless_datum(rng, rng.randint(0, 1))
        if validate(D):
            continue
        if sum(expand_counts(D, (), p, depth_cap)) > max_nodes:
            continue
        out.append(D)
    return out


def _random_fintree(rng, level, m, domain):
    """A side branch of up to four nodes; each leaf stops or, at level >= 1,
    may carry a side tree."""
    parents = (-1,) + tuple(rng.randint(0, i - 1) for i in range(1, rng.randint(1, 4)))
    n_leaves = sum(1 for i in range(len(parents)) if i not in parents)
    sides = tuple(
        _random_side(rng, level, m, domain) if level and rng.random() < 0.5 else TERMINAL
        for _ in range(n_leaves)
    )
    return SideBranchDatum(parents, sides)


def random_branching_datum(rng: random.Random, max_joints=7) -> TreeDatum:
    """A valid datum with m = 0 and level 0 or 1 on a branching skeleton.

    Joints are numbered parents first but mostly not in preorder; a leaf
    joint ends a finite or an infinite bone; every real joint and every
    bone interior carry random side branches, which may end.
    """
    level = rng.randint(0, 1)
    n = rng.randint(2, max_joints)
    parents = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
    lengths = tuple(
        INFINITY if j not in parents and rng.random() < 0.5
        else const_fn(rng.randint(1, 3), 0)
        for j in range(1, n)
    )
    sk = SkeletonDatum(tuple(parents), lengths)
    depths = _joint_depths(sk)
    joint_branches = tuple(
        (j, _random_fintree(rng, level, 0, whole_quadrant(0)))
        for j in sk.real_joints()
    )
    bone_branches = []
    for j in range(1, n):
        lo = depths[parents[j]] + 1
        hi = INFINITY if depths[j] is None else depths[j] - 1
        if hi is not INFINITY and hi < lo:
            continue
        # a one-depth interior is not split by parity: one half would be empty
        cells = _strip_cells(rng, lo, hi) if hi is INFINITY or hi > lo else [
            GammaCell(((const_fn(lo, 0), const_fn(hi, 0)),), ((0, 1),))
        ]
        for piece in cells:
            dom = GammaSet((piece,), 1)
            bone_branches.append((j, piece, _random_fintree(rng, level, 1, dom)))
    return TreeDatum(
        level=level,
        m=0,
        domain=whole_quadrant(0),
        rho=1,
        skeleton=sk,
        joint_branches=joint_branches,
        bone_branches=tuple(bone_branches),
    )
