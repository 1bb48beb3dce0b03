"""Recursive tree data: skeleton, side branches, validation and expansion.

A level-d tree datum describes a family of rooted trees over a parameter
set M in Gamma^m: a finite skeleton of joints connected by bones whose
lengths are linear functions (infinite only into leaves), a side branch at
every real joint, and piecewise side branches along bones.  The pieces of a
bone e from joint v to joint v' are cells of depths lying strictly inside
the bone, and they partition the strip
N_e = {(kappa, lambda) : depth(v) < lambda < depth(v')}; validate decides
this, and every route that sums or walks a bone relies on it.  A side branch
is a finite tree whose leaves either stop (Terminal) or carry
T(Z_p) x (expansion of a side datum of lower level).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import ceil, floor, lcm
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DomainError,
    InvalidDatum,
    NodeBudgetExceeded,
    NonIntegral,
    ParameterOutsideDomain,
    PieceNotFound,
    _int_list,
    _json_num,
    _objects_with,
    load_json,
)
from .gamma import (
    INFINITY,
    GammaCell,
    GammaSet,
    LinearFn,
    const_fn,
    eval_linear,
    linear,
    linear_from_json,
    linear_json,
    members,
    var,
    whole_quadrant,
)

if TYPE_CHECKING:
    from .trees import TruncTree

MAX_LEVEL = 3
MAX_PARAMS = 3


class _Terminal:
    """Marker: a side-branch leaf with no growth beyond itself."""

    def __repr__(self):
        return "terminal"


TERMINAL = _Terminal()


def _kids(parents) -> tuple[tuple[int, ...], ...]:
    kids = [[] for _ in parents]
    for i, par in enumerate(parents[1:], start=1):
        kids[par].append(i)
    return tuple(map(tuple, kids))


def _check_parents(parents):
    if not parents or parents[0] != -1:
        raise InvalidDatum("node 0 must be the root (parent -1)")
    for i, par in enumerate(parents[1:], start=1):
        if not 0 <= par < i:
            raise InvalidDatum(f"node {i} has invalid parent {par}")


@dataclass(frozen=True)
class SkeletonDatum:
    """Finite rooted tree of joints; lengths[j-1] is the bone into joint j."""

    parents: tuple[int, ...]
    lengths: tuple[object, ...]  # LinearFn or INFINITY, one per non-root joint

    def __post_init__(self):
        if not self.parents:
            return  # empty skeleton: empty tree
        _check_parents(self.parents)
        if len(self.lengths) != len(self.parents) - 1:
            raise InvalidDatum("one bone length per non-root joint required")
        for j, ln in enumerate(self.lengths, start=1):
            if ln is INFINITY and self.kids[j]:
                raise InvalidDatum(f"infinite bone into non-leaf joint {j}")
            if ln is not INFINITY and not isinstance(ln, LinearFn):
                raise InvalidDatum("bone length must be a LinearFn or INFINITY")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @cached_property
    def kids(self) -> tuple[tuple[int, ...], ...]:
        """Child joints of each joint, in increasing order."""
        return _kids(self.parents)

    def is_virtual(self, j: int) -> bool:
        return j > 0 and self.lengths[j - 1] is INFINITY

    def real_joints(self):
        return [j for j in range(self.num_joints) if not self.is_virtual(j)]


@dataclass(frozen=True)
class SideBranchDatum:
    """Finite tree; leaf_data aligns with leaves() and holds a TreeDatum
    (side tree of lower level, with an implicit T(Z_p) factor) or TERMINAL."""

    parents: tuple[int, ...]
    leaf_data: tuple[object, ...]

    def __post_init__(self):
        _check_parents(self.parents)
        if len(self.leaf_data) != len(self.leaves()):
            raise InvalidDatum("one leaf datum per fintree leaf required")
        for d in self.leaf_data:
            if d is not TERMINAL and not isinstance(d, TreeDatum):
                raise InvalidDatum("leaf datum must be a TreeDatum or TERMINAL")

    @cached_property
    def kids(self) -> tuple[tuple[int, ...], ...]:
        """Children of each fintree node, in increasing order."""
        return _kids(self.parents)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Depth of each fintree node below the root; parents come first,
        so one pass fills it."""
        depths = [0] * len(self.parents)
        for i in range(1, len(self.parents)):
            depths[i] = depths[self.parents[i]] + 1
        return tuple(depths)

    def leaves(self):
        return [i for i, k in enumerate(self.kids) if not k]

    def depth_of(self, i: int) -> int:
        return self.depths[i]

    def is_trivial(self) -> bool:
        return len(self.parents) == 1 and self.leaf_data[0] is TERMINAL


def terminal_branch() -> SideBranchDatum:
    """Root-only side branch with no growth."""
    return SideBranchDatum((-1,), (TERMINAL,))


def star_branch(k: int, side) -> SideBranchDatum:
    """Root with k leaf children, all carrying the same leaf datum."""
    if k < 1:
        raise InvalidDatum("star branch needs at least one leaf")
    return SideBranchDatum((-1,) + (0,) * k, (side,) * k)


@dataclass(frozen=True)
class TreeDatum:
    level: int
    m: int
    domain: GammaSet
    rho: int
    skeleton: SkeletonDatum
    joint_branches: tuple[tuple[int, SideBranchDatum], ...]
    bone_branches: tuple[tuple[int, GammaCell, SideBranchDatum], ...]

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise InvalidDatum(f"level must be in 0..{MAX_LEVEL}")
        if not 0 <= self.m <= MAX_PARAMS:
            raise InvalidDatum(f"parameter count must be in 0..{MAX_PARAMS}")
        if self.domain.m != self.m:
            raise InvalidDatum("domain arity differs from declared m")
        if self.rho < 1:
            raise InvalidDatum("rho must be >= 1")
        jb = dict(self.joint_branches)
        for j in jb:
            if not 0 <= j < self.skeleton.num_joints or self.skeleton.is_virtual(j):
                raise InvalidDatum(f"joint branch on invalid joint {j}")
        for j in self.skeleton.real_joints():
            if j not in jb:
                raise InvalidDatum(f"real joint {j} has no side branch")
        for j, piece, _ in self.bone_branches:
            if not 1 <= j < self.skeleton.num_joints:
                raise InvalidDatum(f"bone branch on invalid bone {j}")
            if piece.m != self.m + 1:
                raise InvalidDatum("bone piece must have m+1 coordinates")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # cached: star branches repeat one side datum many times, and the
        # generated hash would walk every copy on every call
        return hash((self.level, self.m, self.domain, self.rho, self.skeleton,
                     self.joint_branches, self.bone_branches))

    @cached_property
    def skeleton_table(self) -> "SkeletonTable":
        """Per-joint depth forms and term anchors, built on first use (set-ups
        that only construct data never pay for it) and kept on the datum."""
        return _skeleton_table(self.skeleton, self.m)

    @cached_property
    def _joint_map(self) -> dict[int, SideBranchDatum]:
        return dict(self.joint_branches)

    def joint_branch(self, j: int) -> SideBranchDatum:
        return self._joint_map[j]

    @cached_property
    def _bone_map(self) -> dict[int, list[tuple[GammaCell, SideBranchDatum]]]:
        out = {}
        for j, piece, br in self.bone_branches:
            out.setdefault(j, []).append((piece, br))
        return out

    def bone_pieces(self, j: int):
        return self._bone_map.get(j, [])

    def find_piece(self, j: int, point):
        hits = [
            (piece, br) for piece, br in self.bone_pieces(j) if piece.contains(point)
        ]
        if not hits:
            raise PieceNotFound(f"no piece on bone into joint {j} covers {point}")
        if len(hits) > 1:
            raise InvalidDatum(f"overlapping pieces on bone {j} at {point}")
        return hits[0]

    def side_data(self):
        """All (SideBranchDatum, is_bone_side) pairs of this datum."""
        out = [(br, False) for _, br in self.joint_branches]
        out.extend((br, True) for _, _, br in self.bone_branches)
        return out

    def to_json(self) -> dict:
        return {
            "format": 1,
            "level": self.level,
            "m": self.m,
            "domain": self.domain.to_json(),
            "rho": self.rho,
            "skeleton": {
                "joints": self.skeleton.num_joints,
                "parents": list(self.skeleton.parents),
                "bones": [
                    {
                        "from": self.skeleton.parents[j],
                        "to": j,
                        "len": linear_json(ln),
                    }
                    for j, ln in enumerate(self.skeleton.lengths, start=1)
                ],
            },
            "joint_branches": [
                {"joint": j, **_branch_json(br)} for j, br in self.joint_branches
            ],
            "bone_branches": [
                {"bone": j, "piece": piece.to_json(), **_branch_json(br)}
                for j, piece, br in self.bone_branches
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "TreeDatum":
        """The datum of a JSON document; a malformed shape is a DomainError
        that names the field."""
        if not isinstance(data, dict):
            raise DomainError("a tree datum must be a JSON object")
        level = _json_num(data.get("level"), "tree datum field 'level'")
        m = _json_num(data.get("m"), "tree datum field 'm'")
        rho = _json_num(data.get("rho"), "tree datum field 'rho'")
        sk = data.get("skeleton")
        if not (isinstance(sk, dict) and _int_list(sk.get("parents"))
                and _objects_with(sk.get("bones"), "len")):
            raise DomainError(
                "tree datum field 'skeleton' must be an object with a list "
                "'parents' of integers and a list 'bones' of objects with 'len'"
            )
        for key in ("joint_branches", "bone_branches"):
            if not _objects_with(data.get(key)):
                raise DomainError(f"tree datum field {key!r} must be a list of objects")
        parents = tuple(sk["parents"])
        lengths = tuple(
            _read("skeleton bone field 'len'", linear_from_json, bone["len"])
            for bone in sk["bones"]
        )
        return TreeDatum(
            level=level,
            m=m,
            domain=_read(
                "tree datum field 'domain'", GammaSet.from_json, data.get("domain")
            ),
            rho=rho,
            skeleton=SkeletonDatum(parents, lengths),
            joint_branches=tuple(
                (
                    _json_num(item.get("joint"), "joint branch field 'joint'"),
                    _read("a joint branch", _branch_from_json, item),
                )
                for item in data["joint_branches"]
            ),
            bone_branches=tuple(
                (
                    _json_num(item.get("bone"), "bone branch field 'bone'"),
                    _read(
                        "bone branch field 'piece'", GammaCell.from_json, item.get("piece")
                    ),
                    _read("a bone branch", _branch_from_json, item),
                )
                for item in data["bone_branches"]
            ),
        )

    @staticmethod
    def load(path: str) -> "TreeDatum":
        return load_json(path, TreeDatum.from_json)


def _read(what: str, read, value):
    """read(value); a DomainError it raises is told what was being read."""
    try:
        return read(value)
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from None


def _branch_json(br: SideBranchDatum) -> dict:
    # a run of k > 1 consecutive equal leaves is written once, with
    # "repeat": k, so a star branch holds one copy of its side datum
    leaves = []
    for d, run in groupby(br.leaf_data):
        leaf = {"side": "terminal" if d is TERMINAL else d.to_json()}
        k = sum(1 for _ in run)
        if k > 1:
            leaf["repeat"] = k
        leaves.append(leaf)
    return {"fintree": list(br.parents), "leaves": leaves}


def _branch_from_json(item: dict) -> SideBranchDatum:
    # a run, and a leaf whose datum equals the previous one once read (files
    # written without "repeat"), reuse one datum, so a loaded star branch
    # shares one object per side datum as star_branch does
    fintree = item.get("fintree")
    if not (_int_list(fintree) and _objects_with(item.get("leaves"), "side")):
        raise DomainError(
            "'fintree' must be a list of integers and 'leaves' a list of "
            "objects with 'side'"
        )
    leaf_data = []
    for leaf in item["leaves"]:
        side = leaf["side"]
        if side == "terminal":
            d = TERMINAL
        else:
            d = _read("leaf field 'side'", TreeDatum.from_json, side)
            if leaf_data and d == leaf_data[-1]:
                d = leaf_data[-1]
        k = _json_num(leaf.get("repeat", 1), "leaf field 'repeat'")
        if not 1 <= k <= len(fintree):
            raise InvalidDatum(f"leaf repeat {k} is not in 1..{len(fintree)}, the fintree size")
        leaf_data.extend([d] * k)
    return SideBranchDatum(tuple(fintree), tuple(leaf_data))


class SkeletonTable(NamedTuple):
    """What the skeleton passes read per joint, from one top-down pass.

    depth_fns[j] is the depth of joint j (see joint_depth_fn).  Joints are
    numbered parents first, so the subtree of joint a is the preorder
    interval enter[a] <= enter[i] < leave[a].  i_star[j] (j >= 1) is the
    latest earlier joint in the subtree of j's parent: the latest i < j
    whose deepest common ancestor with j is that parent.
    """

    depth_fns: tuple[object, ...]
    enter: tuple[int, ...]
    leave: tuple[int, ...]
    i_star: tuple[int, ...]

    def is_ancestor(self, a: int, i: int) -> bool:
        """Whether joint i lies in the subtree of joint a (a itself too)."""
        return self.enter[a] <= self.enter[i] < self.leave[a]


def _skeleton_table(sk: SkeletonDatum, m: int) -> SkeletonTable:
    parents, n = sk.parents, sk.num_joints
    depth_fns = [const_fn(0, m)] * n
    for j in range(1, n):
        ln, up = sk.lengths[j - 1], depth_fns[parents[j]]
        depth_fns[j] = INFINITY if ln is INFINITY else up + ln
    size = [1] * n
    for j in range(n - 1, 0, -1):
        size[parents[j]] += size[j]
    # preorder: each joint's first free slot follows its earlier siblings
    enter, free = [0] * n, [1] * n
    for j in range(1, n):
        a = parents[j]
        enter[j] = free[a]
        free[a] += size[j]
        free[j] = enter[j] + 1
    leave = [enter[j] + size[j] for j in range(n)]
    # a first child gets its parent (the rest of the subtree comes later); a
    # later child's scan back stops at its previous sibling at the latest
    i_star = [-1] * n
    for a, kids in enumerate(sk.kids):
        lo, hi = enter[a], leave[a]
        for k, j in enumerate(kids):
            i = j - 1 if k else a
            while not lo <= enter[i] < hi:
                i -= 1
            i_star[j] = i
    return SkeletonTable(tuple(depth_fns), tuple(enter), tuple(leave), tuple(i_star))


def joint_depth_fn(D: TreeDatum, joint: int):
    """Depth of a joint as a LinearFn of the parameters: the sum of the bone
    lengths on the path from the root; INFINITY behind an infinite bone."""
    return D.skeleton_table.depth_fns[joint]


def joint_depth(D: TreeDatum, joint: int, kappa=()):
    """Depth of a joint at the parameter point kappa."""
    return eval_linear(joint_depth_fn(D, joint), kappa)


# ---------------------------------------------------------------------------
# Expansion into truncated trees.
# ---------------------------------------------------------------------------


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def take(self, k=1):
        self.used += k
        if self.used > self.limit:
            raise NodeBudgetExceeded(f"expansion exceeds {self.limit} nodes")


def _skeleton_nodes(D: TreeDatum, kappa: tuple, cap: int) -> list:
    """The skeleton nodes of T(kappa) down to depth cap, each after its
    parent: (depth, position of the parent in the list (-1 at the root),
    side branch, parameters of the branch); none for an empty skeleton.
    Joints are numbered parents first, so one loop over them meets each
    joint after it is placed.  Refuses a kappa outside the domain."""
    if len(kappa) != D.m:
        raise ParameterOutsideDomain(f"expected {D.m} parameters, got {len(kappa)}")
    if D.m and not D.domain.contains(kappa):
        raise ParameterOutsideDomain(f"{kappa} is not in the domain")
    sk = D.skeleton
    if sk.num_joints == 0:
        return []
    nodes = [(0, -1, D.joint_branch(0), kappa)]
    placed = {0: 0}  # joint -> its position in nodes, for joints within the cap
    for j in range(sk.num_joints):
        if j not in placed:
            continue
        at = placed[j]
        depth = nodes[at][0]
        for j2 in sk.kids[j]:
            ln = sk.lengths[j2 - 1]
            if ln is INFINITY:
                end = cap + 1  # materialize to the cap; no end joint
            else:
                length = eval_linear(ln, kappa)
                if length < 1:
                    raise InvalidDatum(
                        f"bone into joint {j2} has length {length} at {kappa}"
                    )
                end = depth + length
            par = at
            for lam in range(depth + 1, min(end, cap + 1)):
                params = kappa + (lam,)
                nodes.append((lam, par, D.find_piece(j2, params)[1], params))
                par = len(nodes) - 1
            if end <= cap:
                placed[j2] = len(nodes)
                nodes.append((end, par, D.joint_branch(j2), kappa))
    return nodes


def expand(D: TreeDatum, kappa, p: int, depth_cap: int, node_budget=10**7) -> TruncTree:
    """The truncated tree T(kappa) described by the datum."""
    # imported here: a series run reads data but builds no tree
    from .trees import TruncTree, _graft, empty_tree, full_tree, product

    kappa = tuple(int(k) for k in kappa)
    nodes = _skeleton_nodes(D, kappa, depth_cap)
    if not nodes:
        return empty_tree(depth_cap)
    cap = depth_cap
    budget = _Budget(node_budget)
    budget.take()  # the root
    # per-depth parent lists, each layer in the order its nodes are made
    parents: list[list[int]] = [[] for _ in range(cap)]

    def new_node(depth, par):
        budget.take()
        layer = parents[depth - 1]
        layer.append(par)
        return len(layer) - 1

    def attach_branch(node, depth, branch, params):
        # fintree nodes, then T(Z_p) x side tree at non-terminal leaves
        depths = branch.depths
        fnodes = {0: node}
        for i in range(1, len(branch.parents)):
            d = depth + depths[i]
            par = fnodes[branch.parents[i]]
            fnodes[i] = None if d > cap or par is None else new_node(d, par)
        for leaf, side in zip(branch.leaves(), branch.leaf_data):
            if side is TERMINAL:
                continue
            d = depth + depths[leaf]
            if d > cap or fnodes[leaf] is None:
                continue
            rem = cap - d
            # the side tree's root is the leaf node, already counted
            try:
                sub = expand(side, params, p, rem, budget.limit - budget.used + 1)
            except NodeBudgetExceeded:
                raise NodeBudgetExceeded(
                    f"expansion exceeds {budget.limit} nodes"
                ) from None
            grown = product(full_tree(1, p, rem), sub)
            budget.take(max(grown.num_nodes() - 1, 0))
            _graft(parents, None, (d, fnodes[leaf]), grown)

    # _breadth_first orders a layer by parent, then by the order the nodes
    # were made, so the tree depends only on the order in which each node's
    # children are made: skeleton children in kids order, then side
    # branches.  Every skeleton node is made before any side branch.
    ids = [0]  # each skeleton node's position in its layer
    for depth, at, _, _ in nodes[1:]:
        ids.append(new_node(depth, ids[at]))
    for (depth, _, br, params), node in zip(nodes, ids):
        attach_branch(node, depth, br, params)
    return TruncTree(cap, _breadth_first(parents))


def _breadth_first(parents: list[list[int]]) -> list[list[int]]:
    """Renumber per-depth parent lists so that each layer orders its nodes by
    their parent's position, then as they were listed (the order a parent's
    children were made).  Each input layer is dropped once renumbered."""
    out = []
    new_index = [0]
    for d in range(len(parents)):
        keys = [new_index[par] for par in parents[d]]
        parents[d] = None
        out.append(sorted(keys))
        if d + 1 < len(parents):
            new_index = [0] * len(keys)
            # sorted() is stable: siblings keep the order they were made in
            for new, old in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
                new_index[old] = new
    return out


def expand_counts(D: TreeDatum, kappa, p: int, depth_cap: int, _memo=None):
    """Layer sizes of expand(D, kappa, p, depth_cap) without building the tree.

    Takes the skeleton nodes from expand's walk and follows the expansion
    node for node (side branches, T(Z_p) factors), so it is an independent
    check against the generating function algebra even for huge trees.
    """
    kappa = tuple(int(k) for k in kappa)
    if _memo is None:
        _memo = {}
    key = (D, kappa, depth_cap)
    if key in _memo:
        return _memo[key]
    counts = [0] * (depth_cap + 1)

    def add_branch(depth, branch, params):
        depths = branch.depths
        for i in range(1, len(branch.parents)):
            d = depth + depths[i]
            if d <= depth_cap:
                counts[d] += 1
        for leaf, side in zip(branch.leaves(), branch.leaf_data):
            if side is TERMINAL:
                continue
            d = depth + depths[leaf]
            if d > depth_cap:
                continue
            rem = depth_cap - d
            sub = expand_counts(side, params, p, rem, _memo)
            for i in range(1, rem + 1):
                counts[d + i] += p**i * sub[i]

    for depth, _, br, params in _skeleton_nodes(D, kappa, depth_cap):
        counts[depth] += 1
        add_branch(depth, br, params)
    _memo[key] = counts
    return counts


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


# validate probes the domain in the box [0, _SPAN]^m (4 * _SPAN when that
# box misses it) and keeps the first _LIMIT points
_SPAN = 8
_LIMIT = 40
# the most depths of one bone at one point that validate walks to decide
# the coverage of its pieces; a longer walk is reported, not taken
COVER_LIMIT = 10**5


def _sample_params(D: TreeDatum):
    if D.m == 0:
        return [()]
    pts = members(D.domain, [_SPAN] * D.m)
    if not pts:
        pts = members(D.domain, [4 * _SPAN] * D.m)
    return pts[:_LIMIT]


def _depth_range(piece: GammaCell, kappa):
    """The least and the greatest depth lambda with kappa + (lambda,) in the
    piece (INFINITY when unbounded above); None when kappa is outside the
    piece's parameter range or no lambda fits."""
    m = len(kappa)
    if not piece.contains_prefix(kappa):
        return None
    (lo, hi), (r, rho) = piece.bounds[m], piece.cong[m]
    least = ceil(lo.value(kappa))
    least += (r - least) % rho
    if hi is INFINITY:
        return least, INFINITY
    top = floor(hi.value(kappa))
    top -= (top - r) % rho
    return (least, top) if least <= top else None


def validate(D: TreeDatum, require_normal=False, _memo=None) -> list[str]:
    """Structural checks; returns a list of violation descriptions.

    This is the one place the bone-piece rule is decided: at each sampled
    parameter point, every piece of a bone lies strictly between the depths
    of its two joints, and the pieces cover the bone's depths without
    overlap, both exactly in lambda.  Each distinct side datum is checked once
    per call; a side datum carried by k leaves still contributes its
    messages k times, in leaf order.
    """
    if _memo is None:
        _memo = {}
    hit = _memo.get(D)
    if hit is not None:
        return list(hit)
    report = []
    samples = _sample_params(D)
    if D.m and not samples:
        report.append("domain: no points found while probing")

    # bone lengths: positive integers on the sampled domain
    fractional = set()  # bones whose length is not an integer somewhere
    for j, ln in enumerate(D.skeleton.lengths, start=1):
        if ln is INFINITY:
            continue
        for kappa in samples:
            try:
                v = eval_linear(ln, kappa)
            except NonIntegral as exc:
                report.append(f"bone {j}: {exc}")
                fractional.add(j)
                break
            if v < 1:
                report.append(f"bone {j}: length {v} at {kappa} is not positive")
                break
        if require_normal and D.m and j not in fractional:
            residues = {eval_linear(ln, kappa) % D.rho for kappa in samples}
            if len(residues) > 1:
                report.append(f"normal: bone {j} length mod rho varies on domain")

    # each piece lies strictly inside its bone, and the pieces cover the
    # bone's depths without overlap, both decided from exact depth ranges
    for j in range(1, D.skeleton.num_joints):
        if j in fractional or D.skeleton.parents[j] in fractional:
            fractional.add(j)  # the joint depths need not be integers below
            continue
        pieces = D.bone_pieces(j)
        lo_fn = joint_depth_fn(D, D.skeleton.parents[j])
        ln = D.skeleton.lengths[j - 1]
        overrun = set()  # pieces already reported
        for kappa in samples:
            lo = eval_linear(lo_fn, kappa)
            hi = INFINITY if ln is INFINITY else lo + eval_linear(ln, kappa)
            ranges = []
            for i, (piece, _) in enumerate(pieces):
                rng = _depth_range(piece, kappa)
                if rng is None:
                    continue
                least, top = rng
                ranges.append((least, top, piece.cong[D.m][1]))
                if i in overrun:
                    continue
                if least <= lo:
                    reach = f"{least} <= {lo}"
                elif hi is not INFINITY and (top is INFINITY or top >= hi):
                    reach = f"{top} >= {hi}"
                else:
                    continue
                overrun.add(i)
                report.append(f"bone {j}: a piece reaches depth {reach} at {kappa}")
            # past each infinite piece's least and each finite one's top the
            # pieces repeat with the lcm of their moduli: one period decides
            end = max([lo + 1, *(s if t is INFINITY else t + 1 for s, t, _ in ranges)])
            end += lcm(*(rho for _, _, rho in ranges))
            if hi is not INFINITY:
                end = min(end, hi)
            if end - lo > COVER_LIMIT:
                report.append(f"bone {j}: coverage at {kappa} needs {end - lo - 1} depths, "
                              f"above the limit {COVER_LIMIT}")
                continue
            for lam in range(lo + 1, end):
                hits = sum(
                    least <= lam and (top is INFINITY or lam <= top)
                    and (lam - least) % rho == 0
                    for least, top, rho in ranges
                )
                if hits == 0:
                    report.append(f"bone {j}: no piece covers {kappa + (lam,)}")
                elif hits > 1:
                    report.append(f"bone {j}: pieces overlap at {kappa + (lam,)}")

    # recursion structure of side data
    for br, is_bone in D.side_data():
        for side in br.leaf_data:
            if side is TERMINAL:
                continue
            want_m = D.m + (1 if is_bone else 0)
            if side.m != want_m:
                report.append(
                    f"side datum has m={side.m}, expected {want_m}"
                )
            if side.level > D.level - 1:
                report.append(
                    f"side datum of level {side.level} inside level {D.level}"
                )
            if side.skeleton.num_joints == 0:
                report.append("side datum expands to the empty tree")
            report.extend(
                f"side: {msg}"
                for msg in validate(side, require_normal, _memo)
            )
    if D.level == 0:
        for br, _ in D.side_data():
            if any(side is not TERMINAL for side in br.leaf_data):
                report.append("level-0 datum carries a non-terminal side tree")
    _memo[D] = tuple(report)
    return report


# ---------------------------------------------------------------------------
# Builtin library.
# ---------------------------------------------------------------------------


def _whole_strip(M: GammaSet) -> GammaCell:
    """M x {lambda >= 1} as a single piece (requires M to be one cell)."""
    if len(M.cells) != 1:
        raise InvalidDatum("strip helper needs a single-cell domain")
    c = M.cells[0]
    return GammaCell(
        c.bounds + ((const_fn(1, M.m), INFINITY),), c.cong + ((0, 1),)
    )


def point_datum(m=0, domain=None) -> TreeDatum:
    """One node per depth: a single infinite bone with no side growth."""
    if domain is None:
        domain = whole_quadrant(m)
    sk = SkeletonDatum((-1, 0), (INFINITY,))
    return TreeDatum(
        level=0,
        m=m,
        domain=domain,
        rho=1,
        skeleton=sk,
        joint_branches=((0, terminal_branch()),),
        bone_branches=((1, _whole_strip(domain), terminal_branch()),),
    )


def zpn_datum(n: int, p: int, m=0, domain=None) -> TreeDatum:
    """The tree of Z_p^n: every node has p^n children.

    Encoded recursively: an infinite bone; every node carries a side branch
    with p^n - 1 leaves, each heading T(Z_p) x (tree of Z_p^(n-1)).
    """
    if n < 0:
        raise InvalidDatum("n must be >= 0")
    if n == 0:
        return point_datum(m, domain)
    if domain is None:
        domain = whole_quadrant(m)
    strip = _whole_strip(domain)
    strip_dom = GammaSet((strip,), m + 1)
    side_joint = zpn_datum(n - 1, p, m, domain)
    side_bone = zpn_datum(n - 1, p, m + 1, strip_dom)
    k = p**n - 1
    sk = SkeletonDatum((-1, 0), (INFINITY,))
    return TreeDatum(
        level=n,
        m=m,
        domain=domain,
        rho=1,
        skeleton=sk,
        joint_branches=((0, star_branch(k, side_joint)),),
        bone_branches=((1, strip, star_branch(k, side_bone)),),
    )


def y_datum(length, m=1, domain=None) -> TreeDatum:
    """Y(l): a path of length l, then two infinite branches.

    length is a LinearFn in the parameters (or a constant); length 0 means
    the bifurcation happens at the root.
    """
    if domain is None:
        domain = whole_quadrant(m)
    if not isinstance(length, LinearFn):
        length = const_fn(length, m)
    if length.is_constant() and length.const == 0:
        sk = SkeletonDatum((-1, 0, 0), (INFINITY, INFINITY))
        return TreeDatum(
            level=0,
            m=m,
            domain=domain,
            rho=1,
            skeleton=sk,
            joint_branches=((0, terminal_branch()),),
            bone_branches=(
                (1, _whole_strip(domain), terminal_branch()),
                (2, _whole_strip(domain), terminal_branch()),
            ),
        )
    sk = SkeletonDatum((-1, 0, 1, 1), (length, INFINITY, INFINITY))
    dom_cell = domain.cells[0]
    first_piece = GammaCell(
        dom_cell.bounds + ((const_fn(1, m), length - 1),),
        dom_cell.cong + ((0, 1),),
    )
    tail_piece = GammaCell(
        dom_cell.bounds + ((length + 1, INFINITY),), dom_cell.cong + ((0, 1),)
    )
    return TreeDatum(
        level=0,
        m=m,
        domain=domain,
        rho=1,
        skeleton=sk,
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=(
            (1, first_piece, terminal_branch()),
            (2, tail_piece, terminal_branch()),
            (3, tail_piece, terminal_branch()),
        ),
    )


def cusp_datum(p: int) -> TreeDatum:
    """The tree of the cusp {x^3 = y^2} over Z_p, p odd.

    One infinite spine; the root has p-1 extra children heading T(Z_p);
    a spine node at even depth k >= 2 has (p-1)/2 extra children, each
    heading T(Z_p) x Y(k/2 - 1); odd-depth spine nodes grow nothing extra.
    """
    if p == 2:
        raise InvalidDatum("the cusp datum needs p != 2")
    dom = whole_quadrant(0)
    sk = SkeletonDatum((-1, 0), (INFINITY,))
    half = (p - 1) // 2

    odd_piece = GammaCell(((const_fn(1, 0), INFINITY),), ((1, 2),))
    depth2 = GammaCell(((const_fn(2, 0), const_fn(2, 0)),), ((0, 2),))
    even4 = GammaCell(((const_fn(4, 0), INFINITY),), ((0, 2),))

    dom2 = GammaSet((depth2,), 1)
    dom4 = GammaSet((even4,), 1)
    y0 = y_datum(0, m=1, domain=dom2)
    ylen = y_datum(linear([Fraction(1, 2)], -1), m=1, domain=dom4)

    return TreeDatum(
        level=1,
        m=0,
        domain=dom,
        rho=2,
        skeleton=sk,
        joint_branches=((0, star_branch(p - 1, point_datum(0))),),
        bone_branches=(
            (1, odd_piece, terminal_branch()),
            (1, depth2, star_branch(half, y0)),
            (1, even4, star_branch(half, ylen)),
        ),
    )


def builtin(name: str, p: int = 3) -> TreeDatum:
    """Library data by name: point, zp, zpn(n), cusp, y(k)."""
    name = name.strip().lower()
    if name == "point":
        return point_datum()
    if name == "zp":
        return zpn_datum(1, p)
    if name.startswith("zpn(") and name.endswith(")"):
        return zpn_datum(int(name[4:-1]), p)
    if name == "cusp":
        return cusp_datum(p)
    if name.startswith("y(") and name.endswith(")"):
        return y_datum(int(name[2:-1]), m=0)
    raise DomainError(f"unknown builtin datum {name!r}")


def shift_piece(c: GammaCell, coord: int, delta: int) -> GammaCell:
    """The cell {x : x + delta*unit_coord in c} (shift one coordinate down)."""
    bounds = []
    for i, (lo, hi) in enumerate(c.bounds):
        lo, hi = _shift_fn(lo, coord, delta), _shift_fn(hi, coord, delta)
        if i == coord:
            lo, hi = lo - delta, hi if hi is INFINITY else hi - delta
        bounds.append((lo, hi))
    cong = list(c.cong)
    r, rho = cong[coord]
    cong[coord] = ((r - delta) % rho, rho)
    return GammaCell(tuple(bounds), tuple(cong))


def _shift_fn(fn, idx: int, delta: int):
    """fn with k_idx + delta put in for k_idx."""
    if fn is INFINITY or idx >= fn.arity():
        return fn
    n = fn.arity()
    return fn.compose([var(j, n) + delta if j == idx else var(j, n) for j in range(n)])


def _map_branch(br: SideBranchDatum, f) -> SideBranchDatum:
    data = tuple(TERMINAL if s is TERMINAL else f(s) for s in br.leaf_data)
    return SideBranchDatum(br.parents, data)


def shift_datum_param(D: TreeDatum, idx: int, delta: int) -> TreeDatum:
    """Reparametrize coordinate idx by kappa_idx -> kappa_idx + delta."""
    if not 0 <= idx < D.m:
        raise DomainError(f"no parameter {idx}")
    domain = GammaSet(
        tuple(shift_piece(c, idx, delta) for c in D.domain.cells), D.m
    )
    lengths = tuple(_shift_fn(ln, idx, delta) for ln in D.skeleton.lengths)
    return replace(
        D,
        domain=domain,
        skeleton=SkeletonDatum(D.skeleton.parents, lengths),
        joint_branches=tuple(
            (j, _map_branch(br, lambda s: shift_datum_param(s, idx, delta)))
            for j, br in D.joint_branches
        ),
        bone_branches=tuple(
            (
                j,
                shift_piece(piece, idx, delta),
                _map_branch(br, lambda s: shift_datum_param(s, idx, delta)),
            )
            for j, piece, br in D.bone_branches
        ),
    )


def _fix_fn(fn, idx: int, value: int):
    """fn with value put in for k_idx; the later coordinates move down."""
    if fn is INFINITY or idx >= fn.arity():
        return fn
    n = fn.arity() - 1
    forms = [var(j, n) for j in range(n)]
    return fn.compose(forms[:idx] + [const_fn(value, n)] + forms[idx:])


def _fix_cell(c: GammaCell, idx: int, value: int):
    """Restrict a cell to coordinate idx = value; None if value violates.

    Requires the bounds of coordinate idx to be constant.
    """
    lo, hi = c.bounds[idx]
    if not lo.is_constant() or (hi is not INFINITY and not hi.is_constant()):
        raise DomainError("cannot specialize a coordinate with dependent bounds")
    r, rho = c.cong[idx]
    if value % rho != r or value < lo.const:
        return None
    if hi is not INFINITY and value > hi.const:
        return None
    bounds = []
    for i, (lo_i, hi_i) in enumerate(c.bounds):
        if i == idx:
            continue
        if i > idx:
            lo_i, hi_i = _fix_fn(lo_i, idx, value), _fix_fn(hi_i, idx, value)
        bounds.append((lo_i, hi_i))
    cong = c.cong[:idx] + c.cong[idx + 1 :]
    return GammaCell(tuple(bounds), cong)


def specialize_param(D: TreeDatum, idx: int, value: int) -> TreeDatum:
    """Fix parameter idx to a concrete value, dropping one parameter."""
    if not 0 <= idx < D.m:
        raise DomainError(f"no parameter {idx}")
    cells = [c2 for c in D.domain.cells if (c2 := _fix_cell(c, idx, value))]
    if not cells:
        raise ParameterOutsideDomain(
            f"parameter {idx} = {value} misses the domain"
        )
    lengths = tuple(_fix_fn(ln, idx, value) for ln in D.skeleton.lengths)
    bone_branches = []
    for j, piece, br in D.bone_branches:
        piece2 = _fix_cell(piece, idx, value)
        if piece2 is None:
            continue
        bone_branches.append(
            (j, piece2, _map_branch(br, lambda s: specialize_param(s, idx, value)))
        )
    return replace(
        D,
        m=D.m - 1,
        domain=GammaSet(tuple(cells), D.m - 1),
        skeleton=SkeletonDatum(D.skeleton.parents, lengths),
        joint_branches=tuple(
            (j, _map_branch(br, lambda s: specialize_param(s, idx, value)))
            for j, br in D.joint_branches
        ),
        bone_branches=tuple(bone_branches),
    )


def spine_subtree_datum(D: TreeDatum, lam: int) -> TreeDatum:
    """The datum of the subtree below the depth-lam node of the infinite spine.

    Supports unparametrized data whose skeleton is a single infinite bone
    (the builtin library): the spine below lam keeps the same shape with all
    pieces and side data reparametrized to relative depth, and the node at
    depth lam becomes the root, carrying its bone side branch specialized at
    lambda = lam as the new joint branch.
    """
    if D.m != 0 or D.skeleton.parents != (-1, 0):
        raise DomainError("spine subtrees need a single-bone unparametrized datum")
    if D.skeleton.lengths[0] is not INFINITY:
        raise DomainError("the spine must be infinite")
    if lam == 0:
        return D
    _, root_branch = D.find_piece(1, (lam,))
    root_branch = _map_branch(root_branch, lambda s: specialize_param(s, 0, lam))
    kept = []
    for _, piece, br in D.bone_branches:
        piece = shift_piece(piece, 0, lam)
        br = _map_branch(br, lambda s: shift_datum_param(s, 0, lam))
        lo, hi = piece.bounds[0]
        if hi is not INFINITY and hi.const < 1:
            continue
        if lo.const < 1:
            piece = GammaCell(((const_fn(1, 0), hi),), piece.cong)
            r, rho = piece.cong[0]
            if hi is not INFINITY and 1 + (r - 1) % rho > hi.const:
                continue
        kept.append((1, piece, br))
    return replace(
        D,
        joint_branches=((0, root_branch),),
        bone_branches=tuple(kept),
    )
