"""Recursive tree data: skeleton, side branches, validation and expansion.

A level-d tree datum describes a family of rooted trees over a parameter
set M in Gamma^m: a finite skeleton of joints connected by bones whose
lengths are linear functions (infinite only into leaves), a side branch at
every real joint, and piecewise side branches along bones indexed by cells
covering the strip N_e = {(kappa, lambda) : depth(v) < lambda < depth(v')}.
A side branch is a finite tree whose leaves either stop (Terminal) or carry
T(Z_p) x (expansion of a side datum of lower level).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DomainError,
    InvalidDatum,
    NodeBudgetExceeded,
    ParameterOutsideDomain,
    PieceNotFound,
)
from .gamma import (
    INFINITY,
    GammaCell,
    GammaSet,
    LinearFn,
    const_fn,
    eval_linear,
    linear,
    members,
    whole_quadrant,
)
from .trees import TruncTree, full_tree, product

MAX_LEVEL = 3
MAX_PARAMS = 3


class _Terminal:
    """Marker: a side-branch leaf with no growth beyond itself."""

    def __repr__(self):
        return "terminal"


TERMINAL = _Terminal()


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
        kids = self.children_map()
        for j, ln in enumerate(self.lengths, start=1):
            if ln is INFINITY and kids[j]:
                raise InvalidDatum(f"infinite bone into non-leaf joint {j}")
            if ln is not INFINITY and not isinstance(ln, LinearFn):
                raise InvalidDatum("bone length must be a LinearFn or INFINITY")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    def children_map(self):
        kids = [[] for _ in self.parents]
        for j, par in enumerate(self.parents[1:], start=1):
            kids[par].append(j)
        return kids

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

    def leaves(self):
        has_child = [False] * len(self.parents)
        for par in self.parents[1:]:
            has_child[par] = True
        return [i for i, h in enumerate(has_child) if not h]

    def depth_of(self, i: int) -> int:
        d = 0
        while i != 0:
            i = self.parents[i]
            d += 1
        return d

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
        # cached: star branches repeat one side datum many times, and the
        # generated hash would walk every copy on every call
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                (
                    self.level,
                    self.m,
                    self.domain,
                    self.rho,
                    self.skeleton,
                    self.joint_branches,
                    self.bone_branches,
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def joint_branch(self, j: int) -> SideBranchDatum:
        return dict(self.joint_branches)[j]

    def bone_pieces(self, j: int):
        return [(piece, br) for jj, piece, br in self.bone_branches if jj == j]

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
                        "len": "inf"
                        if ln is INFINITY
                        else {"a": [str(a) for a in ln.coeffs], "b": str(ln.const)},
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
        sk = data["skeleton"]
        parents = tuple(sk["parents"])
        lengths = []
        for bone in sk["bones"]:
            if bone["len"] == "inf":
                lengths.append(INFINITY)
            else:
                lengths.append(
                    linear(
                        [Fraction(a) for a in bone["len"]["a"]],
                        Fraction(bone["len"]["b"]),
                    )
                )
        return TreeDatum(
            level=int(data["level"]),
            m=int(data["m"]),
            domain=GammaSet.from_json(data["domain"]),
            rho=int(data["rho"]),
            skeleton=SkeletonDatum(parents, tuple(lengths)),
            joint_branches=tuple(
                (int(item["joint"]), _branch_from_json(item))
                for item in data["joint_branches"]
            ),
            bone_branches=tuple(
                (
                    int(item["bone"]),
                    GammaCell.from_json(item["piece"]),
                    _branch_from_json(item),
                )
                for item in data["bone_branches"]
            ),
        )

    @staticmethod
    def load(path: str) -> "TreeDatum":
        with open(path) as fh:
            return TreeDatum.from_json(json.load(fh))


def _branch_json(br: SideBranchDatum) -> dict:
    return {
        "fintree": list(br.parents),
        "leaves": [
            {"side": "terminal" if d is TERMINAL else d.to_json()}
            for d in br.leaf_data
        ],
    }


def _branch_from_json(item: dict) -> SideBranchDatum:
    # a leaf equal to the previous one reuses its datum, so a loaded star
    # branch shares one object per side datum as star_branch does
    leaf_data = []
    prev = None
    for leaf in item["leaves"]:
        side = leaf["side"]
        if side == prev:
            leaf_data.append(leaf_data[-1])
        else:
            leaf_data.append(
                TERMINAL if side == "terminal" else TreeDatum.from_json(side)
            )
        prev = side
    return SideBranchDatum(tuple(item["fintree"]), tuple(leaf_data))


def joint_depth_fn(D: TreeDatum, joint: int):
    """Depth of a joint as a LinearFn of the parameters: the sum of the bone
    lengths on the path from the root; INFINITY behind an infinite bone."""
    total = const_fn(0, D.m)
    j = joint
    while j != 0:
        ln = D.skeleton.lengths[j - 1]
        if ln is INFINITY:
            return INFINITY
        total = total + ln
        j = D.skeleton.parents[j]
    return total


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


def expand(D: TreeDatum, kappa, p: int, depth_cap: int, node_budget=10**7) -> TruncTree:
    """The truncated tree T(kappa) described by the datum."""
    kappa = tuple(int(k) for k in kappa)
    if len(kappa) != D.m:
        raise ParameterOutsideDomain(f"expected {D.m} parameters, got {len(kappa)}")
    if D.m and not D.domain.contains(kappa):
        raise ParameterOutsideDomain(f"{kappa} is not in the domain")
    budget = _Budget(node_budget)
    root = _expand_nodes(D, kappa, p, depth_cap, budget)
    if root is None:
        return TruncTree(depth_cap, (), empty=True)
    return _nodes_to_tree(root, depth_cap)


def _expand_nodes(D, kappa, p, cap, budget):
    """Build the expansion as nested child lists; None for the empty tree."""
    if D.skeleton.num_joints == 0:
        return None
    kids_map = D.skeleton.children_map()

    def new_node():
        budget.take()
        return []

    root = new_node()

    def attach_branch(node, depth, branch, params):
        # fintree nodes, then T(Z_p) x side tree at non-terminal leaves
        fnodes = {0: node}
        leaf_ids = branch.leaves()
        for i in range(1, len(branch.parents)):
            d = depth + branch.depth_of(i)
            if d > cap:
                fnodes[i] = None
                continue
            par = fnodes[branch.parents[i]]
            if par is None:
                fnodes[i] = None
                continue
            child = new_node()
            par.append(child)
            fnodes[i] = child
        for leaf, side in zip(leaf_ids, branch.leaf_data):
            if side is TERMINAL:
                continue
            d = depth + branch.depth_of(leaf)
            if d > cap or fnodes[leaf] is None:
                continue
            rem = cap - d
            sub = expand(side, params, p, rem, budget.limit - budget.used)
            grown = product(full_tree(1, p, rem), sub)
            budget.take(max(grown.num_nodes() - 1, 0))
            _graft(fnodes[leaf], grown)

    def place_joint(j, node, depth):
        # skeleton children first, side branches after (deterministic order)
        for j2 in kids_map[j]:
            ln = D.skeleton.lengths[j2 - 1]
            if ln is INFINITY:
                length = cap - depth + 1  # materialize to the cap; no end joint
            else:
                length = eval_linear(ln, kappa)
                if length < 1:
                    raise InvalidDatum(
                        f"bone into joint {j2} has length {length} at {kappa}"
                    )
            cur = node
            chain = []
            for lam in range(depth + 1, depth + length):
                if lam > cap:
                    cur = None
                    break
                nxt = new_node()
                cur.append(nxt)
                chain.append((nxt, lam))
                cur = nxt
            if cur is not None and ln is not INFINITY and depth + length <= cap:
                end = new_node()
                cur.append(end)
                place_joint(j2, end, depth + length)
            for nxt, lam in chain:
                _, br = D.find_piece(j2, kappa + (lam,))
                attach_branch(nxt, lam, br, kappa + (lam,))
        if not D.skeleton.is_virtual(j):
            attach_branch(node, depth, D.joint_branch(j), kappa)

    place_joint(0, root, 0)
    return root


def _graft(node, t: TruncTree):
    """Append the children structure of a TruncTree below an existing node."""
    if t.num_nodes() == 0:
        return
    prev = {0: node}
    for depth in range(1, t.depth_cap + 1):
        cur = {}
        for i, par in enumerate(t.parents[depth - 1]):
            child = []
            prev[par].append(child)
            cur[i] = child
        prev = cur


def _nodes_to_tree(root, cap) -> TruncTree:
    layers = []
    prev = [root]
    for _ in range(cap):
        parents = []
        nxt = []
        for i, node in enumerate(prev):
            for child in node:
                parents.append(i)
                nxt.append(child)
        layers.append(tuple(parents))
        prev = nxt
    return TruncTree(cap, tuple(layers))


def expand_counts(D: TreeDatum, kappa, p: int, depth_cap: int, _memo=None):
    """Layer sizes of expand(D, kappa, p, depth_cap) without building the tree.

    Follows the expansion semantics node-for-node (skeleton, side branches,
    T(Z_p) factors), so it is an independent check against the generating
    function algebra even when the tree itself is too large to materialize.
    """
    kappa = tuple(int(k) for k in kappa)
    if _memo is None:
        _memo = {}
    key = (D, kappa, depth_cap)
    if key in _memo:
        return _memo[key]
    if D.skeleton.num_joints == 0:
        return [0] * (depth_cap + 1)
    counts = [0] * (depth_cap + 1)
    kids_map = D.skeleton.children_map()

    def add_branch(depth, branch, params):
        for i in range(1, len(branch.parents)):
            d = depth + branch.depth_of(i)
            if d <= depth_cap:
                counts[d] += 1
        for leaf, side in zip(branch.leaves(), branch.leaf_data):
            if side is TERMINAL:
                continue
            d = depth + branch.depth_of(leaf)
            if d > depth_cap:
                continue
            rem = depth_cap - d
            sub = expand_counts(side, params, p, rem, _memo)
            for i in range(1, rem + 1):
                counts[d + i] += p**i * sub[i]

    def place_joint(j, depth):
        counts[depth] += 1
        if not D.skeleton.is_virtual(j):
            add_branch(depth, D.joint_branch(j), kappa)
        for j2 in kids_map[j]:
            ln = D.skeleton.lengths[j2 - 1]
            if ln is INFINITY:
                length = depth_cap - depth + 1
            else:
                length = eval_linear(ln, kappa)
            for lam in range(depth + 1, min(depth + length, depth_cap + 1)):
                counts[lam] += 1
                _, br = D.find_piece(j2, kappa + (lam,))
                add_branch(lam, br, kappa + (lam,))
            if ln is not INFINITY and depth + length <= depth_cap:
                place_joint(j2, depth + length)

    place_joint(0, 0)
    _memo[key] = counts
    return counts


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _sample_params(D: TreeDatum, span=8, limit=40):
    if D.m == 0:
        return [()]
    pts = members(D.domain, [span] * D.m)
    if not pts:
        pts = members(D.domain, [4 * span] * D.m)
    return pts[:limit]


def validate(D: TreeDatum, require_normal=False, span=8, _memo=None) -> list[str]:
    """Structural checks; returns a list of violation descriptions.

    Each distinct side datum is checked once per call; a side datum carried
    by k leaves still contributes its messages k times, in leaf order.
    """
    if _memo is None:
        _memo = {}
    hit = _memo.get(D)
    if hit is not None:
        return list(hit)
    report = []
    try:
        samples = _sample_params(D, span)
    except Exception as exc:  # malformed domain
        return [f"domain: {exc}"]
    if D.m and not samples:
        report.append("domain: no points found while probing")

    # bone lengths: positive integers on the sampled domain
    for j, ln in enumerate(D.skeleton.lengths, start=1):
        if ln is INFINITY:
            continue
        for kappa in samples:
            try:
                v = eval_linear(ln, kappa)
            except Exception as exc:
                report.append(f"bone {j}: {exc}")
                break
            if v < 1:
                report.append(f"bone {j}: length {v} at {kappa} is not positive")
                break
        if require_normal and D.m:
            residues = {eval_linear(ln, kappa) % D.rho for kappa in samples}
            if len(residues) > 1:
                report.append(f"normal: bone {j} length mod rho varies on domain")

    # piece coverage and disjointness of each N_e
    for j in range(1, D.skeleton.num_joints):
        pieces = D.bone_pieces(j)
        lo_fn = joint_depth_fn(D, D.skeleton.parents[j])
        ln = D.skeleton.lengths[j - 1]
        if lo_fn is INFINITY:
            continue
        for kappa in samples:
            lo = eval_linear(lo_fn, kappa)
            hi = lo + (span + 1 if ln is INFINITY else eval_linear(ln, kappa))
            for lam in range(lo + 1, min(hi, lo + span + 1)):
                hits = sum(piece.contains(kappa + (lam,)) for piece, _ in pieces)
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
                for msg in validate(side, require_normal, span, _memo)
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


def _extend_set(M: GammaSet, lo=1, hi=INFINITY, r=0, rho=1) -> GammaSet:
    """M x {lambda in [lo, hi], lambda = r mod rho} as a GammaSet."""
    lo_fn = lo if isinstance(lo, LinearFn) else const_fn(lo, M.m)
    hi_fn = hi if hi is INFINITY or isinstance(hi, LinearFn) else const_fn(hi, M.m)
    cells = tuple(
        GammaCell(c.bounds + ((lo_fn, hi_fn),), c.cong + ((r, rho),))
        for c in M.cells
    )
    return GammaSet(cells, M.m + 1)


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
        dom_cell.bounds + ((const_fn(1, m), LinearFn(length.coeffs, length.const - 1)),),
        dom_cell.cong + ((0, 1),),
    )
    tail_lo = LinearFn(length.coeffs, length.const + 1)
    tail_piece = GammaCell(
        dom_cell.bounds + ((tail_lo, INFINITY),), dom_cell.cong + ((0, 1),)
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
        def move(fn):
            if fn is INFINITY:
                return INFINITY
            const = fn.const
            if i == coord:
                const -= delta
            coeffs = list(fn.coeffs)
            if coord < len(coeffs):
                const += coeffs[coord] * delta
            return LinearFn(tuple(coeffs), const)

        bounds.append((move(lo), move(hi)))
    cong = list(c.cong)
    r, rho = cong[coord]
    cong[coord] = ((r - delta) % rho, rho)
    return GammaCell(tuple(bounds), tuple(cong))


def _shift_fn(fn, idx: int, delta: int):
    if fn is INFINITY or idx >= len(fn.coeffs):
        return fn
    return LinearFn(fn.coeffs, fn.const + fn.coeffs[idx] * delta)


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
    if fn is INFINITY:
        return INFINITY
    if idx >= len(fn.coeffs):
        return fn
    coeffs = fn.coeffs[:idx] + fn.coeffs[idx + 1 :]
    return LinearFn(coeffs, fn.const + fn.coeffs[idx] * value)


def _fix_cell(c: GammaCell, idx: int, value: int):
    """Restrict a cell to coordinate idx = value; None if value violates.

    Requires the bounds of coordinate idx to be constant.
    """
    lo, hi = c.bounds[idx]
    if not lo.is_constant() or (hi is not INFINITY and not hi.is_constant()):
        raise DomainError("cannot specialize a coordinate with dependent bounds")
    r, rho = c.cong[idx]
    if value % rho != r or Fraction(value) < lo.const:
        return None
    if hi is not INFINITY and Fraction(value) > hi.const:
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
