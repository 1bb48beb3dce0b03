"""Witness clouds: finite point sets whose truncated tree matches a datum.

The synthesis mirrors the datum structure.  Skeleton joints become points
f_j = f_i + u_ell(x) * e_slot built from valuation-controlled functions
u_ell; side branches become shifted copies behind a unit digit in the first
unused coordinate, with the finite branching tree embedded into T(Z_p^(N-1))
and the subtree below each leaf synthesized recursively.  The cloud keeps
one sample point per expected tree node: every constructed value is
1-Lipschitz in the sample coordinates, so within a sample's residue class
the fiber tree does not change and a single witness spans the node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm

from .datum import TERMINAL, TreeDatum, expand, joint_depth_fn, validate
from .errors import (
    DomainError,
    InvalidDatum,
    LevelCap,
    NotLeafless,
    NotRealizable,
    PrecisionExhausted,
)
from .gamma import INFINITY, LinearFn, const_fn, eval_linear, var
from .padic import (
    PadicApprox,
    PadicVec,
    eth_root_lift,
    from_int,
    is_finite,
    pval,
    unit_part,
    val,
    vec,
)
from .trees import Ball, from_points, is_isomorphic

__all__ = [
    "RealizationContext",
    "WitnessCloud",
    "RealizationReport",
    "u_fn",
    "SkeletonFns",
    "skeleton_fns",
    "separating_depth",
    "realize",
    "verify_realization",
]


@dataclass(frozen=True)
class RealizationContext:
    """Prime, working precision and the deterministic choice tables.

    Unit representatives are least positive residues and e-th roots come
    from forced digit-by-digit lifting, so equal inputs give equal clouds.
    """

    p: int
    prec: int

    def unit_rep(self, u: int, mu: int) -> int:
        """Representative of the class u * (1 + p^mu Z_p): the least
        positive integer congruent to u mod p^mu."""
        r = u % self.p**mu
        if r % self.p == 0:
            raise DomainError("unit representative of a non-unit")
        return r


# ---------------------------------------------------------------------------
# The functions u_ell with v(u_ell(x)) = ell(v-vector of x).
# ---------------------------------------------------------------------------


def _u_value(ell: LinearFn, xs, ctx: RealizationContext) -> PadicApprox:
    p, prec = ctx.p, ctx.prec
    kappa = []
    for x in xs:
        v = val(x)
        if not is_finite(v):
            raise PrecisionExhausted("sample coordinate vanishes at working precision")
        kappa.append(v)
    lv = ell.value(kappa)
    if lv.denominator != 1:
        raise DomainError(f"{ell} = {lv} is non-integral at {tuple(kappa)}")
    lval = int(lv)
    if lval < 0:
        raise DomainError(f"{ell} = {lval} < 0 at {tuple(kappa)}")
    if prec <= lval:
        raise PrecisionExhausted(f"need precision > {lval} for this value")
    avec, _, e = ell.integral()
    ve = pval(p, e)
    # scaled coordinate copies cover the thin shells below the root margin
    special = sorted(
        (lval - k, i) for i, k in enumerate(kappa) if 0 <= lval - k < ve
    )
    if special:
        lam, i = special[0]
        return PadicApprox(p, min(prec, xs[i].prec + lam), p**lam * xs[i].residue)
    U = from_int(p, prec, 1)
    for i, a in enumerate(avec):
        if a:
            U = U * unit_part(xs[i]).pow(a)
    mu = 2 * ve + 1
    if U.prec <= mu:
        raise PrecisionExhausted("not enough digits to fix the unit class")
    rnu = ctx.unit_rep(U.residue, mu)
    w = U * from_int(p, U.prec, rnu).inverse()
    z = eth_root_lift(w, e, ve + 1)
    return PadicApprox(p, min(prec, lval + z.prec), p**lval * z.residue)


def u_fn(ell: LinearFn, x: PadicVec, ctx: RealizationContext | None = None) -> PadicApprox:
    """A value u with v(u) = ell(v-vector of x) exactly.

    ell = (beta + sum a_i k_i) / e; the value is the e-th root of
    p^beta prod x_i^{a_i} divided by its unit-class representative, except
    on the thin shells 0 <= ell - v(x_i) < v(e) where the scaled coordinate
    p^{ell - v(x_i)} x_i is used instead.  Whenever ell(kappa) >= kappa_i
    holds for all i on the domain, u is 1-Lipschitz on each set of fixed
    v-vector: v(u(x) - u(x')) >= v(x - x').
    """
    if ctx is None:
        ctx = RealizationContext(x.p, x.prec)
    return _u_value(ell, x.coords, ctx)


# ---------------------------------------------------------------------------
# Skeleton functions.
# ---------------------------------------------------------------------------


def _meet(parents, i: int, j: int) -> int:
    anc = set()
    a = i
    while True:
        anc.add(a)
        if a == 0:
            break
        a = parents[a]
    b = j
    while b not in anc:
        b = parents[b]
    return b


def separating_depth(D: TreeDatum, i: int, j: int) -> LinearFn:
    """Depth of the deepest common ancestor of joints i and j."""
    return joint_depth_fn(D, _meet(D.skeleton.parents, i, j))


def _skeleton_terms(D: TreeDatum):
    """Per joint, the chain of (slot, depth-fn) increments defining f_j.

    Joint j extends f_i for the latest earlier joint i whose separation
    from j is maximal (the parent joint's depth); taking the latest such i
    ensures that two terms sharing a slot always have distinct valuations,
    so v(f_i - f_j) = separation + lambda holds with no cancellation.
    """
    parents = D.skeleton.parents
    terms = [()]
    for j in range(1, len(parents)):
        a = parents[j]
        i_star = max(i for i in range(j) if _meet(parents, i, j) == a)
        terms.append(terms[i_star] + ((i_star + 1, joint_depth_fn(D, a)),))
    return terms


@dataclass(frozen=True)
class SkeletonFns:
    """The joint functions f_0 = 0, f_j = f_i + u_ell * e_slot.

    ells[j] lists the (slot, ell) terms of f_j with the base depth lambda
    already folded into ell; value(j, x) evaluates to a width-tuple over
    the coordinates behind the reserved first one.
    """

    m: int
    width: int
    ells: tuple[tuple[tuple[int, LinearFn], ...], ...]

    def value(self, j: int, x: PadicVec | None = None, ctx=None):
        if ctx is None:
            if x is None:
                raise DomainError("a context is required without samples")
            ctx = RealizationContext(x.p, x.prec)
        xs = x.coords if x is not None else ()
        out = [from_int(ctx.p, ctx.prec, 0)] * self.width
        for slot, ell in self.ells[j]:
            out[slot - 1] = out[slot - 1] + _u_value(ell, xs, ctx)
        return tuple(out)


def skeleton_fns(D: TreeDatum, margins=None, ctx=None) -> SkeletonFns:
    """Skeleton functions of a datum over the rectangle with the given
    margins; the base depth is lambda(kappa) = kappa_m + margin_m."""
    if margins is None:
        margins = (1,) * D.m
    if len(margins) != D.m:
        raise DomainError("one margin per parameter required")
    if D.m == 0:
        lam_fn = const_fn(0, 0)
    else:
        lam_fn = var(D.m - 1, D.m) + margins[-1]
    terms = _skeleton_terms(D)
    ells = tuple(
        tuple((slot, d_fn + lam_fn) for slot, d_fn in t) for t in terms
    )
    width = max((slot for t in terms for slot, _ in t), default=0)
    return SkeletonFns(D.m, width, ells)


# ---------------------------------------------------------------------------
# Cloud synthesis.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessCloud:
    """A finite point set in Z_p^{m+N} together with provenance tags."""

    p: int
    prec: int
    m: int
    N: int
    points: tuple[PadicVec, ...]
    provenance: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "format": 1,
            "p": self.p,
            "prec": self.prec,
            "m": self.m,
            "N": self.N,
            "points": [[str(r) for r in pt.residues()] for pt in self.points],
            "provenance": list(self.provenance),
        }

    @staticmethod
    def from_json(data: dict) -> "WitnessCloud":
        p, prec = int(data["p"]), int(data["prec"])
        pts = tuple(vec(p, prec, [int(r) for r in row]) for row in data["points"])
        return WitnessCloud(
            p, prec, int(data["m"]), int(data["N"]), pts,
            tuple(data["provenance"]),
        )

    @staticmethod
    def load(path: str) -> "WitnessCloud":
        with open(path) as fh:
            return WitnessCloud.from_json(json.load(fh))


def _check_leafless(D: TreeDatum):
    """Reject data whose expansions stop: a side branch ending above its
    attachment point or a dead-end real joint produce tree leaves."""
    kids = D.skeleton.children_map()
    for j in D.skeleton.real_joints():
        br = D.joint_branch(j)
        if not kids[j] and all(s is TERMINAL for s in br.leaf_data):
            raise NotLeafless(f"joint {j} is a dead end")
    for br, _ in D.side_data():
        for leaf, side in zip(br.leaves(), br.leaf_data):
            if side is TERMINAL:
                if br.depth_of(leaf) > 0:
                    raise NotLeafless(
                        f"a side branch ends at depth {br.depth_of(leaf)}"
                    )
            else:
                if br.depth_of(leaf) == 0:
                    raise NotRealizable("a side tree is attached at depth 0")
                _check_leafless(side)


def _ydim(D: TreeDatum, p: int) -> int:
    """Coordinates needed behind the reserved one: skeleton slots, branch
    embedding widths, and one extra per recursion level."""
    terms = _skeleton_terms(D)
    need = max((slot for t in terms for slot, _ in t), default=1)
    for br, _ in D.side_data():
        counts = [0] * len(br.parents)
        for q in br.parents[1:]:
            counts[q] += 1
        mx = max(counts)
        if mx:
            w = 1
            while p**w < mx:
                w += 1
            need = max(need, w)
        for side in br.leaf_data:
            if side is not TERMINAL:
                need = max(need, 1 + _ydim(side, p))
    return need


def _embed_centers(br, p: int, width: int):
    """Ball centers of an embedding of the branch fintree into the tree of
    Z_p^width: children get the lexicographically least distinct digits."""
    centers = [(0,) * width] + [None] * (len(br.parents) - 1)
    kids = [[] for _ in br.parents]
    for i, q in enumerate(br.parents[1:], start=1):
        kids[q].append(i)
    for q in range(len(br.parents)):
        if len(kids[q]) > p**width:
            raise DomainError("fintree branching exceeds the embedding width")
        d = br.depth_of(q)
        for i, dig in zip(kids[q], iproduct(*[range(p)] * width)):
            centers[i] = tuple(c + t * p**d for c, t in zip(centers[q], dig))
    return centers


def _cloud(D, forms, lam_form, xs, lam, rem, dim, ctx, tag, out):
    """Points realizing the fiber tree of D at the samples xs.

    forms express the datum parameters as linear functions of the ambient
    valuation vector, lam_form the base depth; lam is its concrete value.
    One point is appended per expected tree node to relative depth rem.
    """
    p, prec = ctx.p, ctx.prec
    pmod = p**prec
    if rem <= 0:
        # nothing below the truncation depth is visible; a single point
        # anywhere in the fiber marks the node's presence
        out.append(((0,) * dim, tag + "pad"))
        return
    kappa_amb = []
    for x in xs:
        v = val(x)
        if not is_finite(v):
            raise PrecisionExhausted("sample vanishes at working precision")
        kappa_amb.append(v)
    kappa_d = tuple(eval_linear(f, kappa_amb) for f in forms)

    terms = _skeleton_terms(D)
    ucache = {}

    def uval(d_fn):
        if d_fn not in ucache:
            # d_fn over the ambient valuations, shifted by the base depth
            ell = d_fn.compose(forms) + lam_form
            if ell.value(kappa_amb) >= lam + rem:
                # the term only touches digits below the truncation depth
                ucache[d_fn] = from_int(p, prec, 0)
            else:
                ucache[d_fn] = _u_value(ell, xs, ctx)
        return ucache[d_fn]

    fres = []
    for t in terms:
        row = [0] * dim
        for slot, d_fn in t:
            row[slot] = (row[slot] + uval(d_fn).residue) % pmod
        fres.append(tuple(row))

    for j in range(D.skeleton.num_joints):
        if D.skeleton.is_virtual(j):
            out.append((fres[j], f"{tag}f{j}"))

    e_new = var(len(xs), len(xs) + 1)

    def attach(anchor, lam_rel, br, coord_tag):
        base = fres[anchor]
        ka = lam + lam_rel
        centers = _embed_centers(br, p, dim - 1)
        for leaf, side in zip(br.leaves(), br.leaf_data):
            if side is TERMINAL:
                continue
            dw = br.depth_of(leaf)
            yw = centers[leaf]
            rem2 = rem - lam_rel - dw
            forms2 = (forms + (e_new - lam_form,))[: side.m]
            lam_form2 = e_new + dw
            # samples z = p^ka (1 + p^dw s) give the full unit digit tree
            # below the leaf ball; one s per node suffices since the side
            # fiber varies 1-Lipschitz with z
            for s in range(p ** max(rem2, 0)):
                zres = p**ka * (1 + p**dw * s)
                z = PadicApprox(p, prec, zres)
                sub = []
                _cloud(
                    side, forms2, lam_form2, xs + (z,), ka + dw, rem2,
                    dim - 1, ctx, f"{tag}{coord_tag}w{leaf}z{s}/", sub,
                )
                for yres, tg in sub:
                    row = [(base[0] + zres) % pmod]
                    for c in range(dim - 1):
                        row.append(
                            (base[c + 1] + yres[c] + zres * yw[c]) % pmod
                        )
                    out.append((tuple(row), tg))

    for j, br in D.joint_branches:
        dj = eval_linear(joint_depth_fn(D, j), kappa_d)
        attach(j, dj, br, f"j{j}l{dj}")
    for j, piece, br in D.bone_branches:
        for lam_rel in range(1, rem + 1):
            if piece.contains(kappa_d + (lam_rel,)):
                attach(j, lam_rel, br, f"b{j}l{lam_rel}")


def _denom_val(D: TreeDatum, p: int) -> int:
    """v_p of the lcm of all bone-length denominators, recursively."""
    e = 1
    for ln in D.skeleton.lengths:
        if ln is not INFINITY:
            e = lcm(e, ln.integral()[2])
    for br, _ in D.side_data():
        for side in br.leaf_data:
            if side is not TERMINAL:
                e = lcm(e, p ** _denom_val(side, p))
    return pval(p, e)


def realize(D: TreeDatum, depth_cap: int, ctx=None, p=None) -> WitnessCloud:
    """A witness cloud whose tree matches expand(D, (), p, depth_cap).

    The datum must be unparametrized, of level at most 2, and leafless.
    """
    if D.m != 0:
        raise NotRealizable("only unparametrized data are realized")
    if D.level > 2:
        raise LevelCap(f"level-{D.level} datum; realization stops at level 2")
    if ctx is None:
        if p is None:
            raise DomainError("a prime or a context is required")
        ctx = RealizationContext(p, depth_cap + 2 * _denom_val(D, p) + 6)
    issues = validate(D)
    if issues:
        raise InvalidDatum("; ".join(issues))
    _check_leafless(D)
    N = 1 + _ydim(D, ctx.p)
    out = []
    if D.skeleton.num_joints:
        _cloud(D, (), const_fn(0, 0), (), 0, depth_cap, N, ctx, "", out)
    pts = tuple(vec(ctx.p, ctx.prec, row) for row, _ in out)
    return WitnessCloud(ctx.p, ctx.prec, 0, N, pts, tuple(t for _, t in out))


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizationReport:
    ok: bool
    depth: int
    message: str
    cloud_layers: list[int]
    datum_layers: list[int]

    def __str__(self):
        return self.message


def verify_realization(
    cloud: WitnessCloud, D: TreeDatum, p: int, depth_cap: int
) -> RealizationReport:
    """Check that the cloud's tree is isomorphic to the datum's expansion."""
    if p != cloud.p:
        raise DomainError("cloud and check use different primes")
    t1 = from_points(list(cloud.points), Ball((0,) * cloud.N, 0), depth_cap)
    t2 = expand(D, (), p, depth_cap)
    ok = is_isomorphic(t1, t2)
    l1, l2 = t1.layer_sizes(), t2.layer_sizes()
    if ok:
        msg = f"cloud tree matches the expansion through depth {depth_cap}"
    else:
        bad = next((d for d in range(depth_cap + 1) if l1[d] != l2[d]), None)
        if bad is None:
            msg = "equal layer sizes but non-isomorphic shapes"
        else:
            msg = (
                f"first mismatch at depth {bad}: cloud has {l1[bad]} nodes, "
                f"expansion has {l2[bad]}"
            )
    return RealizationReport(ok, depth_cap, msg, l1, l2)
