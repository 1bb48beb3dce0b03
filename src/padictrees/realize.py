"""Witness clouds: finite point sets whose truncated tree matches a datum.

The synthesis mirrors the datum structure.  Skeleton joints become points
f_j = f_i + u_ell(x) * e_slot built from valuation-controlled functions
u_ell; side branches become shifted copies behind a unit digit in the first
unused coordinate, with the finite branching tree embedded into T(Z_p^(N-1))
and the subtree below each leaf synthesized recursively.  The cloud keeps
one sample point per expected tree node: every constructed value is
1-Lipschitz in the sample coordinates, so within a sample's residue class
the fiber tree does not change and a single witness spans the node.

The samples behind one side-branch leaf, z = p^ka (1 + p^dw s), all share
one valuation vector, and almost everything the synthesis decides depends on
that vector only: the skeleton terms and which of them fall below the
truncation depth, each u_ell's valuation, thin shell, root recipe and
powers of p, and which side branches attach where, with the nonzero entries
of their ball centers.  So each call of realize builds a plan once per
(datum, valuation vector, depth) and keeps the plans in a dict of its own.
The pass over the cloud then takes the samples of one leaf together: for
each it only evaluates unit parts and roots and adds residues at the entries
they change, writing every point once at its final coordinates, and it
descends once per sample and leaf into side data with side branches of
their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm
from typing import NamedTuple

from .datum import TERMINAL, TreeDatum, expand, validate
from .errors import (
    DomainError,
    InvalidDatum,
    NotLeafless,
    NotRealizable,
    PrecisionExhausted,
    _is_prime,
    _json_num,
    _list_of,
    load_json,
)
from .gamma import INFINITY, LinearFn, const_fn, eval_linear, var
from .padic import (
    PadicApprox,
    PadicVec,
    eth_root_lift,
    is_finite,
    pval,
    vec,
    vvec,
)
from .trees import Ball, from_points, is_isomorphic

__all__ = [
    "RealizationContext",
    "WitnessCloud",
    "RealizationReport",
    "u_fn",
    "realize",
    "verify_realization",
]


@dataclass(frozen=True)
class RealizationContext:
    """Prime and working precision of a synthesis.

    Unit representatives are least positive residues and e-th roots come
    from forced digit-by-digit lifting, so equal inputs give equal clouds.
    """

    p: int
    prec: int


# ---------------------------------------------------------------------------
# The functions u_ell with v(u_ell(x)) = ell(v-vector of x).
# ---------------------------------------------------------------------------


class _UPrep(NamedTuple):
    """What u_fn decides from the valuation vector alone, with every power
    of p it needs, so that an evaluation forms none.

    The value is a residue mod mod = p^prec.  On the thin shell
    0 <= lam = ell - kappa_i < v(e) of coordinate shell = i, it is
    scale x_i with scale = p^lam.  Otherwise it is scale = p^lval times
    the e-th root of the unit part prod (x_i / p^kappa_i)^a_i over the
    powers (i, a_i, p^kappa_i), divided by its unit-class representative
    mod rmod = p^(2 v(e) + 1), all known mod umod = p^uprec.
    """

    prec: int
    mod: int
    scale: int
    shell: int | None
    powers: tuple[tuple[int, int, int], ...] = ()
    e: int = 1
    ve: int = 0
    uprec: int = 0
    umod: int = 1
    rmod: int = 1


def _u_prep(ell: LinearFn, kappa, xprec: int, ctx: RealizationContext) -> _UPrep:
    """Prepare u_ell at samples of valuation vector kappa, each known to
    precision xprec; raises every error u_fn can raise."""
    p, prec = ctx.p, ctx.prec
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
        out = min(prec, xprec + lam)
        return _UPrep(out, p**out, p**lam, i)
    powers = tuple((i, a, p ** kappa[i]) for i, a in enumerate(avec) if a)
    uprec = min([prec] + [xprec - kappa[i] for i, _, _ in powers])
    if uprec <= 2 * ve + 1:
        raise PrecisionExhausted("not enough digits to fix the unit class")
    # the root loses v(e) digits
    out = min(prec, lval + uprec - ve)
    return _UPrep(out, p**out, p**lval, None, powers, e, ve, uprec, p**uprec, p ** (2 * ve + 1))


def _u_eval(u: _UPrep, xs, p: int) -> int:
    """The residue mod p^u.prec of the prepared value at the samples whose
    residues are xs."""
    if u.shell is not None:
        return u.scale * xs[u.shell] % u.mod
    mod = u.umod
    unit = 1
    for i, a, scale in u.powers:
        unit = unit * pow(xs[i] // scale, a, mod) % mod
    # the unit-class representative; pow refuses a non-unit
    w = PadicApprox(p, u.uprec, unit * pow(unit % u.rmod, -1, mod))
    z = eth_root_lift(w, u.e, u.ve + 1)
    return u.scale * z.residue % u.mod


def u_fn(ell: LinearFn, x: PadicVec | None, ctx: RealizationContext) -> PadicApprox:
    """A value u with v(u) = ell(v-vector of x) exactly.

    ell = (beta + sum a_i k_i) / e; the value is the e-th root of
    p^beta prod x_i^{a_i} divided by its unit-class representative, except
    on the thin shells 0 <= ell - v(x_i) < v(e) where the scaled coordinate
    p^{ell - v(x_i)} x_i is used instead.  Whenever ell(kappa) >= kappa_i
    holds for all i on the domain, u is 1-Lipschitz on each set of fixed
    v-vector: v(u(x) - u(x')) >= v(x - x').
    """
    xs, kappa, xprec = (), (), ctx.prec
    if x is not None:  # None for an unparametrized datum
        xs, kappa, xprec = x.residues(), vvec(x), x.prec
        if not all(map(is_finite, kappa)):
            raise PrecisionExhausted("sample coordinate vanishes at working precision")
    u = _u_prep(ell, kappa, xprec, ctx)
    return PadicApprox(ctx.p, u.prec, _u_eval(u, xs, ctx.p))


# ---------------------------------------------------------------------------
# Cloud synthesis.
# ---------------------------------------------------------------------------


# the largest prec a cloud file may give: reading a point reduces it mod
# p^prec, a number of up to 640,000 bits at this limit (realize writes
# prec = depth + 2 v_p(e) + 6)
PREC_LIMIT = 10**4


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
    def from_json(data) -> "WitnessCloud":
        """The cloud of a JSON document; a malformed one is a DomainError
        that names the field.  prec must lie in [0, PREC_LIMIT], and is
        checked before any power of p is formed."""
        if not isinstance(data, dict) or data.get("format") != 1:
            raise DomainError("a witness cloud must be a JSON object with 'format' 1")
        p, prec, m, N = (
            _json_num(data.get(k), f"cloud field {k!r}") for k in ("p", "prec", "m", "N")
        )
        if not _is_prime(p):
            raise DomainError(f"cloud field 'p' must be prime, not {p}")
        if prec > PREC_LIMIT:
            raise DomainError(f"cloud field 'prec' must be at most {PREC_LIMIT}, not {prec}")
        for k, v, low in (("prec", prec, 0), ("m", m, 0), ("N", N, 1)):
            if v < low:
                raise DomainError(f"cloud field {k!r} must be >= {low}, not {v}")
        rows, tags = data.get("points"), data.get("provenance")
        if not _list_of(rows, lambda row: isinstance(row, list) and len(row) == m + N):
            raise DomainError(f"cloud field 'points' must list rows of {m + N} coordinates")
        if not (_list_of(tags, lambda tag: isinstance(tag, str)) and len(tags) == len(rows)):
            raise DomainError("cloud field 'provenance' must list one string per point")
        pts = tuple(
            vec(p, prec, [_json_num(a, "a coordinate in cloud field 'points'") for a in row])
            for row in rows
        )
        return WitnessCloud(p, prec, m, N, pts, tuple(tags))

    @staticmethod
    def load(path: str) -> "WitnessCloud":
        return load_json(path, WitnessCloud.from_json)


def _check_and_size(D: TreeDatum, p: int, _memo=None):
    """Refuse data whose expansions stop: a side branch ending above its
    attachment point or a dead-end real joint produce tree leaves.  Else
    return the coordinates needed behind the reserved one (skeleton slots,
    branch embedding widths, and one extra per recursion level) and the lcm
    of all bone-length denominators, side data included.  Each distinct
    side datum is checked once per call."""
    _memo = {} if _memo is None else _memo
    kids = D.skeleton.kids
    for j in D.skeleton.real_joints():
        if not kids[j] and all(s is TERMINAL for s in D.joint_branch(j).leaf_data):
            raise NotLeafless(f"joint {j} is a dead end")
    need = max((i + 1 for i in D.skeleton_table.i_star[1:]), default=1)
    e = lcm(*(ln.integral()[2] for ln in D.skeleton.lengths if ln is not INFINITY))
    for br, _ in D.side_data():
        w, wide = 1, max(map(len, br.kids))
        while p**w < wide:
            w += 1
        need = max(need, w)
        for leaf, side in zip(br.leaf_nodes, br.leaf_data):
            dw = br.depths[leaf]
            if side is TERMINAL:
                if dw > 0:
                    raise NotLeafless(f"a side branch ends at depth {dw}")
            elif dw == 0:
                raise NotRealizable("a side tree is attached at depth 0")
            else:
                side_need, side_e = _memo.get(side) or _check_and_size(side, p, _memo)
                need, e = max(need, 1 + side_need), lcm(e, side_e)
    _memo[D] = need, e
    return need, e


def _embed_centers(br, p: int, width: int):
    """Ball centers of an embedding of the branch fintree into the tree of
    Z_p^width: children get the lexicographically least distinct digits."""
    centers = [(0,) * width] + [None] * (len(br.parents) - 1)
    for q, kids in enumerate(br.kids):
        if len(kids) > p**width:
            raise DomainError("fintree branching exceeds the embedding width")
        d = br.depths[q]
        for i, dig in zip(kids, iproduct(*[range(p)] * width)):
            centers[i] = tuple(c + t * p**d for c, t in zip(centers[q], dig))
    return centers


class _Plan(NamedTuple):
    """What the cloud of a datum decides from the valuation vector of its
    samples alone, so samples sharing that vector share the work.

    us holds the prepared u-values, one per distinct depth form whose term
    is visible above the truncation depth.  rows[j - 1] = (i, k) builds
    f_j from f_i by adding the k-th u-value at slot i + 1 (k is None for a
    term truncated to zero).  virtual lists the virtual joints.  targets
    holds the attached side branches as (anchor joint, p^ka, leaves), one
    leaf as (tag, p^(ka + dw), axis, sample count, plan of its side datum,
    None below the truncation depth); axis holds the nonzero entries
    (offset, c) of (1, ball center), where sample z moves the anchor.
    """

    us: tuple[_UPrep, ...]
    rows: tuple[tuple[int, int | None], ...]
    virtual: tuple[int, ...]
    targets: tuple


def _plan(memo, D, forms, lam_form, kappa, lam, rem, dim, ctx):
    """The plan of D at samples of valuation vector kappa, from memo or
    built into it; None when rem <= 0.

    forms express the datum parameters as linear functions of the ambient
    valuation vector, lam_form the base depth; lam is its concrete value.
    Points are wanted to relative depth rem.  Side plans are built depth
    first, in the order the samples first reach them, so the first error
    raised is the one a sample-by-sample synthesis would meet first.

    Joint j extends f_i, i = i_star[j], by a term at slot i + 1 whose
    valuation is the depth of j's parent joint plus the base depth: i is
    the latest earlier joint whose separation from j is maximal (the
    parent joint's depth).  Taking the latest such i ensures that two terms
    sharing a slot always have distinct valuations, so v(f_i - f_j) =
    separation + lambda holds with no cancellation.
    """
    if rem <= 0:
        return None
    key = (D, forms, lam_form, kappa, lam, rem, dim)
    plan = memo.get(key)
    if plan is not None:
        return plan
    p, prec = ctx.p, ctx.prec
    kappa_d = tuple(eval_linear(f, kappa) for f in forms)
    table = D.skeleton_table
    us, index, rows = [], {}, []
    for j in range(1, D.skeleton.num_joints):
        d_fn = table.depth_fns[D.skeleton.parents[j]]
        if d_fn not in index:
            # d_fn over the ambient valuations, shifted by the base depth
            ell = d_fn.compose(forms) + lam_form
            if ell.value(kappa) >= lam + rem:
                # the term only touches digits below the truncation depth
                index[d_fn] = None
            else:
                index[d_fn] = len(us)
                us.append(_u_prep(ell, kappa, prec, ctx))
        rows.append((table.i_star[j], index[d_fn]))

    e_new = var(len(kappa), len(kappa) + 1)
    targets = []

    def attach(anchor, lam_rel, br, coord_tag):
        # _check_and_size leaves a terminal leaf only on a bare root, which
        # adds no point below its anchor
        if br.is_trivial():
            return
        ka = lam + lam_rel
        centers = _embed_centers(br, p, dim - 1)
        leaves = []
        for leaf, side in zip(br.leaf_nodes, br.leaf_data):
            dw = br.depths[leaf]
            rem2 = rem - lam_rel - dw
            # the samples z = p^ka (1 + p^dw s) have valuation ka
            if rem2 > 0 and ka >= prec:
                raise PrecisionExhausted("sample vanishes at working precision")
            sub = _plan(
                memo, side, (forms + (e_new - lam_form,))[: side.m],
                e_new + dw, kappa + (ka,), ka + dw, rem2, dim - 1, ctx,
            )
            axis = tuple((k, c) for k, c in enumerate((1,) + centers[leaf]) if c)
            leaves.append((f"{coord_tag}w{leaf}z", p ** (ka + dw), axis, p ** max(rem2, 0), sub))
        targets.append((anchor, p**ka, tuple(leaves)))

    for j, br in D.joint_branches:
        dj = eval_linear(table.depth_fns[j], kappa_d)
        attach(j, dj, br, f"j{j}l{dj}")
    for j, piece, br in D.bone_branches:
        for lam_rel in range(1, rem + 1):
            if piece.contains(kappa_d + (lam_rel,)):
                attach(j, lam_rel, br, f"b{j}l{lam_rel}")
    virtual = tuple(
        j for j in range(D.skeleton.num_joints) if D.skeleton.is_virtual(j)
    )
    plan = memo[key] = _Plan(tuple(us), tuple(rows), virtual, tuple(targets))
    return plan


def _cloud(plan, samples, shift, ctx, out):
    """Points realizing the fiber tree of a plan's datum at each of the
    samples behind one side-branch leaf (or at the one origin of the whole
    datum), one per expected tree node, appended to out with their tags.

    A sample is (xs, base, tag): its residues, the point that places the
    datum's origin in the coordinates from index shift on (the leaf's anchor
    and ball center moved by the sample, in one offset), and the provenance
    prefix.  Each point is written once, at its final coordinates; only the
    u-values and residue sums depend on the samples themselves.
    """
    if plan is None:
        # nothing below the truncation depth is visible; a single point
        # anywhere in the fiber marks the node's presence
        out.extend((base, tag + "pad") for _, base, tag in samples)
        return
    p, pmod = ctx.p, ctx.p**ctx.prec
    for xs, base, tag in samples:
        uvals = [_u_eval(u, xs, p) for u in plan.us]
        fres = [base]
        for i, k in plan.rows:
            row = fres[i]
            if k is not None:
                row = row.copy()
                row[shift + i + 1] += uvals[k]
            fres.append(row)
        for j in plan.virtual:
            out.append((fres[j], f"{tag}f{j}"))

        for anchor, z0, leaves in plan.targets:
            at = fres[anchor]
            for leaf_tag, dz, axis, count, sub_plan in leaves:
                # samples z = p^ka (1 + p^dw s) give the full unit digit tree
                # below the leaf ball; one s per node suffices since the side
                # fiber varies 1-Lipschitz with z.  Sample z moves the anchor
                # by z (1, ball center) in the coordinates from shift on.
                cols = [(shift + k, c) for k, c in axis]
                prefix = tag + leaf_tag
                subs = []
                for s in range(count):
                    z = z0 + dz * s
                    row = at.copy()
                    for k, c in cols:
                        row[k] += z * c
                    subs.append((xs + (z % pmod,), row, f"{prefix}{s}/"))
                _cloud(sub_plan, subs, shift + 1, ctx, out)


def realize(D: TreeDatum, depth_cap: int, p: int) -> WitnessCloud:
    """A witness cloud whose tree matches expand(D, (), p, depth_cap).

    The depth must be >= 0, the datum unparametrized, p prime, and the
    datum leafless; these refusals come in this order, before validate's
    checks.  Every level the datum language admits is realized: each
    recursion level into a side datum reserves one coordinate of its own in
    _check_and_size, so the side fibers of different levels never share a
    coordinate.
    """
    if depth_cap < 0:
        raise DomainError(f"realize needs a depth >= 0, not {depth_cap}")
    if D.m != 0:
        raise NotRealizable("only unparametrized data are realized")
    # the width loop of _check_and_size ends only for p >= 2
    if not _is_prime(p):
        raise DomainError(f"realize needs a prime, not p = {p}")
    need, e = _check_and_size(D, p)
    ctx = RealizationContext(p, depth_cap + 2 * pval(p, e) + 6)
    issues = validate(D)
    if issues:
        raise InvalidDatum("; ".join(issues))
    N = 1 + need
    out = []
    if D.skeleton.num_joints:
        # the plan memo lives for this call only
        plan = _plan({}, D, (), const_fn(0, 0), (), 0, depth_cap, N, ctx)
        _cloud(plan, [((), [0] * N, "")], 0, ctx, out)
    pts = tuple(PadicVec(ctx.p, ctx.prec, row) for row, _ in out)
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
