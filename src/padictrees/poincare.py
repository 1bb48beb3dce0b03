"""Exact Poincare series of tree data.

datum_poincare implements the recursion that proves rationality: joints
contribute through the shifted domain {(kappa, depth(v)(kappa))}, bone
pieces contribute over their cells, side branches multiply by the T(Z_p)
factor via the substitution Z -> pZ, and the base case is the lattice-cell
generating function.  All arithmetic is exact.

The recursion keeps no memo: _branch_gf groups a branch's leaves by side
datum, so a star branch (one side datum repeated p^n - 1 times) computes
its side datum once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    DomainNotNonnegative,
    InvalidDatum,
    NotNormal,
)
from .datum import TERMINAL, TreeDatum, joint_depth_fn, validate
from .gamma import (
    INFINITY,
    GammaCell,
    GammaSet,
    cell_gf,
    members,
    merge_cong,
)
from .ratfun import (
    RationalGF,
    expand_series,
    gf_mul,
    gf_sum,
    substitute,
)

if TYPE_CHECKING:
    from .trees import TruncTree

__all__ = [
    "datum_poincare",
    "compare",
    "CompareReport",
]


def _vars(m: int) -> tuple[str, ...]:
    return ("Z",) + tuple(f"Y{i + 1}" for i in range(m))


def _lift_z(f: RationalGF, variables) -> RationalGF:
    """Reinterpret a GF in Y1..Ym as one in (Z, Y1..Ym) with Z-degree 0."""
    num = {(0,) + mono: c for mono, c in f.numerator}
    den = {(c, (0,) + e): mult for (c, e), mult in f.denominator}
    return RationalGF.make(variables, num, den)


def _rename(f: RationalGF, variables) -> RationalGF:
    if len(variables) != len(f.variables):
        raise DomainError("positional rename needs equal arity")
    return RationalGF.make(variables, dict(f.numerator), dict(f.denominator))


def _merge_bound(b1, b2, what):
    """Intersect two bounds on the same coordinate (limited but loud)."""
    lo1, hi1 = b1
    lo2, hi2 = b2
    if lo1 == lo2:
        lo = lo1
    elif lo1.is_constant() and lo2.is_constant():
        lo = lo1 if lo1.const >= lo2.const else lo2
    elif lo1.is_constant() and lo1.const <= 0:
        lo = lo2
    elif lo2.is_constant() and lo2.const <= 0:
        lo = lo1
    else:
        raise DomainError(f"cannot intersect dependent lower bounds at {what}")
    if hi1 is INFINITY:
        hi = hi2
    elif hi2 is INFINITY or hi1 == hi2:
        hi = hi1
    elif hi1.is_constant() and hi2.is_constant():
        hi = hi1 if hi1.const <= hi2.const else hi2
    else:
        raise DomainError(f"cannot intersect dependent upper bounds at {what}")
    return (lo, hi)


def _restrict_piece(piece: GammaCell, c: GammaCell, m_d: int):
    """Cell over (params, lambda, spectators) combining a bone piece (over
    the datum's m_d parameters plus lambda) with a domain cell c (over the
    parameters plus spectator coordinates).  None if the congruences clash.
    """
    bounds = []
    cong = []
    for i in range(m_d):
        bounds.append(_merge_bound(piece.bounds[i], c.bounds[i], f"coord {i + 1}"))
        merged = merge_cong(piece.cong[i], c.cong[i])
        if merged is None:
            return None
        cong.append(merged)
    bounds.append(piece.bounds[m_d])
    cong.append(piece.cong[m_d])
    for i in range(m_d, c.m):
        bounds.append(c.bounds[i])
        cong.append(c.cong[i])
    return GammaCell(tuple(bounds), tuple(cong))


def datum_poincare(D: TreeDatum, p: int) -> RationalGF:
    """Exact P_T(Z, Y1..Ym) = sum over kappa, lambda of N_lambda(kappa)
    Z^lambda Y^kappa for the family of trees described by the datum."""
    issues = validate(D, require_normal=True)
    normal_issues = [msg for msg in issues if "normal:" in msg]
    if normal_issues:
        raise NotNormal("; ".join(normal_issues))
    if issues:
        raise InvalidDatum("; ".join(issues))
    if D.m:
        for pt in members(D.domain, [8] * D.m, floor=-8)[:100]:
            if any(k < 0 for k in pt):
                raise DomainNotNonnegative(f"domain contains {pt}")
    return _datum_gf(D, D.domain, p)


def _datum_gf(D: TreeDatum, dom: GammaSet, p: int) -> RationalGF:
    """P of the datum restricted to dom; dom's first D.m coordinates are the
    datum's parameters, trailing coordinates are spectators from outer
    shifts (they appear in the result as their own Y variables)."""
    m_tot = dom.m
    variables = _vars(m_tot)
    parts = []
    for j in D.skeleton.real_joints():
        d_fn = joint_depth_fn(D, j)
        shifted = GammaSet(
            tuple(
                GammaCell(c.bounds + ((d_fn, d_fn),), c.cong + ((0, 1),))
                for c in dom.cells
            ),
            m_tot + 1,
        )
        g = _branch_gf(D.joint_branch(j), shifted, p)
        parts.append(substitute(g, f"Y{m_tot + 1}", 1, {"Z": 1}))
    for j, piece, br in D.bone_branches:
        cells = []
        for c in dom.cells:
            merged = _restrict_piece(piece, c, D.m)
            if merged is not None:
                cells.append(merged)
        if not cells:
            continue
        g = _branch_gf(br, GammaSet(tuple(cells), m_tot + 1), p)
        g = substitute(g, f"Y{D.m + 1}", 1, {"Z": 1})
        parts.append(_rename(g, variables))
    return gf_sum(variables, parts)


def _branch_gf(br, dom: GammaSet, p: int) -> RationalGF:
    """GF of a side branch summed over the attachment sites in dom: fintree
    nodes weighted Z^depth, each non-terminal leaf continuing with
    T(Z_p) x side tree via the scaling substitution Z -> pZ.  Nodes that
    carry the same GF share one product with the sum of their Z^depth."""
    variables = _vars(dom.m)
    base = _lift_z(cell_gf(dom), variables)
    leaf_map = dict(zip(br.leaf_nodes, br.leaf_data))
    weights: dict = {}  # side datum (TERMINAL: the cell GF) -> sum of Z^depth
    for u in range(len(br.parents)):
        w = weights.setdefault(leaf_map.get(u, TERMINAL), {})
        z = (br.depths[u],) + (0,) * dom.m
        w[z] = w.get(z, 0) + 1
    parts = []
    for side, w in weights.items():
        # a side leaf itself is depth 0 of the attached T(Z_p) x side tree
        g = base if side is TERMINAL else substitute(
            _datum_gf(side, dom, p), "Z", p, {"Z": 1}
        )
        parts.append(gf_mul(g, RationalGF.make(variables, w, {})))
    return gf_sum(variables, parts)


@dataclass(frozen=True)
class CompareReport:
    equal: bool
    upto: int
    first_mismatch: int | None
    expected: list
    actual: list

    def __str__(self):
        if self.equal:
            return f"coefficients agree through degree {self.upto}"
        i = self.first_mismatch
        return (
            f"first mismatch at degree {i}: "
            f"series {self.expected[i]} vs tree {self.actual[i]}"
        )


def compare(f: RationalGF, t: TruncTree) -> CompareReport:
    """Coefficientwise comparison of a univariate GF against layer counts."""
    counts = t.layer_sizes()
    k = t.depth_cap
    coeffs = expand_series(f, k)
    mismatch = None
    for i in range(k + 1):
        if coeffs[i] != counts[i]:
            mismatch = i
            break
    return CompareReport(mismatch is None, k, mismatch, coeffs, list(counts))
