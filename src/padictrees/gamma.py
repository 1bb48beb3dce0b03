"""Linear functions and cell subsets of the value group Gamma = Z.

A GammaCell is a triangular normal form: per coordinate a lower bound that
is a linear function of the earlier coordinates, an upper bound that is a
linear function or infinity, and a congruence condition.  A GammaSet is a
finite disjoint union of cells.  cell_gf produces the exact rational
generating function of the lattice points by innermost-first telescoped
geometric sums, refining congruence classes on demand so that every bound
is constant modulo the summation period; a one-point range is substituted,
not summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct, zip_longest
from math import ceil, floor as _floor, gcd, lcm, prod

from .errors import (
    DomainError,
    NonIntegral,
    NonIntegralExponent,
    UnboundedBelow,
    _json_num,
    _objects_with,
)
from .ratfun import RationalGF, _coef, gf_sum, gf_zero

# the largest product of a cell's congruence moduli that cell_gf sums over:
# its series is divided out one exponent unit at a time, and the units
# multiply across coordinates
MODULUS_LIMIT = 10**4
# the most lattice steps _check_disjoint walks in one cell
DISJOINT_LIMIT = 10**6


class _Infinity:
    """Marker for an infinite bone length or a missing upper bound."""

    def __repr__(self):
        return "inf"

    def __deepcopy__(self, memo):
        return self


INFINITY = _Infinity()


@dataclass(frozen=True)
class LinearFn:
    """a_1 k_1 + ... + a_j k_j + b with rational coefficients.

    Each coefficient and the constant is an int where it is integral and a
    Fraction only where a non-integer enters: the constructors and
    operations below normalise every number they build with ratfun._coef.
    A form built directly from integral Fractions still equals, and hashes
    like, its int twin.  value() returns an int exactly when the value is
    integral.

    The arity j is the length of coeffs; a form is read as padded with zero
    coefficients on any longer point.  Operations and the arity of their
    results:

    - f + g, f - g: the larger arity of the two;
    - f + c, f - c, f * c for an int or Fraction c, and -f: the arity
      of f;
    - f.compose(forms): forms[i] substituted for k_i, with the largest
      arity among forms (0 when there are none);
    - f.integral(): (integer coeffs, integer const, e) with
      f = (sum a_i k_i + b) / e and e the least common denominator.
    """

    coeffs: tuple[int | Fraction, ...]
    const: int | Fraction

    def arity(self) -> int:
        return len(self.coeffs)

    def value(self, point) -> int | Fraction:
        if len(point) < len(self.coeffs):
            raise DomainError("point has too few coordinates")
        total = self.const
        for a, k in zip(self.coeffs, point):
            if a:
                total += a * k
        return _coef(total)

    def is_constant(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other) -> "LinearFn":
        """Sum; the shorter coefficient tuple is padded with zeros."""
        if not isinstance(other, LinearFn):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LinearFn((), other)
        coeffs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return LinearFn(
            tuple(_coef(x + y) for x, y in coeffs), _coef(self.const + other.const)
        )

    def __neg__(self) -> "LinearFn":
        return LinearFn(tuple(_coef(-a) for a in self.coeffs), _coef(-self.const))

    def __sub__(self, other) -> "LinearFn":
        return self + -other

    def __mul__(self, c) -> "LinearFn":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return LinearFn(tuple(_coef(a * c) for a in self.coeffs), _coef(self.const * c))

    def compose(self, forms) -> "LinearFn":
        """The form with forms[i] substituted for k_i, summed in one pass."""
        if len(forms) < len(self.coeffs):
            raise DomainError("fewer forms than coordinates")
        coeffs = [0] * max((len(g.coeffs) for g in forms), default=0)
        const = self.const
        for a, g in zip(self.coeffs, forms):
            if a:
                for t, c in enumerate(g.coeffs):
                    if c:
                        coeffs[t] += a * c
                const += a * g.const
        return LinearFn(tuple(map(_coef, coeffs)), _coef(const))

    def integral(self):
        """(integer coeffs, integer const, e): the form times its least
        common denominator e, and e."""
        e = lcm(self.const.denominator, *(a.denominator for a in self.coeffs))
        return tuple(int(a * e) for a in self.coeffs), int(self.const * e), e

    def __str__(self):
        parts = []
        for i, a in enumerate(self.coeffs):
            if a:
                parts.append(f"{a}*k{i + 1}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def linear(coeffs, const=0) -> LinearFn:
    return LinearFn(tuple(map(_coef, coeffs)), _coef(const))


def const_fn(value, arity=0) -> LinearFn:
    return LinearFn((0,) * arity, _coef(value))


def var(i: int, arity: int) -> LinearFn:
    """The coordinate form k_{i+1} of the given arity."""
    if not 0 <= i < arity:
        raise DomainError(f"no coordinate {i} in arity {arity}")
    return LinearFn(tuple(int(j == i) for j in range(arity)), 0)


def linear_json(fn):
    """JSON of a form, or "inf" for the INFINITY marker."""
    if fn is INFINITY:
        return "inf"
    return {"a": [str(a) for a in fn.coeffs], "b": str(fn.const)}


def linear_from_json(item):
    """The form (or INFINITY) of a JSON item; a malformed one is a
    DomainError."""
    if item == "inf":
        return INFINITY
    if not (isinstance(item, dict) and isinstance(item.get("a"), list) and "b" in item):
        raise DomainError(
            f"a linear form must be \"inf\" or an object with a list 'a' and 'b', "
            f"not {item!r}"
        )

    def what():
        return f"an entry of the linear form {item!r}"

    return LinearFn(
        tuple([_json_num(x, what, _coef) for x in item["a"]]),
        _json_num(item["b"], what, _coef),
    )


def eval_linear(fn, point):
    """Exact integer value of fn at point, or INFINITY for the marker."""
    if fn is INFINITY:
        return INFINITY
    v = fn.value(point)
    if v.denominator != 1:
        raise NonIntegral(f"{fn} = {v} at {tuple(point)}")
    return int(v)


@dataclass(frozen=True)
class GammaCell:
    """Triangular cell: bounds[i] = (lo, hi) over coords < i, cong[i] = (r, rho)."""

    bounds: tuple[tuple[LinearFn, object], ...]
    cong: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.cong):
            raise DomainError("bounds and congruences must have equal length")
        for i, (lo, hi) in enumerate(self.bounds):
            if lo is INFINITY or not isinstance(lo, LinearFn):
                raise UnboundedBelow(f"coordinate {i + 1} needs a linear lower bound")
            if lo.arity() > i:
                raise DomainError("lower bound uses later coordinates")
            if hi is not INFINITY:
                if not isinstance(hi, LinearFn) or hi.arity() > i:
                    raise DomainError("upper bound uses later coordinates")
        for r, rho in self.cong:
            if rho < 1:
                raise DomainError("congruence modulus must be >= 1")
            if not 0 <= r < rho:
                raise DomainError("residue must satisfy 0 <= r < rho")

    @property
    def m(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        return len(point) == self.m and self.contains_prefix(point)

    def contains_prefix(self, point) -> bool:
        """Whether the first len(point) coordinates satisfy their bounds and
        congruences at point."""
        for i, (k, (lo, hi), (r, rho)) in enumerate(
            zip(point, self.bounds, self.cong)
        ):
            if k % rho != r:
                return False
            prefix = point[:i]
            if k < lo.value(prefix):
                return False
            if hi is not INFINITY and k > hi.value(prefix):
                return False
        return True

    def to_json(self) -> dict:
        out = [{"lo": linear_json(lo), "hi": linear_json(hi)} for lo, hi in self.bounds]
        return {"bounds": out, "cong": [{"r": r, "rho": rho} for r, rho in self.cong]}

    @staticmethod
    def from_json(data: dict) -> "GammaCell":
        """The cell of a JSON object; a malformed shape is a DomainError."""
        if not (
            isinstance(data, dict)
            and _objects_with(data.get("bounds"), "lo", "hi")
            and _objects_with(data.get("cong"), "r", "rho")
        ):
            raise DomainError(
                "a cell must be an object with a list 'bounds' of {'lo', 'hi'} "
                f"and a list 'cong' of {{'r', 'rho'}}, not {data!r}"
            )
        bounds = [
            (linear_from_json(item["lo"]), linear_from_json(item["hi"]))
            for item in data["bounds"]
        ]
        cong = tuple(
            (_json_num(c["r"], "cell field 'r'"), _json_num(c["rho"], "cell field 'rho'"))
            for c in data["cong"]
        )
        return GammaCell(tuple(bounds), cong)


def cell(bounds, cong=None) -> GammaCell:
    """Convenience constructor; bounds entries are (lo, hi) with int/Fraction
    shortcuts for constant forms (stored as an int where integral), cong
    defaults to no condition (r=0 mod 1)."""
    bnds = []
    for i, (lo, hi) in enumerate(bounds):
        if not isinstance(lo, LinearFn):
            if lo is INFINITY:
                raise UnboundedBelow(f"coordinate {i + 1} needs a linear lower bound")
            lo = const_fn(lo, i)
        if hi is not INFINITY and not isinstance(hi, LinearFn):
            hi = const_fn(hi, i)
        bnds.append((lo, hi))
    if cong is None:
        cong = [(0, 1)] * len(bnds)
    return GammaCell(tuple(bnds), tuple(cong))


def interval_cell(lo, hi, r=0, rho=1) -> GammaCell:
    """One-dimensional cell {k : lo <= k <= hi, k = r mod rho}."""
    return cell([(lo, hi)], [(r, rho)])


@dataclass(frozen=True)
class GammaSet:
    """Finite union of pairwise disjoint cells over the same arity."""

    cells: tuple[GammaCell, ...]
    m: int

    def __post_init__(self):
        for c in self.cells:
            if c.m != self.m:
                raise DomainError("cells of mixed arity")
        _check_disjoint(self.cells, self.m)

    def contains(self, point) -> bool:
        return any(c.contains(point) for c in self.cells)

    def to_json(self) -> dict:
        return {"cells": [c.to_json() for c in self.cells], "m": self.m}

    @staticmethod
    def from_json(data: dict) -> "GammaSet":
        """The set of a JSON object; a malformed shape is a DomainError."""
        if not (isinstance(data, dict) and isinstance(data.get("cells"), list)):
            raise DomainError(f"a set must be an object with a list 'cells', not {data!r}")
        cells = tuple(GammaCell.from_json(c) for c in data["cells"])
        m = _json_num(data["m"], "set field 'm'") if "m" in data else (cells[0].m if cells else 0)
        return GammaSet(cells, m)


def whole_quadrant(m: int) -> GammaSet:
    """Gamma_{>=0}^m as a single cell."""
    return GammaSet((cell([(0, INFINITY)] * m),), m)


def _check_disjoint(cells, m):
    """Pairwise disjointness: exact for m <= 1, box-sampled otherwise."""
    if len(cells) < 2:
        return
    if m == 1:
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if _intersect_1d(cells[i], cells[j]):
                    raise DomainError(f"cells {i} and {j} intersect")
        return
    span = 2
    for c in cells:
        for lo, hi in c.bounds:
            span = max(span, abs(int(lo.const)) + 1)
            if hi is not INFINITY:
                span = max(span, abs(int(hi.const)) + 1)
        for _, rho in c.cong:
            span = max(span, 2 * rho)
    box = [span + 4] * m
    seen = set()
    for c in cells:
        for pt in cell_members(c, box, floor=-span - 4, limit=DISJOINT_LIMIT):
            if pt in seen:
                raise DomainError(f"cells intersect at {pt}")
            seen.add(pt)


def _intersect_1d(c1, c2) -> bool:
    (lo1, hi1), (lo2, hi2) = c1.bounds[0], c2.bounds[0]
    lo = max(ceil(lo1.const), ceil(lo2.const))
    his = [_floor(h.const) for h in (hi1, hi2) if h is not INFINITY]
    hi = min(his) if his else None
    merged = merge_cong(c1.cong[0], c2.cong[0])
    if merged is None:
        return False
    r, mod = merged
    first = lo + (r - lo) % mod
    return hi is None or first <= hi


def merge_cong(c1, c2):
    """CRT of two congruences (r, rho); the merged (r, lcm) or None if they
    are incompatible."""
    (r1, rho1), (r2, rho2) = c1, c2
    g = gcd(rho1, rho2)
    if (r1 - r2) % g != 0:
        return None
    mod = lcm(rho1, rho2)
    t = (r2 - r1) // g * pow(rho1 // g, -1, rho2 // g) % (rho2 // g) if rho2 > g else 0
    return ((r1 + rho1 * t) % mod, mod)


def cell_members(c: GammaCell, box, floor=0, limit=None):
    """Lattice points of the cell with coordinates <= box (lexicographic).

    floor guards against unbounded-below enumeration of malformed cells; a
    walk past limit coordinate values is refused before that range is walked.
    """
    if len(box) != c.m:
        raise DomainError("box arity mismatch")
    out = []
    steps = 0

    def rec(prefix):
        nonlocal steps
        i = len(prefix)
        if i == c.m:
            out.append(tuple(prefix))
            return
        lo_fn, hi_fn = c.bounds[i]
        r, rho = c.cong[i]
        lo_i = max(ceil(lo_fn.value(prefix)), floor)
        hi_i = box[i]
        if hi_fn is not INFINITY:
            hi_i = min(hi_i, _floor(hi_fn.value(prefix)))
        k = lo_i + (r - lo_i) % rho
        if limit is not None and k <= hi_i:
            steps += (hi_i - k) // rho + 1
            if steps > limit:
                raise DomainError(f"the cell has more than {limit} lattice steps in the box")
        while k <= hi_i:
            rec(prefix + [k])
            k += rho

    rec([])
    return out


def members(M, box, floor=0):
    """All points of the GammaSet (or single cell) within the box."""
    cells = M.cells if isinstance(M, GammaSet) else (M,)
    pts = []
    for c in cells:
        pts.extend(cell_members(c, box, floor))
    return sorted(pts)


def cell_nonempty(c: GammaCell) -> bool:
    """Probe-based nonemptiness (greedy box widening)."""
    span = 4
    for lo, hi in c.bounds:
        span = max(span, 2 * abs(int(lo.const)) + 2)
        if hi is not INFINITY:
            span = max(span, 2 * abs(int(hi.const)) + 2)
    for _, rho in c.cong:
        span = max(span, 2 * rho)
    for width in (span, 4 * span):
        pts = cell_members(c, [width] * c.m, floor=-width)
        if pts:
            return True
    return False


# ---------------------------------------------------------------------------
# Generating functions: innermost-first telescoped geometric sums.
#
# State during summation of coordinate k: a list of terms; each term is a
# rational coefficient, one affine exponent form per variable (affine in the
# not-yet-summed coordinates), and a multiset of accumulated denominator
# factors.  Summing coordinate k over {A <= kappa <= B, kappa = r mod rho'}
# uses (Q^first - Q^(last+rho')) / (1 - Q^rho') with Q the monomial carrying
# the kappa_k exponent coefficients.  rho' is a multiple of rho making all
# step exponents integral; outer congruence classes are refined until A and
# B are constant mod rho', which keeps first and last affine.
#
# A one-point range (B the same form as A) is not telescoped: kappa_k = A is
# substituted into the exponents, with no new factor, on each class where
# the congruence holds at A, and the class contributes nothing where it
# misses.  A cell that is one point in every coordinate is its monomial.
#
# Soundness condition (validated against brute force in tests): on each
# refined class, every finite range is nonempty or misses by at most one
# period, so the empty case telescopes to exactly zero.
# ---------------------------------------------------------------------------


def cell_gf(M) -> RationalGF:
    """Exact generating function sum over M of Y1^k1 ... Ym^km."""
    cells = M.cells if isinstance(M, GammaSet) else (M,)
    variables = tuple(f"Y{i + 1}" for i in range(M.m))
    return gf_sum(variables, [_one_cell_gf(c, variables) for c in cells])


def _one_cell_gf(c: GammaCell, variables) -> RationalGF:
    m = c.m
    if prod(rho for _, rho in c.cong) > MODULUS_LIMIT:
        raise DomainError(f"a cell's congruence moduli 'rho' multiply to more than {MODULUS_LIMIT}")
    if all(hi == lo for lo, hi in c.bounds):
        return _point_gf(c, variables)
    init = (1, tuple(var(j, m) for j in range(m)), {})
    return _region_sum(c, m - 1, tuple(c.cong), [init], variables)


def _point_gf(c: GammaCell, variables) -> RationalGF:
    """The monomial of a cell that is one point in every coordinate, or 0
    when a congruence misses the point."""
    point = []
    for (lo, _), (r, rho) in zip(c.bounds, c.cong):
        k = eval_linear(lo, point)
        if k % rho != r:
            return gf_zero(variables)
        point.append(k)
    if min(point, default=0) < 0:
        raise DomainError("negative exponent: set leaves Gamma_{>=0}")
    return RationalGF.make(variables, {tuple(point): 1}, {})


def _subst(exps, k, g):
    """The exponent forms with g, a form free of k_k, put in for k_k; each
    form that holds k_k is rebuilt in one pass."""
    out = []
    for e in exps:
        a = e.coeffs[k]
        if not a:
            out.append(e)
            continue
        coeffs = list(e.coeffs)
        coeffs[k] = 0
        for t, b in enumerate(g.coeffs):
            if b:
                coeffs[t] = _coef(coeffs[t] + a * b)
        out.append(LinearFn(tuple(coeffs), _coef(e.const + a * g.const)))
    return tuple(out)


def _region_sum(c, k, cong, terms, variables) -> RationalGF:
    """The terms summed over coordinates k, k - 1, ..., 0 of c on the
    classes cong: a ranging coordinate is telescoped, a one-point one is
    substituted."""
    m = c.m
    if k < 0:
        monos = []
        for coef, exps, den in terms:
            mono = []
            for e in exps:
                if not e.is_constant():
                    raise NonIntegralExponent("unsummed coordinate in exponent")
                if e.const.denominator != 1:
                    raise NonIntegralExponent(f"non-integer exponent {e.const}")
                if e.const < 0:
                    raise DomainError("negative exponent: set leaves Gamma_{>=0}")
                mono.append(int(e.const))
            monos.append(RationalGF.make(variables, {tuple(mono): coef}, den))
        # a lone monomial over its factors is already normal
        return gf_sum(variables, monos)

    lo_fn, hi_fn = c.bounds[k]
    point = hi_fn == lo_fn
    finite = hi_fn is not INFINITY and not point
    bound_fns = (lo_fn, hi_fn) if finite else (lo_fn,)
    const_len = finite and (hi_fn - lo_fn).is_constant()
    parts = []
    for coef, exps, den in terms:
        r_k, rho_k = cong[k]
        alpha = [e.coeffs[k] for e in exps]
        rho2 = lcm(rho_k, *(a.denominator for a in alpha)) if alpha else rho_k

        # refine outer congruence classes until bounds are constant mod rho2
        new_mod = [cong[i][1] for i in range(m)]
        for f in bound_fns:
            for i, ci in enumerate(f.coeffs):
                if ci:
                    w = rho2 * ci.denominator
                    new_mod[i] = lcm(new_mod[i], w // gcd(ci.numerator, w))
        splits = [
            [r_i + t * rho_i for t in range(new_mod[i] // rho_i)]
            for i, (r_i, rho_i) in enumerate(cong[:k])
        ]

        for choice in iproduct(*splits) if splits else [()]:
            cong2 = tuple(zip(choice, new_mod)) + cong[k:]
            rep = list(choice)
            a_val = lo_fn.value(rep)
            if a_val.denominator != 1:
                raise NonIntegral(f"lower bound {lo_fn} non-integral on class {choice}")
            delta = (r_k - int(a_val)) % rho2
            if point:
                # the class holds the point, or nothing when delta misses it
                if not delta:
                    child = (coef, _subst(exps, k, lo_fn), den)
                    parts.append(_region_sum(c, k - 1, cong2, [child], variables))
                continue
            first = lo_fn + delta
            if finite:
                b_val = hi_fn.value(rep)
                if b_val.denominator != 1:
                    raise NonIntegral(
                        f"upper bound {hi_fn} non-integral on class {choice}"
                    )
                delta2 = (int(b_val) - r_k) % rho2
                last = hi_fn - delta2
                # constant-length ranges can be empty by more than one
                # period (e.g. reversed bounds); they contribute nothing
                if const_len and int(b_val) - delta2 < int(a_val) + delta:
                    continue

            # alpha[k] = 1, as inner sums rewrite only the exponents that
            # hold inner coordinates: a negative entry means mixed signs
            if any(a < 0 for a in alpha):
                # fall back to explicit enumeration; needs a constant range
                if not const_len:
                    raise DomainError(
                        "coordinate with mixed-sign exponents needs a "
                        "constant-length finite range"
                    )
                count = (int(b_val) - delta2 - int(a_val) - delta) // rho2 + 1
                children = [
                    (coef, _subst(exps, k, first + t * rho2), den)
                    for t in range(max(count, 0))
                ]
                if children:
                    parts.append(_region_sum(c, k - 1, cong2, children, variables))
                continue

            fexp = tuple(int(a * rho2) for a in alpha)
            den2 = {**den, (1, fexp): den.get((1, fexp), 0) + 1}
            children = [(coef, _subst(exps, k, first), den2)]
            if finite:
                children.append((-coef, _subst(exps, k, last + rho2), den2))
            parts.append(_region_sum(c, k - 1, cong2, children, variables))
    return gf_sum(variables, parts)
