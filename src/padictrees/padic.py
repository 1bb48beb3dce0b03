"""Exact arithmetic in Z/p^prec Z with valuation semantics.

Values represent elements of Z_p known modulo p^prec.  All operations are
pure; precision loss (e-th root extraction loses v(e) digits) is tracked
explicitly in the returned value, never silently.

The value types PadicApprox and PadicVec are slotted frozen dataclasses with
a hand-written __init__ that checks, reduces and sets each field once: the
witness-cloud synthesis builds one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, PrecisionExhausted


def pval(p: int, a: int) -> int | None:
    """p-adic valuation of a nonzero integer; None for a == 0 (infinity)."""
    if p < 2:
        raise DomainError(f"valuation needs a prime, not p = {p}")
    if a == 0:
        return None
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@dataclass(frozen=True)
class AtLeastPrec:
    """Marker: valuation indistinguishable from infinity at this precision."""

    prec: int

    def __repr__(self):
        return f">= {self.prec}"


Valuation = int | AtLeastPrec


def is_finite(v: Valuation) -> bool:
    return isinstance(v, int)


_set = object.__setattr__  # how a frozen dataclass's __init__ sets a field


@dataclass(frozen=True, slots=True, init=False)
class PadicApprox:
    """An element of Z_p known modulo p^prec, its residue reduced."""

    p: int
    prec: int
    residue: int

    def __init__(self, p: int, prec: int, residue: int):
        if prec < 0:
            raise DomainError("precision must be non-negative")
        _set(self, "p", p)
        _set(self, "prec", prec)
        _set(self, "residue", residue % p**prec)

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def _joint_prec(self, other: "PadicApprox") -> int:
        if self.p != other.p:
            raise DomainError("mixed primes")
        return min(self.prec, other.prec)

    def __add__(self, other):
        k = self._joint_prec(other)
        return PadicApprox(self.p, k, self.residue + other.residue)

    def __sub__(self, other):
        k = self._joint_prec(other)
        return PadicApprox(self.p, k, self.residue - other.residue)

    def __mul__(self, other):
        k = self._joint_prec(other)
        return PadicApprox(self.p, k, self.residue * other.residue)

    def __neg__(self):
        return PadicApprox(self.p, self.prec, -self.residue)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def inverse(self) -> "PadicApprox":
        if not self.is_unit():
            raise DomainError("only units are invertible in Z_p")
        return PadicApprox(self.p, self.prec, pow(self.residue, -1, self.modulus))

    def pow(self, k: int) -> "PadicApprox":
        """x^k for integer k; negative k requires a unit."""
        if k < 0:
            return self.inverse().pow(-k)
        return PadicApprox(self.p, self.prec, pow(self.residue, k, self.modulus))


def from_int(p: int, prec: int, a: int) -> PadicApprox:
    return PadicApprox(p, prec, a)


@dataclass(frozen=True, slots=True, init=False)
class PadicVec:
    """A vector over Z_p known modulo p^prec: one reduced residue per
    coordinate, so every coordinate shares p and prec by construction."""

    p: int
    prec: int
    res: tuple[int, ...]

    def __init__(self, p: int, prec: int, res):
        # the residues are read first, so an empty iterator is refused too
        m = p**prec if prec > 0 else 1
        res = tuple([r % m for r in res])
        if not res:
            raise DomainError("empty vector")
        if prec < 0:
            raise DomainError("precision must be non-negative")
        _set(self, "p", p)
        _set(self, "prec", prec)
        _set(self, "res", res)

    @property
    def coords(self) -> tuple[PadicApprox, ...]:
        return tuple(PadicApprox(self.p, self.prec, r) for r in self.res)

    def __len__(self):
        return len(self.res)

    def residues(self) -> tuple[int, ...]:
        return self.res

    def __sub__(self, other: "PadicVec") -> "PadicVec":
        if self.p != other.p:
            raise DomainError("mixed primes")
        return PadicVec(
            self.p, min(self.prec, other.prec),
            tuple(a - b for a, b in zip(self.res, other.res)),
        )


def vec(p: int, prec: int, values) -> PadicVec:
    return PadicVec(p, prec, tuple(int(a) for a in values))


def val(x: PadicApprox) -> Valuation:
    """Exact valuation of x, or AtLeastPrec if x == 0 mod p^prec."""
    v = pval(x.p, x.residue)
    if v is None or v >= x.prec:
        return AtLeastPrec(x.prec)
    return v


def vvec(x: PadicVec) -> tuple[Valuation, ...]:
    """Coordinate-wise valuation vector."""
    return tuple(val(c) for c in x.coords)


def eth_root_lift(y: PadicApprox, e: int, delta: int) -> PadicApprox:
    """The unique z = 1 mod p^delta with z^e = y, for y = 1 mod p^{delta+v(e)}.

    Output precision is the input precision minus v(e).  The root is found
    by digit-by-digit Hensel lifting; each step is forced, so the result is
    deterministic and unique.
    """
    p = y.p
    if e < 1:
        raise DomainError("e must be positive")
    ve = pval(p, e)
    if delta < ve + 1:
        raise DomainError(f"need delta >= v(e)+1 = {ve + 1}")
    check = p ** min(delta + ve, y.prec)
    if y.residue % check != 1 % check:
        raise DomainError("y must be = 1 mod p^(delta+v(e))")
    out_prec = y.prec - ve
    if out_prec <= 0:
        raise PrecisionExhausted("no digits left after root extraction")
    if e == 1:
        return y
    # lift z from precision delta upward; z = 1 mod p^delta is forced
    z = 1
    e_unit = e // p**ve
    for k in range(delta, out_prec):
        # choose digit c with (z + c p^k)^e = y mod p^{k+v(e)+1}
        mod = p ** min(k + ve + 1, y.prec)
        r = (y.residue - pow(z, e, mod)) % mod
        if r % p ** (k + ve) != 0:
            raise DomainError("y is not an e-th power at this precision")
        rhs = r // p ** (k + ve)
        c = rhs * pow(e_unit * pow(z, e - 1, p), -1, p) % p
        z += c * p**k
    z %= p**out_prec
    return PadicApprox(p, out_prec, z)


def power_residue_index(x: PadicApprox, e: int):
    """Canonical index of the class of x in Q_p^x / (Q_p^x)^e.

    Two inputs have equal indices iff they have the same e-th power residue.
    The index is (v(x) mod e, canonical unit representative mod p^{2v(e)+1}).
    """
    p = x.p
    if e < 1:
        raise DomainError("e must be positive")
    ve = pval(p, e)
    vx = val(x)
    if not is_finite(vx):
        raise PrecisionExhausted("zero at working precision")
    mu = 2 * ve + 1
    if x.prec <= vx + 2 * ve + 1:
        raise PrecisionExhausted(f"need precision > v(x) + 2v(e) + 1 = {vx + mu}")
    if e == 1:
        return (0, 1)
    pm = p**mu
    u = (x.residue // p**vx) % pm
    # units of Z/p^mu that are e-th powers of units
    powers = {pow(t, e, pm) for t in range(1, pm) if t % p != 0}
    rep = min(u * s % pm for s in powers)
    return (vx % e, rep)


def newton_certify(sys, a: PadicVec):
    """Multivariate Hensel certificate for lifting the residue class of a.

    Returns Certified(e, depth, cols) if the k x k Jacobian minor J on the
    columns cols at the integer representative of a satisfies
    2 v(det J) < min_i v(f_i(a)); then a genuine Z_p-solution exists
    congruent to a mod p^depth with depth = v(f(a)) - e.  When the
    representative solves the system exactly no minor is needed, and the
    result is Certified(0, prec) with cols None (`exact`): margin 0 then
    says nothing about smoothness.

    Soundness: freeze the n-k coordinates outside the chosen columns at their
    representative values and run Newton on the square system g(t) = f(a+Et).
    With e = v(det J) and s = min_i v(g_i(0)) > 2e, the update t -> t -
    J^{-1} g(t) maps p^{s-e} Z_p^k to itself and at least doubles s - 2e >= 1,
    so it converges to a root t* with v(t*) >= s - e.  Returns Inconclusive
    otherwise, and always for an inexact representative of a system with
    more equations than variables (k > n), which has no k x k minor;
    Inconclusive is not a disproof.
    """
    from itertools import combinations

    k = len(sys.polys)
    n = sys.n
    if k == 0:
        return Certified(0, a.prec, ())  # empty system: everything lifts
    p, m = a.p, a.prec
    rep = a.residues()
    fa = [sys.eval_poly(i, rep) for i in range(k)]
    if all(f == 0 for f in fa):
        return Certified(0, m)  # the representative is an exact solution
    vals = [pval(p, f) for f in fa]
    if any(v is not None and v < m for v in vals):
        raise DomainError("a is not a solution at its own precision")
    vmin = min((v for v in vals if v is not None), default=None)
    best = None
    for cols in combinations(range(n), k):
        det = sys.jacobian_minor(rep, cols)
        if det == 0:
            continue
        e = pval(p, det)
        if vmin is None or vmin > 2 * e:
            depth = m if vmin is None else vmin - e
            if best is None or depth > best.depth or (depth == best.depth and e < best.margin):
                best = Certified(e, depth, cols)
    return best if best is not None else INCONCLUSIVE


@dataclass(frozen=True)
class Certified:
    """A sound lift certificate: a Z_p-solution exists within p^depth of a."""

    margin: int  # valuation of the certifying Jacobian minor
    depth: int  # solution agrees with the tested point mod p^depth
    cols: tuple[int, ...] | None = None  # the minor's columns; None: exact

    @property
    def exact(self) -> bool:
        """The tested representative itself solves the system."""
        return self.cols is None


class _Inconclusive:
    def __repr__(self):
        return "Inconclusive"

    def __bool__(self):
        return False


INCONCLUSIVE = _Inconclusive()
