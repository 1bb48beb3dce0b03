"""Polynomial systems over Z defining subsets of Z_p^n.

A system is a finite list of multivariate integer polynomials together with
a prime p; it defines X = {x in Z_p^n : f_i(x) = 0 for all i}.  The empty
system (X = Z_p^n) must be requested explicitly via allow_empty.

Polynomials are sparse: a list of (coefficient, exponent vector) terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import DomainError

Term = tuple[int, tuple[int, ...]]
Poly = tuple[Term, ...]


# Miller-Rabin with the first twelve primes as bases decides primality for
# every n < 3.3 * 10^24 (Sorenson and Webster 2015), so for every n < 2^64.
PRIME_LIMIT = 2**64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; p >= PRIME_LIMIT is a DomainError."""
    if p >= PRIME_LIMIT:
        raise DomainError(f"p = {p} is too large: primes must be below 2^64")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PolySystem:
    p: int
    n: int
    polys: tuple[Poly, ...]
    witnesses: tuple[tuple[Fraction, ...], ...] = field(default=())
    allow_empty: bool = False

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.n < 1:
            raise DomainError("dimension must be >= 1")
        if not self.polys and not self.allow_empty:
            raise DomainError("empty system needs allow_empty=True")
        for poly in self.polys:
            for _, exps in poly:
                if len(exps) > self.n:
                    raise DomainError(f"exponent vector {exps} is longer than {self.n}")
                if any(e < 0 for e in exps):
                    raise DomainError(f"negative exponent in {exps}")
        for w in self.witnesses:
            if len(w) != self.n:
                raise DomainError("witness has wrong dimension")
            for q in w:
                if q.denominator % self.p == 0:
                    raise DomainError("witness is not p-integral")
            for i in range(len(self.polys)):
                if self.eval_poly_rat(i, w) != 0:
                    raise DomainError(f"witness {w} does not satisfy equation {i}")

    def eval_poly(self, i: int, point) -> int:
        total = 0
        for c, exps in self.polys[i]:
            t = c
            for x, e in zip(point, exps):
                if e:
                    t *= x**e
            total += t
        return total

    def eval_poly_rat(self, i: int, point) -> Fraction:
        total = Fraction(0)
        for c, exps in self.polys[i]:
            t = Fraction(c)
            for x, e in zip(point, exps):
                if e:
                    t *= Fraction(x) ** e
            total += t
        return total

    def partial(self, i: int, j: int, point) -> int:
        """d f_i / d x_j evaluated at an integer point."""
        total = 0
        for c, exps in self.polys[i]:
            e = exps[j] if j < len(exps) else 0
            if e == 0:
                continue
            t = c * e
            for k, (x, ek) in enumerate(zip(point, exps)):
                if k == j:
                    t *= x ** (ek - 1)
                elif ek:
                    t *= x**ek
            total += t
        return total

    def jacobian_minor(self, point, cols) -> int:
        """det of the k x k Jacobian submatrix on the given columns."""
        k = len(self.polys)
        mat = [[self.partial(i, j, point) for j in cols] for i in range(k)]
        return _int_det(mat)

    def translate(self, shift: tuple[int, ...]) -> "PolySystem":
        """The system g(x) = f(x + shift)."""
        polys = tuple(shift_scale(poly, shift) for poly in self.polys)
        ws = tuple(tuple(q - s for q, s in zip(w, shift)) for w in self.witnesses)
        return PolySystem(self.p, self.n, polys, ws, self.allow_empty)

    def to_json(self) -> dict:
        return {
            "format": 1,
            "p": self.p,
            "n": self.n,
            "polys": [
                [{"c": str(c), "e": list(e)} for c, e in poly] for poly in self.polys
            ],
            "witnesses": [[str(q) for q in w] for w in self.witnesses],
            "allow_empty": self.allow_empty,
        }

    @staticmethod
    def from_json(data: dict) -> "PolySystem":
        polys = tuple(
            tuple((int(t["c"]), tuple(int(x) for x in t["e"])) for t in poly)
            for poly in data["polys"]
        )
        ws = tuple(
            tuple(Fraction(s) for s in w) for w in data.get("witnesses", [])
        )
        return PolySystem(
            int(data["p"]), int(data["n"]), polys, ws, bool(data.get("allow_empty", False))
        )

    @staticmethod
    def load(path: str) -> "PolySystem":
        with open(path) as fh:
            return PolySystem.from_json(json.load(fh))


def _int_det(mat) -> int:
    """Exact determinant by fraction-free expansion (matrices are tiny)."""
    k = len(mat)
    if k == 1:
        return mat[0][0]
    if k == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j in range(k):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _int_det(minor)
    return total


def shift_scale(poly: Poly, shift, scale: int = 1, mod: int | None = None) -> Poly:
    """Terms of g(t) = f(shift + scale*t), with coefficients reduced mod
    `mod` when given, zero terms dropped and terms sorted by exponent.

    Exponent vectors shorter than len(shift) are padded with zeros.
    """
    n = len(shift)
    acc: dict[tuple[int, ...], int] = {}
    for c, exps in poly:
        if len(exps) < n:
            exps = tuple(exps) + (0,) * (n - len(exps))
        # expand prod (s_j + scale t_j)^{e_j}
        terms = [(c, ())]
        for e, s in zip(exps, shift):
            if not e:  # a factor of 1, the common case in sparse systems
                terms = [(cc, built + (0,)) for cc, built in terms]
                continue
            new = []
            for cc, built in terms:
                for k in range(e + 1):
                    new.append(
                        (cc * comb(e, k) * s ** (e - k) * scale**k, built + (k,))
                    )
            terms = new
        for cc, ee in terms:
            acc[ee] = acc.get(ee, 0) + cc
    if mod is not None:
        return tuple((cc % mod, ee) for ee, cc in sorted(acc.items()) if cc % mod)
    return tuple((cc, ee) for ee, cc in sorted(acc.items()) if cc)


def make_system(p: int, n: int, polys, witnesses=(), allow_empty=False) -> PolySystem:
    """Convenience constructor taking lists of (coef, exps) terms."""
    tpolys = tuple(tuple((int(c), tuple(e)) for c, e in poly) for poly in polys)
    ws = tuple(tuple(Fraction(q) for q in w) for w in witnesses)
    return PolySystem(p, n, tpolys, ws, allow_empty)


def cusp_system(p: int, with_witness=True) -> PolySystem:
    """x^3 - y^2 = 0 in Z_p^2, optionally with the origin as witness."""
    ws = [(0, 0)] if with_witness else []
    return make_system(p, 2, [[(1, (3, 0)), (-1, (0, 2))]], ws)
