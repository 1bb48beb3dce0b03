"""Exact rational generating functions over Q.

A RationalGF is a sparse polynomial numerator divided by a multiset of
factors (1 - c * monomial) with positive integer c and nonconstant monomial.
Denominators are never expanded; equality is decided by cross-multiplied
polynomial identity, so all arithmetic stays exact.

Every factor has constant term 1, so numerator coefficients stay ints
unless a non-integer enters (gf_const, gf_monomial, from_json or a caller's
own coefficient); that one is a Fraction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, _json_num, _list_of, _objects_with

Mono = tuple[int, ...]
Poly = dict[Mono, int | Fraction]  # exponent vector -> coefficient
Factor = tuple[int, Mono]  # (c, e) stands for 1 - c * X^e


def _poly_iadd(out: dict, terms) -> None:
    """Add the (monomial, coefficient) pairs of terms into out in place; the
    (factor, multiplicity) pairs of a denominator add the same way."""
    for m, c in terms:
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        _poly_iadd(out, (
            (tuple(x + y for x, y in zip(m1, m2)), c1 * c2) for m2, c2 in b.items()
        ))
    return out


def factor_poly(f: Factor, nvars: int) -> Poly:
    c, e = f
    zero = (0,) * nvars
    if e == zero:
        raise DomainError("constant denominator factor")
    return {zero: 1, e: -c} if c else {zero: 1}


def poly_div_exact(num: Poly, f: Factor) -> Poly | None:
    """num / (1 - c X^e) if the division is exact, else None."""
    c, e = f
    maxdeg = [max(xs) for xs in zip(*num)]
    q: Poly = {}
    r = dict(num)
    while r:
        m = min(r)  # lex-minimal term; divisor has constant term 1
        coef = r.pop(m)
        q[m] = coef  # each step's least term exceeds the last
        m2 = tuple(x + y for x, y in zip(m, e))
        if any(x > d for x, d in zip(m2, maxdeg)):
            # quotient degree bound exceeded: not divisible
            if c * coef:
                return None
        _poly_iadd(r, ((m2, c * coef),))
    return q


@dataclass(frozen=True)
class RationalGF:
    variables: tuple[str, ...]
    numerator: tuple[tuple[Mono, int | Fraction], ...]
    denominator: tuple[tuple[Factor, int], ...]  # factor -> multiplicity

    @staticmethod
    def make(variables, num: Poly, den: dict[Factor, int]) -> "RationalGF":
        # every monomial has one exponent per variable
        if variables and num and min(map(min, num)) < 0:
            mono = _mono_str(1, min(num, key=min), variables)
            raise DomainError(f"numerator term {mono} has a negative exponent")
        for (c, e), mult in den.items():
            if c < 1 or mult < 1:
                raise DomainError("denominator factor must be 1 - c*mono, c >= 1")
            if not any(e):
                raise DomainError("constant denominator factor")
            if min(e) < 0:
                mono = _mono_str(c, e, variables)
                raise DomainError(f"denominator factor (1 - {mono}) has a negative exponent")
        return RationalGF(
            tuple(variables),
            tuple(sorted([(m, c) for m, c in num.items() if c])),
            tuple(sorted(den.items())),
        )

    def num_poly(self) -> Poly:
        return {m: c for m, c in self.numerator}

    def den_counter(self) -> Counter:
        return Counter(dict(self.denominator))

    def nvars(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.numerator

    def __str__(self):
        num = _poly_str(self.num_poly(), self.variables) or "0"
        if not self.denominator:
            return num
        dens = []
        for (c, e), mult in self.denominator:
            mono = _mono_str(c, e, self.variables)
            part = f"(1 - {mono})"
            if mult > 1:
                part += f"^{mult}"
            dens.append(part)
        return f"({num}) / " + "".join(dens)

    def to_json(self) -> dict:
        return {
            "format": 1,
            "variables": list(self.variables),
            "numerator": [
                {"e": list(m), "c": str(c)} for m, c in self.numerator
            ],
            "denominator": [
                {"c": c, "e": list(e), "mult": mult}
                for (c, e), mult in self.denominator
            ],
        }

    @staticmethod
    def from_json(data) -> "RationalGF":
        """The series of a JSON document; a malformed one is a DomainError.
        So is a repeated numerator exponent or denominator factor, which the
        writer never gives: adding the two would read a file no writer made,
        and keeping one would drop the other."""
        names = data.get("variables") if isinstance(data, dict) else None
        if not _list_of(names, lambda v: isinstance(v, str)):
            raise DomainError(f"series field 'variables' must list names, not {names!r}")
        num, den = {}, {}
        for key, out in (("numerator", num), ("denominator", den)):
            ts = data.get(key)
            if not _objects_with(ts):
                raise DomainError(f"series field {key!r} must be a list of objects, not {ts!r}")
            for t in ts:
                if not (isinstance(t.get("e"), list) and len(t["e"]) == len(names)):
                    raise DomainError(f"a term's 'e' must list {len(names)} exponents: {t!r}")
                e = tuple(_json_num(x, "an exponent in 'e'") for x in t["e"])
                if key == "numerator":
                    k, v = e, _json_num(t.get("c"), "a numerator term's 'c'", _coef)
                else:
                    k = (_json_num(t.get("c"), "a denominator's 'c'"), e)
                    v = _json_num(t.get("mult"), "a denominator's 'mult'")
                if k in out:
                    raise DomainError(f"series field {key!r} repeats the term {t!r}")
                out[k] = v
        return RationalGF.make(tuple(names), num, den)


def _mono_str(c: int, e: Mono, variables) -> str:
    parts = [] if c == 1 else [str(c)]
    for v, x in zip(variables, e):
        if x == 1:
            parts.append(v)
        elif x:
            parts.append(f"{v}^{x}")
    return "*".join(parts) if parts else str(c)


def _poly_str(p: Poly, variables) -> str:
    if not p:
        return ""
    parts = []
    for m, c in sorted(p.items()):
        if all(x == 0 for x in m):
            parts.append(str(c))
            continue
        mono = _mono_str(1, m, variables)
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def _coef(value) -> int | Fraction:
    """value as an exact number: an int when it is integral, else a
    Fraction.  The one normaliser of GF coefficients here and of the
    coefficients and values of gamma's linear forms.

    An int is returned as it is and a string of ASCII digits with an
    optional sign is read by int(); anything else goes through Fraction(),
    which both of those agree with.
    """
    if type(value) is int:
        return value
    if type(value) is str:
        s = value.strip()
        digits = s[1:] if s[:1] in ("+", "-") else s
        if digits.isascii() and digits.isdigit():
            return int(s)
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def gf_zero(variables) -> RationalGF:
    return RationalGF.make(variables, {}, {})


def gf_const(variables, value) -> RationalGF:
    return gf_monomial(variables, (0,) * len(variables), value)


def gf_monomial(variables, expvec, coef=1) -> RationalGF:
    return RationalGF.make(variables, {tuple(expvec): _coef(coef)}, {})


def gf_geometric(variables, factor: Factor) -> RationalGF:
    """1 / (1 - c X^e)."""
    return RationalGF.make(variables, {(0,) * len(variables): 1}, {factor: 1})


def _times(num: Poly, factors, nvars: int) -> Poly:
    """num times each (factor, multiplicity) of factors."""
    for key, mult in factors:
        for _ in range(mult):
            num = poly_mul(num, factor_poly(key, nvars))
    return num


def _check_vars(f: RationalGF, g: RationalGF):
    if f.variables != g.variables:
        raise DomainError(f"variable mismatch: {f.variables} vs {g.variables}")


def gf_add(f: RationalGF, *more: RationalGF) -> RationalGF:
    """The sum of f and more, normalised once: the numerators over equal
    denominators are added, and each such group is multiplied up to the
    common denominator, which takes each factor at its largest multiplicity."""
    groups: dict = {}
    for g in (f, *more):
        _check_vars(f, g)
        _poly_iadd(groups.setdefault(g.denominator, {}), g.numerator)
    common: dict = {}
    for den in groups:
        for key, mult in den:
            common[key] = max(mult, common.get(key, 0))
    num: Poly = {}
    for den, part in groups.items():
        have = dict(den)
        missing = [(key, mult - have.get(key, 0)) for key, mult in common.items()]
        _poly_iadd(num, _times(part, missing, f.nvars()).items())
    return gf_normalize(RationalGF.make(f.variables, num, common))


def gf_sum(variables, parts) -> RationalGF:
    """gf_add of a list of normalised GFs in the variables, 0 when empty.  A
    lone part is its own normal form and comes back as it is."""
    if len(parts) == 1:
        return parts[0]
    return gf_add(gf_zero(variables), *parts)


def gf_neg(f: RationalGF) -> RationalGF:
    num = {m: -c for m, c in f.numerator}
    return RationalGF.make(f.variables, num, dict(f.denominator))


def gf_sub(f: RationalGF, g: RationalGF) -> RationalGF:
    return gf_add(f, gf_neg(g))


def gf_mul(f: RationalGF, g: RationalGF) -> RationalGF:
    _check_vars(f, g)
    num = poly_mul(f.num_poly(), g.num_poly())
    den = dict(f.denominator)
    _poly_iadd(den, g.denominator)
    return gf_normalize(RationalGF.make(f.variables, num, den))


def gf_equal(f: RationalGF, g: RationalGF) -> bool:
    """Exact equality via cross-multiplied polynomial identity."""
    _check_vars(f, g)
    lhs = _times(f.num_poly(), g.denominator, f.nvars())
    return lhs == _times(g.num_poly(), f.denominator, f.nvars())


def gf_normalize(f: RationalGF) -> RationalGF:
    """Cancel denominator factors that divide the numerator exactly, in
    sorted order until none divides; with none to cancel, f itself."""
    if not f.numerator:
        return gf_zero(f.variables)
    num, den = f.num_poly(), dict(f.denominator)
    cancelled, changed = False, True
    while changed:
        changed = False
        for key in list(den):
            q = poly_div_exact(num, key)
            if q is not None:
                num = q
                den[key] -= 1
                if not den[key]:
                    del den[key]
                cancelled = changed = True
    return RationalGF.make(f.variables, num, den) if cancelled else f


def substitute(f: RationalGF, var: str, coef: int, target: dict[str, int]) -> RationalGF:
    """Substitute var -> coef * prod(target vars ^ exps).

    coef must be a positive integer.  If var itself appears in target the
    variable survives (e.g. Z -> p Z); otherwise it is removed from the
    variable list (e.g. the last parameter variable identified with Z).
    """
    if var not in f.variables:
        raise DomainError(f"unknown variable {var}")
    if coef < 1:
        raise DomainError("scalar must be a positive integer")
    keep = var in target
    new_vars = f.variables if keep else tuple(v for v in f.variables if v != var)
    vidx = f.variables.index(var)
    tidx = {new_vars.index(w): x for w, x in target.items()}

    def map_mono(m: Mono) -> tuple[Mono, int]:
        t = m[vidx]
        base = [0 if i == vidx else x for i, x in enumerate(m) if keep or i != vidx]
        for i, x in tidx.items():
            base[i] += t * x
        return tuple(base), t

    num: Poly = {}
    for m, c in f.numerator:
        m2, t = map_mono(m)
        _poly_iadd(num, ((m2, c * coef**t),))
    den: dict = {}
    for (c, e), mult in f.denominator:
        e2, t = map_mono(e)
        if all(x == 0 for x in e2):
            raise DomainError("substitution makes a denominator factor constant")
        _poly_iadd(den, (((c * coef**t, e2), mult),))
    return gf_normalize(RationalGF.make(new_vars, num, den))


def expand_series(f: RationalGF, k: int) -> list[int | Fraction]:
    """Coefficients c_0..c_k of the univariate expansion, exact: ints unless
    the numerator has a non-integer coefficient."""
    if f.nvars() != 1:
        raise DomainError("expand_series needs a univariate GF")
    if k < 0:
        raise DomainError(f"series order must be >= 0, not {k}")
    coeffs = [0] * (k + 1)
    for (e,), c in f.numerator:
        if e <= k:
            coeffs[e] += c
    for (c, (a,)), mult in f.denominator:
        for _ in range(mult):
            for i in range(a, k + 1):
                coeffs[i] += c * coeffs[i - a]
    return coeffs
