"""Exception types shared across the package, the prime check, and the one
JSON reader: the loader, the number reader and the shape tests that every
from_json reads its document through."""

import json


class PadicTreesError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhausted(PadicTreesError):
    """The working precision is too small to decide the question."""


class DomainError(PadicTreesError):
    """An argument is outside the domain of the operation."""


class DepthMismatch(PadicTreesError):
    """Two trees with different depth caps were combined."""


class EmptyAttach(PadicTreesError):
    """Attempt to attach an empty tree."""


class LabelMissing(PadicTreesError):
    """A tree operation needed node labels that are not present."""


class NodeBudgetExceeded(PadicTreesError):
    """An enumeration would create more nodes than the configured budget."""


class NonIntegral(PadicTreesError):
    """A linear function evaluated to a non-integer on its domain."""


class NonIntegralExponent(NonIntegral):
    """A telescoped geometric sum produced a non-integer exponent."""


class UnboundedBelow(PadicTreesError):
    """A lattice sum has no lower bound in some coordinate."""


class ParameterOutsideDomain(PadicTreesError):
    """A parameter point does not belong to the datum's domain."""


class PieceNotFound(PadicTreesError):
    """No bone piece covers a required (parameter, depth) point."""


class InvalidDatum(PadicTreesError):
    """A tree datum violates a structural constraint."""


class NotNormal(PadicTreesError):
    """The operation requires a normal (congruence-respecting) datum."""


class DomainNotNonnegative(PadicTreesError):
    """A datum domain leaves the non-negative quadrant."""


class LevelCap(PadicTreesError):
    """Datum recursion level exceeds what this implementation supports."""


class NotLeafless(PadicTreesError):
    """Realization requires a datum whose expansions have no leaves."""


class NotRealizable(PadicTreesError):
    """The datum is outside the scope the realizer supports."""


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


def load_json(path: str, from_json):
    """from_json of the document in the file at path; a file that is not
    UTF-8 JSON is a DomainError that names the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and too
        # deep a nesting is a RecursionError
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"cannot read {path} as UTF-8 JSON: {exc}") from None
    return from_json(data)


def _json_num(value, what, read=int):
    """read(value) of a JSON number or string, else a DomainError naming
    what.  read is int (a JSON integer or a decimal string), or ratfun._coef
    or Fraction (a fraction string too); true and false are not numbers.
    what is the name itself, or a function of no arguments that returns it
    and is called only to build the message."""
    # the exact JSON types are tested first, as the common case
    kind = type(value)
    if kind is int or kind is str or (isinstance(value, (int, str)) and kind is not bool):
        try:
            return read(value)
        except (ValueError, ZeroDivisionError):
            pass
    noun = "an integer" if read is int else "an integer or a fraction string"
    raise DomainError(f"{what() if callable(what) else what} must be {noun}, not {value!r}")


def _list_of(value, ok) -> bool:
    """Whether value is a JSON list whose items all pass ok."""
    if not isinstance(value, list):
        return False
    for item in value:
        if not ok(item):
            return False
    return True


def _int_list(value) -> bool:
    """Whether value is a JSON list of integers (true and false are not)."""
    if not isinstance(value, list):
        return False
    for i in value:
        if type(i) is not int:
            return False
    return True


def _objects_with(items, *fields) -> bool:
    """Whether items is a JSON list of objects that each hold the fields."""
    if not isinstance(items, list):
        return False
    for item in items:
        if not isinstance(item, dict):
            return False
        for f in fields:
            if f not in item:
                return False
    return True
