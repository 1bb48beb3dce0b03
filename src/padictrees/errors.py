"""Exception types shared across the package, and the prime and
JSON-integer checks that the commands make on their input."""


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


def _json_int(value, what: str) -> int:
    """An integer given as a JSON number or a decimal string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"{what} must be an integer, not {value!r}")
