"""Tests for lattice cells and their exact generating functions."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from padictrees.errors import DomainError, NonIntegral, UnboundedBelow
from padictrees.gamma import (
    GammaCell,
    GammaSet,
    INFINITY,
    LinearFn,
    cell,
    cell_gf,
    cell_members,
    cell_nonempty,
    const_fn,
    eval_linear,
    gamma_set,
    interval_cell,
    linear,
    members,
    point_set,
    whole_quadrant,
)
from padictrees.ratfun import RationalGF, gf_equal, gf_geometric, gf_monomial


def expand_box(f: RationalGF, box):
    """Exact coefficients of f on the finite exponent box (dict mono -> c)."""
    def clip(poly):
        return {
            m: c for m, c in poly.items() if all(x <= b for x, b in zip(m, box))
        }

    out = clip({m: c for m, c in f.numerator})
    for (c, e), mult in f.denominator:
        for _ in range(mult):
            acc = dict(out)
            cur = dict(out)
            while True:
                nxt = {}
                for m, co in cur.items():
                    m2 = tuple(x + y for x, y in zip(m, e))
                    if all(x <= b for x, b in zip(m2, box)):
                        nxt[m2] = nxt.get(m2, Fraction(0)) + co * c
                if not nxt:
                    break
                for m, co in nxt.items():
                    acc[m] = acc.get(m, Fraction(0)) + co
                cur = nxt
            out = acc
    return {m: c for m, c in out.items() if c}


def gf_matches_membership(c: GammaCell, box_side=12):
    box = [box_side] * c.m
    got = expand_box(cell_gf(c), tuple(box))
    want = {pt: Fraction(1) for pt in cell_members(c, box)}
    return got == want


def test_linear_fn_basics():
    fn = linear([1, "1/2"], 3)
    assert fn.value((2, 4)) == Fraction(7)
    assert eval_linear(fn, (2, 4)) == 7
    with pytest.raises(NonIntegral):
        eval_linear(fn, (0, 1))
    assert eval_linear(INFINITY, (1,)) is INFINITY
    assert const_fn(5, 2).is_constant()
    assert not fn.is_constant()
    with pytest.raises(DomainError):
        fn.value((1,))
    # longer points are allowed: extra coordinates are ignored
    assert fn.value((2, 4, 99)) == 7


def test_cell_contains():
    c = cell([(2, INFINITY)], [(0, 2)])
    assert c.contains((4,))
    assert not c.contains((3,))  # parity
    assert not c.contains((0,))  # bound
    tri = cell([(0, INFINITY), (linear([1]), INFINITY)])
    assert tri.contains((2, 5))
    assert not tri.contains((5, 2))
    assert not tri.contains((2,))


def test_cell_validation():
    with pytest.raises(UnboundedBelow):
        cell([(INFINITY, INFINITY)])
    with pytest.raises(DomainError):
        GammaCell(((linear([1]), INFINITY),), ((0, 1),))  # lower bound uses itself
    with pytest.raises(DomainError):
        interval_cell(0, 5, r=3, rho=2)


def test_members_and_disjointness():
    c1 = interval_cell(0, INFINITY, 0, 2)
    c2 = interval_cell(1, INFINITY, 1, 2)
    s = gamma_set([c1, c2])
    assert members(s, [6]) == [(k,) for k in range(7)]
    with pytest.raises(DomainError):
        gamma_set([c1, interval_cell(0, 4)])
    assert point_set((2, 3)).contains((2, 3))
    assert not point_set((2, 3)).contains((2, 4))
    assert whole_quadrant(2).contains((0, 7))


def test_cell_nonempty():
    assert cell_nonempty(interval_cell(0, INFINITY))
    assert not cell_nonempty(interval_cell(5, 4))
    assert not cell_nonempty(interval_cell(3, 3, 0, 2))
    assert cell_nonempty(interval_cell(3, 3, 1, 2))


def test_gf_half_line():
    # sum over k >= 0 of Y^k = 1/(1-Y)
    f = cell_gf(interval_cell(0, INFINITY))
    assert gf_equal(f, gf_geometric(("Y1",), (1, (1,))))


def test_gf_even_from_two():
    # sum over k >= 2 even of Y^k = Y^2/(1-Y^2)
    f = cell_gf(interval_cell(2, INFINITY, 0, 2))
    want = RationalGF.make(
        ("Y1",), {(2,): Fraction(1)}, Counter({(1, (2,)): 1})
    )
    assert gf_equal(f, want)


def test_gf_triangle():
    # sum over 0 <= k1 <= k2 of Y1^k1 Y2^k2 = 1/((1-Y1Y2)(1-Y2))
    tri = cell([(0, INFINITY), (linear([1]), INFINITY)])
    f = cell_gf(tri)
    want = RationalGF.make(
        ("Y1", "Y2"),
        {(0, 0): Fraction(1)},
        Counter({(1, (1, 1)): 1, (1, (0, 1)): 1}),
    )
    assert gf_equal(f, want)


def test_gf_finite_interval():
    f = cell_gf(interval_cell(1, 4))
    got = expand_box(f, (8,))
    assert got == {(k,): Fraction(1) for k in range(1, 5)}


def test_gf_empty_cell_is_zero():
    f = cell_gf(interval_cell(5, 2))
    assert expand_box(f, (10,)) == {}


def test_gf_matches_membership_handpicked():
    cases = [
        interval_cell(0, INFINITY),
        interval_cell(3, 9, 1, 3),
        cell([(0, INFINITY), (linear([2], 1), INFINITY)], [(0, 1), (1, 2)]),
        cell([(1, 7), (linear([1]), linear([1], 4))], [(1, 2), (0, 3)]),
        cell([(0, INFINITY), (linear(["1/2"]), INFINITY)], [(0, 2), (0, 1)]),
    ]
    for c in cases:
        assert gf_matches_membership(c), c


def random_cell(rng, m):
    """Random triangular cell within the non-negative quadrant."""
    bounds = []
    cong = []
    for i in range(m):
        coeffs = [Fraction(rng.randint(0, 3)) for _ in range(i)]
        lo = LinearFn(tuple(coeffs), Fraction(rng.randint(0, 3)))
        if rng.random() < 0.5:
            hi = INFINITY
        else:
            hi = LinearFn(tuple(coeffs), lo.const + rng.randint(0, 6))
        bounds.append((lo, hi))
        rho = rng.randint(1, 4)
        cong.append((rng.randrange(rho), rho))
    return GammaCell(tuple(bounds), tuple(cong))


def test_gf_matches_membership_random():
    rng = random.Random(2024)
    for _ in range(50):
        c = random_cell(rng, rng.randint(1, 2))
        assert gf_matches_membership(c), c


def random_descending_cell(rng):
    """Random 2-D cell whose inner bounds have a negative coefficient, with
    a finite outer range on which every inner range is nonempty and >= 0;
    the inner sum then leaves exponents of mixed sign in the outer one."""
    while True:
        a = rng.randint(0, 4)
        b = a + rng.randint(0, 5)
        rho0, rho1 = rng.randint(1, 3), rng.randint(1, 3)
        r0, r1 = rng.randrange(rho0), rng.randrange(rho1)
        c1, c2 = rng.randint(-3, 2), rng.randint(-3, 2)
        if min(c1, c2) >= 0:
            continue
        lo = linear([c1], rng.randint(0, 12))
        hi = linear([c2], rng.randint(0, 12)) if rng.random() < 0.8 else INFINITY
        outer = [k for k in range(a, b + 1) if k % rho0 == r0]
        if outer and all(
            lo.value((k,)) >= 0
            and (hi is INFINITY or lo.value((k,)) + (r1 - lo.value((k,))) % rho1 <= hi.value((k,)))
            for k in outer
        ):
            return cell([(a, b), (lo, hi)], [(r0, rho0), (r1, rho1)])


def test_gf_matches_membership_with_descending_inner_bounds():
    rng = random.Random(7)
    for _ in range(300):
        c = random_descending_cell(rng)
        assert gf_matches_membership(c, box_side=30), c


def test_gammaset_gf_adds_cells():
    s = gamma_set([interval_cell(0, INFINITY, 0, 2), interval_cell(1, INFINITY, 1, 2)])
    f = cell_gf(s)
    assert gf_equal(f, gf_geometric(("Y1",), (1, (1,))))


def test_cell_json_round_trip():
    c = cell([(1, 7), (linear(["1/2"], 1), INFINITY)], [(1, 2), (0, 3)])
    c2 = GammaCell.from_json(c.to_json())
    assert c2 == c
    s = gamma_set([c])
    assert GammaSet.from_json(s.to_json()) == s


def _point_bound(rng, i, cong):
    """A form over coordinates < i with nonnegative rational coefficients,
    each denominator dividing its coordinate's modulus and residue, so the
    form is integral on every point of the congruences."""
    coeffs = []
    for r, rho in cong[:i]:
        d = rng.choice([d for d in range(1, rho + 1) if rho % d == 0 and r % d == 0])
        coeffs.append(Fraction(rng.randint(0, 3), d))
    return LinearFn(tuple(coeffs), Fraction(rng.randint(0, 4)))


def random_mixed_cell(rng, m, point_share):
    """Random quadrant cell whose coordinates are one point with the given
    chance, and otherwise a constant-length or half-infinite range; half
    the residues are 0, which lets later bounds divide by the modulus."""
    cong = []
    for _ in range(m):
        rho = rng.randint(1, 4)
        cong.append((rng.randrange(rho) if rng.random() < 0.5 else 0, rho))
    bounds = []
    for i in range(m):
        lo = _point_bound(rng, i, cong)
        if rng.random() < point_share:
            hi = lo
        elif rng.random() < 0.5:
            hi = INFINITY
        else:
            hi = lo + rng.randint(0, 6)
        bounds.append((lo, hi))
    return GammaCell(tuple(bounds), tuple(cong))


def test_point_cells_are_their_monomials():
    rng = random.Random(18)
    seen = Counter()
    for _ in range(200):
        c = random_mixed_cell(rng, rng.randint(1, 3), 1)
        pts = cell_members(c, [200] * c.m)
        f = cell_gf(c)
        assert not f.denominator, c
        assert f.numerator == tuple((pt, 1) for pt in pts), c
        seen[len(pts)] += 1
    assert seen[0] and seen[1]


def test_point_cell_refusals():
    assert cell_gf(interval_cell(3, 3, 0, 2)).is_zero()
    assert cell_gf(cell([(3, 3), (linear([1]), linear([1]))], [(1, 2), (0, 2)])).is_zero()
    with pytest.raises(DomainError, match="negative exponent"):
        cell_gf(interval_cell(-1, -1))
    with pytest.raises(DomainError, match="negative exponent"):
        cell_gf(cell([(0, 3), (linear([1], -2), linear([1], -2))]))
    half = linear(["1/2"])
    with pytest.raises(NonIntegral):
        cell_gf(cell([(1, 1), (half, half)]))
    with pytest.raises(NonIntegral):
        cell_gf(cell([(0, 4), (half, half)]))


def test_point_under_its_half_is_a_monomial():
    # the class k1 = 1 (mod 2) holds no point of this cell
    half = linear(["1/2"])
    assert str(cell_gf(cell([(2, 2), (half, half)]))) == "Y1^2*Y2"


def test_gf_matches_membership_with_point_coordinates():
    rng = random.Random(1803)
    for _ in range(300):
        c = random_mixed_cell(rng, rng.randint(2, 3), 0.5)
        assert gf_matches_membership(c, box_side=10), c


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a range empty by more than one period telescopes to nonzero")
def test_gf_of_a_cell_empty_by_two_periods_is_zero():
    c = cell([(0, INFINITY), (linear([1], 5), 3)])
    assert cell_gf(c).is_zero()


@pytest.mark.xfail(strict=True, raises=NonIntegral,
                   reason="a bound non-integral on a class with no point is refused")
def test_half_line_over_a_point_under_its_half():
    half = linear(["1/2"])
    want = RationalGF.make(("Y1", "Y2"), {(2, 1): 1}, {(1, (0, 1)): 1})
    assert gf_equal(cell_gf(cell([(2, 2), (half, INFINITY)])), want)
