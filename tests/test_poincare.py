"""Tests for the exact Poincare series of tree data."""

from collections import Counter
from fractions import Fraction

import pytest

from padictrees.datum import (
    SkeletonDatum,
    TreeDatum,
    cusp_datum,
    expand,
    expand_counts,
    point_datum,
    terminal_branch,
    y_datum,
    zpn_datum,
)
from padictrees.errors import NotNormal
from padictrees.gamma import (
    GammaCell,
    INFINITY,
    const_fn,
    linear,
    whole_quadrant,
)
from padictrees.poincare import compare, datum_poincare
from padictrees.ratfun import RationalGF, expand_series, gf_equal, gf_geometric


def test_point_series():
    f = datum_poincare(point_datum(), 3)
    assert gf_equal(f, gf_geometric(("Z",), (1, (1,))))
    assert str(f) == "(1) / (1 - Z)"
    assert expand_series(f, 5) == [1] * 6


def test_zp_series_counts_p_powers():
    for p in (2, 3, 5):
        f = datum_poincare(zpn_datum(1, p), p)
        assert gf_equal(f, gf_geometric(("Z",), (p, (1,))))
        assert expand_series(f, 6) == [p**k for k in range(7)]


def test_zpn2_series():
    for p in (2, 3, 5):
        f = datum_poincare(zpn_datum(2, p), p)
        assert expand_series(f, 8) == [p ** (2 * k) for k in range(9)]


def test_zpn_series_closed_form_through_level_3():
    # level 3 stays fast because _branch_gf sums each star branch's side
    # datum once, though the branch repeats it p^n - 1 times
    for n in range(4):
        for p in (2, 3, 5):
            D = zpn_datum(n, p)
            f = datum_poincare(D, p)
            assert gf_equal(f, gf_geometric(("Z",), (p**n, (1,)))), (n, p)
            assert expand_series(f, 4) == expand_counts(D, (), p, 4), (n, p)


def test_y_series():
    f = datum_poincare(y_datum(3, m=0), 3)
    assert expand_series(f, 6) == [1, 1, 1, 1, 2, 2, 2]


def test_cusp_series_frozen_prefix():
    f = datum_poincare(cusp_datum(5), 5)
    assert expand_series(f, 8) == [1, 5, 21, 103, 521, 2603, 13011, 65103, 325511]


def test_cusp_series_p3():
    f = datum_poincare(cusp_datum(3), 3)
    counts = expand_counts(cusp_datum(3), (), 3, 10)
    assert expand_series(f, 10) == counts


def test_series_matches_expansion_for_builtins():
    cases = [
        (point_datum(), 3, 7),
        (y_datum(2, m=0), 3, 7),
        (zpn_datum(1, 3), 3, 6),
        (zpn_datum(2, 2), 2, 6),
        (cusp_datum(5), 5, 6),
    ]
    for D, p, cap in cases:
        report = compare(datum_poincare(D, p), expand(D, (), p, cap))
        assert report.equal, str(report)
        assert report.upto == cap


def test_compare_reports_mismatch():
    from padictrees.trees import y_tree

    report = compare(datum_poincare(point_datum(), 3), y_tree(1, 5))
    assert not report.equal
    assert report.first_mismatch == 2
    assert "mismatch at degree 2" in str(report)


def test_parametric_series_specializes():
    # family Y(kappa): P(Z, Y) summed over the family; spot-check by
    # comparing against the per-member expansions after series division
    from padictrees.gamma import GammaSet, interval_cell

    D = y_datum(linear([1]), m=1, domain=GammaSet((interval_cell(1, INFINITY),), 1))
    f = datum_poincare(D, 3)
    # coefficient of Y^kappa Z^lam must count the nodes of Y(kappa) at lam
    coeffs = _bivariate_coeffs(f, 8, 5)
    for kappa in range(1, 6):
        want = expand(D, (kappa,), 3, 8).layer_sizes()
        got = [coeffs.get((lam, kappa), 0) for lam in range(9)]
        assert got == want, (kappa, got, want)


def _bivariate_coeffs(f: RationalGF, zmax, ymax):
    out = {}
    box = (zmax, ymax)

    def clip(poly):
        return {m: c for m, c in poly.items() if all(x <= b for x, b in zip(m, box))}

    acc = clip({m: c for m, c in f.numerator})
    for (c, e), mult in f.denominator:
        for _ in range(mult):
            cur = dict(acc)
            total = dict(acc)
            while cur:
                nxt = {}
                for m, co in cur.items():
                    m2 = tuple(x + y for x, y in zip(m, e))
                    if all(x <= b for x, b in zip(m2, box)):
                        nxt[m2] = nxt.get(m2, Fraction(0)) + co * c
                for m, co in nxt.items():
                    total[m] = total.get(m, Fraction(0)) + co
                cur = nxt
            acc = total
    return {m: c for m, c in acc.items() if c}


def test_non_normal_datum_rejected():
    # bone length kappa with rho = 2 varies mod 2 over the domain
    sk = SkeletonDatum((-1, 0, 1), (linear([1], 1), INFINITY))
    c = whole_quadrant(1).cells[0]
    piece_low = GammaCell(
        c.bounds + ((const_fn(1, 1), linear([1])),), c.cong + ((0, 1),)
    )
    piece_tail = GammaCell(
        c.bounds + ((linear([1], 2), INFINITY),), c.cong + ((0, 1),)
    )
    D = TreeDatum(
        level=0, m=1, domain=whole_quadrant(1), rho=2, skeleton=sk,
        joint_branches=((0, terminal_branch()), (1, terminal_branch())),
        bone_branches=(
            (1, piece_low, terminal_branch()),
            (2, piece_tail, terminal_branch()),
        ),
    )
    with pytest.raises(NotNormal):
        datum_poincare(D, 3)
