"""Tests for exact rational generating function arithmetic."""

import time
from collections import Counter
from fractions import Fraction

import pytest

from padictrees.errors import DomainError
from padictrees.ratfun import (
    RationalGF,
    _coef,
    expand_series,
    gf_add,
    gf_const,
    gf_equal,
    gf_geometric,
    gf_monomial,
    gf_mul,
    gf_neg,
    gf_normalize,
    gf_zero,
    substitute,
)

Z = ("Z",)


def geo(c=1, e=(1,), variables=Z):
    return gf_geometric(variables, (c, tuple(e)))


def test_add_zero_and_mul_one():
    f = geo()
    assert gf_equal(gf_add(f, gf_zero(Z)), f)
    assert gf_equal(gf_mul(f, gf_const(Z, 1)), f)


def test_mul_cancels_factor():
    # 1/(1-Z) * (1-Z) = 1
    one_minus = RationalGF.make(Z, {(0,): Fraction(1), (1,): Fraction(-1)}, Counter())
    assert gf_equal(gf_mul(geo(), one_minus), gf_const(Z, 1))


def test_add_same_denominator():
    # 1/(1-Y) + Y/(1-Y) = (1+Y)/(1-Y)
    f = geo(variables=("Y",))
    g = gf_mul(gf_monomial(("Y",), (1,)), f)
    total = gf_add(f, g)
    want = gf_mul(
        RationalGF.make(("Y",), {(0,): Fraction(1), (1,): Fraction(1)}, Counter()),
        f,
    )
    assert gf_equal(total, want)
    # brute-force coefficients: 1 + 2Y + 2Y^2 + ...
    assert expand_series(total, 4) == [1, 2, 2, 2, 2]


def test_sub_self_is_zero():
    f = gf_mul(geo(), geo(2, (2,)))
    assert gf_add(f, gf_neg(f)).is_zero()


def test_substitute_scaling():
    # Z -> pZ turns 1/(1-Z) into 1/(1-pZ)
    f = substitute(geo(), "Z", 3, {"Z": 1})
    assert gf_equal(f, geo(3))
    base = expand_series(geo(), 10)
    scaled = expand_series(f, 10)
    assert scaled == [3**k * c for k, c in enumerate(base)]


def test_substitute_identify_variable():
    # Y -> Z turns 1/(1-YZ) into 1/(1-Z^2)
    f = gf_geometric(("Z", "Y"), (1, (1, 1)))
    g = substitute(f, "Y", 1, {"Z": 1})
    assert g.variables == ("Z",)
    assert gf_equal(g, geo(1, (2,)))


def test_substitute_rejects_constant_factor():
    f = gf_geometric(("Z", "Y"), (1, (0, 1)))
    with pytest.raises(DomainError):
        substitute(f, "Y", 1, {})
    with pytest.raises(DomainError):
        substitute(f, "W", 1, {})
    with pytest.raises(DomainError):
        substitute(f, "Y", 0, {})


def test_normalize_cancels():
    # (1 - Z) / (1 - Z) -> 1
    num = {(0,): Fraction(1), (1,): Fraction(-1)}
    f = RationalGF.make(Z, num, Counter({(1, (1,)): 1}))
    g = gf_normalize(f)
    assert g.denominator == ()
    assert gf_equal(g, gf_const(Z, 1))


def test_equal_across_representations():
    # 1/(1-Z^2) equals (1/(1-Z)) * (1/(1+Z)) written as (1-Z)/(1-Z^2) / (1-Z) ... :
    # compare 1/(1-Z) with (1+Z)/(1-Z^2) instead
    lhs = geo()
    rhs = gf_mul(
        RationalGF.make(Z, {(0,): Fraction(1), (1,): Fraction(1)}, Counter()),
        geo(1, (2,)),
    )
    assert gf_equal(lhs, rhs)
    assert not gf_equal(lhs, geo(2))


def test_expand_series():
    assert expand_series(geo(), 5) == [1] * 6
    assert expand_series(geo(2), 4) == [1, 2, 4, 8, 16]
    f = gf_mul(gf_monomial(Z, (2,)), geo(1, (2,)))
    assert expand_series(f, 7) == [0, 0, 1, 0, 1, 0, 1, 0]
    with pytest.raises(DomainError):
        expand_series(gf_geometric(("Z", "Y"), (1, (1, 0))), 3)


def test_variable_mismatch():
    with pytest.raises(DomainError):
        gf_add(geo(), geo(variables=("Y",)))


def test_json_round_trip():
    f = gf_mul(
        RationalGF.make(Z, {(1,): Fraction(3, 2)}, Counter()),
        gf_mul(geo(), geo(5, (2,))),
    )
    g = RationalGF.from_json(f.to_json())
    assert g == f
    assert gf_equal(g, f)


def test_negative_exponent_factor_is_refused():
    # 1 / (1 - Z^-1) is no power series; normalising it never returned
    data = {
        "format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}],
        "denominator": [{"c": 1, "e": [-1], "mult": 1}],
    }
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"\(1 - Z\^-1\) has a negative exponent"):
        RationalGF.from_json(data)
    assert time.perf_counter() - start < 1


def test_malformed_series_json_is_a_domain_error():
    # numbers were read with int(), so a float or a bool passed as an integer,
    # and a missing field escaped as a bare KeyError
    good = {
        "format": 1, "variables": ["Z"], "numerator": [{"e": [0], "c": "1"}],
        "denominator": [{"c": 1, "e": [1], "mult": 1}],
    }
    assert str(RationalGF.from_json(good)) == "(1) / (1 - Z)"
    den, = good["denominator"]
    for bad, field in (
        ({**good, "denominator": [{"c": 1.9, "e": [True], "mult": 1}]}, "'e'"),
        ({**good, "denominator": [{**den, "c": 1.9}]}, "'c'"),
        ({**good, "denominator": [{**den, "c": True}]}, "'c'"),
        ({**good, "denominator": [{**den, "mult": "x"}]}, "'mult'"),
        ({**good, "denominator": [{"c": 1, "e": [1]}]}, "'mult'"),
        ({**good, "denominator": [{**den, "e": [1.0]}]}, "'e'"),
        ({**good, "denominator": [{**den, "e": [1, 0]}]}, "'e'"),
        ({**good, "numerator": [{"e": [0]}]}, "'c'"),
        ({**good, "numerator": [{"e": [0], "c": True}]}, "'c'"),
        ({**good, "numerator": [{"e": [0], "c": 0.5}]}, "'c'"),
        ({**good, "numerator": [{"e": [0], "c": "1/0"}]}, "'c'"),
        ({**good, "numerator": [{"c": "1"}]}, "'e'"),
        ({**good, "numerator": ["1"]}, "'numerator'"),
        ({k: v for k, v in good.items() if k != "denominator"}, "'denominator'"),
        ({**good, "variables": "Z"}, "'variables'"),
        ({**good, "variables": [1]}, "'variables'"),
        ([good], "'variables'"),
        ({**good, "numerator": [{"e": [-1], "c": "1"}]}, "Z\\^-1 has a negative exponent"),
        ({**good, "numerator": [{"e": [0], "c": "1"}, {"e": [0], "c": "2"}]},
         "'numerator' repeats the term"),
        ({**good, "denominator": [den, {**den, "mult": 2}]}, "'denominator' repeats the term"),
    ):
        with pytest.raises(DomainError, match=field):
            RationalGF.from_json(bad)
    # integer and fraction strings are read exactly, as the writer gives them
    g = RationalGF.from_json({**good, "numerator": [{"e": [0], "c": " 3/6 "}, {"e": [2], "c": 4}]})
    assert g.numerator == (((0,), Fraction(1, 2)), ((2,), 4))


def test_str_rendering():
    assert str(geo()) == "(1) / (1 - Z)"
    assert str(gf_zero(Z)) == "0"
    assert str(geo(3)) == "(1) / (1 - 3*Z)"


def _kinds(f):
    return [type(c) for _, c in f.numerator]


def test_integer_sums_keep_int_coefficients():
    from padictrees.datum import cusp_datum
    from padictrees.poincare import datum_poincare

    f = datum_poincare(cusp_datum(3), 3)
    assert _kinds(f) == [int] * 5
    assert all(type(c) is int for c in expand_series(f, 6))
    g = gf_add(geo(), gf_mul(gf_monomial(Z, (1,), 2), geo(3)))
    assert set(_kinds(g)) == {int}
    back = RationalGF.from_json(g.to_json())
    assert back == g and _kinds(back) == _kinds(g)


def test_non_integer_coefficients_stay_exact():
    half = gf_const(Z, Fraction(1, 2))
    g = RationalGF.from_json({
        "format": 1,
        "variables": ["Z"],
        "numerator": [{"e": [0], "c": "1/2"}, {"e": [1], "c": "-1/2"}],
        "denominator": [{"c": 1, "e": [2], "mult": 1}],
    })
    # the strings below were printed while every coefficient was a Fraction
    assert str(half) == "1/2"
    assert str(g) == "(1/2 - 1/2*Z) / (1 - Z^2)"
    assert str(gf_normalize(g)) == "(1/2 - 1/2*Z) / (1 - Z^2)"
    assert str(gf_add(half, g)) == "(1 - 1/2*Z - 1/2*Z^2) / (1 - Z^2)"
    assert str(gf_add(half, half)) == "1"
    assert str(gf_mul(g, geo())) == "(1/2) / (1 - Z^2)"
    assert str(gf_mul(half, geo())) == "(1/2) / (1 - Z)"
    assert str(substitute(g, "Z", 3, {"Z": 1})) == "(1/2 - 3/2*Z) / (1 - 9*Z^2)"
    assert gf_add(g, gf_neg(g)).is_zero()
    assert str(gf_monomial(("Z", "Y"), (1, 2), "-3/4")) == "-3/4*Z*Y^2"
    assert expand_series(g, 5) == [Fraction((-1) ** k, 2) for k in range(6)]
    half_even = [Fraction(1 - k % 2, 2) for k in range(5)]
    assert expand_series(gf_mul(g, geo()), 4) == half_even
    assert g.to_json()["numerator"] == [{"e": [0], "c": "1/2"}, {"e": [1], "c": "-1/2"}]
    assert RationalGF.from_json(g.to_json()) == g


@pytest.mark.parametrize("text", [
    " 3 ", "+3", "-0", "\u0663", "1_000", "3/1", "1.5", "1e2", "--3", "", "0x10",
    "\x1c7\x1c", "+", "1/0", "1" * 5000,
])
def test_coef_reads_a_string_as_fraction_does(text):
    # the int() fast path for digit strings gives Fraction's value, or its
    # exception, on every string
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            _coef(text)
        assert type(got.value) is type(exc)
        return
    got = _coef(text)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
