"""Tests for exact Z/p^k arithmetic, root lifting and Newton certificates."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padictrees.errors import DomainError
from padictrees.padic import (
    AtLeastPrec,
    Certified,
    INCONCLUSIVE,
    PadicApprox,
    PadicVec,
    eth_root_lift,
    from_int,
    is_finite,
    newton_certify,
    power_residue_index,
    pval,
    val,
    vec,
    vvec,
)
from padictrees.polysys import make_system


def test_pval():
    assert pval(5, 50) == 2
    assert pval(3, 7) == 0
    assert pval(2, -8) == 3
    assert pval(7, 0) is None


def test_val_exact_and_at_least():
    x = from_int(5, 4, 75)
    assert val(x) == 2
    zero = from_int(5, 4, 0)
    assert val(zero) == AtLeastPrec(4)
    assert not is_finite(val(zero))
    # residue divisible by p^prec behaves like zero
    assert val(from_int(3, 2, 9)) == AtLeastPrec(2)


def test_arithmetic_min_precision():
    a = PadicApprox(3, 5, 10)
    b = PadicApprox(3, 3, 4)
    assert (a + b).prec == 3
    assert (a + b).residue == 14 % 27
    assert (a * b).residue == 40 % 27
    assert (a - b).residue == 6
    assert (-a).residue == (-10) % 243
    with pytest.raises(DomainError):
        a + PadicApprox(5, 5, 1)


def test_truncate_and_units():
    a = PadicApprox(3, 5, 10)
    assert a.is_unit()
    assert (a * a.inverse()).residue == 1
    assert not PadicApprox(3, 5, 6).is_unit()
    with pytest.raises(DomainError):
        PadicApprox(3, 5, 6).inverse()
    assert a.pow(-1).residue == a.inverse().residue


def test_vec_and_valuations():
    x = vec(3, 4, [9, 6])
    assert x.p == 3 and x.prec == 4 and len(x) == 2
    assert x.residues() == (9, 6)
    assert vvec(x) == (2, 1)
    y = vec(3, 4, [0, 0])
    assert vvec(y) == (AtLeastPrec(4),) * 2
    assert (x - x).residues() == (0, 0)
    with pytest.raises(DomainError):
        vec(3, 4, [])


# The value types: equality and hash follow (p, prec, reduced residues),
# construction checks and reduces, and a value cannot be changed.

_P = st.sampled_from([2, 3])
_PREC = st.integers(0, 2)
_RES = st.integers(-5, 12)


@settings(max_examples=300, deadline=None)
@given(_P, _PREC, _RES, _P, _PREC, _RES)
def test_approx_equality_and_hash_follow_the_reduced_residue(p, k, a, q, l, b):
    x, y = PadicApprox(p, k, a), PadicApprox(q, l, b)
    same = (p, k, a % p**k) == (q, l, b % q**l)
    assert (x == y) is same and (x != y) is not same
    assert hash(x) == hash((p, k, a % p**k))
    assert x != (p, k, a % p**k) and x != PadicVec(p, k, (a,))


@settings(max_examples=300, deadline=None)
@given(_P, _PREC, st.lists(_RES, min_size=1, max_size=2),
       _P, _PREC, st.lists(_RES, min_size=1, max_size=2))
def test_vec_equality_and_hash_follow_the_reduced_residues(p, k, xs, q, l, ys):
    x, y = PadicVec(p, k, tuple(xs)), PadicVec(q, l, tuple(ys))
    rx, ry = tuple(a % p**k for a in xs), tuple(b % q**l for b in ys)
    same = (p, k, rx) == (q, l, ry)
    assert (x == y) is same and (x != y) is not same
    assert hash(x) == hash((p, k, rx))


def test_value_types_reduce_on_construction():
    assert PadicApprox(5, 2, -1).residue == 24
    assert PadicApprox(5, 0, 7).residue == 0
    x = PadicVec(5, 2, [-1, 30, 25])
    assert x.res == (24, 5, 0) and x.residues() == (24, 5, 0)
    assert x.coords == tuple(PadicApprox(5, 2, r) for r in (24, 5, 0))
    assert len(x) == 3


def test_value_types_check_their_arguments():
    with pytest.raises(DomainError, match="precision must be non-negative"):
        PadicApprox(3, -1, 0)
    with pytest.raises(DomainError, match="precision must be non-negative"):
        PadicVec(3, -1, (1,))
    with pytest.raises(DomainError, match="empty vector"):
        PadicVec(3, 2, ())
    with pytest.raises(DomainError, match="empty vector"):
        PadicVec(3, -1, ())
    with pytest.raises(DomainError, match="empty vector"):
        PadicVec(3, 2, [])
    with pytest.raises(DomainError, match="empty vector"):
        PadicVec(3, 2, (x for x in []))
    assert PadicVec(3, 2, (x for x in [-1, 9])).res == (8, 0)


def test_value_types_are_immutable():
    x, v = PadicApprox(3, 4, 10), vec(3, 4, [1, 2])
    for obj, field in ((x, "p"), (x, "prec"), (x, "residue"), (v, "res"), (v, "prec")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert x == PadicApprox(3, 4, 10) and v.res == (1, 2)


def test_value_types_repr_copy_and_pickle():
    x, v = PadicApprox(5, 3, 130), vec(3, 2, [10, -1])
    assert repr(x) == "PadicApprox(p=5, prec=3, residue=5)"
    assert repr(v) == "PadicVec(p=3, prec=2, res=(1, 8))"
    for obj in (x, v):
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_vec_difference():
    x, y = vec(3, 4, [9, 6]), vec(3, 2, [1, 7])
    assert x - y == PadicVec(3, 2, (8, 8))
    assert (y - x).residues() == (1, 1)
    with pytest.raises(DomainError, match="mixed primes"):
        x - vec(5, 4, [9, 6])


def test_eth_root_square_mod_25():
    # square root of 6 in Z/25 that is 1 mod 5
    y = from_int(5, 2, 6)
    z = eth_root_lift(y, 2, 1)
    assert z.residue == 16 and z.prec == 2
    assert pow(16, 2, 25) == 6


def test_eth_root_rejects_bad_input():
    with pytest.raises(DomainError):
        eth_root_lift(from_int(5, 4, 2), 2, 1)  # not 1 mod p
    with pytest.raises(DomainError):
        eth_root_lift(from_int(2, 6, 1), 2, 1)  # delta < v(e)+1
    with pytest.raises(DomainError):
        eth_root_lift(from_int(5, 4, 6), 2, 0)


def test_eth_root_checks_y_to_delta_plus_v_e_or_to_its_precision():
    # p = 3, e = 3, delta = 2: y must be 1 mod 3^(2 + 1) when it is known
    # that far, and 1 mod 3^prec when it is known less far
    with pytest.raises(DomainError, match=re.escape("y must be = 1 mod p^(delta+v(e))")):
        eth_root_lift(from_int(3, 6, 1 + 9), 3, 2)  # 1 mod 3^2, not mod 3^3
    with pytest.raises(DomainError, match=re.escape("y must be = 1 mod p^(delta+v(e))")):
        eth_root_lift(from_int(2, 6, 5), 2, 2)  # 1 mod 2^2, not mod 2^3
    z = eth_root_lift(from_int(3, 2, 1 + 9), 3, 2)  # precision 2 < 3
    assert (z.residue, z.prec) == (1, 1)
    assert eth_root_lift(from_int(5, 2, 1 + 25), 1, 3).residue == 1
    with pytest.raises(DomainError, match=re.escape("y must be = 1 mod p^(delta+v(e))")):
        eth_root_lift(from_int(3, 2, 1 + 3), 3, 2)  # not 1 mod 3^prec


def test_eth_root_round_trip_random():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(60):
            e = rng.randint(1, 6)
            ve = pval(p, e) or 0
            delta = ve + 1
            prec = 12
            # pick z = 1 mod p^delta and recover it from z^e
            z = 1 + p**delta * rng.randrange(p ** (prec - delta))
            y = PadicApprox(p, prec, pow(z, e, p**prec))
            back = eth_root_lift(y, e, delta)
            assert back.residue == z % p**back.prec
            assert back.prec == prec - ve


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    e=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_eth_root_is_an_eth_root(p, e, seed):
    rng = random.Random(seed)
    ve = pval(p, e) or 0
    delta = ve + 1
    prec = 14
    z = 1 + p**delta * rng.randrange(p ** (prec - delta))
    y = PadicApprox(p, prec, pow(z, e, p**prec))
    back = eth_root_lift(y, e, delta)
    assert pow(back.residue, e, p**back.prec) == y.residue % p**back.prec


def test_power_residue_index_invariance():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(40):
            e = rng.randint(1, 6)
            prec = 20
            x = from_int(p, prec, rng.randrange(1, p**10))
            t = rng.randrange(1, p**6)
            while t % p == 0:
                t = rng.randrange(1, p**6)
            scaled = x * from_int(p, prec, pow(t, e, p**prec))
            assert power_residue_index(x, e) == power_residue_index(scaled, e)


def test_power_residue_index_separates():
    # 2 is a quadratic non-residue mod 5
    assert power_residue_index(from_int(5, 8, 2), 2) != power_residue_index(
        from_int(5, 8, 1), 2
    )
    # p itself differs from units by the valuation component
    v1, _ = power_residue_index(from_int(5, 8, 5), 2)
    v0, _ = power_residue_index(from_int(5, 8, 1), 2)
    assert (v1, v0) == (1, 0)


def test_newton_certify_sqrt6():
    sys = make_system(5, 1, [[(1, (2,)), (-6, (0,))]])
    cert = newton_certify(sys, vec(5, 1, [1]))
    assert isinstance(cert, Certified)
    # 1^2 - 6 = -5 has valuation 1, derivative 2 is a unit
    assert cert.margin == 0 and cert.depth == 1


def test_newton_certify_exact_representative():
    sys = make_system(5, 2, [[(1, (3, 0)), (-1, (0, 2))]])
    cert = newton_certify(sys, vec(5, 2, [0, 0]))
    # the integer representative (0,0) solves the equation exactly
    assert isinstance(cert, Certified) and cert.depth == 2


def test_newton_certify_inconclusive_near_singular_point():
    sys = make_system(5, 2, [[(1, (3, 0)), (-1, (0, 2))]])
    # f(5,10) = 25: valuation 2, best Jacobian minor valuation 1, 2*1 >= 2
    cert = newton_certify(sys, vec(5, 2, [5, 10]))
    assert cert is INCONCLUSIVE


def test_newton_certify_empty_system():
    sys = make_system(3, 2, [], allow_empty=True)
    cert = newton_certify(sys, vec(3, 4, [1, 2]))
    assert isinstance(cert, Certified) and cert.depth == 4


def test_newton_certificate_is_sound():
    # certified classes must contain a residue solution one level deeper
    sys = make_system(3, 2, [[(1, (0, 1)), (-1, (2, 0))]])  # y = x^2
    for x in range(3):
        a = vec(3, 1, [x, x * x % 3])
        cert = newton_certify(sys, a)
        assert isinstance(cert, Certified)
        found = False
        for dx in range(3):
            for dy in range(3):
                pt = (x + 3 * dx, x * x % 3 + 3 * dy)
                if sys.eval_poly(0, pt) % 9 == 0:
                    found = True
        assert found


def test_newton_certify_tells_exact_from_minor():
    cusp = make_system(5, 2, [[(1, (3, 0)), (-1, (0, 2))]])
    exact = newton_certify(cusp, vec(5, 3, [0, 0]))
    assert exact.exact and exact.cols is None and exact.margin == 0
    # the cusp at (1, 4): f = -15 and d/dx = 3 is a unit
    smooth = newton_certify(cusp, vec(5, 1, [1, 4]))
    assert not smooth.exact and smooth.cols == (0,) and smooth.margin == 0
    sqrt6 = newton_certify(make_system(5, 1, [[(1, (2,)), (-6, (0,))]]), vec(5, 1, [1]))
    assert sqrt6.cols == (0,) and not sqrt6.exact
    empty = newton_certify(make_system(3, 2, [], allow_empty=True), vec(3, 2, [1, 2]))
    assert empty.cols == () and not empty.exact
