import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalab.cyclo import (
    MINUS_ONE,
    NoSnap,
    ONE,
    RootOfUnity,
    ZETA4,
    mu_group,
    ru_embed,
    ru_mul,
    ru_snap,
)

exponents = st.fractions(
    min_value=-10, max_value=10, max_denominator=24
)


def test_mul_examples():
    assert ru_mul(MINUS_ONE, MINUS_ONE) == ONE
    assert ru_mul(ZETA4, ZETA4) == MINUS_ONE
    assert ru_mul(RootOfUnity(Fraction(1, 3)), RootOfUnity(Fraction(1, 4))) == RootOfUnity(
        Fraction(7, 12)
    )


def test_embed_examples():
    assert ru_embed(ONE) == 1
    assert ru_embed(ZETA4) == 1j
    z8 = ru_embed(RootOfUnity(Fraction(1, 8)))
    assert abs(z8 - (2**0.5 / 2) * (1 + 1j)) < 1e-15


def test_snap_examples():
    assert ru_snap(1e-7 + 0.9999999j, 4, 1e-3) == ZETA4
    assert ru_snap(1 + 0j, 8, 1e-9) == ONE
    with pytest.raises(NoSnap):
        ru_snap(0.7071 + 0.7072j, 4, 1e-3)


def test_snap_tolerance_contract():
    with pytest.raises(ValueError):
        ru_snap(1 + 0j, 4, 0.3)  # tol >= 1/(4*order)
    with pytest.raises(ValueError):
        ru_snap(1 + 0j, 0, 1e-3)


def test_snap_hands_out_one_instance_per_root():
    """The snap compares against k / order, which is the float of
    Fraction(k, order), and returns the cached instance for (k, order)."""
    for order in range(1, 100):
        for k in range(order):
            assert k / order == float(Fraction(k, order))
    z = ru_snap(1e-7 + 0.9999999j, 4, 1e-3)
    assert z is ru_snap(1j, 4, 1e-3) and z == ZETA4
    assert ru_snap(-1 + 0j, 6, 1e-3) is ru_snap(-1 + 1e-9j, 6, 1e-3)
    assert ru_snap(-1 + 0j, 6, 1e-3).exponent == Fraction(1, 2)


@given(exponents, exponents)
def test_mul_adds_exponents(q1, q2):
    a, b = RootOfUnity(q1), RootOfUnity(q2)
    assert ru_mul(a, b).exponent == (q1 + q2) % 1


@given(exponents)
def test_inverse(q):
    a = RootOfUnity(q)
    assert ru_mul(a, a.inverse()) == ONE
    assert abs(a.inverse().value - a.value.conjugate()) < 1e-15


@pytest.mark.parametrize("n", range(1, 25))
def test_mu_n_is_a_group(n):
    group = mu_group(n)
    assert len(group) == n
    elements = set(group)
    for a in group:
        for b in group:
            assert ru_mul(a, b) in elements
    orders = {a.order for a in group}
    assert max(orders) == n  # contains a primitive root


@pytest.mark.parametrize("n", range(1, 25))
def test_embed_is_homomorphism_and_snap_inverts(n):
    group = mu_group(n)
    for a in group:
        assert abs(abs(a.value) - 1) < 1e-14
        assert ru_snap(ru_embed(a), n, 1e-9) == a
    for a in group:
        for b in group:
            assert abs(ru_embed(ru_mul(a, b)) - ru_embed(a) * ru_embed(b)) < 1e-14


def test_embed_matches_exp():
    for k in range(24):
        a = RootOfUnity(Fraction(k, 24))
        assert abs(a.value - cmath.exp(2j * cmath.pi * k / 24)) < 1e-15


def test_json_round_trip():
    a = RootOfUnity(Fraction(5, 12))
    assert RootOfUnity.from_json(a.to_json()) == a
    assert a.to_json() == {"num": 5, "den": 12}


def test_pow_and_order():
    a = RootOfUnity(Fraction(1, 6))
    assert a**6 == ONE
    assert a**3 == MINUS_ONE
    assert a.order == 6
    assert (a**2).order == 3


def test_immutability():
    a = RootOfUnity(Fraction(1, 3))
    with pytest.raises(AttributeError):
        a.exponent = Fraction(1, 2)
