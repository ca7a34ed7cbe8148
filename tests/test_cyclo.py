import cmath
import copy
import pickle
from fractions import Fraction

import numpy as np
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
    _Value,
)
from thetalab.congruence import Group, SL2Matrix
from thetalab.heisenberg import (
    HeisenbergAutomorphism,
    HeisenbergElement,
    KVector,
    SymmetricSplitting,
    ThetaType,
)
from thetalab.metaplectic import MpElement
from thetalab.schrodinger import SchrodingerMatrix
from thetalab.symplectic4 import GroupData, MembershipReport
from thetalab.thetanum import ThetaVector, TransformCheck

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


NON_FINITE = (
    complex("nan"),
    complex("inf"),
    complex("nan+nanj"),
    complex(float("-inf"), 0.0),
    complex(0.0, float("inf")),
    complex(1.0, float("nan")),
    complex(float("inf"), float("nan")),
)


@pytest.mark.parametrize("z", NON_FINITE)
@pytest.mark.parametrize("order", (1, 4, 6))
def test_snap_refuses_non_finite_values(z, order):
    """A non-finite z lies within tolerance of no root: NoSnap, never the
    ValueError or OverflowError that rounding its phase would raise."""
    with pytest.raises(NoSnap, match="is not within"):
        ru_snap(z, order, 1e-9)


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


_T = ThetaType((2, 4))

# one instance of every value class, with its repr as the dataclass-generated
# (or the class's own) __repr__ printed it
VALUES = (
    (RootOfUnity(Fraction(1, 3)), "RootOfUnity(1/3)"),
    (SL2Matrix(2, 1, 1, 1), "SL2Matrix(2, 1, 1, 1)"),
    (Group("gamma0", 4), "Group(kind='gamma0', level=4)"),
    (MpElement(SL2Matrix(0, -1, 1, 0), -1), "MpElement('0,-1,1,0:-')"),
    (_T, "ThetaType((2, 4))"),
    (KVector(_T, (3, 5), (1, 6)), "KVector((1, 1), (1, 2))"),
    (
        HeisenbergElement(RootOfUnity(Fraction(1, 4)), KVector(_T, (1, 2), (0, 3))),
        "HeisenbergElement(RootOfUnity(1/4), KVector((1, 2), (0, 3)))",
    ),
    (
        SymmetricSplitting(_T, (1, -1)),
        "SymmetricSplitting(type=ThetaType((2, 4)), star_signs=(1, -1))",
    ),
    (
        HeisenbergAutomorphism(ThetaType((2,)), (2, 1), (0, 3)),
        "HeisenbergAutomorphism(eta=[(1, 0), (0, 1)])",
    ),
    (
        SchrodingerMatrix(ThetaType((2,)), (1, 0), (Fraction(0), Fraction(1, 2))),
        "SchrodingerMatrix(type=ThetaType((2,)), row_of_col=(1, 0), "
        "exponents=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (
        MembershipReport(True, False, True),
        "MembershipReport(in_sp4=True, in_gamma_pm=False, in_gamma2=True)",
    ),
    (
        GroupData(
            1, "even", np.array([3], dtype=np.uint8), np.array([7], dtype=np.uint64),
            np.array([2]), 1, 2, False,
        ),
        "GroupData(g=1, parity='even', matrices=array([3], dtype=uint8), "
        "keys=array([7], dtype=uint64), lam=array([2]), solution_count=1, "
        "generator_count=2, extended_generators=False)",
    ),
    (
        ThetaVector(2, 0.5j, np.array([1 + 0j, 0.25j]), 1e-12),
        "ThetaVector(m=2, tau=0.5j, values=array([1.+0.j  , 0.+0.25j]), err_bound=1e-12)",
    ),
    (
        TransformCheck(1e-13, "direct", True, 1e-13, 0.5),
        "TransformCheck(residual=1e-13, convention='direct', passed=True, "
        "residual_direct=1e-13, residual_conjugate=0.5)",
    ),
)


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def _same(x, y) -> bool:
    """Same class and equal fields, arrays compared by dtype and value."""
    return type(x) is type(y) and all(
        a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(_fields(x), _fields(y), strict=True)
    )


@pytest.mark.parametrize("x, text", VALUES, ids=[type(x).__name__ for x, _ in VALUES])
def test_value_classes_behave_as_frozen_dataclasses(x, text):
    """Each value class keeps what `@dataclass(frozen=True)` gave it: its
    repr, keyword construction by field name, a hash equal to that of its
    field tuple (RootOfUnity's own: its class name and exponent), equality
    only within the class, no assignment or deletion, and pickle and copy
    round trips."""
    fields = _fields(x)
    assert repr(x) == text
    assert _same(type(x)(**dict(zip(type(x).__slots__, fields))), x)
    key = ("RootOfUnity", x.exponent) if isinstance(x, RootOfUnity) else fields
    try:
        expected = hash(key)
    except TypeError:  # a field is an array
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    if not any(isinstance(f, np.ndarray) for f in fields):
        assert x == copy.copy(x) and not x != copy.copy(x)
    twin = object.__new__(type("Twin", (_Value,), {"__slots__": type(x).__slots__}))
    for name, f in zip(type(x).__slots__, fields):
        object.__setattr__(twin, name, f)
    assert x != twin and x != fields
    name = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert all(a is b for a, b in zip(_fields(x), fields))
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert _same(y, x) and repr(y) == text
