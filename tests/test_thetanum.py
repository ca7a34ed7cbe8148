import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from thetalab import _kernels, suite, thetanum
from thetalab.congruence import (
    Gamma0,
    SL2Matrix,
    SL2_I,
    SL2_S,
    NotMember,
    member,
    THETA12,
    sl2_with_entry_bound,
)
from thetalab.cyclo import NoSnap, ONE, RootOfUnity, ZETA4
from thetalab.metaplectic import MP_I, MP_S, MP_T, MP_Z, MpElement, mp_from_word, mp_mul
from thetalab.metaplectic import phi_eval
from thetalab.symplectic4 import discriminant
from thetalab.thetanum import (
    MAX_RADIUS,
    ConventionFlip,
    TauTooLow,
    _CONVENTION,
    functional_eq_lambda,
    get_convention,
    halfform_cocycle,
    jacobi_action,
    jacobi_cocycle,
    jacobi_compose,
    reset_convention,
    riemann_theta,
    shimura_cocycle,
    theta_constants,
    truncation_radius,
    verify_transformation,
    _radii_unchecked,
    _radius_unchecked,
    _riemann_thetas_unchecked,
    _tail_bound,
    _theta_vector_unchecked,
)

from thetalab.weilrep import BadIndex, weil_rep

from dense_oracle import dense_weil_rep


@pytest.fixture(autouse=True)
def _fresh_convention():
    reset_convention()
    yield
    reset_convention()


def brute_riemann_theta(tau: complex, radius: int = 400) -> complex:
    """Independent summation oracle (plain Python, no kernel)."""
    return sum(cmath.exp(1j * cmath.pi * n * n * tau) for n in range(-radius, radius + 1))


def brute_theta_vector(m: int, tau: complex, radius: int = 400) -> np.ndarray:
    out = np.zeros(m, dtype=complex)
    for r in range(-radius, radius + 1):
        out[r % m] += cmath.exp(1j * cmath.pi * tau * r * r / m)
    return out


def test_truncation_radius_monotone_in_im():
    radii = [truncation_radius(2, y, 1e-12) for y in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert radii == sorted(radii, reverse=True)


def test_truncation_radius_scaling_in_m():
    for y in (0.3, 1.0):
        r1 = truncation_radius(2, y, 1e-12)
        r2 = truncation_radius(4, y, 1e-12)
        assert r2 <= r1 * math.sqrt(2) + 1


def test_truncation_radius_certifies_tail():
    m, y, tol = 2, 1.0, 1e-12
    radius = truncation_radius(m, y, tol)
    assert _tail_bound(m, y, radius) < tol
    # oversummation oracle: the actual dropped tail is below the bound
    tail = sum(
        2 * math.exp(-math.pi * y * r * r / m) for r in range(radius, 4 * radius)
    )
    assert tail < _tail_bound(m, y, radius) < tol


def loop_radius(m: int, im_tau: float, tol: float) -> int:
    """The least radius with tail bound below tol, by stepping up from 1."""
    radius = 1
    while _tail_bound(m, im_tau, radius) >= tol:
        radius += 1
    return radius


def test_radius_search_matches_loop_oracle():
    ims = (0.001, 0.003, 0.01, 0.03, 0.1, 0.12, 0.3, 1.0, 2.0, 5.5, 13.0, 30.0)
    tols = (1e-100, 1e-50, 1e-20, 1e-13, 1e-12, 1e-9, 1e-6, 1e-3)
    for m, y, tol in itertools.product((1, 2, 6, 64, 512, 4096), ims, tols):
        assert _radius_unchecked(m, complex(0.3, y), tol) == loop_radius(m, y, tol), (m, y, tol)


def test_radius_cap_raises_tau_too_low():
    """Radii above MAX_RADIUS are refused at once, naming the cap."""
    repro = SL2Matrix(146181170, -8149601, 84066001, -4686680)
    with pytest.raises(TauTooLow, match="MAX_RADIUS"):
        halfform_cocycle(repro, 0.3 + 1.1j)
    with pytest.raises(TauTooLow, match="MAX_RADIUS"):
        truncation_radius(10**9, 0.1, 1e-12)
    # below the cap, a radius in the tens of thousands is still the loop's
    y = 2 * math.log(2e12) / (math.pi * (MAX_RADIUS // 2) ** 2)
    radius = _radius_unchecked(2, complex(0, y), 1e-12)
    assert MAX_RADIUS // 2 < radius == loop_radius(2, y, 1e-12) < MAX_RADIUS


def test_non_finite_input_is_rejected():
    nan, inf = float("nan"), float("inf")
    calls = [
        lambda: theta_constants(4, complex(nan, 1.0)),
        lambda: theta_constants(4, complex(0.3, nan)),
        lambda: theta_constants(4, 0.3 + 1.1j, nan),
        lambda: theta_constants(4, complex(0.3, inf)),
        lambda: riemann_theta(complex(inf, 1.0)),
        lambda: verify_transformation(4, MP_S, complex(nan, 1.0)),
        lambda: verify_transformation(4, MP_S, 0.3 + 1.1j, inf),
        lambda: verify_transformation(4, MP_S, 0.3 + 1.1j, nan),
        lambda: truncation_radius(2, nan, 1e-12),
        lambda: truncation_radius(2, 1.0, inf),
        lambda: halfform_cocycle(SL2_S, complex(nan, 1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_verify_checks_m_before_summing(monkeypatch):
    """m outside rho_m's bound is rejected before any theta vector is summed."""

    def no_sum(*args):
        raise AssertionError("theta vector summed before m was checked")

    monkeypatch.setattr(thetanum, "_theta_vector_unchecked", no_sum)
    for m in (1024, 200_000_000, 7, 0):
        with pytest.raises(BadIndex):
            verify_transformation(m, MP_S, 3j)


def test_truncation_radius_contract():
    with pytest.raises(TauTooLow):
        truncation_radius(2, 0.05, 1e-12)
    with pytest.raises(ValueError):
        truncation_radius(3, 1.0, 1e-12)


def test_riemann_theta_value():
    # theta(i) = pi^{1/4} / Gamma(3/4); the 10-digit reference value
    val = riemann_theta(1j, 1e-12)
    assert abs(val - 1.0864348113) < 1e-9
    assert abs(val - brute_riemann_theta(1j)) < 1e-13
    assert val != 0


def test_riemann_theta_periodicity():
    tau = 0.3 + 1.1j
    assert abs(riemann_theta(tau + 2) - riemann_theta(tau)) < 1e-12
    # 2e15 is an even float: the period holds at any size of Re tau
    assert abs(riemann_theta(2e15 + 1j) - riemann_theta(1j)) < 2e-12


@pytest.mark.parametrize(
    "m, tau, shift", ((4, 1j, 1e17), (4, 0.25 + 1j, 1e6), (6, 1j, -1.2e13), (64, 1j, 2.0**60))
)
def test_theta_constants_periodicity_at_large_real_part(m, tau, shift):
    """theta_{m,nu}(tau + shift) = theta_{m,nu}(tau) within the certified
    bounds when shift is a multiple of the period 2m."""
    assert shift % (2 * m) == 0 and (tau + shift).real - shift == tau.real
    near, far = theta_constants(m, tau), theta_constants(m, tau + shift)
    assert np.abs(far.values - near.values).max() <= near.err_bound + far.err_bound


def test_riemann_theta_functional_equation():
    tau = 2j
    lhs = riemann_theta(-1 / tau) ** 2
    rhs = -1j * tau * riemann_theta(tau) ** 2
    assert abs(lhs - rhs) < 1e-10


def test_tau_floor():
    with pytest.raises(TauTooLow):
        riemann_theta(0.5 + 0.05j)
    with pytest.raises(TauTooLow):
        theta_constants(2, 0.09j)


def test_theta_constants_match_brute_force():
    for m in (2, 4, 6):
        for tau in (0.3 + 1.1j, -0.4 + 0.8j, 2j):
            vec = theta_constants(m, tau, 1e-12)
            assert np.max(np.abs(vec.values - brute_theta_vector(m, tau))) < 1e-12
            assert vec.err_bound <= 1e-12


def test_theta_constants_level_two_is_rescaled_riemann():
    tau = 0.3 + 1.1j
    vec = theta_constants(2, tau, 1e-12)
    assert abs(vec.values[0] - riemann_theta(2 * tau)) < 1e-12


def test_theta_constants_symmetry():
    vec = theta_constants(6, 0.2 + 0.9j, 1e-12)
    for nu in range(6):
        assert abs(vec.values[nu] - vec.values[(6 - nu) % 6]) < 1e-12


def test_theta_constants_t_shift():
    for m in (2, 4, 6):
        tau = 0.1 + 0.9j
        shifted = theta_constants(m, tau + 1, 1e-12).values
        base = theta_constants(m, tau, 1e-12).values
        for nu in range(m):
            factor = cmath.exp(1j * cmath.pi * nu * nu / m)
            assert abs(shifted[nu] - factor * base[nu]) < 1e-12


def test_err_bound_certifies_resummation():
    for m, tau in ((2, 0.3 + 1.1j), (6, 2j)):
        vec = theta_constants(m, tau, 1e-10)
        radius = truncation_radius(m, tau.imag, 1e-10)
        doubled = _kernels.theta_class_sums(m, complex(tau), 2 * radius)
        assert np.max(np.abs(doubled - vec.values)) < vec.err_bound


def test_functional_eq_lambda_examples():
    assert functional_eq_lambda(SL2_I) == ONE
    assert functional_eq_lambda(SL2_S) == ZETA4
    with pytest.raises(NotMember):
        functional_eq_lambda(SL2Matrix(1, 1, 0, 1))


def test_functional_eq_matches_discriminant_bound20():
    for gamma in sl2_with_entry_bound(20):
        if not member(gamma, THETA12):
            continue
        lam = functional_eq_lambda(gamma)
        disc = discriminant([[gamma.a, gamma.b], [gamma.c, gamma.d]], "even")
        assert lam == disc, gamma


def test_halfform_cocycle_identity_and_square():
    rng = np.random.default_rng(0)
    tau = 0.1 + 1.3j
    pool = [g for g in sl2_with_entry_bound(10) if member(g, THETA12)]
    assert abs(halfform_cocycle(SL2_I, tau) - 1) < 1e-14
    checked = 0
    while checked < 200:
        g1 = pool[int(rng.integers(0, len(pool)))]
        g2 = pool[int(rng.integers(0, len(pool)))]
        if g2.moebius(tau).imag < 0.1:
            continue
        checked += 1
        lhs = halfform_cocycle(g1 * g2, tau)
        rhs = halfform_cocycle(g1, g2.moebius(tau)) * halfform_cocycle(g2, tau)
        assert abs(lhs - rhs) < 1e-9
    # square of the half-form cocycle against the mu_4 character
    for g in pool[:60]:
        j = halfform_cocycle(g, tau)
        lam = functional_eq_lambda(g)
        target = lam.inverse().value * (g.c * tau + g.d)
        assert abs(j * j - target) < 1e-9


def test_shimura_cocycle_identity():
    rng = np.random.default_rng(1)
    tau = 0.1 + 1.3j
    pool = [g for g in sl2_with_entry_bound(10) if member(g, Gamma0(4))]
    assert shimura_cocycle(pool[0], 0, tau) == 1
    for k in (1, 3):
        checked = 0
        while checked < 100:
            g1 = pool[int(rng.integers(0, len(pool)))]
            g2 = pool[int(rng.integers(0, len(pool)))]
            if g2.moebius(tau).imag < 0.1:
                continue
            checked += 1
            lhs = shimura_cocycle(g1 * g2, k, tau)
            rhs = shimura_cocycle(g1, k, g2.moebius(tau)) * shimura_cocycle(g2, k, tau)
            assert abs(lhs - rhs) < 1e-8
    with pytest.raises(NotMember):
        shimura_cocycle(SL2_S, 1, tau)


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_cocycles_are_bit_identical_with_a_cold_and_a_warm_theta_cache():
    """Each cocycle equals, bit for bit, the quotient of two theta sums taken
    afresh: from a cold cache, from the cache that pass left warm, and from a
    cache holding the same base points at a coarser tolerance."""
    theta = thetanum._riemann_theta_unchecked

    def fresh(tau):
        radius = _radius_unchecked(1, tau, 1e-13)
        return _kernels.riemann_theta_sum(thetanum._reduce_real(tau, 2), radius)

    half = [g for g in sl2_with_entry_bound(4) if member(g, THETA12)][:40]
    gamma0 = [g for g in sl2_with_entry_bound(4) if member(g, Gamma0(4))][:40]
    for tau in (*thetanum.PROBE_POINTS, 0.1 + 1.3j):
        for cache in ("cold", "warm", "coarse"):
            if cache != "warm":
                theta.cache_clear()
            if cache == "coarse":
                riemann_theta(tau, 1e-3)
                riemann_theta(2 * tau, 1e-3)
            for g in half:
                want = fresh(g.moebius(tau)) / fresh(tau)
                assert bits(halfform_cocycle(g, tau)) == bits(want), (g, tau, cache)
            for g in gamma0:
                base = fresh(2 * g.moebius(tau)) / fresh(2 * tau)
                for k in (0, 1, 3):
                    got = shimura_cocycle(g, k, tau)
                    assert bits(got) == bits(base**k), (g, k, tau, cache)


def test_theta_cache_is_bounded():
    theta = thetanum._riemann_theta_unchecked
    theta.cache_clear()
    size = theta.cache_info().maxsize
    assert size is not None and 0 < size <= 1024
    for n in range(3 * size):
        riemann_theta(complex(0.01 * n, 1.0))
    assert theta.cache_info().currsize == size


def test_jacobi_cocycle_trivial_cases():
    tau, z = 0.2 + 1.0j, 0.3 + 0.1j
    assert jacobi_cocycle(SL2_I, 0, 0, 2, tau, z) == 1
    assert abs(jacobi_cocycle(SL2_I, 0, 1, 2, tau, z) - 1) < 1e-14


def test_non_integer_m_is_a_bad_index_without_an_upper_bound():
    """`truncation_radius` and `jacobi_cocycle` take m through `operator.index`,
    like `theta_constants`: 6.0 and 2.0 are refused, numpy integers answer
    as the Python int, and neither gains an upper bound on m."""
    tau, z = 0.2 + 1.0j, 0.3 + 0.1j
    for bad in (6.0, 6.5, "6", Fraction(6), 3, 0, -2):
        with pytest.raises(BadIndex):
            truncation_radius(bad, 1.0, 1e-12)
    for bad in (2.0, 2.5, "2", Fraction(2), 1, 0, -2):
        with pytest.raises(BadIndex):
            jacobi_cocycle(SL2_S, 1, 0, bad, tau, z)
    assert truncation_radius(np.int64(6), 1.0, 1e-12) == truncation_radius(6, 1.0, 1e-12)
    for m in (2, 4, 6):
        value = jacobi_cocycle(SL2_S, 1, -1, m, tau, z)
        assert value != 0 and jacobi_cocycle(SL2_S, 1, -1, np.int64(m), tau, z) == value
    assert jacobi_cocycle(SL2_S, 1, -1, 10**6, tau, z) == 0  # underflows, no BadIndex
    with pytest.raises(TauTooLow, match="MAX_RADIUS"):
        truncation_radius(np.int64(10**9), 0.1, 1e-12)


def test_jacobi_cocycle_identity():
    rng = np.random.default_rng(2)
    pool = list(sl2_with_entry_bound(5))
    worst = 0.0
    accepted = 0
    while accepted < 100:
        g1 = pool[int(rng.integers(0, len(pool)))]
        g2 = pool[int(rng.integers(0, len(pool)))]
        lam1 = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        lam2 = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
        e1, e2 = (g1, lam1), (g2, lam2)
        prod = jacobi_compose(e1, e2)
        lhs = jacobi_cocycle(prod[0], prod[1][0], prod[1][1], 2, tau, z)
        moved = jacobi_action(e2, (z, tau))
        rhs = jacobi_cocycle(g1, lam1[0], lam1[1], 2, moved[1], moved[0]) * jacobi_cocycle(
            g2, lam2[0], lam2[1], 2, tau, z
        )
        if not (1e-200 < abs(lhs) < 1e200 and 1e-200 < abs(rhs) < 1e200):
            continue
        accepted += 1
        worst = max(worst, abs(lhs / rhs - 1))
    assert worst < 1e-8


def test_verify_transformation_generators():
    for m in (2, 4, 6):
        for tau in (0.3 + 1.1j, 2j):
            check = verify_transformation(m, MP_T, tau, 1e-9)
            assert check.passed and check.residual < 1e-12
            check = verify_transformation(m, MP_Z, tau, 1e-9)
            assert check.passed
            check = verify_transformation(m, MP_S, tau, 1e-9)
            assert check.passed and check.convention == "direct"
    assert get_convention() == "direct"


def test_verify_transformation_random_words():
    rng = np.random.default_rng(3)
    taus = (0.3 + 1.1j, -0.4 + 0.8j, 2j)
    count = 0
    while count < 50:
        word = [
            [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
            for _ in range(int(rng.integers(0, 12)))
        ]
        p = mp_from_word(word)
        if rng.integers(0, 2):
            p = mp_mul(p, MP_Z)
        if any(p.gamma.moebius(t).imag < 0.1 for t in taus):
            continue
        count += 1
        for m in (2, 4, 6):
            for tau in taus:
                check = verify_transformation(m, p, tau, 1e-9)
                assert check.passed, (p, m, tau, check)
    assert get_convention() == "direct"


def test_verify_transformation_large_m_matches_dense():
    rng = np.random.default_rng(11)
    taus = (0.3 + 1.1j, 2j)
    words = []
    while len(words) < 8:
        word = [
            [("S", 1), ("T", 1), ("T", -1)][int(rng.integers(0, 3))]
            for _ in range(int(rng.integers(1, 12)))
        ]
        p = mp_from_word(word)
        if all(p.gamma.moebius(t).imag >= 0.1 for t in taus):
            words.append(p)
    for m in (64, 512):
        for p in words:
            mat = dense_weil_rep(m, p)
            for tau in taus:
                check = verify_transformation(m, p, tau, 1e-9)
                assert check.passed and check.convention == "direct", (m, p, tau, check)
                here, _ = _theta_vector_unchecked(m, tau, 1e-12)
                moved, _ = _theta_vector_unchecked(m, p.gamma.moebius(tau), 1e-12)
                phi = phi_eval(p, tau)
                r_direct = np.max(np.abs(moved - phi * (mat @ here)))
                r_conj = np.max(np.abs(moved - phi * (mat.conj() @ here)))
                assert abs(check.residual_direct - r_direct) < 1e-12
                assert abs(check.residual_conjugate - r_conj) < 1e-12


def test_verify_transformation_preconditions():
    with pytest.raises(TauTooLow):
        verify_transformation(2, MP_T, 0.3 + 0.3j, 1e-9)
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError, match="positive"):
            verify_transformation(2, MP_T, 0.3 + 1.1j, tol)
    # a matrix pushing tau below the evaluation floor
    p = mp_from_word([("S", 1), ("T", 30), ("S", 1)])
    with pytest.raises(TauTooLow):
        verify_transformation(2, p, 2j, 1e-9)


def test_convention_flip_is_detected():
    reset_convention()
    _CONVENTION.observe("direct")
    with pytest.raises(ConventionFlip):
        _CONVENTION.observe("conjugate")
    reset_convention()
    assert get_convention() is None


def test_decisive_queries_are_counted_until_reset():
    assert thetanum.decisive_count() == 0
    check = verify_transformation(2, mp_from_word([("S", 1)]), 1.1j, 1e-9)
    decisive = check.residual < 1e-9 <= max(check.residual_direct, check.residual_conjugate)
    assert decisive and thetanum.decisive_count() == 1
    # at the identity both conventions agree, so the query decides nothing
    verify_transformation(2, MP_I, 1.1j, 1e-9)
    assert thetanum.decisive_count() == 1
    reset_convention()
    assert thetanum.decisive_count() == 0


def test_probe_independence_of_functional_eq(monkeypatch):
    """The suite's analytic quotient (c tau + d) theta(tau)^2 / theta(g tau)^2,
    over a whole member list, snaps to one mu_4 value per member at every tau,
    the exact one; disagreeing taus raise, and so does a non-member."""
    taus = (2j, 0.3 + 1.1j, 0.5 + 2.5j)
    gammas = (SL2_I, SL2_S, SL2Matrix(1, 2, 2, 5), SL2Matrix(3, -2, -4, 3))
    members = np.array([g.entries() for g in gammas])
    got = suite._functional_eq_exponents(members, taus).tolist()
    assert [RootOfUnity(Fraction(k, 4)) for k in got] == [functional_eq_lambda(g) for g in gammas]
    assert RootOfUnity(Fraction(got[1], 4)) == ZETA4
    assert suite._functional_eq_exponents(members[1:2], taus).tolist() == [1]
    with pytest.raises(NotMember):
        suite._functional_eq_exponents(np.array([(1, 1, 0, 1)]), taus)
    thetas = thetanum._riemann_thetas_unchecked
    calls = []

    def skewed(moved, tol):
        """theta(g tau) turned by an eighth at the first tau only: the quotient
        there turns by a quarter, to another fourth root of unity."""
        calls.append(len(moved))
        values = thetas(moved, tol)
        return values * cmath.exp(0.25j * cmath.pi) if len(calls) == 1 else values

    monkeypatch.setattr(suite.tn, "_riemann_thetas_unchecked", skewed)
    with pytest.raises(ArithmeticError, match="disagree"):
        suite._functional_eq_exponents(members, taus)
    assert calls == [len(gammas)] * len(taus)


# --- the batch radii against the scalar search --------------------------------------


def scalar_radii(m, taus, tol):
    return [_radius_unchecked(m, t, tol) for t in taus]


@pytest.mark.parametrize("seed", (0, 1, 7, 17))
@pytest.mark.parametrize("level", ("quick", "full"))
def test_batch_radii_equal_the_scalar_on_the_suites_moved_taus(monkeypatch, level, seed):
    """The discriminant oracle's moved taus, at both probe points: every
    radius of the batch is the scalar search's."""
    batches = []
    thetas = thetanum._riemann_thetas_unchecked

    def spy(taus, tol):
        batches.append((list(taus), tol))
        return thetas(taus, tol)

    monkeypatch.setattr(suite.tn, "_riemann_thetas_unchecked", spy)
    suite.check_discriminant_oracle(level, np.random.default_rng(seed))
    assert len(batches) == len(thetanum.PROBE_POINTS)
    for taus, tol in batches:
        got = _radii_unchecked(1, np.array(taus), tol)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_radii(1, taus, tol)


def radius_boundaries(m, tol, low, high):
    """Pairs (a, b) of adjacent floats with a < b and a larger scalar radius at
    Im tau = a than at b, one pair for every radius step between Im = low and
    Im = high, found by bisection on the scalar search."""

    def radius(y):
        return _radius_unchecked(m, complex(0.3, y), tol)

    pairs = []
    b = high
    while radius(b) < radius(low):
        a, target = low, radius(b)
        while (mid := (a + b) / 2) not in (a, b):
            if radius(mid) == target:
                b = mid
            else:
                a = mid
        pairs.append((a, b))
        b = a
    return pairs


@pytest.mark.parametrize("m", (1, 6))
def test_batch_radii_straddle_every_radius_boundary(monkeypatch, m):
    """At tol 1e-13, Im values on both sides of every radius step, one ulp
    apart, and their outer neighbours: the batch gives the scalar's radius,
    deciding by the scalar where its own bound lies within a few ulps of tol."""
    tol = 1e-13
    pairs = radius_boundaries(m, tol, 5e-4, 20.0)
    assert len(pairs) > 100
    ims = [
        y
        for a, b in pairs
        for y in (np.nextafter(a, 0), a, b, np.nextafter(b, np.inf))
    ]
    taus = [complex(0.3, float(y)) for y in ims]
    want = scalar_radii(m, taus, tol)
    scalar = thetanum._radius_unchecked
    fallbacks = []

    def counting(*args):
        fallbacks.append(args)
        return scalar(*args)

    monkeypatch.setattr(thetanum, "_radius_unchecked", counting)
    assert _radii_unchecked(m, np.array(taus), tol).tolist() == want
    # most of these lie within a few ulps of a step, so the scalar decides
    # them; Im values spread over the same range need it on none
    assert len(taus) // 2 < len(fallbacks) < len(taus)
    fallbacks.clear()
    spread = 0.3 + 1j * np.geomspace(5e-4, 20.0, 2000)
    assert _radii_unchecked(m, spread, tol).tolist() == scalar_radii(m, spread.tolist(), tol)
    assert fallbacks == []


def test_batch_radii_raise_what_the_scalar_loop_raises():
    """Non-finite input, Im tau <= 0, tol <= 0 and radii above the cap (by
    the start check and by the search) raise the scalar loop's exception,
    with its message, for the first such tau of the batch."""
    nan, inf = float("nan"), float("inf")
    good = [0.3 + 1.1j, -0.2 + 0.01j]
    cases = [
        ([complex(nan, 1.0)], 1e-13),
        ([complex(0.3, nan)], 1e-13),
        ([complex(inf, 1.0)], 1e-13),
        ([complex(0.3, inf)], 1e-13),
        ([complex(0.3, -inf)], 1e-13),
        ([0.3 + 0j], 1e-13),
        ([0.3 - 1j], 1e-13),
        ([complex(0.3, 1e-12)], 1e-13),  # the cap, by the start check
        ([complex(0.3, 1e-9)], 1e-13),  # the cap, by the search
        ([complex(0.3, 1e-12), complex(nan, 1.0)], 1e-13),
        ([complex(0.3, 1e-9), 0.3 - 1j], 1e-13),
        ([], nan),
        ([], inf),
        ([], 0.0),
        ([], -1e-13),
    ]
    for bad, tol in cases:
        taus = good + bad + good
        with pytest.raises(Exception) as want:
            scalar_radii(1, taus, tol)
        assert isinstance(want.value, ValueError)
        for call in (
            lambda: _radii_unchecked(1, np.array(taus), tol),
            lambda: _riemann_thetas_unchecked(taus, tol),
        ):
            with pytest.raises(Exception) as got:
                call()
            assert type(got.value) is type(want.value), (bad, tol)
            assert str(got.value) == str(want.value), (bad, tol)


def test_batch_radii_of_an_empty_batch():
    assert _radii_unchecked(1, np.array([], dtype=np.complex128), 1e-13).tolist() == []
    assert _riemann_thetas_unchecked([], 1e-13).tolist() == []


# --- the transformation law's theta vectors and residuals -----------------------------


def test_theta_vectors_are_cached_read_only():
    """A cached theta vector is the kernel's sum, bit for bit, handed out as
    the same read-only array on every hit."""
    _theta_vector_unchecked.cache_clear()
    values, radius = _theta_vector_unchecked(6, 12.3 + 1.1j, 1e-12)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0
    want = _kernels.theta_class_sums(6, complex(math.fmod(12.3, 12), 1.1), radius)
    assert values.tobytes() == want.tobytes()
    again, _ = _theta_vector_unchecked(6, 12.3 + 1.1j, 1e-12)
    assert again is values
    assert _theta_vector_unchecked.cache_info().maxsize == thetanum.THETA_CACHE_SIZE


def two_step_residuals(m, p, tau, tol):
    """`verify_transformation`'s residuals as two reductions of their own,
    from uncached theta sums."""
    eval_tol = min(tol * 1e-3, 1e-12)

    def vector(t):
        radius = _radius_unchecked(m, t, eval_tol)
        return _kernels.theta_class_sums(m, complex(math.fmod(t.real, 2 * m), t.imag), radius)

    here, moved = vector(tau), vector(p.gamma.moebius(tau))
    phi = phi_eval(p, tau)
    direct, conj = weil_rep(m, p, np.array([here, here.conj()]))
    return (
        float(np.abs(moved - phi * direct).max()),
        float(np.abs(moved - phi * conj.conj()).max()),
    )


def test_verify_sweep_is_the_same_with_a_cold_and_a_warm_vector_cache():
    """The suite's word sweep through `verify_transformation` gives the same
    checks and decisive count with the vector cache cleared before every call
    as with it warm, and both residuals are the two-step reductions', bit
    for bit."""
    words = suite._sample_mp_words(np.random.default_rng(5), 30, 12)
    runs = []
    for cold in (False, True):
        reset_convention()
        _theta_vector_unchecked.cache_clear()
        checks = []
        for m in (2, 4, 6):
            for p in words:
                for tau in suite.TRANSFORM_TAUS:
                    if cold:
                        _theta_vector_unchecked.cache_clear()
                    checks.append(verify_transformation(m, p, tau, 1e-9))
        runs.append((checks, thetanum.decisive_count()))
    assert runs[0] == runs[1]
    assert _theta_vector_unchecked.cache_info().hits == 0
    checks = iter(runs[0][0])
    for m in (2, 4, 6):
        for p in words:
            for tau in suite.TRANSFORM_TAUS:
                check = next(checks)
                r_direct, r_conj = two_step_residuals(m, p, tau, 1e-9)
                assert check.residual_direct.hex() == r_direct.hex()
                assert check.residual_conjugate.hex() == r_conj.hex()


def test_batched_thetas_are_the_cached_sums():
    """Each value of the batch is the one `_riemann_theta_unchecked` gives, bit for bit."""
    pool = [g for g in sl2_with_entry_bound(6) if member(g, THETA12)]
    moved = [g.moebius(tau) for tau in thetanum.PROBE_POINTS for g in pool]
    got = thetanum._riemann_thetas_unchecked(moved, 1e-13).tolist()
    want = [thetanum._riemann_theta_unchecked(t, 1e-13) for t in moved]
    assert [bits(z) for z in got] == [bits(z) for z in want]


def test_err_bound_covers_the_period_shift():
    """theta_{6,nu} has period 12 in Re tau: 11.75 is summed at -0.25, and the
    phase of the shift by 12 is 1 for every nu, so nothing is multiplied and
    the two vectors and bounds are the same, bit for bit."""
    near, far = theta_constants(6, -0.25 + 1j), theta_constants(6, 11.75 + 1j)
    assert far.values.tobytes() == near.values.tobytes()
    assert far.err_bound == near.err_bound


def mpmath_theta_vector(m: int, tau: complex) -> list:
    """theta_{m,nu}(tau) at 40 digits, summed to a tail below 1e-30."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpc(tau.real, tau.imag)
        out = [mpmath.mpc(0)] * m
        for r in range(-(radius := _radius_unchecked(m, tau, 1e-30)), radius + 1):
            out[r % m] += mpmath.exp(1j * mpmath.pi * t * r * r / m)
        return out


@pytest.mark.parametrize("m", (2, 6, 64, 512))
def test_err_bound_certifies_against_mpmath(m):
    """An mpmath reference lies within `err_bound` of every theta constant, for
    Im tau in [0.1, 2], Re tau in (-2m, 2m), and Re tau far outside it (up to
    1e6, and the half-integer ties of the shift to [-1/2, 1/2))."""
    import mpmath

    rng = np.random.default_rng(m)
    edge = 2 * m - 2.0**-10
    taus = [complex(re, im) for re in (-edge, edge) for im in (0.1, 2.0)]
    taus += [complex(rng.uniform(-2 * m, 2 * m), rng.uniform(0.1, 2.0)) for _ in range(4)]
    far = (2 * m - 0.001, -37.3 * m, 8 * m + 0.5, -3.5, 1e6 + 0.25, rng.uniform(-1e4, 1e4))
    taus += [complex(re, im) for re in far for im in (0.1, 0.7)]
    for tau in taus:
        vec = theta_constants(m, tau)
        with mpmath.workdps(40):
            ref = mpmath_theta_vector(m, tau)
            worst = max(float(abs(mpmath.mpc(v) - r)) for v, r in zip(vec.values.tolist(), ref))
        assert worst <= vec.err_bound, (m, tau, worst, vec.err_bound)


def test_err_bound_meets_the_tolerance_at_large_re_tau():
    """Summed at Re tau in [-1/2, 1/2), the rounding no longer grows with
    |Re tau|: the bounds that read 1.9e-10 and 6.0e-13 when Re tau was only
    reduced into (-2m, 2m)."""
    assert theta_constants(512, 1023.999 + 0.1j, tol=1e-12).err_bound <= 1e-12
    assert theta_constants(64, 37.3 + 0.3j).err_bound <= 6.0e-13


def direct_theta_vector(m: int, tau: complex, tol: float = 1e-12):
    """`theta_constants` as it was: summed at Re tau reduced into (-2m, 2m)
    alone; its values and certified bound."""
    radius = _radius_unchecked(m, tau, tol)
    reduced = complex(math.fmod(tau.real, 2 * m), tau.imag)
    values = _kernels.theta_class_sums(m, reduced, radius)
    err = _tail_bound(m, tau.imag, radius + 1) + thetanum._rounding_bound(m, reduced, radius)
    return values, err


@pytest.mark.parametrize("m", (2, 6, 64, 512))
def test_shifted_sum_agrees_with_the_direct_sum(m):
    """Values summed at tau - k and moved by the T phase agree with the
    direct sum within the sum of both bounds, for |Re tau| up to 4m; where
    |Re tau| < 1/2 they are the direct sum, bit for bit."""
    rng = np.random.default_rng(m + 1)
    for _ in range(12):
        tau = complex(rng.uniform(-4 * m, 4 * m), rng.uniform(0.1, 2.0))
        vec = theta_constants(m, tau)
        values, err = direct_theta_vector(m, tau)
        assert np.abs(vec.values - values).max() <= vec.err_bound + err, (m, tau)
    for tau in (complex(0.4999, 0.1), complex(-0.5, 1.3), complex(-0.0, 0.2), 0.3 + 1.1j):
        vec = theta_constants(m, tau)
        values, err = direct_theta_vector(m, tau)
        assert vec.values.tobytes() == values.tobytes() and vec.err_bound == err


@pytest.mark.parametrize("m", (2, 6, 64, 512))
def test_shift_by_k_is_the_weil_t_fold(m):
    """theta(tau + k) is T^k applied to theta(tau), bit for bit: the phases
    are those `weilrep`'s fold multiplies by, at the index (nu^2 k) mod 2m."""
    from thetalab.weilrep import _fold, _generators

    for re in (0.25, -0.375, -0.5):
        tau = complex(re, 0.6)
        base = theta_constants(m, tau)
        for k in (1, -1, 3, -7, 2 * m + 1, 4 * m, 10**6 + 3, -(10**9) - 1):
            shifted = theta_constants(m, complex(re + k, 0.6))
            want = _fold(_generators(m), [("T", k)], base.values)
            assert shifted.values.tobytes() == want.tobytes(), (m, re, k)
            if k % (2 * m) == 0:
                assert shifted.err_bound == base.err_bound


def test_t_phases_are_the_phase_table():
    """`_t_phases` at any index array gives the phase table's entries, bit for bit."""
    from thetalab.weilrep import _generators, _t_phases

    rng = np.random.default_rng(5)
    for m in range(2, 514, 2):
        table = _generators(m)[2]
        index = rng.integers(0, 2 * m, 3 * m)
        assert _t_phases(index, m).tobytes() == table[index].tobytes()


def test_unit_shift_lands_in_the_half_open_strip():
    """tau - k is exact and Re(tau - k) lies in [-1/2, 1/2), ties included."""
    from thetalab.thetanum import _unit_shift

    for re in (0.5, -0.5, 1.5, 2.5, -2.5, 0.49999999999999994, 1e17, -1e300, 3.75, -0.0, 7.0):
        k, shifted = _unit_shift(complex(re, 1.0))
        assert -0.5 <= shifted.real < 0.5 and shifted.imag == 1.0, re
        assert shifted.real + k == re and isinstance(k, int)


# --- the transformation law in batches ----------------------------------------------


def one_query_check(m, p, tau, tol=1e-9):
    """`verify_transformation` as it was before `_verify_words` batched it:
    one query, its own checks, theta sums, fold, residuals and observation."""
    m = thetanum._check_m(m)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if tau.imag < thetanum.MIN_IM_VERIFY:
        raise TauTooLow(f"Im(tau)={tau.imag} is below {thetanum.MIN_IM_VERIFY}")
    gt = p.gamma.moebius(tau)
    if gt.imag < thetanum.MIN_IM_EVAL:
        raise TauTooLow(f"Im(gamma tau)={gt.imag} is below {thetanum.MIN_IM_EVAL}")
    eval_tol = min(tol * 1e-3, 1e-12)
    theta_here, _ = _theta_vector_unchecked(m, tau, eval_tol)
    theta_moved, _ = _theta_vector_unchecked(m, gt, eval_tol)
    phi = phi_eval(p, tau)
    images = thetanum.weil_rep(m, p, np.array([theta_here, theta_here.conj()]))
    np.conjugate(images[1], out=images[1])
    r_direct, r_conj = np.abs(theta_moved - phi * images).max(axis=1).tolist()
    if r_direct <= r_conj:
        residual, convention = r_direct, "direct"
    else:
        residual, convention = r_conj, "conjugate"
    if residual < tol <= max(r_direct, r_conj):
        _CONVENTION.observe(convention)
    return thetanum.TransformCheck(residual, convention, residual < tol, r_direct, r_conj)


def check_fields(check) -> tuple:
    return (
        check.residual.hex(),
        check.convention,
        check.passed,
        check.residual_direct.hex(),
        check.residual_conjugate.hex(),
    )


def suite_words(seed: int) -> dict:
    """The full suite's words at `seed`: its first stage draws them per m."""
    rng = np.random.default_rng(seed)
    return {m: suite._sample_mp_words(rng, 50, 12) for m in (2, 4, 6)}


def seeded_taus(seed: int, words, count: int = 3) -> list:
    """`count` seeded taus with Re tau in [-3, 3) and Im tau in [0.5, 2), at
    which every word keeps Im(gamma tau) above the evaluation floor."""
    rng = np.random.default_rng(seed)
    taus = []
    while len(taus) < count:
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2))
        if all(p.gamma.moebius(tau).imag >= thetanum.MIN_IM_EVAL for p in words):
            taus.append(tau)
    return taus


def loop_and_batch(m, words, taus, tol=1e-9):
    """(checks, decisive count) of the one-query loop, word-major, and of
    `_verify_words`, each from a reset convention."""
    runs = []
    for batch in (False, True):
        reset_convention()
        if batch:
            checks = thetanum._verify_words(m, words, taus, tol)
        else:
            checks = [one_query_check(m, p, tau, tol) for p in words for tau in taus]
        runs.append(([check_fields(c) for c in checks], thetanum.decisive_count()))
    return runs


@pytest.mark.parametrize("seed", (0, 1, 7, 17))
def test_verify_words_are_the_one_query_loop(seed):
    """On the full suite's words at the suite's taus, and on seeded taus off
    them, every field of every check and the decisive count equal the
    one-query loop's, bit for bit, at m = 2, 4, 6, 64 and 512."""
    words = suite_words(seed)
    words[64], words[512] = words[6][:20], words[6][:6]
    for m, ws in words.items():
        for taus in (list(suite.TRANSFORM_TAUS), seeded_taus(seed + m, ws)):
            looped, batched = loop_and_batch(m, ws, taus)
            assert batched == looped, (seed, m, taus)
            assert len(batched[0]) == len(ws) * len(taus) and batched[1] > 0


def test_verify_transformation_is_the_one_query_check():
    words = suite_words(3)[4][:10]
    for m in (2, 6, 64):
        for p in words:
            for tau in seeded_taus(m, words, 2):
                reset_convention()
                want = check_fields(one_query_check(m, p, tau))
                reset_convention()
                assert check_fields(verify_transformation(m, p, tau)) == want


def conjugating_weil_rep(monkeypatch, target):
    """Patch `thetanum.weil_rep` so that `target` acts by conj(rho): its
    queries then decide the conjugate convention."""
    real = thetanum.weil_rep

    def mutant(m, p, vectors=None):
        if isinstance(p, MpElement):
            if p == target:
                return real(m, p, np.conj(vectors)).conj()
            return real(m, p, vectors)
        out = real(m, p, vectors)
        for i, q in enumerate(p):
            if q == target:
                out[i] = real(m, q, np.conj(vectors)).conj()
        return out

    monkeypatch.setattr(thetanum, "weil_rep", mutant)


def test_verify_words_flip_at_the_loops_query(monkeypatch):
    """With one word acting by conj(rho), the batch raises ConventionFlip at
    the query the one-query loop raises it at: same message, same decisive
    count (observations are made word-major, and the count includes the
    query that raises)."""
    words = suite_words(0)[6]
    conjugating_weil_rep(monkeypatch, words[20])
    raised = []
    for batch in (False, True):
        reset_convention()
        with pytest.raises(ConventionFlip) as flip:
            if batch:
                thetanum._verify_words(6, words, suite.TRANSFORM_TAUS, 1e-9)
            else:
                for p in words:
                    for tau in suite.TRANSFORM_TAUS:
                        one_query_check(6, p, tau)
        raised.append((str(flip.value), thetanum.decisive_count()))
    assert raised[0] == raised[1]
    assert raised[1][0] == "convention flipped from direct to conjugate"
    reset_convention()
    checks = thetanum._verify_words(6, words[20:21], suite.TRANSFORM_TAUS, 1e-9)
    assert {c.convention for c in checks} == {"conjugate"} and get_convention() == "conjugate"


def test_verify_words_check_every_query_before_summing(monkeypatch):
    """A bad m or tol, or one query with Im tau or Im(gamma tau) below its
    floor, raises before any theta vector is summed or word folded, wherever
    the bad query sits in the batch."""

    def no_work(*args):
        raise AssertionError("summed or folded before every query was checked")

    monkeypatch.setattr(thetanum, "_theta_vector_unchecked", no_work)
    monkeypatch.setattr(thetanum, "weil_rep", no_work)
    words = suite_words(1)[2][:5]
    low = mp_from_word([("S", 1), ("T", 30), ("S", 1)])  # Im(gamma 2i) < 0.1
    cases = [
        (BadIndex, 7, words, [2j], 1e-9),
        (BadIndex, 1024, words, [2j], 1e-9),
        (ValueError, 6, words, [2j], float("nan")),
        (ValueError, 6, words, [2j], 0.0),
        (TauTooLow, 6, words, [2j, 0.3 + 0.3j], 1e-9),
        (TauTooLow, 6, words + [low], [0.3 + 1.1j, 2j], 1e-9),
    ]
    for error, m, ps, taus, tol in cases:
        with pytest.raises(error):
            thetanum._verify_words(m, ps, taus, tol)
    assert thetanum._verify_words(6, [], [2j], 1e-9) == []
    assert thetanum._verify_words(6, words, [], 1e-9) == []
    assert thetanum.decisive_count() == 0


def test_jacobi_cocycle_is_the_inverse_square_of_the_theta_lattice_factor():
    """theta_{m,nu}(tau, z) = sum_{r = nu mod m} e^{2 pi i (tau r^2 / (2m) + r z)}
    has index m/2: theta(tau, z + l1 tau + l2) = f theta(tau, z) with
    f = e^{-2 pi i (m/2)(l1^2 tau + 2 l1 z)} (mpmath, 40 digits).  On the
    lattice (gamma = I), `jacobi_cocycle` is 1 / f^2, the factor of index m
    in the reciprocal convention."""
    import mpmath

    m, tau, z = 6, 0.3 + 1.1j, 0.17 - 0.05j
    with mpmath.workdps(40):
        t, w = mpmath.mpc(tau.real, tau.imag), mpmath.mpc(z.real, z.imag)

        def theta(nu, zz):
            return mpmath.fsum(
                mpmath.exp(2j * mpmath.pi * (t * r * r / (2 * m) + r * zz))
                for r in range(nu - 40 * m, nu + 40 * m + 1, m)
            )

        for l1, l2 in ((1, 0), (1, 1), (2, -1), (-1, 3)):
            f = mpmath.exp(-2j * mpmath.pi * mpmath.mpf(m) / 2 * (l1 * l1 * t + 2 * l1 * w))
            for nu in range(m):
                lhs = theta(nu, w + l1 * t + l2)
                assert abs(lhs - f * theta(nu, w)) < mpmath.mpf(10) ** -30 * abs(lhs)
            got = complex(jacobi_cocycle(SL2_I, l1, l2, m, tau, z))
            assert abs(got * complex(f * f) - 1) < 1e-13, (l1, l2)
