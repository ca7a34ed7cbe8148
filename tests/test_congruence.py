import math
import re
from fractions import Fraction

import numpy as np
import pytest

from thetalab.congruence import (
    MODULUS_BOUND,
    Gamma,
    Gamma0,
    GammaM2M,
    Group,
    NotMember,
    NotUnimodular,
    SL2Matrix,
    SL2_I,
    SL2_S,
    SL2_T,
    THETA12,
    des_hom,
    descended_theta_char,
    member,
    relative_index,
    sl2_with_entry_bound,
    subgroup_index,
    theta_action_factor,
    splitting_action_factor,
    v_hom,
)
from thetalab.cyclo import ONE, MINUS_ONE, RootOfUnity


def test_determinant_enforced():
    with pytest.raises(NotUnimodular):
        SL2Matrix(1, 0, 0, 2)


@pytest.mark.parametrize(
    "entries, bad",
    (((0.5, 0, 0, 2), "a=0.5"), ((1, Fraction(0), 0, 1), "b=Fraction(0, 1)"), ((1, 0, 0, "1"), "d='1'")),
)
def test_entries_must_be_integers(entries, bad):
    """(0.5 0; 0 2) has determinant 1.0 but is not in SL2(Z): the constructor
    names the entry, where the matrix used to pass into `member` and make
    `mp_lift_word` fail its own factorization check."""
    with pytest.raises(NotUnimodular, match=re.escape(f"entry {bad} is not an integer")):
        SL2Matrix(*entries)


def test_integer_entries_are_stored_as_python_ints():
    g = SL2Matrix(np.int64(2), True, np.int8(1), 1)
    assert g == SL2Matrix(2, 1, 1, 1) and {type(x) for x in g.entries()} == {int}
    assert repr(g) == "SL2Matrix(2, 1, 1, 1)"


def test_membership_examples():
    for group in (Gamma(3), Gamma0(5), GammaM2M(2), THETA12):
        assert member(SL2_I, group)
    assert member(SL2Matrix(1, 2, 4, 9), Gamma0(4))
    assert member(SL2_S, THETA12)
    assert not member(SL2_S, GammaM2M(2))
    assert member(SL2Matrix(1, 4, 0, 1), GammaM2M(2))


def test_non_positive_levels_are_rejected():
    for n in (0, -1, -4):
        with pytest.raises(ValueError, match="positive"):
            Gamma(n)
        with pytest.raises(ValueError, match="positive"):
            Gamma0(n)
    for m in (0, -2, -3, 3):
        with pytest.raises(ValueError, match="even positive"):
            GammaM2M(m)
    for modulus_call in (
        lambda: subgroup_index(Gamma0(4), 0),
        lambda: subgroup_index(Gamma0(4), -8),
        lambda: relative_index(GammaM2M(2), Gamma0(4), -4),
    ):
        with pytest.raises(ValueError, match="positive"):
            modulus_call()


def test_membership_subgroup_property_sampled():
    rng = np.random.default_rng(7)
    pool = list(sl2_with_entry_bound(100))
    for group in (Gamma(2), Gamma0(4), GammaM2M(2), THETA12):
        members = [g for g in pool if member(g, group)]
        idx = rng.integers(0, len(members), size=(10_000, 2))
        for i, j in idx:
            assert member(members[i] * members[j], group)
        for i in rng.integers(0, len(members), size=500):
            assert member(members[i].inverse(), group)


def test_des_hom():
    assert des_hom(SL2_I, 2) == SL2_I
    img = des_hom(SL2Matrix(1, 1, 4, 5), 2)
    assert img == SL2Matrix(1, 2, 2, 5)
    assert member(img, THETA12)
    with pytest.raises(NotMember):
        des_hom(SL2_S, 2)


def test_des_hom_is_homomorphism_sampled():
    rng = np.random.default_rng(11)
    pool = [g for g in sl2_with_entry_bound(50) if member(g, Gamma0(4))]
    idx = rng.integers(0, len(pool), size=(1000, 2))
    for i, j in idx:
        g1, g2 = pool[i], pool[j]
        assert des_hom(g1 * g2, 2) == des_hom(g1, 2) * des_hom(g2, 2)


def test_des_image_in_theta_group_exhaustive():
    for m in (2, 4):
        for g in sl2_with_entry_bound(40):
            if member(g, Gamma0(2 * m)):
                assert member(des_hom(g, m), THETA12)


def test_v_hom():
    assert v_hom(SL2_I) == SL2_I
    assert v_hom(SL2Matrix(1, 0, 2, 1)) == SL2Matrix(1, 0, 1, 1)
    assert v_hom(SL2Matrix(1, 1, 2, 3)) == SL2Matrix(1, 2, 1, 3)
    with pytest.raises(NotMember):
        v_hom(SL2_S)


def test_theta_action_factor_examples():
    for u1 in range(2):
        for u2 in range(2):
            assert theta_action_factor(SL2_I, 2, u1, u2) == ONE
    g = SL2Matrix(1, 2, 0, 1)
    assert theta_action_factor(g, 2, 1, 0) == MINUS_ONE
    assert not member(g, GammaM2M(2))
    g2 = SL2Matrix(1, 4, 0, 1)
    assert all(
        theta_action_factor(g2, 2, u1, u2).is_one() for u1 in range(2) for u2 in range(2)
    )
    assert member(g2, GammaM2M(2))
    with pytest.raises(NotMember):
        theta_action_factor(SL2_S, 2, 0, 0)


def test_splitting_action_factor_examples():
    g = SL2Matrix(1, 0, 4, 1)
    assert all(splitting_action_factor(g, 2, u).is_one() for u in range(2))
    g2 = SL2Matrix(1, 0, 2, 1)
    assert splitting_action_factor(g2, 2, 1) == MINUS_ONE
    assert not member(g2, Gamma0(4))


def fraction_theta_factor(g, m, u1, u2):
    """The action factor as a `Fraction` exponent, membership through `member`."""
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    if not member(g, Gamma(m)):
        raise NotMember(f"{g} is not in Gamma({m})")
    a, b, c, d = g.entries()
    e = a * b * u1 * u1 + (a * d + b * c - 1) * u1 * u2 + c * d * u2 * u2
    return RootOfUnity(Fraction(-e, 2 * m))


def fraction_splitting_factor(g, m, u):
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    if not member(g, Gamma0(m)):
        raise NotMember(f"{g} is not in Gamma0({m})")
    return RootOfUnity(Fraction(-g.c * g.d * u * u, 2 * m))


def outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("m", (2, 4, 6, 8, 3, 0, -2))
def test_action_factors_match_the_fraction_formula(m):
    """Equal values, and `NotMember`/`ValueError` at the same arguments, on
    every matrix of entry bound 12 and every u (for an invalid m, the u of m = 2)."""
    us = range(abs(m) if m > 0 else 2)
    members = {"theta": 0, "splitting": 0}
    for g in sl2_with_entry_bound(12):
        for u1 in us:
            want = outcome(splitting_action_factor, g, m, u1)
            assert want == outcome(fraction_splitting_factor, g, m, u1), (g, u1)
            members["splitting"] += isinstance(want, RootOfUnity)
            for u2 in us:
                want = outcome(theta_action_factor, g, m, u1, u2)
                assert want == outcome(fraction_theta_factor, g, m, u1, u2), (g, u1, u2)
                members["theta"] += isinstance(want, RootOfUnity)
    # both branches are exercised at every valid level
    assert (min(members.values()) > 0) == (m in (2, 4, 6, 8))


@pytest.mark.parametrize("m", (2, 4))
def test_stabilizer_equivalences_exhaustive(m):
    """Triviality of both action factors is exactly the congruence membership."""
    for g in sl2_with_entry_bound(40):
        if member(g, Gamma(m)):
            trivial = all(
                theta_action_factor(g, m, u1, u2).is_one()
                for u1 in range(m)
                for u2 in range(m)
            )
            assert trivial == member(g, GammaM2M(m)), g
        if member(g, Gamma0(m)):
            trivial = all(splitting_action_factor(g, m, u).is_one() for u in range(m))
            assert trivial == member(g, Gamma0(2 * m)), g


def test_descended_theta_char():
    from thetalab.symplectic4 import quad_form_value

    assert descended_theta_char(2, 0, 0) == ONE
    assert descended_theta_char(2, 1, 1) == MINUS_ONE
    for m in (2, 4, 6, 8):
        for u1 in range(2):
            for u2 in range(2):
                got = descended_theta_char(m, u1, u2)
                assert got.exponent == Fraction(quad_form_value([u1, u2], "even"), 2)


def test_subgroup_indices():
    assert subgroup_index(Gamma(1)) == 1
    assert subgroup_index(Gamma0(4)) == 6
    assert subgroup_index(Gamma0(4), 8) == 6
    assert subgroup_index(THETA12) == 3
    assert subgroup_index(Gamma(2)) == 6
    # index is multiplicative along Gamma(2,4) < Gamma0(4) < SL2(Z)
    total = subgroup_index(GammaM2M(2))
    rel = relative_index(GammaM2M(2), Gamma0(4), 4)
    assert total == subgroup_index(Gamma0(4)) * rel
    assert total == subgroup_index(GammaM2M(2), 8)
    assert rel == relative_index(GammaM2M(2), Gamma0(4), 8)
    # groups that are not nested are an input error, not an internal failure
    with pytest.raises(ValueError, match="not contained"):
        relative_index(Gamma0(4), GammaM2M(2), 4)


def test_sl2_enumeration_is_bounded():
    """Moduli above MODULUS_BOUND are refused before any enumeration."""
    for call in (
        lambda: subgroup_index(Gamma0(1000)),
        lambda: subgroup_index(Gamma0(4), 1000),
        lambda: relative_index(GammaM2M(2), Gamma0(4), 1000),
    ):
        with pytest.raises(ValueError, match="enumeration bound"):
            call()
    assert subgroup_index(Gamma0(2), MODULUS_BOUND) == 3


def test_entry_bound_enumeration_is_complete_and_valid():
    seen = set()
    for g in sl2_with_entry_bound(3):
        assert max(abs(e) for e in g.entries()) <= 3
        seen.add(g.entries())
    assert len(seen) == len(set(seen))
    # brute-force oracle
    brute = set()
    rng = range(-3, 4)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        brute.add((a, b, c, d))
    assert seen == brute


def entry_bound_rows_oracle(bound: int) -> list[tuple[int, int, int, int]]:
    """The entries (a, b, c, d) of every SL2(Z) matrix with all |entries| <= bound.

    For each coprime bottom row (c, d) the solutions of a*d - b*c = 1 form
    the line (a0 + t*c, b0 + t*d); the admissible interval of t is cut out
    by the entry bound with integer floor division, and t runs through it in
    ascending order.
    """
    rows = []
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(c, d) != 1:
                continue
            g, x, y = xgcd_oracle(d, -c)
            a0, b0 = x * g, y * g  # g = +-1, so (a0, b0) solves a*d - b*c = 1
            # recenter the line (a0 + t c, b0 + t d) so the base point is small
            if c != 0:
                shift = -round(a0 / c)
            else:
                shift = -round(b0 / d)
            a0, b0 = a0 + shift * c, b0 + shift * d
            # after recentering |t| <= bound + 1 covers every admissible entry;
            # each entry x0 + t*step with step != 0 then bounds t on both sides
            lo, hi = -(bound + 1), bound + 1
            for x0, step in ((a0, c), (b0, d)):
                if step < 0:
                    x0, step = -x0, -step
                if step:
                    lo = max(lo, -((bound + x0) // step))
                    hi = min(hi, (bound - x0) // step)
                elif abs(x0) > bound:
                    hi = lo - 1
            rows.extend((a0 + t * c, b0 + t * d, c, d) for t in range(lo, hi + 1))
    return rows


def xgcd_oracle(x: int, y: int) -> tuple[int, int, int]:
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def entry_bound_scan_oracle(bound):
    """The t-scan the enumeration used before its t-interval was computed:
    every t with |t| <= bound + 1 on each recentered line, kept if in bound."""
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(c, d) != 1:
                continue
            g, x, y = xgcd_oracle(d, -c)
            a0, b0 = x * g, y * g
            shift = -round(a0 / c) if c != 0 else -round(b0 / d)
            a0, b0 = a0 + shift * c, b0 + shift * d
            for t in range(-bound - 1, bound + 2):
                a, b = a0 + t * c, b0 + t * d
                if abs(a) <= bound and abs(b) <= bound:
                    yield (a, b, c, d)


@pytest.mark.parametrize("bound", range(31))
def test_entry_bound_interval_matches_the_scan(bound):
    got = [g.entries() for g in sl2_with_entry_bound(bound)]
    assert got == list(entry_bound_scan_oracle(bound))


def test_entry_bound_array_matches_the_row_oracle():
    """The (N, 4) int64 pool is the per-line Python enumeration, row for row, in order."""
    from thetalab.congruence import _entry_bound_rows

    for bound in range(61):
        pool = _entry_bound_rows(bound)
        assert pool.dtype == np.int64 and pool.shape == (pool.shape[0], 4)
        assert pool.tolist() == [list(row) for row in entry_bound_rows_oracle(bound)], bound


@pytest.mark.parametrize("bound", (0, 1, 5, 12))
def test_entry_bound_matrices_wrap_the_rows(bound):
    """The matrices are the integer rows, one `SL2Matrix` of Python ints each, in row order."""
    from thetalab.congruence import _entry_bound_rows

    rows = _entry_bound_rows(bound).tolist()
    matrices = list(sl2_with_entry_bound(bound))
    assert matrices == [SL2Matrix(*row) for row in rows]
    assert all(type(x) is int for g in matrices for x in g.entries())


def test_pool_masks_match_scalar_membership():
    """`_contains` on the pool's columns is, row by row, its answer on the row's ints."""
    from thetalab.congruence import _contains, _entry_bound_rows

    pool = _entry_bound_rows(9)
    groups = (THETA12, Gamma(1), Gamma(2), Gamma(3), Gamma0(4), Gamma0(5), GammaM2M(2))
    for group in (*groups, GammaM2M(4)):
        mask = _contains(group, *pool.T)
        assert mask.dtype == bool
        answers = [_contains(group, *row) for row in pool.tolist()]
        assert all(type(x) is bool for x in answers)
        assert mask.tolist() == answers
        assert 0 < sum(answers) <= len(pool)


def test_groups_are_shared_per_level():
    """One descriptor per level, equal to a freshly built one."""
    assert Gamma(4) is Gamma(4) and Gamma(4) == Group("gamma", 4)
    assert Gamma0(8) is Gamma0(8) and Gamma0(8) == Group("gamma0", 8)
    assert GammaM2M(2) is GammaM2M(2) and GammaM2M(2) == Group("gamma_m_2m", 2)
    assert Gamma(4) != Gamma0(4)
