import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cyclo import MINUS_ONE, ONE, RootOfUnity, ZETA4
from thetalab.symplectic4 import (
    BadShape,
    NonUnique,
    NotMember,
    NotOrthogonal,
    character_solution_count,
    dickson,
    discriminant,
    gamma2_basis,
    gamma2_character_exponent,
    gamma2_elements,
    group_data,
    is_symplectic_mod4,
    orthogonal_group,
    preserves_quad_form,
    quad_form_value,
    reduce_mod2_and_membership,
    _f2_rank,
    _f2_solve,
    _solve_mod4,
    symplectic_form_matrix,
    transvection,
)

S_MOD4 = [[0, 3], [1, 0]]


def test_quad_form_values():
    assert quad_form_value([0, 0], "even") == 0
    assert quad_form_value([1, 1], "even") == 1
    # odd parity: the three nonzero vectors of the first plane are anisotropic
    assert [quad_form_value(v, "odd") for v in ([1, 0], [0, 1], [1, 1])] == [1, 1, 1]
    # polarization of either parity is the mod-2 pairing
    j = symplectic_form_matrix(2) % 2
    for parity in ("even", "odd"):
        for _ in range(50):
            rng = np.random.default_rng(_)
            v, w = rng.integers(0, 2, size=(2, 4))
            polarized = (
                quad_form_value((v + w) % 2, parity)
                + quad_form_value(v, parity)
                + quad_form_value(w, parity)
            ) % 2
            assert polarized == int(v @ j @ w) % 2


def test_membership_examples():
    report = reduce_mod2_and_membership(np.eye(2, dtype=int), "even")
    assert report.in_sp4 and report.in_gamma_pm and report.in_gamma2
    report = reduce_mod2_and_membership([[0, 1], [3, 2]], "even")
    assert report.in_sp4 and report.in_gamma_pm and not report.in_gamma2
    report = reduce_mod2_and_membership([[1, 1], [0, 1]], "even")
    assert report.in_sp4 and not report.in_gamma_pm
    with pytest.raises(BadShape):
        reduce_mod2_and_membership([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "even")


def test_dickson():
    assert dickson(np.eye(2, dtype=int), "even") == ONE
    assert dickson([[0, 1], [1, 0]], "even") == MINUS_ONE
    with pytest.raises(NotOrthogonal):
        dickson([[1, 1], [0, 1]], "even")  # shear does not preserve xy
    # multiplicative on all of O(2,+) (order 2) and O(2,-) (order 6)
    for parity, order in (("even", 2), ("odd", 6)):
        group = [np.array(m) for m in orthogonal_group(1, parity)]
        assert len(group) == order
        for a in group:
            for b in group:
                assert dickson((a @ b) % 2, parity) == dickson(a, parity) * dickson(
                    b, parity
                )


def test_orthogonal_group_orders():
    assert len(orthogonal_group(1, "even")) == 2
    assert len(orthogonal_group(1, "odd")) == 6
    assert len(orthogonal_group(2, "even")) == 72
    assert len(orthogonal_group(2, "odd")) == 120


def test_transvection():
    g = 1
    assert np.array_equal(transvection([0, 0]).np, np.eye(2, dtype=int))
    t = transvection([1, 1])
    assert t.matrix == ((0, 1), (3, 2))
    # z -> z + B(v, z) v, columns are images of the basis
    v = np.array([1, 1])
    j = symplectic_form_matrix(g)
    for k, e in enumerate(np.eye(2, dtype=int)):
        expected = (e + int(v @ j @ e) * v) % 4
        assert np.array_equal(t.np[:, k], expected)
    # v = (2, 0) lands in the congruence kernel
    t2 = transvection([2, 0])
    assert reduce_mod2_and_membership(t2.np, "even").in_gamma2
    # anisotropy criterion: t_v preserves the form iff v is anisotropic mod 2
    for v in ((1, 1), (1, 3), (1, 0), (0, 1), (2, 1)):
        rep = reduce_mod2_and_membership(transvection(v).np, "even")
        assert rep.in_gamma_pm == (quad_form_value(np.array(v) % 2, "even") == 1)


def test_gamma2_structure():
    for g in (1, 2):
        basis = gamma2_basis(g)
        assert len(basis) == g * (2 * g + 1)
        elements = gamma2_elements(g)
        assert len(elements) == 2 ** (g * (2 * g + 1))
        for u in basis:
            assert is_symplectic_mod4(u)
            assert np.array_equal(u % 2, np.eye(2 * g, dtype=int) % 2)


def test_group_orders_match_extension():
    for g, parity in ((1, "even"), (1, "odd"), (2, "even"), (2, "odd")):
        data = group_data(g, parity)
        expected = (2 ** (g * (2 * g + 1))) * len(orthogonal_group(g, parity))
        assert data.order == expected


def test_character_solution_counts():
    for parity in ("even", "odd"):
        assert character_solution_count(1, parity) == 1
        assert character_solution_count(2, parity) == 1


def test_discriminant_examples():
    assert discriminant(np.eye(2, dtype=int), "even") == ONE
    assert discriminant(S_MOD4, "even") == ZETA4
    with pytest.raises(NotMember):
        discriminant([[1, 1], [0, 1]], "even")


def test_discriminant_multiplicative_exhaustive_g1():
    for parity in ("even", "odd"):
        data = group_data(1, parity)
        mats = data.matrices.astype(np.int64)
        for i in range(data.order):
            for j in range(data.order):
                prod = (mats[i] @ mats[j]) % 4
                assert (int(data.lam[i]) + int(data.lam[j])) % 4 == int(
                    data.lam[data.index_of(prod)]
                )


def test_discriminant_multiplicative_sampled_g2():
    rng = np.random.default_rng(42)
    for parity in ("even", "odd"):
        data = group_data(2, parity)
        mats = data.matrices.astype(np.int64)
        idx = rng.integers(0, data.order, size=(10_000, 2))
        for i, j in idx:
            prod = (mats[i] @ mats[j]) % 4
            assert (int(data.lam[i]) + int(data.lam[j])) % 4 == int(
                data.lam[data.index_of(prod)]
            )


def test_discriminant_square_is_dickson():
    for g, parity, samples in (
        (1, "even", None),
        (1, "odd", None),
        (2, "even", 400),
        (2, "odd", 400),
    ):
        data = group_data(g, parity)
        rng = np.random.default_rng(5)
        indices = (
            range(data.order)
            if samples is None
            else rng.integers(0, data.order, size=samples)
        )
        for i in indices:
            mat = data.matrices[int(i)].astype(np.int64)
            dk = dickson(mat % 2, parity)
            assert RootOfUnity(2 * ZETA4.exponent * int(data.lam[int(i)])) == dk


def test_discriminant_on_kernel_in_mu2():
    for g, parity in ((1, "even"), (1, "odd"), (2, "even")):
        data = group_data(g, parity)
        for u in gamma2_elements(g):
            assert int(data.lam[data.index_of(u)]) % 2 == 0


def test_kernel_values_match_quadratic_linearization():
    for g, parity in ((1, "even"), (1, "odd"), (2, "even"), (2, "odd")):
        data = group_data(g, parity)
        for u in gamma2_basis(g):
            expected = 2 * gamma2_character_exponent(u, parity)
            assert int(data.lam[data.index_of(u)]) == expected % 4


def test_transvection_squares():
    """lambda(t_v^2) = -1 = parity form of v, tying the two normalizations."""
    for parity in ("even", "odd"):
        for v in ((1, 1), (1, 3)) if parity == "even" else ((1, 0), (0, 1), (1, 1)):
            if quad_form_value(np.array(v) % 2, parity) != 1:
                continue
            t = transvection(v).np
            sq = (t @ t) % 4
            assert discriminant(sq, parity) == MINUS_ONE


def test_solver_reports_nonuniqueness():
    # an underdetermined system: one unknown, no constraints
    sols = _solve_mod4(np.zeros((1, 1), dtype=int), np.zeros(1, dtype=int))
    assert len(sols) == 4
    with pytest.raises(NonUnique):
        _solve_mod4(np.zeros((1, 30), dtype=int), np.zeros(1, dtype=int), cap=8)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_f2_elimination_against_brute_force(entries):
    """Rank, solutions and nullspace of the shared F_2 elimination, by enumeration."""
    a = np.array(entries, dtype=np.int64)
    rows, cols = a.shape
    a2 = a % 2
    span = {
        tuple(np.array(bits) @ a2 % 2)
        for bits in itertools.product((0, 1), repeat=rows)
    }
    rank = _f2_rank(a)
    assert 2**rank == len(span)

    xs = [np.array(x) for x in itertools.product((0, 1), repeat=cols)]
    for b in itertools.product((0, 1), repeat=rows):
        b = np.array(b)
        brute = {tuple(x) for x in xs if np.array_equal(a2 @ x % 2, b)}
        sol = _f2_solve(a, b)
        if not brute:
            assert sol is None
            continue
        particular, null = sol
        assert len(null) == cols - rank
        found = set()
        for bits in itertools.product((0, 1), repeat=len(null)):
            x = particular.astype(np.int64)
            for bit, v in zip(bits, null):
                x = (x + bit * v) % 2
            assert np.array_equal(a2 @ x % 2, b)
            found.add(tuple(x))
        assert found == brute


def test_g2_even_needed_extended_generators():
    """The orthogonal group at g=2 even is not generated by transvections."""
    assert group_data(2, "even").extended_generators
    assert not group_data(2, "odd").extended_generators
    assert not group_data(1, "even").extended_generators
