import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetalab
from thetalab import _kernels, symplectic4
from thetalab.cyclo import MINUS_ONE, ONE, RootOfUnity, ZETA4
from thetalab.symplectic4 import (
    BadShape,
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
    _PLANE_SWAP,
    _all_anisotropic_transvections,
    _anisotropic_transvection_gens,
    _extend,
    _f2_rank,
    _generators,
    _lookup,
    _quotient_closure,
    _unpack,
    symplectic_form_matrix,
    transvection,
)

from closure_oracle import _bfs_closure, _row_tables

S_MOD4 = [[0, 3], [1, 0]]


def _key(mat) -> int:
    return int(_kernels.pack_mod4(np.asarray(mat, dtype=np.uint8)[None, :, :])[0])


def _assert_key_order(mats, keys):
    """Element i is keys[i] and matrices[i]: the keys strictly increase, pack
    the matrices, and look up to their own positions."""
    assert np.all(keys[1:] > keys[:-1])
    assert np.array_equal(_kernels.pack_mod4(mats), keys)
    assert np.array_equal(_lookup(keys, _kernels.pack_mod4(mats)), np.arange(len(mats)))


def _closure(gens, values=(), modulus=4):
    """`_bfs_closure` run once per candidate row of `values` (none by default),
    with the runs' `lam` and `alive` stacked as rows; the closure is checked
    to store its elements in key order."""
    values = np.array(values, dtype=np.int8).reshape(-1, len(gens))
    mats, keys, _, _ = _bfs_closure(gens, np.zeros(len(gens), np.int8), modulus)
    _assert_key_order(mats, keys)
    runs = [_bfs_closure(gens, x, modulus)[2:] for x in values]
    lam = np.array([r[0] for r in runs], dtype=np.int8).reshape(len(values), len(mats))
    alive = np.array([r[1] for r in runs], dtype=bool)
    return mats, keys, lam, alive


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


def orthogonal_group_oracle(g, parity):
    """O(2g, +-) by brute force over all binary matrices, in lexicographic order."""
    n = 2 * g
    cand = np.array(list(itertools.product((0, 1), repeat=n * n))).reshape(-1, n, n)
    vs = np.array(list(itertools.product((0, 1), repeat=n)))
    qv = np.array([quad_form_value(v, parity) for v in vs])
    images = np.einsum("nij,vj->nvi", cand, vs) % 2
    qi = np.sum(images[:, :, :g] * images[:, :, g:], axis=2)
    if parity == "odd":
        qi = qi + images[:, :, 0] + images[:, :, g]
    preserves = np.all(qi % 2 == qv[None, :], axis=1)
    invertible = np.rint(np.linalg.det(cand.astype(np.float64))).astype(np.int64) % 2 != 0
    return tuple(tuple(map(tuple, m.tolist())) for m in cand[preserves & invertible])


def test_orthogonal_group_orders():
    assert len(orthogonal_group(1, "even")) == 2
    assert len(orthogonal_group(1, "odd")) == 6
    assert len(orthogonal_group(2, "even")) == 72
    assert len(orthogonal_group(2, "odd")) == 120


@pytest.mark.parametrize("g, parity", ((1, "even"), (1, "odd"), (2, "even"), (2, "odd")))
def test_orthogonal_group_matches_brute_force(g, parity):
    assert orthogonal_group(g, parity) == orthogonal_group_oracle(g, parity)


def _f2_transvection_closure(g, parity):
    """Packed keys of the subgroup of O(2g, +-) generated by its transvections."""
    gens = [t % 2 for t in _anisotropic_transvection_gens(g, parity)]
    return set(_closure(gens, modulus=2)[1].tolist())


def test_transvection_closure_orders():
    """Transvections generate O(4, -) but only an index-2 subgroup of O(4, +)."""
    assert len(_f2_transvection_closure(2, "even")) == 36
    assert len(_f2_transvection_closure(2, "odd")) == 120
    assert len(_f2_transvection_closure(1, "even")) == 2
    assert len(_f2_transvection_closure(1, "odd")) == 6
    assert _PLANE_SWAP in orthogonal_group(2, "even")
    assert _key(_PLANE_SWAP) not in _f2_transvection_closure(2, "even")


def test_plane_swap_is_symplectic_mod4():
    """The plane swap, the generator that completes the transvections at
    (2, even), lies in the mod-4 group as well as in O(4, +)."""
    assert is_symplectic_mod4(_PLANE_SWAP)
    assert reduce_mod2_and_membership(_PLANE_SWAP, "even").in_gamma_pm


def test_unpinned_generator_is_an_internal_error(monkeypatch):
    """A generator on which no constraint prescribes a value leaves the
    candidate character undetermined: `group_data` refuses to guess."""
    t = transvection([1, 1])
    square = (t @ t) % 4  # symplectic, but neither a kernel basis element nor a transvection
    generators = symplectic4._generators
    monkeypatch.setattr(
        symplectic4, "_generators", lambda g, parity: [*generators(g, parity), square]
    )
    with pytest.raises(ArithmeticError, match="no prescribed value"):
        group_data.__wrapped__(1, "even")


def test_transvection():
    g = 1
    assert np.array_equal(transvection([0, 0]), np.eye(2, dtype=int))
    t = transvection([1, 1])
    assert t.tolist() == [[0, 1], [3, 2]]
    # z -> z + B(v, z) v, columns are images of the basis
    v = np.array([1, 1])
    j = symplectic_form_matrix(g)
    for k, e in enumerate(np.eye(2, dtype=int)):
        expected = (e + int(v @ j @ e) * v) % 4
        assert np.array_equal(t[:, k], expected)
    # v = (2, 0) lands in the congruence kernel
    t2 = transvection([2, 0])
    assert reduce_mod2_and_membership(t2, "even").in_gamma2
    # anisotropy criterion: t_v preserves the form iff v is anisotropic mod 2
    for v in ((1, 1), (1, 3), (1, 0), (0, 1), (2, 1)):
        rep = reduce_mod2_and_membership(transvection(v), "even")
        assert rep.in_gamma_pm == (quad_form_value(np.array(v) % 2, "even") == 1)


def _transvection_loop(v):
    """z -> z + B(v, z) v over Z/4 for one vector, images as columns."""
    j = symplectic_form_matrix(len(v) // 2)
    return (np.eye(len(v), dtype=np.int64) + np.outer(v, v) @ j) % 4


def _anisotropic_loop(v, parity):
    g = len(v) // 2
    q = sum(v[i] * v[g + i] for i in range(g)) + (v[0] + v[g] if parity == "odd" else 0)
    return q % 2 == 1


@pytest.mark.parametrize("g, parity", ((1, "even"), (1, "odd"), (2, "even"), (2, "odd")))
def test_anisotropic_transvections_match_the_vector_loop(g, parity):
    """The array builders give the matrices of one `transvection` per vector:
    the generators once per anisotropic class mod 2, in product order, and
    all lifts once per packed key, in key order."""
    gens = [
        _transvection_loop(v)
        for v in itertools.product((0, 1), repeat=2 * g)
        if _anisotropic_loop(v, parity)
    ]
    got = _anisotropic_transvection_gens(g, parity)
    assert len(got) == len(gens) and all(np.array_equal(a, b) for a, b in zip(got, gens))
    assert all(a.dtype == np.int64 for a in got)
    lifts = {}
    for v in itertools.product(range(4), repeat=2 * g):
        t = _transvection_loop(np.array(v))
        assert np.array_equal(transvection(v), t)
        assert quad_form_value(v, parity) == int(_anisotropic_loop(v, parity))
        if _anisotropic_loop(v, parity):
            lifts[_key(t)] = t
    want = np.array([lifts[k] for k in sorted(lifts)], dtype=np.uint8)
    got = _all_anisotropic_transvections(g, parity)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


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


@pytest.mark.parametrize("g, parity", [(1, "even"), (1, "odd"), (2, "even"), (2, "odd")])
def test_cached_group_data_cannot_be_written(g, parity):
    """`group_data` hands every caller the one cached instance: its fields
    and arrays refuse writes, so no caller can change later lookups."""
    data = group_data(g, parity)
    for name in ("matrices", "keys", "lam"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, name)[...] = 0
        with pytest.raises(AttributeError):
            setattr(data, name, np.zeros(1))
    assert discriminant([[0, 3], [1, 0]], "even") == ZETA4
    assert group_data(g, parity) is data


def test_bad_shapes_are_rejected():
    """Vectors must be 1-D of even, non-zero length and matrices 2g x 2g."""
    for bad in ([1, 0, 1], [], [[1, 0], [0, 1]]):
        with pytest.raises(BadShape):
            quad_form_value(bad, "even")
        with pytest.raises(BadShape):
            transvection(bad)
    for bad in (np.eye(3, dtype=int), np.eye(2, 4, dtype=int), np.zeros((0, 0), dtype=int)):
        with pytest.raises(BadShape):
            preserves_quad_form(bad, "even")
        with pytest.raises(BadShape):
            dickson(bad, "even")


def test_non_integer_entries_are_rejected():
    """Entries are not truncated to integers; integer values of any dtype pass."""
    for bad in ([[0.9, 3], [1, 0]], [[0, 3], [1, np.nan]], [[0, 3.5], [1, 0]]):
        with pytest.raises(ValueError, match="integers"):
            discriminant(bad, "even")
        with pytest.raises(ValueError, match="integers"):
            is_symplectic_mod4(bad)
    for bad_call in (
        lambda: quad_form_value([0.9, 1.0], "even"),
        lambda: preserves_quad_form([[1.5, 0], [0, 1]], "even"),
        lambda: dickson([[0.5, 1], [1, 0.2]], "even"),
        lambda: transvection([0.5, 1]),
    ):
        with pytest.raises(ValueError, match="integers"):
            bad_call()
    for dtype in (np.float64, np.int8, np.uint8, object):
        assert discriminant(np.array(S_MOD4, dtype=dtype), "even") == ZETA4
        assert is_symplectic_mod4(np.array(S_MOD4, dtype=dtype))
        assert quad_form_value(np.array([1, 1], dtype=dtype), "even") == 1
        assert preserves_quad_form(np.array([[0, 1], [1, 0]], dtype=dtype), "even")
        assert dickson(np.array([[0, 1], [1, 0]], dtype=dtype), "even") == MINUS_ONE
        assert transvection(np.array([1, 0], dtype=dtype)).tolist() == [[1, 1], [0, 1]]


def _lookup_member(data, m) -> bool:
    try:
        data.index_of(m)
    except NotMember:
        return False
    return True


def test_group_lookup_decides_membership():
    """The lookup in the enumerated group accepts exactly the matrices that
    preserve the symplectic form mod 4 and the quadratic form mod 2:
    exhaustively at g = 1, on sampled matrices at g = 2 (half of them group
    elements with one entry perturbed)."""
    for parity in ("even", "odd"):
        data = group_data(1, parity)
        for entries in itertools.product(range(4), repeat=4):
            m = np.array(entries, dtype=np.int64).reshape(2, 2)
            report = reduce_mod2_and_membership(m, parity)
            assert _lookup_member(data, m) == report.in_gamma_pm, (parity, entries)
    rng = np.random.default_rng(8)
    for parity in ("even", "odd"):
        data = group_data(2, parity)
        for i in range(1000):
            if i % 2:
                m = rng.integers(0, 4, size=(4, 4))
            else:
                m = data.matrices[int(rng.integers(0, data.order))].astype(np.int64)
                m[tuple(rng.integers(0, 4, size=2))] += int(rng.integers(0, 4))
            report = reduce_mod2_and_membership(m, parity)
            assert _lookup_member(data, m) == report.in_gamma_pm, (parity, m.tolist())
    # a 6 x 6 matrix whose packed key wraps to an element's 64-bit key
    m = np.zeros((6, 6), dtype=np.int64)
    m.flat[:16] = data.matrices[5].ravel()
    assert not _lookup_member(data, m)


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
            t = transvection(v)
            sq = (t @ t) % 4
            assert discriminant(sq, parity) == MINUS_ONE


def test_character_check_toy_cases():
    """Exact character counts on the cyclic group of a transvection.

    t_v^k = I + k v v^T J, so t has order 4.
    """
    t = transvection([1, 1])
    powers = [np.linalg.matrix_power(t, k) % 4 for k in range(4)]
    every_value = [[x] for x in range(4)]

    def position(keys, mat):
        return int(_lookup(keys, np.array([_key(mat)], dtype=np.uint64))[0])

    assert _closure([t], every_value)[3].tolist() == [True] * 4
    _, keys, lam, alive = _closure([t], [[1]])
    assert alive.tolist() == [True]
    assert [int(lam[0, position(keys, p)]) for p in powers] == [0, 1, 2, 3]
    # t^2 -> 1 is a prescribed value that no character meets
    _, keys, lam, alive = _closure([t], every_value)
    assert not np.any(alive & (lam[:, position(keys, powers[2])] == 1))
    # both generators are pinned to 1, which the prescribed values allow;
    # only the product t * t^3 = I, which carries 2 to I, rules the choice out
    assert _closure([t, powers[3]], [[1, 1]])[3].tolist() == [False]


def test_character_check_death_conditions():
    """The two ways a candidate dies, each the only violation in its case.

    With t listed twice and the values 0 and 1, every element is reached on
    its level by two products carrying different values, while the smaller
    value, 0 all round, agrees with every known key: only one key carrying
    two values rules it out.  With t and t^3 both at 1, each level's
    products agree on their new keys (t^2 carries 2 twice), and only the
    known key I, carried 2, disagrees with lam(I) = 0.
    """
    t = transvection([1, 1])
    t3 = np.linalg.matrix_power(t, 3) % 4
    assert _closure([t, t], [[0, 1], [1, 1]])[3].tolist() == [False, True]
    assert _closure([t, t3], [[1, 1], [1, 3]])[3].tolist() == [False, True]


def _character_oracle(gens, values):
    """Per candidate, its exponents {element tuple: lam} if lam(h s) = lam(h) +
    x(s) holds on every product, else None; the group is enumerated as
    tuples by a plain loop."""
    gens = [np.array(s) % 4 for s in gens]
    identity = tuple(np.eye(len(gens[0]), dtype=np.int64).ravel())
    out = []
    for x in values:
        lam = {identity: 0}
        queue = [identity]
        ok = True
        while queue:
            h = queue.pop(0)
            hm = np.array(h).reshape(gens[0].shape)
            for s, xs in zip(gens, x):
                prod = tuple(((hm @ s) % 4).ravel())
                value = (lam[h] + int(xs)) % 4
                if prod not in lam:
                    lam[prod] = value
                    queue.append(prod)
                elif lam[prod] != value:
                    ok = False
        out.append(lam if ok else None)
    return out


symplectic_g1 = [
    m for m in itertools.product(range(4), repeat=4)
    if is_symplectic_mod4(np.array(m).reshape(2, 2))
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(symplectic_g1), min_size=1, max_size=3).flatmap(
        lambda gens: st.tuples(
            st.just(gens),
            st.lists(
                st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_closure_character_check_matches_loop_oracle(case):
    """At g = 1, `alive` is exactly the set of candidates that respect every
    product of the group the generators span."""
    gens, values = case
    gens = [np.array(m).reshape(2, 2) for m in gens]
    _, keys, lam, alive = _closure(gens, values)
    want = _character_oracle(gens, values)
    assert alive.tolist() == [w is not None for w in want]
    for row, w in zip(lam[alive], [w for w in want if w is not None]):
        elements = np.array(list(w), dtype=np.uint8).reshape(-1, 2, 2)
        positions = _lookup(keys, _kernels.pack_mod4(elements))
        assert row[positions].tolist() == list(w.values())


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
    """Rank of the F_2 elimination, against the size of the row span."""
    a = np.array(entries, dtype=np.int64)
    a2 = a % 2
    span = {
        tuple(np.array(bits) @ a2 % 2)
        for bits in itertools.product((0, 1), repeat=a.shape[0])
    }
    assert 2 ** _f2_rank(a) == len(span)


def test_g2_even_needed_extended_generators():
    """The orthogonal group at g=2 even is not generated by transvections."""
    assert group_data(2, "even").extended_generators
    assert not group_data(2, "odd").extended_generators
    assert not group_data(1, "even").extended_generators


@pytest.mark.parametrize("k, modulus", ((2, 4), (4, 4), (4, 2)))
def test_row_tables_match_matrix_products(k, modulus):
    """key(M @ G) as the OR of per-row table entries, against the dense kernels."""
    rng = np.random.default_rng(10 * k + modulus)
    mats = rng.integers(0, modulus, size=(200, k, k)).astype(np.uint8)
    gens = [rng.integers(0, modulus, size=(k, k)) for _ in range(7)]
    tables = _row_tables(gens, modulus)
    keys = _kernels.pack_mod4(mats)
    field = np.uint64(4**k - 1)
    got = tables[0][keys & field]
    for i, table in enumerate(tables[1:], start=1):
        got |= table[(keys >> np.uint64(2 * k * i)) & field]
    prods = _kernels.mod4_products(mats, np.array(gens, dtype=np.uint8)) % modulus
    assert np.array_equal(got.reshape(-1), _kernels.pack_mod4(prods))
    assert np.array_equal(_unpack(keys, k), mats)


def test_bfs_closure_index_and_products():
    """The sorted keys index the closure, and it is closed under the generators."""
    gens = [transvection(v) for v in ((1, 0, 1, 1), (0, 1, 2, 1), (1, 1, 0, 3))]
    mats, keys, lam, alive = _closure(gens)
    assert lam.shape == (0, len(mats)) and alive.shape == (0,)
    m = mats.astype(np.int64)
    prods = np.concatenate([(m @ (g % 4)) % 4 for g in gens])
    _lookup(keys, _kernels.pack_mod4(prods))  # NotMember on any miss
    outside = np.eye(4, dtype=np.int64)
    outside[0, 0] = 3  # determinant 3: not symplectic
    with pytest.raises(NotMember):
        _lookup(keys, _kernels.pack_mod4(outside[None, :, :]))


@pytest.mark.parametrize("g, parity", ((1, "even"), (1, "odd"), (2, "even"), (2, "odd")))
def test_group_data_is_stored_in_key_order(g, parity):
    """Element i of a group is keys[i], matrices[i] and lam[i], and the
    lookups return it: on every element at g = 1, and on 2 000 sampled
    elements at g = 2."""
    data = group_data(g, parity)
    _assert_key_order(data.matrices, data.keys)
    sample = range(data.order)
    if g == 2:
        sample = np.random.default_rng(19).choice(data.order, size=2000, replace=False)
    for i in sample:
        assert data.index_of(data.matrices[i]) == i
        assert data.lambda_of(data.matrices[i]) == RootOfUnity(Fraction(int(data.lam[i]), 4))


def _gamma2_elements_loop(g):
    """The kernel as products of basis subsets, in `itertools.product` order."""
    basis = gamma2_basis(g)
    eye = np.eye(2 * g, dtype=np.int64)
    out = []
    for bits in itertools.product((0, 1), repeat=len(basis)):
        m = eye.copy()
        for bit, b in zip(bits, basis):
            if bit:
                m = (m @ b) % 4
        out.append(m)
    return out


@pytest.mark.parametrize("g", (1, 2))
def test_gamma2_elements_match_the_product_loop(g):
    """The XOR span lists the kernel as the product loop does: the same int64
    matrices in the same order."""
    got, want = gamma2_elements(g), _gamma2_elements_loop(g)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


GROUPS = ((1, "even"), (1, "odd"), (2, "even"), (2, "odd"))


def _prescribed(g, parity):
    """The generators (uint8) and the values the discriminant takes on them."""
    data = group_data(g, parity)
    gens = np.array(_generators(g, parity), dtype=np.uint8)
    return gens, np.array([data.lam[data.index_of(s)] for s in gens], dtype=np.int8)


def _extension_check(gens, values):
    """The written-out keys, lam and verdict of `group_data`'s check."""
    values = np.asarray(values, dtype=np.int8)
    return _extend(*_quotient_closure(gens, values), gens, values)


def _assert_verdicts_match_oracle(gens, candidates):
    """The extension check and the closure oracle agree on the keys and the
    verdict of every candidate, and on lam where it survives."""
    survivors = 0
    for values in candidates:
        keys, lam, alive = _extension_check(gens, values)
        _, want_keys, want_lam, want_alive = _bfs_closure(list(gens), values)
        assert np.array_equal(keys, want_keys)
        assert alive == want_alive, list(values)
        if alive:
            assert np.array_equal(lam, want_lam), list(values)
        survivors += alive
    return survivors


@pytest.mark.parametrize("g, parity", GROUPS)
def test_group_data_equals_the_closure_oracle(g, parity):
    """The group written out as an extension is the breadth-first closure over
    every element, byte for byte, and the oracle passes its candidate."""
    data = group_data(g, parity)
    mats, keys, lam, alive = _bfs_closure(list(_generators(g, parity)), _prescribed(g, parity)[1])
    assert alive
    assert data.matrices.tobytes() == mats.tobytes()
    assert data.keys.tobytes() == keys.tobytes()
    assert data.lam.tobytes() == lam.tobytes()


def test_extension_check_matches_the_closure_oracle():
    """The quotient check decides like the check on every product: on all
    4^4 candidates at (1, even), 600 seeded ones at (1, odd), and at g = 2
    on the discriminant, its square and its conjugate (all characters) and
    six seeded perturbations of one generator value per parity."""
    gens, _ = _prescribed(1, "even")
    assert _assert_verdicts_match_oracle(gens, itertools.product(range(4), repeat=4)) > 1
    rng = np.random.default_rng(23)
    gens, values = _prescribed(1, "odd")
    sample = [values, *rng.integers(0, 4, size=(600, len(gens)))]
    assert _assert_verdicts_match_oracle(gens, sample) >= 1
    for parity in ("even", "odd"):
        gens, values = _prescribed(2, parity)
        candidates = [values, 2 * values % 4, 3 * values % 4]
        for _ in range(6):
            x = values.copy()
            i = rng.integers(len(x))
            x[i] = (x[i] + rng.integers(1, 4)) % 4
            candidates.append(x)
        assert _assert_verdicts_match_oracle(gens, candidates) >= 3


def test_extension_check_death_conditions():
    """One candidate per condition of `group_data`, each the only violation in
    its case, dies (as in the closure oracle), and a repaired one lives.

    (a): the kernel basis alone, with the value 1 on b = I + 2 A: b^2 = I
    carries 2; the quotient is trivial and K abelian, so (b) and (c) hold.
    (b): the (1, even) generators (the basis and one transvection t) with the
    discriminant's kernel values, which are invariant, and x(t) = 0: the
    edge t -> t^2 = I needs 2 x(t) = kappa(t^2) = 2.
    (c): the values 2, 0, 0 on the basis (b_00, -I, b_11) and x(t) = 1: then
    2 x(t) = kappa(t^2) = 2 holds, but t swaps b_00 and b_11 by conjugation.
    """
    basis = np.array(gamma2_basis(1), dtype=np.uint8)
    gens, values = _prescribed(1, "even")
    cases = (
        (basis, [1, 0, 0], [2, 0, 0]),
        (gens, [*values[:3], 0], values),
        (gens, [2, 0, 0, 1], [2, 0, 2, 0]),
    )
    for generators, dead, repaired in cases:
        assert not _extension_check(generators, dead)[2]
        assert _extension_check(generators, repaired)[2]
        assert _assert_verdicts_match_oracle(generators, [dead, repaired]) == 1


PEAK_CHILD = """
import tracemalloc
from thetalab.symplectic4 import group_data
tracemalloc.start()
group_data(2, "odd")
print(tracemalloc.get_traced_memory()[1])
"""


def test_group_data_peak_memory():
    """Building (2, odd) in a fresh process traces below 4.5 MiB, about 1.5
    times the measured 3.0 MiB: the result (the 122 880 keys, 1 MiB, and
    matrices, 1.9 MiB, unpacked in place) and the written-out cosets, one
    (120, 1024) uint64 array sorted in place, with no |G|-sized temporary
    beside them."""
    src = os.path.dirname(os.path.dirname(thetalab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 9 << 19


# sha256 prefixes of `matrices`, `lam` and `keys`, with the generator count
# and whether the plane swap is a generator: all must stay identical.  The
# three prefixes were recorded from the key-order views `matrices[index]`,
# `lam[index]` and `keys` while each group was still stored in discovery
# order beside an `index` permutation, so they pin that dropping the
# permutation changed no byte.  The last entry, the (key, discriminant)
# pairs in key order, does not depend on the element order at all; it was
# recorded before the closure moved to packed keys and before the plane swap
# replaced an orthogonal lift as the extra generator at (2, even)
FINGERPRINTS = {
    (1, "even"): (
        "705e79bbb9239cfd", "e985332e830ab19c", "b1f76593bdddf36f", 4, False, "979cf55a303e7818"
    ),
    (1, "odd"): (
        "a6d4b17a2561bdb0", "e87a1fd3d90393d7", "f8be112b412d9eef", 6, False, "c107887cc0db9941"
    ),
    (2, "even"): (
        "bb7f1684f7bf78f3", "b4e96d3ca947a90d", "3a82d1d5ba96314a", 17, True, "13629d638db7a9de"
    ),
    (2, "odd"): (
        "1ace24db0f49dcfd", "077147eaeca88818", "7e65c1f6821a17e7", 20, False, "a59a2282b6b87bf9"
    ),
}


@pytest.mark.parametrize("g, parity", list(FINGERPRINTS))
def test_group_data_fingerprints(g, parity):
    data = group_data(g, parity)
    mats_prefix, lam_prefix, keys_prefix, n_gens, extended, character_prefix = FINGERPRINTS[
        (g, parity)
    ]

    def sha(b):
        return hashlib.sha256(b).hexdigest()

    assert data.matrices.dtype == np.uint8 and data.lam.dtype == np.int8
    assert sha(data.matrices.tobytes()).startswith(mats_prefix)
    assert sha(data.lam.tobytes()).startswith(lam_prefix)
    assert sha(data.keys.tobytes()).startswith(keys_prefix)
    character = list(zip(data.keys.tolist(), data.lam.tolist()))
    assert sha(repr(character).encode()).startswith(character_prefix)
    assert data.generator_count == n_gens
    assert data.extended_generators is extended
    assert data.solution_count == 1
