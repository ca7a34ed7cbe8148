import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab import _kernels
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
    _bfs_closure,
    _characters,
    _ORTHOGONAL_LIFT,
    _anisotropic_transvection_gens,
    _f2_rank,
    _key,
    _row_tables,
    _unpack,
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
    return set(_bfs_closure(gens, modulus=2)[1])


def test_transvection_closure_orders():
    """Transvections generate O(4, -) but only an index-2 subgroup of O(4, +)."""
    assert len(_f2_transvection_closure(2, "even")) == 36
    assert len(_f2_transvection_closure(2, "odd")) == 120
    assert len(_f2_transvection_closure(1, "even")) == 2
    assert len(_f2_transvection_closure(1, "odd")) == 6
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    assert swap in orthogonal_group(2, "even")
    assert _key(swap) not in _f2_transvection_closure(2, "even")


def test_orthogonal_lift_completes_the_transvection_subgroup():
    """The fixed lift appended at (2, even) is symplectic mod 4, and mod 2 it
    is an orthogonal element outside the transvection subgroup."""
    lift = np.array(_ORTHOGONAL_LIFT)
    assert is_symplectic_mod4(lift)
    reduction = tuple(map(tuple, (lift % 2).tolist()))
    assert reduction in orthogonal_group(2, "even")
    assert _key(reduction) not in _f2_transvection_closure(2, "even")


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

    def characters(gens, values):
        _, key_index, *tree = _bfs_closure(gens)
        constraints = [(key_index[_key(m)], e) for m, e in values]
        return key_index, _characters(*tree, len(gens), constraints)

    assert len(characters([t], [])[1]) == 4
    key_index, lams = characters([t], [(t, 1)])
    assert len(lams) == 1
    assert [int(lams[0][key_index[_key(p)]]) for p in powers] == [0, 1, 2, 3]
    assert len(characters([t], [(powers[2], 1)])[1]) == 0
    # both generators are pinned and both constraints hold; only the closure
    # edge t * t^3 = I rules the choice out
    assert len(characters([t, powers[3]], [(t, 1), (powers[3], 1)])[1]) == 0


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


def test_bfs_closure_tree_and_edges():
    """Every tree node and every edge of a closure is a true product."""
    gens = [transvection(v) for v in ((1, 0, 1, 1), (0, 1, 2, 1), (1, 1, 0, 3))]
    mats, key_index, parent_of, gen_of, e_par, e_gen, e_tgt, ends = _bfs_closure(gens)
    m = mats.astype(np.int64)
    g = np.array(gens) % 4
    assert list(key_index) == sorted(key_index)
    assert sorted(key_index.values()) == list(range(len(mats)))
    assert all(key_index[_key(mats[i])] == i for i in range(len(mats)))
    assert ends[-1] == len(mats) and ends[0] == 1
    tree = np.einsum("nij,njk->nik", m[parent_of[1:]], g[gen_of[1:]]) % 4
    assert np.array_equal(tree, m[1:])
    edges = np.einsum("nij,njk->nik", m[e_par], g[e_gen]) % 4
    assert np.array_equal(edges, m[e_tgt])
    # every product is either a tree node or an edge
    assert len(e_par) + len(mats) - 1 == len(mats) * len(gens)


# sha256 prefixes of `matrices`, `lam` and the `key_index` items (in dict
# order), recorded before the closure moved to packed keys, with the generator
# count and whether an orthogonal lift was appended: all must stay identical
FINGERPRINTS = {
    (1, "even"): ("66252681c764", "38d9ac2e485c2a22", "7694cf2d8b558791", 4, False),
    (1, "odd"): ("177bacb32f39", "c4546ee72a974e20", "d4e0b455fd260063", 6, False),
    (2, "even"): ("5ba40e188d16", "4adcd5b473ab450e", "f3ba88c39a144974", 17, True),
    (2, "odd"): ("899fb68345bf", "435442a344f4bccb", "8100c3cb34f58492", 20, False),
}


@pytest.mark.parametrize("g, parity", list(FINGERPRINTS))
def test_group_data_fingerprints(g, parity):
    data = group_data(g, parity)
    mats_prefix, lam_prefix, index_prefix, n_gens, extended = FINGERPRINTS[(g, parity)]

    def sha(b):
        return hashlib.sha256(b).hexdigest()

    assert data.matrices.dtype == np.uint8 and data.lam.dtype == np.int8
    assert sha(data.matrices.tobytes()).startswith(mats_prefix)
    assert sha(data.lam.tobytes()).startswith(lam_prefix)
    assert sha(repr(list(data.key_index.items())).encode()).startswith(index_prefix)
    assert data.generator_count == n_gens
    assert data.extended_generators is extended
    assert data.solution_count == 1
