from fractions import Fraction

import numpy as np
import pytest

from thetalab.cyclo import ONE, ZETA4, RootOfUnity, _root, mu_group
from thetalab.heisenberg import (
    HeisenbergElement,
    KVector,
    ThetaType,
    TooLarge,
    canonical_splitting,
    enumerate_sym_automorphisms,
    enumerate_symmetric_splittings,
    h_identity,
    hmul,
    k_elements,
    k_zero,
    maximal_isotropic_subgroups,
    symmetric_splittings_over,
)
from thetalab.schrodinger import (
    SchrodingerMatrix,
    h_basis,
    intertwiner_space,
    invariant_subspace,
    rho,
)

T2 = ThetaType((2,))
T4 = ThetaType((4,))
T22 = ThetaType((2, 2))


def he(typ, scalar, *coords):
    g = typ.g
    return HeisenbergElement(scalar, KVector(typ, tuple(coords[:g]), tuple(coords[g:])))


def test_rho_examples():
    m1 = rho(he(T2, ONE, 1, 0)).to_numpy()
    assert np.allclose(m1, np.diag([1, -1]))
    m2 = rho(he(T2, ONE, 0, 1)).to_numpy()
    assert np.allclose(m2, np.array([[0, 1], [1, 0]]))
    assert np.allclose(rho(h_identity(T2)).to_numpy(), np.eye(2))


def test_rho_is_monomial_and_unitary():
    for typ in (T2, T4, T22):
        for z in k_elements(typ):
            mat = rho(HeisenbergElement(ZETA4, z))
            assert mat.is_permutation_consistent()
            dense = mat.to_numpy()
            assert np.max(np.abs(dense @ dense.conj().T - np.eye(typ.degree))) < 1e-12


@pytest.mark.parametrize("divisors", ((2,), (4,), (2, 2)))
def test_rho_exact_homomorphism_exhaustive(divisors):
    """rho(ab) = rho(a) rho(b) with exact entries, over mu_d x K(delta)."""
    typ = ThetaType(divisors)
    elems = [
        HeisenbergElement(lam, z)
        for lam in mu_group(typ.degree)
        for z in k_elements(typ)
    ]
    mats = {e: rho(e) for e in elems}
    for a in elems:
        for b in elems:
            assert mats[hmul(a, b)] == mats[a] @ mats[b]


def test_weight_one_exact():
    for typ in (T2, T4):
        for lam in mu_group(2 * typ.degree):
            mat = rho(HeisenbergElement(lam, k_zero(typ)))
            d = typ.degree
            assert mat.row_of_col == tuple(range(d))
            assert all(q == lam.exponent for q in mat.exponents)


def test_rho_bound():
    with pytest.raises(TooLarge):
        rho(h_identity(ThetaType((64, 64))))


def test_invariant_subspace_canonical():
    for typ in (T2, T22):
        basis = invariant_subspace(canonical_splitting(typ))
        assert len(basis) == 1
        expected = np.zeros(typ.degree)
        expected[0] = 1
        assert np.allclose(basis[0], expected, atol=1e-10)


def test_invariant_subspace_every_splitting_is_a_line():
    for typ in (T2, T4, T22):
        for s in enumerate_symmetric_splittings(typ):
            assert len(invariant_subspace(s)) == 1


def test_commutant_is_scalar():
    for typ in (T2, T4):
        image = [rho(HeisenbergElement(ONE, z)).to_numpy() for z in k_elements(typ)]
        basis = intertwiner_space(image, image)
        assert len(basis) == 1
        m = basis[0]
        assert np.allclose(m, m[0, 0] * np.eye(typ.degree), atol=1e-10)


def test_intertwiner_with_conjugated_representation():
    rng = np.random.default_rng(3)
    d = 2
    perm = np.array([[0, 1], [1, 0]], dtype=float)
    phase = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))
    c = phase @ perm  # invertible monomial matrix
    image = [rho(HeisenbergElement(ONE, z)).to_numpy() for z in k_elements(T2)]
    conjugated = [c @ m @ np.linalg.inv(c) for m in image]
    basis = intertwiner_space(image, conjugated)
    assert len(basis) == 1
    t = basis[0]
    for a, b in zip(image, conjugated):
        assert np.max(np.abs(t @ a - b @ t)) < 1e-9
    # normalization: largest-magnitude entry is real positive
    flat = t.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat))]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_intertwiner_no_constraints():
    d = 2
    eye = [np.eye(d)]
    basis = intertwiner_space(eye, eye)
    assert len(basis) == d * d


def test_tensor_isomorphism_with_twisted_representation():
    """V tensor Hom(V, V') -> V' is an equivariant isomorphism, at type (2).

    For V' = rho after a symmetric automorphism u, the intertwiner space is a
    line spanned by an invertible T with T rho(a) = rho(u(a)) T for all a.
    """
    elems = [
        HeisenbergElement(lam, z) for lam in mu_group(4) for z in k_elements(T2)
    ]
    image = [rho(e).to_numpy() for e in elems]
    for u in enumerate_sym_automorphisms(T2):
        twisted = [rho(u.apply(e)).to_numpy() for e in elems]
        basis = intertwiner_space(image, twisted)
        assert len(basis) == 1
        t = basis[0]
        assert abs(np.linalg.det(t)) > 1e-8  # isomorphism
        for a, b in zip(image, twisted):
            assert np.max(np.abs(t @ a - b @ t)) < 1e-9


def test_exact_matrix_equality_semantics():
    a = rho(he(T2, ONE, 1, 0))
    b = rho(he(T2, ONE, 1, 0))
    assert a == b and a @ b == rho(hmul(he(T2, ONE, 1, 0), he(T2, ONE, 1, 0)))


def fraction_rho(a: HeisenbergElement) -> SchrodingerMatrix:
    """`rho` as it was before the integer tables: one `Fraction` sum per column."""
    typ = a.type
    basis = h_basis(typ)
    index = {h: i for i, h in enumerate(basis)}
    x, y = a.z.x, a.z.y
    rows, exps = [], []
    for nu in basis:
        target = tuple((n + yy) % d for n, yy, d in zip(nu, y, typ.divisors))
        rows.append(index[target])
        xy = Fraction(sum(Fraction(-c * n, d) for c, n, d in zip(x, nu, typ.divisors)))
        exps.append((a.scalar.exponent + xy) % 1)
    return SchrodingerMatrix(typ, tuple(rows), tuple(exps))


def fraction_to_numpy(mat: SchrodingerMatrix) -> np.ndarray:
    """`to_numpy` as it was: one `RootOfUnity` per column."""
    out = np.zeros((mat.dim, mat.dim), dtype=np.complex128)
    for nu, (r, q) in enumerate(zip(mat.row_of_col, mat.exponents)):
        out[r, nu] = RootOfUnity(q).value
    return out


# scalars of orders 1, 2, 3, 4, 5, 8, 12, a large prime and a denominator past 2^64
SCALARS = tuple(
    RootOfUnity(q)
    for q in (
        Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5),
        Fraction(7, 8), Fraction(5, 12), Fraction(12345, 1000003), Fraction(1, 2**64 + 13),
    )
)


@pytest.mark.parametrize("divisors", ((2,), (4,), (2, 2), (2, 4), (4, 4)))
def test_rho_equals_the_fraction_oracle(divisors):
    """The integer-table rho equals the `Fraction`-based one on every element
    of K(delta) with every scalar: rows, exponents (equal and of type
    Fraction) and the dense embedding, bit for bit."""
    typ = ThetaType(divisors)
    for scalar in SCALARS:
        for z in k_elements(typ):
            a = HeisenbergElement(scalar, z)
            got, want = rho(a), fraction_rho(a)
            assert got == want, (divisors, scalar, z)
            assert all(type(q) is Fraction for q in got.exponents)
            assert got.to_numpy().tobytes() == fraction_to_numpy(want).tobytes()


def test_to_numpy_reduces_exponents_like_root_of_unity():
    """A matrix built by hand with exponents outside [0, 1) embeds as
    RootOfUnity would embed them."""
    exps = (Fraction(5, 4), Fraction(-1, 3), Fraction(2), Fraction(-7, 8))
    mat = SchrodingerMatrix(T4, (1, 0, 3, 2), exps)
    assert mat.to_numpy().tobytes() == fraction_to_numpy(mat).tobytes()


def test_splittings_over_hand_out_shared_roots():
    """Every value of a lift is the shared `cyclo._root` instance of its root."""
    for typ in (T2, T22, ThetaType((2, 4))):
        m = typ.scalar_modulus
        for gens in maximal_isotropic_subgroups(typ):
            for lift in symmetric_splittings_over(gens, typ):
                for value in lift.values():
                    q = value.exponent
                    assert value is _root(q.numerator * (m // q.denominator), m)
