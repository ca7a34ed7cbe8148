import hashlib
import itertools
import re
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from thetalab import heisenberg
from thetalab.cyclo import MINUS_ONE, ONE, RootOfUnity, ZETA4, mu_group
from thetalab.heisenberg import (
    HeisenbergAutomorphism,
    HeisenbergElement,
    KVector,
    OddType,
    SymmetricSplitting,
    ThetaType,
    TooLarge,
    TypeMismatch,
    _xy_exponent,
    canonical_splitting,
    d_minus_one,
    enumerate_automorphisms,
    enumerate_sym_automorphisms,
    enumerate_symmetric_splittings,
    h2_map,
    h2_pushforward_splitting,
    h_identity,
    hinv,
    hmul,
    inner_auto,
    inner_automorphism,
    k_basis,
    k_elements,
    k_zero,
    maximal_isotropic_subgroups,
    pairing,
    stabilizer_u0sym,
    symmetric_splittings_over,
)

T2 = ThetaType((2,))
T4 = ThetaType((4,))
T22 = ThetaType((2, 2))


def kv(typ, *coords):
    g = typ.g
    return KVector(typ, tuple(coords[:g]), tuple(coords[g:]))


def he(scalar, z):
    return HeisenbergElement(scalar, z)


# --- object-built oracles: slow and obvious, on KVector/HeisenbergElement ---------

def span_oracle(gens, typ):
    """The subgroup generated by `gens`, by breadth-first closure under addition."""
    out = {k_zero(typ)}
    frontier = [k_zero(typ)]
    while frontier:
        nxt = []
        for z in frontier:
            for g_ in gens:
                w = z + g_
                if w not in out:
                    out.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(out, key=lambda z: z.coords)


def maximal_isotropic_oracle(typ):
    """First generating tuple, in product order, of every Lagrangian subgroup."""
    elements = k_elements(typ)
    seen = {}
    order_ok = [[z for z in elements if z.scale(o).is_zero()] for o in typ.divisors]
    for gens in itertools.product(*order_ok):
        key = frozenset(span_oracle(gens, typ))
        if len(key) != typ.degree or key in seen:
            continue
        isotropic = all(pairing(a, b).is_one() for a in key for b in key)
        perp = [w for w in elements if all(pairing(w, z).is_one() for z in key)]
        seen[key] = gens if isotropic and len(perp) == typ.degree else None
    return sorted(
        (gs for gs in seen.values() if gs is not None),
        key=lambda gs: tuple(z.coords for z in gs),
    )


def _power(a, k):
    out = h_identity(a.type)
    for _ in range(k):
        out = hmul(out, a)
    return out


def splittings_oracle(gens, typ):
    """Symmetric homomorphic lifts of span(gens), by brute force over mu_M values.

    A generator lift (lambda, g) must have the order of g; every product of
    such lifts is then extended along a BFS and checked on all steps.
    """
    m = typ.scalar_modulus
    span = span_oracle(gens, typ)
    options = []
    for g_ in gens:
        lifts = [he(RootOfUnity(Fraction(e, m)), g_) for e in range(m)]
        options.append(
            [a for a in lifts if _power(a, g_.order()) == h_identity(typ)]
        )
    out = []
    for lifts in itertools.product(*options):
        sigma = {k_zero(typ): h_identity(typ)}
        frontier = [k_zero(typ)]
        while frontier:
            nxt = []
            for z in frontier:
                for lift in lifts:
                    if z + lift.z not in sigma:
                        sigma[z + lift.z] = hmul(sigma[z], lift)
                        nxt.append(z + lift.z)
            frontier = nxt
        # a homomorphism iff every generator step agrees with the BFS values
        steps = all(
            hmul(sigma[a], lift) == sigma[a + lift.z] for a in span for lift in lifts
        )
        if steps and all(d_minus_one(sigma[z]) == sigma[-z] for z in span):
            out.append({z: sigma[z].scalar for z in span})
    return out


def eta_oracle(u, z):
    out = k_zero(u.type)
    for c, img in zip(z.coords, u.eta_images):
        out = out + img.scale(c)
    return out


def apply_oracle(u, a):
    return he(a.scalar * u.chi(a.z), eta_oracle(u, a.z))


def stabilizer_oracle(typ, automorphisms):
    """(setwise, pointwise) stabilizers of the canonical lifts (1, h, 0)."""
    can = canonical_splitting(typ)
    hs = list(itertools.product(*(range(d) for d in typ.divisors)))
    lifts = [can.sigma(h) for h in hs]
    setwise, pointwise = [], []
    for u in automorphisms:
        images = []
        for lift in lifts:
            image = apply_oracle(u, lift)
            if not image.scalar.is_one() or any(image.z.y):
                break
            images.append(image.z.x)
        else:
            setwise.append(u)
            if images == hs:
                pointwise.append(u)
    return setwise, pointwise


def sum_ranks_oracle(typ):
    """sums[i, j] = rank of z_i + z_j by `KVector.__add__`; ranks are `k_elements` positions."""
    elements = k_elements(typ)
    index = {z: i for i, z in enumerate(elements)}
    return np.array([[index[a + b] for b in elements] for a in elements], dtype=np.int64)


def xy_exponents_oracle(typ):
    """xy[i, j] = M times the exponent of the group-law scalar <x(z_i), y(z_j)>, mod M."""
    elements, m = k_elements(typ), typ.scalar_modulus
    return np.array(
        [[int(_xy_exponent(a.x, b.y, typ) * m) % m for b in elements] for a in elements],
        dtype=np.int64,
    )


def pair_exponents_oracle(typ):
    """pair[i, j] = M times the exponent of the pairing <z_i, z_j>."""
    elements, m = k_elements(typ), typ.scalar_modulus
    return np.array(
        [[int(pairing(a, b).exponent * m) for b in elements] for a in elements],
        dtype=np.int64,
    )


def check_additive_oracle(coords, sums, orders):
    """Check coords[a + b] = coords[a] + coords[b] mod the generator orders, all a, b.

    `solve_twisted_characters_oracle` relies on this to decide all candidates
    of a relation by checking one.
    """
    for j, o in enumerate(orders):
        col = coords[:, j]
        want = np.add.outer(col, col)
        want %= o
        if not np.array_equal(col[sums], want):
            raise ArithmeticError(f"coordinate {j} is not additive mod {o}")


def solve_twisted_characters_oracle(coords, gen_positions, gen_orders, sums, beta, modulus):
    """All integer maps s (mod `modulus`) with s(a+b) = s(a) + s(b) + beta(a, b).

    A solver independent of the closed form.  The group is given by tables
    over its elements 0..n-1: `coords` holds the exponents of each element
    with respect to a generating tuple realizing the group as a direct
    product of cyclic groups of the given orders, the generators themselves
    sitting at `gen_positions`; `coords` must be additive
    (`check_additive_oracle`).  `beta` is a stack of B relations, shape
    (B, n, n), solved together.  Candidate generator values come from the
    order relations: each ranges over one coset of (modulus / o_j) Z, so two
    candidates differ by a homomorphism to Z/modulus and either all of them
    satisfy the relation or none does.  The first candidate is verified on
    every pair and decides for all.

    Returns (candidates, solvable): candidates[b], shape (prod(gen_orders), n),
    lists the candidates of beta[b] in product order over the generator
    values, and they are the solutions exactly when solvable[b].
    """
    n = coords.shape[0]
    zero = int(np.flatnonzero((coords == 0).all(axis=1))[0])
    orders = np.array(gen_orders, dtype=np.int64)

    # order relations: o_j s(g_j) = sum of beta(k g_j, g_j) over 0 < k < o_j
    c = np.zeros((len(beta), len(gen_orders)), dtype=np.int64)
    for j, (pos, o) in enumerate(zip(gen_positions, gen_orders)):
        acc = [pos]
        for _ in range(o - 1):
            acc.append(int(sums[acc[-1], pos]))
        if acc.pop() != zero:
            raise ValueError("generator order table is inconsistent")
        c[:, j] = beta[:, acc, pos].sum(axis=1) % modulus
    solvable = (c % orders == 0).all(axis=1)
    step = modulus // orders
    base = (-(c // orders)) % step

    # chain correction: cost of assembling each element generator by generator
    chain = np.zeros((len(beta), n), dtype=np.int64)
    acc_idx = np.full(n, zero, dtype=np.int64)
    for j, pos in enumerate(gen_positions):
        max_mult = int(coords[:, j].max()) if n else 0
        for k in range(max_mult):
            active = coords[:, j] > k
            chain[:, active] += beta[:, acc_idx[active], pos]
            acc_idx[active] = sums[acc_idx[active], pos]

    first = (base @ coords.T + chain) % modulus
    rhs = first[:, :, None] + first[:, None, :]
    rhs += beta
    rhs %= modulus
    solvable &= (first[:, sums] == rhs).all(axis=(1, 2))
    offsets = np.array(list(itertools.product(*map(range, gen_orders))), dtype=np.int64)
    candidates = (first[:, None, :] + (offsets * step) @ coords.T) % modulus
    return candidates, solvable


def twisted_characters_oracle(coords, gen_positions, gen_orders, sum_index, beta, modulus):
    """`solve_twisted_characters_oracle` with every candidate checked on every pair."""
    n = coords.shape[0]
    zero = int(np.flatnonzero((coords == 0).all(axis=1))[0])
    value_options = []
    for pos, o in zip(gen_positions, gen_orders):
        c = 0
        acc = pos
        for _ in range(o - 1):
            c = (c + int(beta[acc, pos])) % modulus
            acc = int(sum_index[acc, pos])
        assert acc == zero
        if c % o != 0:
            return []
        step = modulus // o
        base = (-(c // o)) % step
        value_options.append([(base + t * step) % modulus for t in range(o)])
    chain = np.zeros(n, dtype=np.int64)
    acc_idx = np.full(n, zero, dtype=np.int64)
    for j, pos in enumerate(gen_positions):
        for k in range(int(coords[:, j].max())):
            active = coords[:, j] > k
            chain[active] = (chain[active] + beta[acc_idx[active], pos]) % modulus
            acc_idx[active] = sum_index[acc_idx[active], pos]
    results = []
    for choice in itertools.product(*value_options):
        values = (coords @ np.array(choice, dtype=np.int64) + chain) % modulus
        rhs = (values[:, None] + values[None, :] + beta) % modulus
        if np.array_equal(values[sum_index], rhs):
            results.append(values)
    return results


def symplectic_images_oracle(typ):
    """All pairing-preserving automorphisms of K(delta), by ranks of the basis images.

    Backtracks over images f_j of the standard basis subject to the order
    conditions d_j f_j = 0 and the pairing conditions <f_j, f_k> = <e_j, e_k>;
    any such map is bijective because the pairing is non-degenerate.  The
    basis is taken one hyperbolic pair (e_nu, e_{g+nu}) at a time, so an
    image that no partner completes fails on the next level instead of
    after every choice for the later basis vectors (in plain basis order the
    first map of (2,2,2,2) takes over a minute); a completed pair always
    extends, since its orthogonal complement is symplectic of the remaining
    type.  Maps are yielded with the images in standard basis order.
    """
    table = heisenberg._ktable(typ)
    g = typ.g
    order = [j for nu in range(g) for j in (nu, g + nu)]
    back = np.argsort(order).tolist()
    basis_idx = table.basis_ranks()[order]
    divisors = typ.divisors * 2
    candidates = [np.flatnonzero(divisors[j] % table.orders == 0) for j in order]
    pair = pair_exponents_oracle(typ)
    target = pair[np.ix_(basis_idx, basis_idx)]

    images: list[int] = []

    def backtrack(j: int):
        if j == 2 * g:
            yield tuple(images[i] for i in back)
            return
        cand = candidates[j]
        prev = np.array(images, dtype=np.intp)
        ok = (pair[np.ix_(cand, prev)] == target[j, :j]).all(axis=1)
        for f in cand[ok]:
            images.append(int(f))
            yield from backtrack(j + 1)
            images.pop()

    yield from backtrack(0)


def automorphisms_loop_oracle(typ):
    """`enumerate_automorphisms` map by map and candidate by candidate: every
    candidate checked on every pair, filtered for symmetry one at a time and
    built as an object.  Returns (all, symmetric), each sorted by `sort_key`."""
    table = heisenberg._ktable(typ)
    m = typ.scalar_modulus
    gen_positions = [int(i) for i in table.basis_ranks()]
    orders = list(typ.divisors) * 2
    sums, xy = sum_ranks_oracle(typ), xy_exponents_oracle(typ)
    neg = table.rank(-table.coords)
    out, sym = [], []
    for ranks in symplectic_images_oracle(typ):
        perm = table.rank(table.coords @ table.coords[list(ranks)])
        beta = (xy[np.ix_(perm, perm)] - xy) % m
        for values in twisted_characters_oracle(table.coords, gen_positions, orders, sums, beta, m):
            u = HeisenbergAutomorphism(typ, ranks, tuple(int(v) for v in values))
            out.append(u)
            if np.array_equal(values[neg], values):
                sym.append(u)
    out.sort(key=lambda u: u.sort_key())
    sym.sort(key=lambda u: u.sort_key())
    return out, sym


def stabilizer_loop_oracle(typ, automorphisms, pointwise):
    """`stabilizer_u0sym` one automorphism at a time, on the index tables."""
    table = heisenberg._ktable(typ)
    g = typ.g
    hidx = np.flatnonzero(~table.coords[:, g:].any(axis=1))
    out = []
    for u in automorphisms:
        image = heisenberg._eta_permutation(u, table)[hidx]
        chi = np.array(u.chi_exponents, dtype=np.int64)[hidx]
        if (chi % typ.scalar_modulus).any() or table.coords[image, g:].any():
            continue
        if pointwise and not np.array_equal(image, hidx):
            continue
        out.append(u)
    return out


def automorphism_sample(typ):
    """All symmetric automorphisms up to |K| = 36; above that, where the
    object oracle would apply each of the 73 728 automorphisms of (2,4) to
    every lift, the inner automorphisms and their composites with the
    inversion d_minus_one, which moves the lifts setwise.  The full (2,4)
    enumeration is checked in `test_type24_orbit_stabilizer`."""
    if typ.k_order <= 36:
        return enumerate_sym_automorphisms(typ)
    table = heisenberg._ktable(typ)
    minus_basis = table.rank(-np.eye(2 * typ.g, dtype=np.int64))
    minus = HeisenbergAutomorphism(typ, tuple(minus_basis.tolist()), (0,) * table.n)
    inner = [inner_automorphism(z) for z in k_elements(typ)]
    return inner + [minus.compose(u) for u in inner]


def test_type_validation():
    with pytest.raises(ValueError):
        ThetaType((3, 2))  # chain violated
    with pytest.raises(ValueError):
        ThetaType((0,))
    assert ThetaType((2, 4)).degree == 8
    assert ThetaType((2, 4)).is_even
    assert not ThetaType((1, 3)).is_even
    assert T4.half() == T2
    with pytest.raises(TypeMismatch):
        ThetaType((3,)).half()


def test_pairing_examples():
    assert pairing(kv(T2, 1, 0), kv(T2, 0, 1)) == MINUS_ONE
    assert pairing(kv(T2, 1, 0), kv(T2, 1, 0)) == ONE
    assert pairing(kv(T4, 0, 1), kv(T4, 1, 0)) == ZETA4
    with pytest.raises(TypeMismatch):
        pairing(kv(T2, 1, 0), kv(T4, 1, 0))


def test_pairing_is_bilinear_alternating_nondegenerate():
    for typ in (T2, T4, T22):
        elems = k_elements(typ)
        for z1 in elems:
            assert pairing(z1, z1) == ONE
            if not z1.is_zero():
                assert any(not pairing(z1, z2).is_one() for z2 in elems)
        for z1 in elems:
            for z2 in elems[:6]:
                for z3 in elems[:6]:
                    assert pairing(z1, z2 + z3) == pairing(z1, z2) * pairing(z1, z3)


def test_hmul_examples():
    a = he(ONE, kv(T2, 1, 0))
    b = he(ONE, kv(T2, 0, 1))
    ab = hmul(a, b)
    assert ab.scalar == MINUS_ONE and ab.z == kv(T2, 1, 1)
    ba = hmul(b, a)
    assert ba.scalar == ONE and ba.z == kv(T2, 1, 1)
    assert hmul(h_identity(T2), a) == a


def test_hinv_examples():
    assert hinv(h_identity(T2)) == h_identity(T2)
    a = he(ONE, kv(T2, 1, 1))
    assert hinv(a) == he(MINUS_ONE, kv(T2, 1, 1))
    assert hmul(a, hinv(a)) == h_identity(T2)
    # brute-force over mu_4 x K((4)): inverse from the solver equals hinv
    elems = [he(lam, z) for lam in mu_group(4) for z in k_elements(T4)]
    for a in elems:
        assert hmul(a, hinv(a)) == h_identity(T4)
        assert hmul(hinv(a), a) == h_identity(T4)


def _group_elements(typ, center_order):
    return [he(lam, z) for lam in mu_group(center_order) for z in k_elements(typ)]


@pytest.mark.parametrize("divisors", ((2,), (4,), (2, 2)))
def test_group_axioms_exhaustive(divisors):
    """Associativity and inverses via the full multiplication table, N = 2d."""
    typ = ThetaType(divisors)
    n = 2 * typ.degree
    elems = _group_elements(typ, n)
    index = {e: i for i, e in enumerate(elems)}
    size = len(elems)
    table = np.empty((size, size), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = index[hmul(a, b)]
    assert size == n * typ.degree ** 2
    # closure is implied by the successful index lookups; associativity on the
    # table: [a,b,c] -> (ab)c versus a(bc)
    assert np.array_equal(table[table, :], table[:, table])
    ident = index[h_identity(typ)]
    for i, a in enumerate(elems):
        assert table[ident, i] == i and table[i, ident] == i
        assert table[i, index[hinv(a)]] == ident


@pytest.mark.parametrize("divisors", ((2,), (4,)))
def test_commutator_equals_pairing_exhaustive(divisors):
    typ = ThetaType(divisors)
    for z1 in k_elements(typ):
        for z2 in k_elements(typ):
            a, b = he(ONE, z1), he(ONE, z2)
            comm = hmul(hmul(a, b), hinv(hmul(b, a)))
            assert comm.z.is_zero()
            assert comm.scalar == pairing(z1, z2)


def test_d_minus_one():
    assert d_minus_one(h_identity(T2)) == h_identity(T2)
    a = he(RootOfUnity(Fraction(1, 3)), kv(T2, 1, 1))
    assert d_minus_one(a) == a  # -1 = 1 mod 2
    b = he(ZETA4, kv(T4, 1, 0))
    assert d_minus_one(b) == he(ZETA4, kv(T4, 3, 0))
    # order-two automorphism restricting to identity on the center
    elems = _group_elements(T4, 8)
    for e in elems:
        assert d_minus_one(d_minus_one(e)) == e
    for e1 in elems[:40]:
        for e2 in elems[:40]:
            assert d_minus_one(hmul(e1, e2)) == hmul(d_minus_one(e1), d_minus_one(e2))


def test_inner_auto():
    a = he(ONE, kv(T2, 0, 1))
    assert inner_auto(k_zero(T2), a) == a
    assert inner_auto(kv(T2, 1, 0), a) == he(MINUS_ONE, kv(T2, 0, 1))
    # i(z) o i(z') = i(z + z'), exhaustively over K((2))^2
    elems = _group_elements(T2, 4)
    for z1 in k_elements(T2):
        for z2 in k_elements(T2):
            for a in elems:
                assert inner_auto(z1, inner_auto(z2, a)) == inner_auto(z1 + z2, a)
    # and i(z) is a homomorphism
    for z in k_elements(T2):
        for a in elems:
            for b in elems:
                assert inner_auto(z, hmul(a, b)) == hmul(
                    inner_auto(z, a), inner_auto(z, b)
                )


def test_h2_map():
    assert h2_map(h_identity(T4)) == h_identity(T2)
    a = he(ZETA4, kv(T4, 1, 0))
    assert h2_map(a) == he(MINUS_ONE, kv(T2, 1, 0))
    with pytest.raises(TypeMismatch):
        h2_map(he(ONE, kv(T2, 1, 0)))
    # homomorphism property over all of mu_4 x K((4))
    elems = _group_elements(T4, 4)
    for a in elems:
        for b in elems:
            assert h2_map(hmul(a, b)) == hmul(h2_map(a), h2_map(b))


def test_canonical_splitting():
    can = canonical_splitting(T2)
    assert can.sigma_star((1,)) == ONE
    assert all(s == 1 for s in canonical_splitting(T22).star_signs)
    # image of sigma_can is a subgroup
    for typ in (T2, T4, T22):
        can = canonical_splitting(typ)
        hs = list(itertools.product(*(range(d) for d in typ.divisors)))
        image = {can.sigma(h) for h in hs}
        for a in image:
            for b in image:
                assert hmul(a, b) in image
            assert hinv(a) in image


def test_enumerate_symmetric_splittings():
    assert len(enumerate_symmetric_splittings(T2)) == 2
    assert len(enumerate_symmetric_splittings(T22)) == 4
    assert len(enumerate_symmetric_splittings(T4)) == 2
    with pytest.raises(OddType):
        enumerate_symmetric_splittings(ThetaType((3,)))
    # each splitting is a homomorphism satisfying the symmetry condition
    for typ in (T2, T4, T22):
        hs = list(itertools.product(*(range(d) for d in typ.divisors)))
        for s in enumerate_symmetric_splittings(typ):
            for h1 in hs:
                for h2 in hs:
                    summed = tuple((a + b) % d for a, b, d in zip(h1, h2, typ.divisors))
                    assert hmul(s.sigma(h1), s.sigma(h2)) == s.sigma(summed)
                neg = tuple((-a) % d for a, d in zip(h1, typ.divisors))
                assert d_minus_one(s.sigma(h1)) == s.sigma(neg)


def test_h2_pushforward_constant():
    for doubled, half in (((4,), T2), ((4, 4), T22)):
        typ = ThetaType(doubled)
        for s in enumerate_symmetric_splittings(typ):
            pushed = h2_pushforward_splitting(s)
            assert pushed == canonical_splitting(half)
    with pytest.raises(TypeMismatch):
        h2_pushforward_splitting(canonical_splitting(T2))


def _sp2_f2_order():
    """Brute-force |Sp_2(F_2)|: invertible 2x2 binary matrices preserving the pairing."""
    count = 0
    for bits in itertools.product((0, 1), repeat=4):
        a, b, c, d = bits
        if (a * d - b * c) % 2 == 1:
            count += 1
    return count


def test_enumerate_sym_automorphisms_small():
    auts = enumerate_sym_automorphisms(T2)
    assert len(auts) == 4 * _sp2_f2_order() == 24
    # defining conditions re-checked
    elems = _group_elements(T2, 4)
    for u in auts:
        for e in elems:
            assert u.apply(d_minus_one(e)) == d_minus_one(u.apply(e))
        for e1 in elems:
            for e2 in elems[:8]:
                assert u.apply(hmul(e1, e2)) == hmul(u.apply(e1), u.apply(e2))


def test_aut_exact_sequence_middle_term():
    """Automorphisms over the identity of Sp are exactly the inner ones, uniquely."""
    auts = enumerate_automorphisms(T2, symmetric=False)
    basis = k_basis(T2)
    kernel = [u for u in auts if all(u.eta(b) == b for b in basis)]
    inner = {inner_automorphism(z) for z in k_elements(T2)}
    assert len(kernel) == len(k_elements(T2)) == 4
    assert set(kernel) == inner


@pytest.mark.parametrize("typ", (T2, T4))
def test_symmetric_kernel_is_two_torsion(typ):
    auts = enumerate_sym_automorphisms(typ)
    basis = k_basis(typ)
    kernel = {u for u in auts if all(u.eta(b) == b for b in basis)}
    two_torsion = [z for z in k_elements(typ) if z.scale(2).is_zero()]
    assert kernel == {inner_automorphism(z) for z in two_torsion}
    assert len(kernel) == len(two_torsion)


def test_sym_automorphism_counts():
    assert len(enumerate_sym_automorphisms(T4)) == 4 * 48
    auts22 = enumerate_sym_automorphisms(T22)
    assert len(auts22) == 16 * 720


def test_stabilizer_and_orbit_counts_type2():
    auts = enumerate_sym_automorphisms(T2)
    stab = stabilizer_u0sym(T2, auts)
    assert any(u.is_identity() for u in stab)
    pairs = sum(
        len(symmetric_splittings_over(gens, T2))
        for gens in maximal_isotropic_subgroups(T2)
    )
    assert len(auts) // len(stab) == pairs == 6


def test_stabilizer_and_orbit_counts_type22():
    auts = enumerate_sym_automorphisms(T22)
    stab = stabilizer_u0sym(T22, auts)
    subgroups = maximal_isotropic_subgroups(T22)
    pairs = sum(len(symmetric_splittings_over(gens, T22)) for gens in subgroups)
    assert len(auts) // len(stab) == pairs == 60
    # splitting-forgetting degree 2^g over every subgroup
    assert all(len(symmetric_splittings_over(g, T22)) == 4 for g in subgroups)
    assert len(subgroups) == 15


def test_setwise_vs_pointwise_stabilizer_report():
    """The two readings of the stabilizer condition genuinely differ at g=2."""
    auts2 = enumerate_sym_automorphisms(T2)
    setwise2 = stabilizer_u0sym(T2, auts2)
    pointwise2 = stabilizer_u0sym(T2, auts2, pointwise=True)
    assert set(pointwise2) <= set(setwise2)
    assert (len(setwise2), len(pointwise2)) == (4, 4)

    auts22 = enumerate_sym_automorphisms(T22)
    setwise22 = stabilizer_u0sym(T22, auts22)
    pointwise22 = stabilizer_u0sym(T22, auts22, pointwise=True)
    assert set(pointwise22) < set(setwise22)
    assert (len(setwise22), len(pointwise22)) == (192, 32)


def test_covering_degrees_from_doubled_type():
    """Free maximal isotropics of the doubled type fiber 2^{g(g+1)/2}-to-one."""
    typ44 = ThetaType((4, 4))
    subs = maximal_isotropic_subgroups(typ44)
    assert len(subs) == 120

    def mod2_span(gens):
        span = span_oracle(gens, typ44)
        return frozenset(
            (tuple(c % 2 for c in z.x), tuple(c % 2 for c in z.y)) for z in span
        )

    fibers = {}
    for gens in subs:
        fibers.setdefault(mod2_span(gens), []).append(gens)
    assert len(fibers) == 15
    assert all(len(v) == 8 for v in fibers.values())

    # same count at g=1: degree 2 over 3 lines
    typ4 = ThetaType((4,))
    subs4 = maximal_isotropic_subgroups(typ4)
    assert len(subs4) == 6

    def mod2_span4(gens):
        span = span_oracle(gens, typ4)
        return frozenset(
            (tuple(c % 2 for c in z.x), tuple(c % 2 for c in z.y)) for z in span
        )

    fibers4 = {}
    for gens in subs4:
        fibers4.setdefault(mod2_span4(gens), []).append(gens)
    assert len(fibers4) == 3 and all(len(v) == 2 for v in fibers4.values())


def test_enumeration_bound():
    with pytest.raises(TooLarge):
        enumerate_sym_automorphisms(ThetaType((64, 64)))
    # the symplectic maps are counted before they are built, so the refusal
    # names their number, |Sp_6(F_2)| at (2,2,2)
    with pytest.raises(TooLarge, match="^1451520 symplectic maps x 64 semicharacters"):
        enumerate_sym_automorphisms(ThetaType((2, 2, 2)))
    with pytest.raises(TooLarge, match="^737280 symplectic maps x 16 semicharacters"):
        enumerate_sym_automorphisms(ThetaType((4, 4)))
    # the bound is on the chi exponents read: maps times semicharacters (|K|
    # per map, or one per 2-torsion point when symmetric) times |K|
    for divisors, maps, per_map, n in (
        ((2, 8), 36864, 16, 256),
        ((64,), 196608, 4, 4096),
        ((32,), 24576, 4, 1024),
        ((45,), 77760, 1, 2025),
        ((63,), 217728, 1, 3969),
    ):
        message = (
            f"{maps} symplectic maps x {per_map} semicharacters x |K| = {n}"
            f" = {maps * per_map * n} chi exponents exceed {2**26}"
        )
        with pytest.raises(TooLarge, match=f"^{re.escape(message)}$"):
            enumerate_sym_automorphisms(ThetaType(divisors))
    for divisors, maps in (((3, 3), 51840), ((2, 6), 17280), ((14,), 2016), ((16,), 3072)):
        with pytest.raises(TooLarge, match=f"^{maps} symplectic maps x "):
            enumerate_automorphisms(ThetaType(divisors), symmetric=False)
    with pytest.raises(TooLarge):
        maximal_isotropic_subgroups(ThetaType((64, 64)))
    with pytest.raises(TooLarge):
        enumerate_symmetric_splittings(ThetaType((2,) * 7))


def test_splittings_over_no_generators_is_the_trivial_lift():
    assert symmetric_splittings_over((), T2) == [{k_zero(T2): ONE}]


def test_stabilizer_returns_the_given_objects():
    auts = list(enumerate_sym_automorphisms(T22))
    stab = stabilizer_u0sym(T22, auts)
    assert isinstance(stab, list) and stab == stabilizer_u0sym(T22)
    assert all(any(u is v for v in auts) for u in stab)
    assert enumerate_sym_automorphisms(T22) == auts != enumerate_sym_automorphisms(T22)[1:]


def test_splittings_over_non_direct_product_rejected():
    z = kv(T22, 1, 0, 0, 1)
    with pytest.raises(ValueError, match="direct product"):
        symmetric_splittings_over((z, z), T22)


def _lift_key(s):
    return sorted((z.coords, v.exponent) for z, v in s.items())


@pytest.mark.parametrize("divisors", ((2,), (3,), (4,), (6,), (2, 2), (2, 4)))
def test_enumerations_match_object_oracles(divisors):
    typ = ThetaType(divisors)
    subs = maximal_isotropic_subgroups(typ)
    assert subs == maximal_isotropic_oracle(typ)
    for gens in subs:
        lifts = symmetric_splittings_over(gens, typ)
        assert sorted(map(_lift_key, lifts)) == sorted(
            map(_lift_key, splittings_oracle(gens, typ))
        )

    auts = automorphism_sample(typ)
    setwise, pointwise = stabilizer_oracle(typ, auts)
    assert list(stabilizer_u0sym(typ, auts)) == setwise
    assert list(stabilizer_u0sym(typ, auts, pointwise=True)) == pointwise

    m = typ.scalar_modulus
    elems = k_elements(typ)
    for z in elems:
        expected = tuple(int(pairing(z, w).exponent * m) % m for w in elems)
        assert inner_automorphism(z).chi_exponents == expected


def _same_solutions(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def lagrangian_relation(gens, typ, sums, xy):
    """The relation of `symmetric_splittings_over` on the span of `gens`, as
    the solver oracles take it: (coords, gen_positions, orders, sums, beta, m)
    over the span's own coordinates, with the global ranks of its elements;
    `sums` and `xy` are the global tables of the object oracles."""
    table = heisenberg._ktable(typ)
    m = typ.scalar_modulus
    gen_ranks = table.rank(np.array([g_.coords for g_ in gens], dtype=np.int64))
    orders = [int(o) for o in table.orders[gen_ranks]]
    coords = np.array(list(itertools.product(*(range(o) for o in orders))), dtype=np.int64)
    gidx = table.rank(coords @ table.coords[gen_ranks])
    local = np.full(table.n, -1, dtype=np.int64)
    local[gidx] = np.arange(len(gidx))
    gen_positions = [int(i) for i in local[gen_ranks]]
    relation = (coords, gen_positions, orders, local[sums[np.ix_(gidx, gidx)]])
    return (*relation, xy[np.ix_(gidx, gidx)], m), gidx


@pytest.mark.parametrize("divisors", ((2,), (3,), (4,), (6,), (8,), (2, 2), (1, 4)))
def test_twisted_characters_match_per_candidate_oracle(divisors):
    """The closed form gives what the stacked solver and the per-candidate
    check find: the chi tables of every map, in `sort_key` order, and the
    lifts over every Lagrangian, in product order over the generator values."""
    typ = ThetaType(divisors)
    table = heisenberg._ktable(typ)
    m = typ.scalar_modulus
    sums, xy = sum_ranks_oracle(typ), xy_exponents_oracle(typ)
    gen_positions = [int(i) for i in table.basis_ranks()]
    orders = list(typ.divisors) * 2
    auts = enumerate_automorphisms(typ, symmetric=False)
    maps = auts.eta[:: table.n].astype(np.intp)
    assert (auts.eta.reshape(len(maps), table.n, -1) == maps[:, None]).all()
    chi = auts.chi(slice(None)).reshape(len(maps), table.n, table.n)
    perms = table.rank(table.coords @ table.coords[maps])
    beta = (xy[perms[:, :, None], perms[:, None, :]] - xy) % m
    got, solvable = solve_twisted_characters_oracle(
        table.coords, gen_positions, orders, sums, beta, m
    )
    assert solvable.all()
    for k in range(len(maps)):
        # the solver lists candidates in product order; the rows sort by table
        assert np.array_equal(chi[k], got[k][np.lexsort(got[k].T[::-1])])

    for gens in maximal_isotropic_subgroups(typ):
        relation, gidx = lagrangian_relation(gens, typ, sums, xy)
        coords, _, lag_orders, _, lag_beta, _ = relation
        got, solvable = solve_twisted_characters_oracle(*relation[:4], lag_beta[None], m)
        assert solvable[0]
        assert _same_solutions(got[0], twisted_characters_oracle(*relation))
        neg = np.ravel_multi_index(((-coords) % lag_orders).T, lag_orders)
        symmetric = got[0][(got[0][:, neg] == got[0]).all(axis=1)]
        elems = [table.elements[i] for i in gidx]
        lifts = symmetric_splittings_over(gens, typ)
        assert [[int(s[z].exponent * m) for z in elems] for s in lifts] == symmetric.tolist()

    # break the relation on one pair of non-generators: the order relations
    # still yield candidates, and the pair check must reject all of them
    others = [i for i in range(table.n) if i not in gen_positions and table.coords[i].any()]
    if others:
        broken = beta[:1].copy()
        broken[0, others[0], others[-1]] += 1
        got, solvable = solve_twisted_characters_oracle(
            table.coords, gen_positions, orders, sums, broken, m
        )
        assert not solvable[0]
        assert twisted_characters_oracle(
            table.coords, gen_positions, orders, sums, broken[0], m
        ) == []


def test_twisted_characters_require_additive_coordinates():
    """Every closed-form chi table of (4,) meets its relation on every pair,
    read off object-built tables; the index coordinates are additive, as the
    solver oracles require, and not for the wrong generator orders."""
    typ = T4
    table = heisenberg._ktable(typ)
    m = typ.scalar_modulus
    sums, xy = sum_ranks_oracle(typ), xy_exponents_oracle(typ)
    orders = list(typ.divisors) * 2
    check_additive_oracle(table.coords, sums, orders)
    with pytest.raises(ArithmeticError):
        check_additive_oracle(table.coords, sums, [2] * len(orders))
    for u in enumerate_automorphisms(typ, symmetric=False):
        perm = table.rank(table.coords @ table.coords[list(u.eta_ranks)])
        beta = (xy[np.ix_(perm, perm)] - xy) % m
        chi = np.array(u.chi_exponents)
        assert np.array_equal(chi[sums], (chi[:, None] + chi[None, :] + beta) % m)


@pytest.mark.parametrize("divisors", ((2,), (2, 2)))
def test_eta_and_apply_match_object_loops(divisors):
    typ = ThetaType(divisors)
    elems = [he(lam, z) for lam in mu_group(4) for z in k_elements(typ)]
    if typ == T2:
        # every automorphism on every element
        cases = [
            (u, e) for u in enumerate_automorphisms(typ, symmetric=False) for e in elems
        ]
    else:
        # every symmetric automorphism, on an element cycling through mu_4 x K
        auts = enumerate_sym_automorphisms(typ)
        cases = [(u, elems[(7 * i) % len(elems)]) for i, u in enumerate(auts)]
    for u, e in cases:
        expected = apply_oracle(u, e)
        assert u.eta(e.z) == expected.z
        assert u.apply(e) == expected


def test_automorphism_composition_and_sorting():
    auts = enumerate_sym_automorphisms(T2)
    keys = [u.sort_key() for u in auts]
    assert keys == sorted(keys)
    index = {u: i for i, u in enumerate(auts)}
    for u in auts[:6]:
        for v in auts[:6]:
            assert u.compose(v) in index
    with pytest.raises(TypeMismatch):
        auts[0].eta(kv(T4, 1, 0))
    with pytest.raises(TypeMismatch):
        auts[0].chi(kv(T4, 1, 0))
    with pytest.raises(TypeMismatch):
        auts[0].apply(HeisenbergElement(ONE, kv(T4, 1, 0)))


@pytest.mark.parametrize("divisors", ((2,), (3,), (4,), (6,), (8,), (2, 2), (1, 4)))
def test_enumerations_match_loop_oracles(divisors):
    """The block enumeration and the batched stabilizer give the lists of the
    per-map, per-candidate and per-automorphism loops, element for element
    and in the same order."""
    typ = ThetaType(divisors)
    everything, symmetric = automorphisms_loop_oracle(typ)
    assert list(enumerate_automorphisms(typ, symmetric=False)) == everything
    assert list(enumerate_automorphisms(typ, symmetric=True)) == symmetric
    assert [u.sort_key() for u in symmetric] == sorted(u.sort_key() for u in symmetric)
    for pointwise in (False, True):
        assert list(stabilizer_u0sym(typ, symmetric, pointwise=pointwise)) == (
            stabilizer_loop_oracle(typ, symmetric, pointwise)
        )


@pytest.mark.parametrize(
    "divisors", ((2,), (3,), (4,), (6,), (8,), (1, 4), (2, 2), (2, 4), (3, 3), (2, 6))
)
def test_symplectic_maps_match_the_backtracking_oracle(divisors):
    """The pair-by-pair array holds the maps the backtracking yields, and
    each of its rows once."""
    typ = ThetaType(divisors)
    maps = heisenberg._symplectic_maps(typ)
    rows = sorted(map(tuple, maps.tolist()))
    assert rows == sorted(symplectic_images_oracle(typ))
    assert len(set(rows)) == len(rows)
    assert heisenberg._symplectic_map_count(typ) == len(rows)


def symplectic_group_order(p, g):
    """|Sp_2g(F_p)| = p^(g^2) prod_{i=1..g} (p^(2i) - 1)."""
    return p ** (g * g) * prod(p ** (2 * i) - 1 for i in range(1, g + 1))


def test_symplectic_group_order_examples():
    assert symplectic_group_order(2, 6) == 208_114_637_736_580_743_168_000
    assert symplectic_group_order(3, 2) == 51_840


@pytest.mark.parametrize("p, g", [(2, g) for g in range(1, 7)] + [(3, g) for g in range(1, 4)])
def test_symplectic_map_count_is_the_symplectic_group_order(p, g):
    """On (p,)*g the symplectic maps are Sp_2g(F_p), counted without building
    them."""
    count = symplectic_group_order(p, g)
    assert heisenberg._symplectic_map_count(ThetaType((p,) * g)) == count


def test_stabilizer_rejects_automorphisms_of_another_type():
    """The automorphisms of (1,4) index tables of the size of those of (2,2),
    and those of (4,) have fewer basis images: neither is read as (2,2)."""
    for divisors in ((1, 4), (4,)):
        with pytest.raises(TypeMismatch):
            stabilizer_u0sym(T22, enumerate_sym_automorphisms(ThetaType(divisors)))


def rebuilt(u):
    """A copy of u that shares no tuple with it."""
    return HeisenbergAutomorphism(u.type, tuple(list(u.eta_ranks)), tuple(list(u.chi_exponents)))


def test_automorphism_equality_is_sort_key_equality():
    """On the (2,2) enumeration, u == v exactly when their coordinate sort
    keys agree, and equal automorphisms hash alike."""
    auts = enumerate_automorphisms(T22, symmetric=False)
    # neighbours in sort order share their map and differ in chi
    sample = list(auts[:48]) + list(auts[:: len(auts) // 48])
    sample += [rebuilt(u) for u in sample]
    for u in sample:
        for v in sample:
            assert (u == v) == (u.sort_key() == v.sort_key())
            if u == v:
                assert hash(u) == hash(v)
    copies = [rebuilt(u) for u in auts]
    assert len(set(auts) | set(copies)) == len({u.sort_key() for u in auts}) == len(auts)
    assert all(u == v and hash(u) == hash(v) for u, v in zip(auts, copies))


def test_stabilizer_is_independent_of_input_order():
    """`stabilizer_u0sym` on a shuffled copy of the automorphisms, rebuilt from
    fresh tuples, keeps the same automorphisms, in the shuffled order."""
    auts = enumerate_sym_automorphisms(T22)
    perm = np.random.default_rng(5).permutation(len(auts)).tolist()
    shuffled = [rebuilt(auts[i]) for i in perm]
    for pointwise in (False, True):
        kept = set(stabilizer_u0sym(T22, auts, pointwise=pointwise))
        assert list(stabilizer_u0sym(T22, shuffled, pointwise=pointwise)) == (
            [u for u in shuffled if u in kept]
        )


# count and sha256 prefix of the coordinate tuples of maximal_isotropic_subgroups
MAXIMAL_ISOTROPIC_FINGERPRINTS = {
    (2, 4): (36, "2271991aa4742328"),
    (3, 3): (40, "3b93813d16a97df7"),
    (2, 6): (60, "d9988a00cd50b337"),
    (4, 4): (120, "72a7ac159d0b6045"),
    (6, 6): (600, "00a054c41fa7cfdf"),
}


@pytest.mark.parametrize("divisors", sorted(MAXIMAL_ISOTROPIC_FINGERPRINTS))
def test_maximal_isotropic_subgroups_fingerprints(divisors):
    subs = maximal_isotropic_subgroups(ThetaType(divisors))
    coords = [tuple(z.coords for z in gens) for gens in subs]
    digest = hashlib.sha256(repr(coords).encode()).hexdigest()[:16]
    assert (len(subs), digest) == MAXIMAL_ISOTROPIC_FINGERPRINTS[divisors]
    assert coords == sorted(coords)


def test_type24_orbit_stabilizer():
    """Orbit-stabilizer on the full symmetric automorphism group of (2,4)."""
    typ = ThetaType((2, 4))
    auts = enumerate_sym_automorphisms(typ)
    assert len(auts) == 73728
    setwise = stabilizer_u0sym(typ, auts)
    pointwise = stabilizer_u0sym(typ, auts, pointwise=True)
    assert (len(setwise), len(pointwise)) == (512, 64)
    assert stabilizer_oracle(typ, setwise) == (list(setwise), list(pointwise))
    subs = maximal_isotropic_subgroups(typ)
    pairs = sum(len(symmetric_splittings_over(gens, typ)) for gens in subs)
    assert len(subs) == 36
    assert len(auts) % len(setwise) == 0
    assert len(auts) // len(setwise) == pairs == 144


# count and sha256 prefix of the `sort_key` lists of enumerate_automorphisms
# ("all" where the enumeration answered, and "sym") and of stabilizer_u0sym
# ("setwise", "pointwise") on the symmetric list, recorded from the
# automorphism objects of the solver that the closed form replaced; each key is
# flattened to little-endian int16: the basis-image coordinates, then chi
AUTOMORPHISM_FINGERPRINTS = {
    (2,): {
        "all": (24, "515dce8ec9f05c39"),
        "sym": (24, "515dce8ec9f05c39"),
        "setwise": (4, "8069255776082264"),
        "pointwise": (4, "8069255776082264"),
    },
    (3,): {
        "all": (216, "650f91f072a78a04"),
        "sym": (24, "46e5cef6225c8b8a"),
        "setwise": (6, "462f121377e8242e"),
        "pointwise": (3, "c8f0c51d0526e9e4"),
    },
    (4,): {
        "all": (768, "a222c86c1b140575"),
        "sym": (192, "0b5b2eae39c82f49"),
        "setwise": (16, "2be79f198f202ec0"),
        "pointwise": (8, "d3dacc738ecfd1ae"),
    },
    (6,): {
        "all": (5184, "46033356b4dca1f7"),
        "sym": (576, "e195c0e736c4974e"),
        "setwise": (24, "de53e1f39d54b92d"),
        "pointwise": (12, "1f9c1b3bfb61a11e"),
    },
    (8,): {
        "all": (24576, "573191171f1c017a"),
        "sym": (1536, "af03ff74525dee40"),
        "setwise": (64, "c577ed19835a3f14"),
        "pointwise": (16, "7f87a7abfceff772"),
    },
    (1, 4): {
        "all": (768, "90fa6fb3790972fe"),
        "sym": (192, "48f4a87afd0a38df"),
        "setwise": (16, "99f546bf7112d9c2"),
        "pointwise": (8, "6f8d8a1b21cfc355"),
    },
    (2, 2): {
        "all": (11520, "62e90e15be477b6f"),
        "sym": (11520, "62e90e15be477b6f"),
        "setwise": (192, "a097146ec08fa6ed"),
        "pointwise": (32, "46b7d7a7316bc131"),
    },
    (2, 4): {
        "all": (294912, "cee12ba147fbbf69"),
        "sym": (73728, "acbd2d5e62cf102e"),
        "setwise": (512, "20754c15f3cb394e"),
        "pointwise": (64, "4a224c2faadfb60d"),
    },
    (3, 3): {
        "sym": (51840, "fa63d8001d0fde9e"),
        "setwise": (1296, "6acfa70e50edca57"),
        "pointwise": (27, "84e35fe4c9bb9973"),
    },
    (2, 6): {
        "sym": (276480, "5c5ffeecfeddb27c"),
        "setwise": (1152, "97aaf1662d6d1677"),
        "pointwise": (96, "c036bcab38c74122"),
    },
}


def sort_key_digest(keys):
    """Count and sha256 prefix of `sort_key`s, flattened as in the table above."""
    digest, count = hashlib.sha256(), 0
    for block in keys:
        digest.update(np.asarray(block, dtype="<i2").tobytes())
        count += len(block)
    return count, digest.hexdigest()[:16]


def object_sort_keys(auts):
    """The flattened `sort_key` of each automorphism object, in one block."""
    return [[[c for img in u.sort_key()[0] for c in img] + list(u.sort_key()[1]) for u in auts]]


def row_sort_keys(auts):
    """The same keys read off the rows, block by block, building no object."""
    table = heisenberg._ktable(auts.type)
    for start in range(0, len(auts), 4096):
        rows = slice(start, start + 4096)
        eta = table.coords[auts.eta[rows].astype(np.intp)].reshape(-1, 4 * auts.type.g**2)
        yield np.hstack([eta, auts.chi(rows)])


def automorphism_lists(typ, kinds):
    sym = enumerate_automorphisms(typ)
    lists = {
        "sym": sym,
        "setwise": stabilizer_u0sym(typ, sym),
        "pointwise": stabilizer_u0sym(typ, sym, pointwise=True),
    }
    if "all" in kinds:
        lists["all"] = enumerate_automorphisms(typ, symmetric=False)
    return lists


@pytest.mark.parametrize("divisors", sorted(AUTOMORPHISM_FINGERPRINTS))
def test_automorphism_fingerprints(divisors):
    """The rows give the recorded lists, in the recorded order; up to 12 000
    elements the objects built from them do as well (larger lists build
    their objects by the same code, and the loop oracles check (8,))."""
    want = AUTOMORPHISM_FINGERPRINTS[divisors]
    for kind, auts in automorphism_lists(ThetaType(divisors), want).items():
        assert sort_key_digest(row_sort_keys(auts)) == want[kind], kind
        if len(auts) <= 12_000:
            assert sort_key_digest(object_sort_keys(auts)) == want[kind], kind


def test_type33_orbit_stabilizer():
    """Orbit-stabilizer on the full symmetric automorphism group of (3,3)."""
    typ = ThetaType((3, 3))
    auts = enumerate_sym_automorphisms(typ)
    stab = stabilizer_u0sym(typ, auts)
    subs = maximal_isotropic_subgroups(typ)
    pairs = sum(len(symmetric_splittings_over(gens, typ)) for gens in subs)
    assert (len(auts), len(stab), len(subs)) == (51_840, 1296, 40)
    assert len(auts) % len(stab) == 0
    assert len(auts) // len(stab) == pairs == 40


def test_stabilizer_rejects_a_chi_table_off_the_closed_form():
    """Objects are converted to rows by their basis values; a chi table that
    is not the closed form of its map and basis values is refused."""
    auts = list(enumerate_sym_automorphisms(T22)[:8])
    u = auts.pop()
    chi = list(u.chi_exponents)
    chi[-1] = (chi[-1] + 1) % T22.scalar_modulus
    with pytest.raises(ValueError, match="closed form"):
        stabilizer_u0sym(T22, auts + [HeisenbergAutomorphism(T22, u.eta_ranks, tuple(chi))])
    assert len(stabilizer_u0sym(T22, [])) == 0


def test_membership_looks_up_rows():
    """`in` on the enumeration agrees with comparing its objects one by one:
    on sampled members, on one automorphism of another type, on a chi table
    off the closed form of its row, and on automorphisms that are not
    symmetric (of (4), as every semicharacter of (2,2) is symmetric)."""
    for typ, stride in ((T22, 997), (T4, 1)):
        auts = enumerate_sym_automorphisms(typ)
        objects = list(auts)
        members = objects[::stride] + [objects[-1]]
        others = list(enumerate_automorphisms(typ, symmetric=False))[::stride]
        u = objects[len(objects) // 2]
        off = list(u.chi_exponents)
        off[-1] = (off[-1] + 1) % typ.scalar_modulus
        swapped = HeisenbergAutomorphism(typ, u.eta_ranks, tuple(off))
        foreign = enumerate_sym_automorphisms(ThetaType((1, 4)))[3]
        queries = members + others + [foreign, swapped, u.eta_ranks, None]
        assert [q in auts for q in queries] == [any(q == a for a in objects) for q in queries]
        assert all(q in auts for q in members)
        assert foreign not in auts and swapped not in auts
    assert any(q not in auts for q in others)
