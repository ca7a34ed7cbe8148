import hashlib
import itertools
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


def twisted_characters_oracle(coords, gen_positions, gen_orders, sum_index, beta, modulus):
    """`heisenberg._solve_twisted_characters` with every candidate checked on every pair."""
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
    out, sym = [], []
    for ranks in symplectic_images_oracle(typ):
        perm = table.rank(table.coords @ table.coords[list(ranks)])
        beta = (xy[np.ix_(perm, perm)] - xy) % m
        for values in twisted_characters_oracle(table.coords, gen_positions, orders, sums, beta, m):
            u = HeisenbergAutomorphism(typ, ranks, tuple(int(v) for v in values))
            out.append(u)
            if np.array_equal(values[table.neg_index], values):
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
    with pytest.raises(TooLarge, match="at least 1451520 symplectic maps"):
        enumerate_sym_automorphisms(ThetaType((2, 2, 2)))
    with pytest.raises(TooLarge, match="at least 737280 symplectic maps"):
        enumerate_sym_automorphisms(ThetaType((4, 4)))
    with pytest.raises(TooLarge):
        maximal_isotropic_subgroups(ThetaType((64, 64)))
    with pytest.raises(TooLarge):
        enumerate_symmetric_splittings(ThetaType((2,) * 7))


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
    assert stabilizer_u0sym(typ, auts) == setwise
    assert stabilizer_u0sym(typ, auts, pointwise=True) == pointwise

    m = typ.scalar_modulus
    elems = k_elements(typ)
    for z in elems:
        expected = tuple(int(pairing(z, w).exponent * m) % m for w in elems)
        assert inner_automorphism(z).chi_exponents == expected


def _same_solutions(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("divisors", ((2,), (3,), (4,), (6,), (8,), (2, 2), (1, 4)))
def test_twisted_characters_match_per_candidate_oracle(divisors, monkeypatch):
    """Checking the first candidate of a map decides all of them: every
    relation of every stacked solve made by the enumerations gets what the
    per-candidate check returns."""
    solve = heisenberg._solve_twisted_characters
    calls = []

    def per_relation(args):
        """(solutions, oracle solutions) for each relation of one stacked solve."""
        coords, gen_positions, orders, sum_index, beta, m = args
        got, solvable = solve(*args)
        for b in range(len(beta)):
            want = twisted_characters_oracle(coords, gen_positions, orders, sum_index, beta[b], m)
            yield (got[b] if solvable[b] else got[b][:0]), want

    def checked(*args):
        for got, want in per_relation(args):
            assert _same_solutions(got, want)
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(heisenberg, "_solve_twisted_characters", checked)
    typ = ThetaType(divisors)
    enumerate_automorphisms(typ, symmetric=False)
    for gens in maximal_isotropic_subgroups(typ):
        symmetric_splittings_over(gens, typ)
    assert calls

    # break the relation on one pair of non-generators: the order relations
    # still yield candidates, and the pair check must reject all of them
    coords, gen_positions, orders, sum_index, beta, m = calls[0]
    others = [i for i in range(len(coords)) if i not in gen_positions and coords[i].any()]
    if others:
        broken = beta.copy()
        broken[0, others[0], others[-1]] += 1
        got, want = next(per_relation((coords, gen_positions, orders, sum_index, broken, m)))
        assert len(got) == 0 == len(want)


def test_twisted_characters_require_additive_coordinates():
    typ = T4
    coords, sums = heisenberg._ktable(typ).coords, sum_ranks_oracle(typ)
    orders = list(typ.divisors) * 2
    heisenberg._check_additive(coords, sums, orders)
    with pytest.raises(ArithmeticError):
        heisenberg._check_additive(coords, sums, [2] * len(orders))


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
    assert enumerate_automorphisms(typ, symmetric=False) == everything
    assert enumerate_automorphisms(typ, symmetric=True) == symmetric
    assert [u.sort_key() for u in symmetric] == sorted(u.sort_key() for u in symmetric)
    for pointwise in (False, True):
        assert stabilizer_u0sym(typ, symmetric, pointwise=pointwise) == (
            stabilizer_loop_oracle(typ, symmetric, pointwise)
        )


@pytest.mark.parametrize(
    "divisors", ((2,), (3,), (4,), (6,), (8,), (1, 4), (2, 2), (2, 4), (3, 3), (2, 6))
)
def test_symplectic_maps_match_the_backtracking_oracle(divisors):
    """The pair-by-pair array holds the maps the backtracking yields, and
    each of its rows once."""
    typ = ThetaType(divisors)
    maps = heisenberg._symplectic_maps(typ, 2**30)
    rows = sorted(map(tuple, maps.tolist()))
    assert rows == sorted(symplectic_images_oracle(typ))
    assert len(set(rows)) == len(rows)
    with pytest.raises(TooLarge, match=f"at least {len(rows)} symplectic maps"):
        heisenberg._symplectic_maps(typ, len(rows) - 1)


def symplectic_group_order(p, g):
    """|Sp_2g(F_p)| = p^(g^2) prod_{i=1..g} (p^(2i) - 1)."""
    return p ** (g * g) * prod(p ** (2 * i) - 1 for i in range(1, g + 1))


def test_symplectic_group_order_examples():
    assert symplectic_group_order(2, 6) == 208_114_637_736_580_743_168_000
    assert symplectic_group_order(3, 2) == 51_840


@pytest.mark.parametrize("p, g", [(2, g) for g in range(1, 7)] + [(3, g) for g in range(1, 4)])
def test_symplectic_map_count_is_the_symplectic_group_order(p, g):
    """On (p,)*g the symplectic maps are Sp_2g(F_p): refused one below their
    number, `_symplectic_maps` names that number exactly."""
    count = symplectic_group_order(p, g)
    with pytest.raises(TooLarge, match=f"at least {count} symplectic maps"):
        heisenberg._symplectic_maps(ThetaType((p,) * g), count - 1)


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
    sample = auts[:48] + auts[:: len(auts) // 48]
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
        assert stabilizer_u0sym(T22, shuffled, pointwise=pointwise) == (
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
    assert stabilizer_oracle(typ, setwise) == (setwise, pointwise)
    subs = maximal_isotropic_subgroups(typ)
    pairs = sum(len(symmetric_splittings_over(gens, typ)) for gens in subs)
    assert len(subs) == 36
    assert len(auts) % len(setwise) == 0
    assert len(auts) // len(setwise) == pairs == 144
