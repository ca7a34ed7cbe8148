"""Finite Heisenberg groups of a given type and their splitting combinatorics.

For a divisor chain delta = (d_1 | ... | d_g) the group G(delta) is the
central extension of K(delta) = H(delta) x H(delta) by roots of unity with
multiplication

    (l1, x1, y1) (l2, x2, y2) = (l1 l2 <x1, y2>, x1 + x2, y1 + y2),

whose commutator is the standard symplectic pairing on K(delta).  This
module implements the group law exactly (scalars are rational exponents),
the inversion and inner automorphisms, the doubling map
G(2 delta) -> G(delta), symmetric splittings of H(delta) x {0} and their
pushforward under doubling, and exhaustive enumeration of the symmetric
automorphism group together with the stabilizer of the canonical splitting.

Semicharacters are never constructed from a closed form: candidate values
on generators are solved from the order relations, and the first candidate
of each map is verified against the defining relation on all pairs (the
others differ from it by a homomorphism), so the enumerations are
self-checking.  The intended regimes are small types like (2), (4), (2,2),
(2,4), (4,4); a hard bound |K(delta)| <= 2^12 is enforced.  Two enumerations
cost more than |K| says and are bounded by their work as well, raising
`TooLarge` before it starts: the automorphism enumerations once the
symplectic maps (counted first) times |K|^2 exceed 2^30 relation entries
(so (2,4), (3,3) and (2,6) answer, and (2,2,2), (2,8), (4,4) and (64,) do
not), and `maximal_isotropic_subgroups` above 2^24 generating tuples (the
Lagrangians of (4,4) and (8,8) are found, those of (2,2,2,2) are not).

All enumeration runs on integer arrays indexed by the rank of an element of
K(delta) (see `_KTable`), in blocks: the symplectic maps grow one hyperbolic
pair at a time, all together, the relations of many maps are solved as one
stack, and the symmetry filter, the ordering, the stabilizer tests and the
deduplication of subgroup spans each run over a whole block.  Sums, group-law
scalars and pairings are computed from coordinates, sized to what each call
reads, so no |K| x |K| table outlives a call.  `KVector` and
`HeisenbergElement` objects appear only in arguments and results.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Sequence

import numpy as np

from .cyclo import ONE, RootOfUnity

__all__ = [
    "TypeMismatch",
    "OddType",
    "TooLarge",
    "ThetaType",
    "KVector",
    "HeisenbergElement",
    "SymmetricSplitting",
    "HeisenbergAutomorphism",
    "k_zero",
    "k_basis",
    "k_elements",
    "pairing",
    "hmul",
    "hinv",
    "h_identity",
    "d_minus_one",
    "inner_auto",
    "inner_automorphism",
    "h2_map",
    "canonical_splitting",
    "enumerate_symmetric_splittings",
    "h2_pushforward_splitting",
    "enumerate_automorphisms",
    "enumerate_sym_automorphisms",
    "stabilizer_u0sym",
    "maximal_isotropic_subgroups",
    "symmetric_splittings_over",
]

ENUMERATION_BOUND = 2**12


class TypeMismatch(ValueError):
    """Operands have incompatible types."""


class OddType(ValueError):
    """Operation requires an even type (all divisors even)."""


class TooLarge(ValueError):
    """Enumeration exceeds the supported size bound."""


@dataclass(frozen=True, slots=True)
class ThetaType:
    """A divisor chain (d_1 | d_2 | ... | d_g) of positive integers."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(int(d) for d in self.divisors)
        object.__setattr__(self, "divisors", ds)
        if not ds:
            raise ValueError("type must have at least one divisor")
        if any(d <= 0 for d in ds):
            raise ValueError(f"divisors must be positive: {ds}")
        for small, big in zip(ds, ds[1:]):
            if big % small != 0:
                raise ValueError(f"divisor chain violated: {small} does not divide {big}")

    @property
    def g(self) -> int:
        return len(self.divisors)

    @property
    def degree(self) -> int:
        return prod(self.divisors)

    @property
    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.divisors)

    @property
    def k_order(self) -> int:
        return self.degree**2

    @property
    def scalar_modulus(self) -> int:
        """Common denominator for all scalar exponents: 4 * lcm(d_i)."""
        return 4 * lcm(*self.divisors)

    def double(self) -> "ThetaType":
        return ThetaType(tuple(2 * d for d in self.divisors))

    def half(self) -> "ThetaType":
        if any(d % 2 for d in self.divisors):
            raise TypeMismatch(f"type {self.divisors} is not divisible by 2")
        return ThetaType(tuple(d // 2 for d in self.divisors))

    def __repr__(self) -> str:
        return f"ThetaType({self.divisors})"


@dataclass(frozen=True, slots=True)
class KVector:
    """Element z = (x, y) of K(delta) = H(delta) x H(delta), reduced componentwise."""

    type: ThetaType
    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        ds = self.type.divisors
        if len(self.x) != len(ds) or len(self.y) != len(ds):
            raise TypeMismatch(f"coordinate length does not match type {ds}")
        object.__setattr__(self, "x", tuple(c % d for c, d in zip(self.x, ds)))
        object.__setattr__(self, "y", tuple(c % d for c, d in zip(self.y, ds)))

    def __add__(self, other: "KVector") -> "KVector":
        _same_type(self, other)
        return KVector(
            self.type,
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.y, other.y)),
        )

    def __neg__(self) -> "KVector":
        return KVector(self.type, tuple(-c for c in self.x), tuple(-c for c in self.y))

    def scale(self, k: int) -> "KVector":
        return KVector(self.type, tuple(k * c for c in self.x), tuple(k * c for c in self.y))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.x) and all(c == 0 for c in self.y)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.x + self.y

    def order(self) -> int:
        return lcm(*(d // gcd(c, d) for c, d in zip(self.coords, self.type.divisors * 2)))

    def __repr__(self) -> str:
        return f"KVector({self.x}, {self.y})"


def _same_type(a, b) -> None:
    if a.type != b.type:
        raise TypeMismatch(f"types differ: {a.type} vs {b.type}")


def k_zero(typ: ThetaType) -> KVector:
    return KVector(typ, (0,) * typ.g, (0,) * typ.g)


def k_basis(typ: ThetaType) -> list[KVector]:
    """Standard basis e_1..e_g (x-part), e_{g+1}..e_{2g} (y-part)."""
    g = typ.g
    out = []
    for i in range(2 * g):
        coords = [0] * (2 * g)
        coords[i] = 1
        out.append(KVector(typ, tuple(coords[:g]), tuple(coords[g:])))
    return out


def k_elements(typ: ThetaType) -> list[KVector]:
    """All of K(delta), in lexicographic coordinate order."""
    g = typ.g
    ranges = [range(d) for d in typ.divisors] * 2
    return [
        KVector(typ, coords[:g], coords[g:]) for coords in itertools.product(*ranges)
    ]


def pairing(z1: KVector, z2: KVector) -> RootOfUnity:
    """Standard symplectic pairing: <e_nu, e_{g+nu}> = zeta_{d_nu}^{-1}."""
    _same_type(z1, z2)
    return RootOfUnity(
        _xy_exponent(z1.x, z2.y, z1.type) - _xy_exponent(z2.x, z1.y, z1.type)
    )


def _xy_exponent(x: Sequence[int], y: Sequence[int], typ: ThetaType) -> Fraction:
    """Exponent of the group-law scalar <x, y> = prod zeta_{d_nu}^{-x_nu y_nu}."""
    return Fraction(sum(Fraction(-a * b, d) for a, b, d in zip(x, y, typ.divisors)))


@dataclass(frozen=True, slots=True)
class HeisenbergElement:
    """Triple (lambda, x, y) in the Heisenberg group of z.type."""

    scalar: RootOfUnity
    z: KVector

    @property
    def type(self) -> ThetaType:
        return self.z.type

    def __repr__(self) -> str:
        return f"HeisenbergElement({self.scalar!r}, {self.z!r})"


def h_identity(typ: ThetaType) -> HeisenbergElement:
    return HeisenbergElement(ONE, k_zero(typ))


def hmul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    _same_type(a.z, b.z)
    scalar = a.scalar * b.scalar * RootOfUnity(_xy_exponent(a.z.x, b.z.y, a.type))
    return HeisenbergElement(scalar, a.z + b.z)


def hinv(a: HeisenbergElement) -> HeisenbergElement:
    """Inverse, solved from the group law: hmul(a, hinv(a)) is the identity."""
    scalar = a.scalar.inverse() * RootOfUnity(_xy_exponent(a.z.x, a.z.y, a.type))
    return HeisenbergElement(scalar, -a.z)


def d_minus_one(a: HeisenbergElement) -> HeisenbergElement:
    """Inversion automorphism (lambda, z) -> (lambda, -z)."""
    return HeisenbergElement(a.scalar, -a.z)


def inner_auto(z: KVector, a: HeisenbergElement) -> HeisenbergElement:
    """The inner automorphism i(z): (lambda, z') -> (lambda <z, z'>, z')."""
    _same_type(z, a.z)
    return HeisenbergElement(a.scalar * pairing(z, a.z), a.z)


def h2_map(a: HeisenbergElement) -> HeisenbergElement:
    """Doubling homomorphism G(2 delta) -> G(delta): (lambda, z) -> (lambda^2, 2z).

    2z lands in 2.(Z/2d), which is canonically Z/d, so coordinates carry over
    unchanged into the half type.  The input type must be 2 delta for an even
    delta.
    """
    if any(d % 4 for d in a.type.divisors):
        raise TypeMismatch(f"type {a.type.divisors} is not the double of an even type")
    half = a.type.half()
    return HeisenbergElement(a.scalar**2, KVector(half, a.z.x, a.z.y))


# --- index tables -----------------------------------------------------------------
#
# Every enumeration below works on integer arrays indexed by the lexicographic
# rank of K(delta) elements.  The table keeps per-element arrays only, and two
# 2g x 2g forms: with exponents over the scalar modulus M, the group-law scalar
# <x(z1), y(z2)> is c1 W c2^T and the pairing <z2, z1> is c1 (W^T - W) c2^T.
# Callers derive the sums, scalars and pairings they read from coordinates,
# sized to what they read.  A subgroup, a span or an automorphism is an array
# of ranks; `KVector`s are looked up in `elements` only for results.

class _KTable:
    def __init__(self, typ: ThetaType):
        self.type = typ
        self.elements = k_elements(typ)
        self.n = len(self.elements)
        self.divisors = np.array(typ.divisors * 2, dtype=np.int64)
        self.coords = np.array([z.coords for z in self.elements], dtype=np.int64)
        self.orders = np.lcm.reduce(
            self.divisors // np.gcd(self.coords, self.divisors), axis=1
        )
        # mixed-radix place values for ranking a coordinate vector
        place = np.ones(2 * typ.g, dtype=np.int64)
        for i in range(2 * typ.g - 2, -1, -1):
            place[i] = place[i + 1] * self.divisors[i + 1]
        self.place = place
        self.neg_index = self.rank(-self.coords)
        m = typ.scalar_modulus
        self.xy_form = np.kron([[0, 1], [0, 0]], np.diag([-(m // d) for d in typ.divisors]))
        self.pair_form = self.xy_form.T - self.xy_form

    def rank(self, coords: np.ndarray) -> np.ndarray:
        return (coords % self.divisors) @ self.place

    def basis_ranks(self) -> np.ndarray:
        """Ranks of the standard basis e_1..e_2g."""
        return self.rank(np.eye(2 * self.type.g, dtype=np.int64))

    def sums(self, ranks: np.ndarray) -> np.ndarray:
        """Ranks of z_a + z_b for all a, b in `ranks`, shape (len(ranks), len(ranks))."""
        c = self.coords[ranks]
        return self.rank(c[:, None] + c)


def _check_bound(typ: ThetaType) -> None:
    if typ.k_order > ENUMERATION_BOUND:
        raise TooLarge(f"|K| = {typ.k_order} exceeds {ENUMERATION_BOUND}")


@lru_cache(maxsize=None)
def _ktable(typ: ThetaType) -> _KTable:
    _check_bound(typ)
    return _KTable(typ)


def _check_additive(coords: np.ndarray, sums: np.ndarray, orders: Sequence[int]) -> None:
    """Check coords[a + b] = coords[a] + coords[b] mod the generator orders, all a, b.

    `_solve_twisted_characters` relies on this to decide all candidates of a
    map by checking one; callers run it on each sum table they build.
    """
    for j, o in enumerate(orders):
        col = coords[:, j]
        want = np.add.outer(col, col)
        want %= o
        if not np.array_equal(col[sums], want):
            raise ArithmeticError(f"coordinate {j} is not additive mod {o}")


def _solve_twisted_characters(
    coords: np.ndarray,
    gen_positions: list[int],
    gen_orders: list[int],
    sums: np.ndarray,
    beta: np.ndarray,
    modulus: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All integer maps s (mod `modulus`) with s(a+b) = s(a) + s(b) + beta(a, b).

    The group is given by tables over its elements 0..n-1: `coords` holds the
    exponents of each element with respect to a generating tuple realizing
    the group as a direct product of cyclic groups of the given orders, the
    generators themselves sitting at `gen_positions`; `coords` must be
    additive (`_check_additive`).  `beta` is a stack of B relations, shape
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


# --- symmetric splittings ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SymmetricSplitting:
    """A symmetric lift of H(delta) x {0}: sigma(h) = (sigma_*(h), h, 0).

    sigma_* is a homomorphism H(delta) -> mu_2, stored by its signs on the g
    standard generators.
    """

    type: ThetaType
    star_signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.star_signs) != self.type.g:
            raise TypeMismatch("need one sign per generator")
        if any(s not in (1, -1) for s in self.star_signs):
            raise ValueError(f"signs must be +-1: {self.star_signs}")
        for s, d in zip(self.star_signs, self.type.divisors):
            if s == -1 and d % 2 != 0:
                raise OddType(f"no sign character on Z/{d}")

    def sigma_star(self, h: Sequence[int]) -> RootOfUnity:
        e = sum(hi for hi, s in zip(h, self.star_signs) if s == -1)
        return RootOfUnity(Fraction(e, 2))

    def sigma(self, h: Sequence[int]) -> HeisenbergElement:
        z = KVector(self.type, tuple(h), (0,) * self.type.g)
        return HeisenbergElement(self.sigma_star(h), z)

    def to_json(self) -> dict:
        return {"type": list(self.type.divisors), "signs": list(self.star_signs)}


def canonical_splitting(typ: ThetaType) -> SymmetricSplitting:
    """The canonical splitting sigma(h) = (1, h, 0)."""
    return SymmetricSplitting(typ, (1,) * typ.g)


def enumerate_symmetric_splittings(typ: ThetaType) -> list[SymmetricSplitting]:
    """All homomorphisms H(delta) -> mu_2, i.e. all 2^g symmetric lifts of H(delta)."""
    if not typ.is_even:
        raise OddType(f"type {typ.divisors} is not even")
    _check_bound(typ)
    return [
        SymmetricSplitting(typ, signs)
        for signs in itertools.product((1, -1), repeat=typ.g)
    ]


def h2_pushforward_splitting(sigma: SymmetricSplitting) -> SymmetricSplitting:
    """Push a symmetric splitting of type 2 delta down to type delta.

    Computed by applying the doubling map to the lifted generators; the
    squared signs force the canonical splitting, whatever sigma was.
    """
    half = sigma.type.half()  # raises TypeMismatch when not a doubled type
    if not half.is_even:
        raise TypeMismatch(f"half type {half.divisors} is not even")
    signs = []
    for i in range(sigma.type.g):
        gen = tuple(1 if j == i else 0 for j in range(sigma.type.g))
        image = h2_map(sigma.sigma(gen))
        if image.scalar != ONE:
            raise ArithmeticError(f"pushforward scalar {image.scalar} is not trivial")
        signs.append(1)
    return SymmetricSplitting(half, tuple(signs))


# --- automorphisms ------------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergAutomorphism:
    """An automorphism (lambda, z) -> (lambda chi(z), eta z) fixing the center.

    eta is stored by the ranks (positions in the lexicographic element order,
    see `_KTable`) of the images of the 2g standard basis vectors; chi by its
    exponent table over the type's scalar modulus M, in the same order:
    chi(z_i) = e^{2 pi i chi_exponents[i] / M}.
    """

    type: ThetaType
    eta_ranks: tuple[int, ...]
    chi_exponents: tuple[int, ...]

    @property
    def eta_images(self) -> tuple[KVector, ...]:
        elements = _ktable(self.type).elements
        return tuple(elements[i] for i in self.eta_ranks)

    def eta(self, z: KVector) -> KVector:
        _same_type(self, z)
        table = _ktable(self.type)
        coords = np.array(z.coords, dtype=np.int64)
        return table.elements[int(table.rank(coords @ _eta_matrix(self)))]

    def chi(self, z: KVector) -> RootOfUnity:
        _same_type(self, z)
        rank = int(_ktable(self.type).rank(np.array(z.coords)))
        return RootOfUnity(Fraction(self.chi_exponents[rank], self.type.scalar_modulus))

    def apply(self, a: HeisenbergElement) -> HeisenbergElement:
        return HeisenbergElement(a.scalar * self.chi(a.z), self.eta(a.z))

    def compose(self, other: "HeisenbergAutomorphism") -> "HeisenbergAutomorphism":
        """self after other."""
        table = _ktable(self.type)
        other_perm = _eta_permutation(other, table)
        self_exp = np.array(self.chi_exponents, dtype=np.int64)
        other_exp = np.array(other.chi_exponents, dtype=np.int64)
        exps = (other_exp + self_exp[other_perm]) % self.type.scalar_modulus
        ranks = table.rank(_eta_matrix(other) @ _eta_matrix(self))
        return HeisenbergAutomorphism(self.type, tuple(ranks.tolist()), tuple(exps.tolist()))

    def is_identity(self) -> bool:
        return self == identity_automorphism(self.type)

    def sort_key(self) -> tuple:
        return (tuple(img.coords for img in self.eta_images), self.chi_exponents)

    def __repr__(self) -> str:
        return f"HeisenbergAutomorphism(eta={[i.coords for i in self.eta_images]})"

    def to_json(self) -> dict:
        return {
            "type": list(self.type.divisors),
            "eta": [list(img.coords) for img in self.eta_images],
            "chi_exponents": list(self.chi_exponents),
            "chi_modulus": self.type.scalar_modulus,
        }


def _eta_matrix(u: HeisenbergAutomorphism) -> np.ndarray:
    """Rows are the coordinates of the basis images, so eta(z) = z.coords @ matrix."""
    return _ktable(u.type).coords[list(u.eta_ranks)]


def _eta_permutation(u: HeisenbergAutomorphism, table: _KTable) -> np.ndarray:
    return table.rank(table.coords @ _eta_matrix(u))


def identity_automorphism(typ: ThetaType) -> HeisenbergAutomorphism:
    table = _ktable(typ)
    return HeisenbergAutomorphism(typ, tuple(table.basis_ranks().tolist()), (0,) * table.n)


def inner_automorphism(z: KVector) -> HeisenbergAutomorphism:
    """i(z) as a HeisenbergAutomorphism: eta = id, chi = <z, .>."""
    table = _ktable(z.type)
    exps = table.coords @ table.pair_form @ np.array(z.coords) % z.type.scalar_modulus
    return HeisenbergAutomorphism(z.type, tuple(table.basis_ranks().tolist()), tuple(exps.tolist()))


def _symplectic_maps(typ: ThetaType, limit: int) -> np.ndarray:
    """All pairing-preserving automorphisms of K(delta), counted, then built.

    Row k of the result (N, 2g) holds the ranks of the images f_j of the
    standard basis e_j under map k: d_j f_j = 0 and <f_j, f_k> = <e_j, e_k>
    (bijective, as the pairing is non-degenerate).  A partial map sends the
    hyperbolic pairs (e_mu, e_{g+mu}), mu < nu, and all partial maps extend
    together by every (f_nu, f_{g+nu}) killed by d_nu, orthogonal to their
    images and pairing as e_nu with e_{g+nu}.

    Every partial map p has as many completions as the identity's.  Its
    images span P with a symplectic basis of type (d_1, .., d_{nu-1}), so
    K = P + P-perp, and P-perp, isomorphic to (Z/d_nu x .. x Z/d_g)^2 by
    cancellation and non-degenerate, has a symplectic basis of that type.
    Hence a symplectic automorphism of K sends the identity's partial map to
    p, and its completions onto those of p.  The number of maps is then the
    product over nu of the identity's completions, which only grows with nu,
    so `TooLarge` is raised, before any map is built, once it passes `limit`.

    The identity's completions are counted from coordinates.  Its candidates
    form T, the elements killed by d_nu with zero coordinates in the earlier
    pairs (orthogonal to e_mu, e_{g+mu}), generated by the (d_mu / d_nu) e_mu
    and (d_mu / d_nu) e_{g+mu}, mu >= nu.  For f in T, f' -> <f, f'> is a
    homomorphism T -> mu_{d_nu}, and <e_nu, e_{g+nu}> is a primitive d_nu-th
    root, so f has |T| / d_nu partners f' when its pairings with the
    generators of T generate mu_{d_nu}, and none otherwise.
    """
    table = _ktable(typ)
    g, m = typ.g, typ.scalar_modulus
    count = 1
    for nu, d in enumerate(typ.divisors):
        earlier = table.coords[:, np.r_[:nu, g : g + nu]].any(axis=1)
        t = table.coords[(d % table.orders == 0) & ~earlier]
        gens = np.diag(table.divisors // d)[np.r_[nu:g, g + nu : 2 * g]]
        onto = np.gcd.reduce(t @ table.pair_form @ gens.T % m, axis=1, initial=m) == m // d
        count *= int(np.count_nonzero(onto)) * (len(t) // d)
        if count > limit:
            raise TooLarge(f"at least {count} symplectic maps of |K| = {table.n} exceed {limit}")
    maps = np.zeros((1, 0), dtype=np.int64)
    for nu, d in enumerate(typ.divisors):
        # the candidates (N, L) are killed by d_nu and orthogonal to the partial
        # maps (N, 2nu); the mask (N, L, L) admits (f_nu, f_{g+nu})
        killed = np.flatnonzero(d % table.orders == 0)
        images = table.coords[maps] @ table.pair_form
        orthogonal = ~(images @ table.coords[killed].T % m).any(axis=1)
        cand = np.broadcast_to(killed, orthogonal.shape)[orthogonal].reshape(len(maps), -1)
        c = table.coords[cand]
        ok = c @ table.pair_form @ c.transpose(0, 2, 1) % m == table.pair_form[nu, g + nu] % m
        row, a, b = np.nonzero(ok)
        maps = np.column_stack([maps[row, :nu], cand[row, a], maps[row, nu:], cand[row, b]])
    return maps


_RELATION_CHUNK = 2**16  # beta entries (maps x n x n) solved at once while enumerating
_RELATION_BOUND = 2**30  # beta entries (maps x n x n) solved in one enumeration


def enumerate_automorphisms(
    typ: ThetaType, symmetric: bool = True
) -> list[HeisenbergAutomorphism]:
    """All center-fixing automorphisms of G(delta); the symmetric ones by default.

    An automorphism is a pair (eta, chi) with eta symplectic on K(delta) and
    chi an eta-semicharacter, i.e. a solution of

        chi(z1 + z2) = chi(z1) chi(z2) <x(eta z1), y(eta z2)> <x(z1), y(z2)>^{-1}.

    The symmetric ones are those commuting with the inversion automorphism,
    which amounts to chi(-z) = chi(z).  `TooLarge` is raised, before any
    map is built, when the maps times |K|^2 exceed `_RELATION_BOUND`.
    """
    table = _ktable(typ)
    m = typ.scalar_modulus
    gen_positions = [int(i) for i in table.basis_ranks()]
    orders = list(typ.divisors) * 2
    maps = _symplectic_maps(typ, _RELATION_BOUND // table.n**2)
    sums = table.sums(np.arange(table.n))
    _check_additive(table.coords, sums, orders)

    # the relations of a chunk of maps are solved as one stack and filtered
    # as one block; objects are built only for the survivors.  A map with basis
    # images E turns W into E W E^T, so beta(z1, z2) = c1 (E W E^T - W) c2^T.
    chunk = max(1, _RELATION_CHUNK // table.n**2)
    owners, blocks = [], []
    for start in range(0, len(maps), chunk):
        eta = table.coords[maps[start : start + chunk]]
        forms = eta @ table.xy_form @ eta.transpose(0, 2, 1) - table.xy_form
        beta = table.coords @ forms @ table.coords.T
        beta %= m
        chi, solvable = _solve_twisted_characters(
            table.coords, gen_positions, orders, sums, beta, m
        )
        keep = np.repeat(solvable[:, None], chi.shape[1], axis=1)
        if symmetric:
            keep &= (chi[:, :, table.neg_index] == chi).all(axis=2)
        owners.append(start + np.nonzero(keep)[0])
        blocks.append(chi[keep].astype(np.min_scalar_type(m - 1)))
    owner = np.concatenate(owners)
    chi = np.concatenate(blocks)
    eta = maps[owner].astype(np.min_scalar_type(table.n - 1))
    # ranks are lexicographic in the coordinates, so ordering by (eta ranks,
    # chi) is `sort_key` order; small unsigned keys sort by radix
    order = np.lexsort((*chi.T[::-1], *eta.T[::-1]))
    eta_ranks = [tuple(row) for row in maps.tolist()]
    return [
        HeisenbergAutomorphism(typ, eta_ranks[k], row)
        for k, row in zip(owner[order].tolist(), map(tuple, chi[order].tolist()))
    ]


def enumerate_sym_automorphisms(typ: ThetaType) -> list[HeisenbergAutomorphism]:
    """The symmetric automorphism group of G(delta), exhaustively."""
    return enumerate_automorphisms(typ, symmetric=True)


def stabilizer_u0sym(
    typ: ThetaType,
    automorphisms: list[HeisenbergAutomorphism] | None = None,
    pointwise: bool = False,
) -> list[HeisenbergAutomorphism]:
    """Stabilizer of the canonical splitting inside the symmetric automorphisms.

    The defining condition u . sigma_can(H) <= sigma_can(H) is read setwise:
    u must send each lift (1, h, 0) to some lift (1, h', 0).  The strictly
    stronger pointwise reading (h' = h) is available for comparison; the two
    differ in general and tests report both cardinalities.
    """
    if automorphisms is None:
        automorphisms = enumerate_sym_automorphisms(typ)
    # identity first: comparing every type by value costs 40% of a (2,2) call
    elif any(u.type is not typ and u.type != typ for u in automorphisms):
        raise TypeMismatch(f"automorphisms of another type than {typ} given")
    if not automorphisms:
        return []
    table = _ktable(typ)
    g = typ.g
    m = typ.scalar_modulus
    # ranks of the lifts (1, h, 0): the elements with zero y-part
    hidx = np.flatnonzero(~table.coords[:, g:].any(axis=1))
    # each distinct map is stacked once
    slots: dict[tuple[int, ...], int] = {}
    owner = [slots.setdefault(u.eta_ranks, len(slots)) for u in automorphisms]
    on_lifts = operator.itemgetter(*hidx.tolist())
    chi = np.array([on_lifts(u.chi_exponents) for u in automorphisms], dtype=np.int64)
    chi = chi.reshape(len(automorphisms), len(hidx))
    image = table.rank(table.coords[hidx] @ table.coords[list(slots)])
    keep = ~table.coords[image, g:].any(axis=(1, 2))  # eta(H x 0) = H x 0
    if pointwise:
        keep &= (image == hidx).all(axis=1)
    keep = keep[owner] & ~(chi % m).any(axis=1)
    return [u for u, k in zip(automorphisms, keep.tolist()) if k]


# --- splitting pairs over arbitrary maximal isotropic subgroups --------------------

_SPAN_CHUNK = 2**17  # span elements materialized at once while enumerating subgroups
_TUPLE_BOUND = 2**24  # generating tuples tried by one subgroup enumeration


def maximal_isotropic_subgroups(typ: ThetaType) -> list[tuple[KVector, ...]]:
    """Subgroups of K(delta) isomorphic to H(delta) with H-perp = H.

    Each subgroup is returned once, as a generating tuple realizing it as
    prod Z/d_i: the first such tuple, in product order over the elements of
    order dividing d_i, whose span has d elements.  `TooLarge` is raised
    when there are more than `_TUPLE_BOUND` such tuples to try.

    The pairing is bilinear, so a span is isotropic exactly when its
    generators pair trivially, and tuples are filtered on their g x g
    generator pairings before any span is built.  An isotropic span H with
    d elements is Lagrangian: H lies in H-perp, which has |K| / |H| = d
    elements as the pairing is non-degenerate, so H = H-perp.
    """
    table = _ktable(typ)
    d, m = typ.degree, typ.scalar_modulus
    candidates = [np.flatnonzero(o % table.orders == 0) for o in typ.divisors]
    shape = tuple(len(c) for c in candidates)
    total = prod(shape)
    if total > _TUPLE_BOUND:
        raise TooLarge(f"{total} generating tuples exceed {_TUPLE_BOUND}")
    # the span of gens is sum_i mult_i gens_i for mult in prod range(d_i)
    mult = np.array(
        list(itertools.product(*(range(o) for o in typ.divisors))), dtype=np.int64
    )
    step = max(1, _SPAN_CHUNK // d)
    seen: dict[bytes, tuple[int, ...]] = {}
    for start in range(0, total, step):
        pos = np.unravel_index(np.arange(start, min(start + step, total)), shape)
        gens = np.stack([c[p] for c, p in zip(candidates, pos)], axis=1)
        gc = table.coords[gens]
        gens = gens[~(gc @ table.pair_form @ gc.transpose(0, 2, 1) % m).any(axis=(1, 2))]
        spans = np.sort(table.rank(mult @ table.coords[gens]), axis=1)
        full = (np.diff(spans, axis=1) != 0).all(axis=1)
        # the stable lexsort keeps the first generating tuple of each span in
        # front; small unsigned keys sort by radix
        spans = spans[full].astype(np.min_scalar_type(table.n - 1))
        order = np.lexsort(spans.T[::-1])
        gens, spans = gens[full][order], spans[order]
        first = np.ones(len(spans), dtype=bool)
        first[1:] = (spans[1:] != spans[:-1]).any(axis=1)
        for i in np.flatnonzero(first).tolist():
            seen.setdefault(spans[i].tobytes(), tuple(gens[i].tolist()))
    # ranks are lexicographic in the coordinates, so this is the coordinate order
    return [tuple(table.elements[i] for i in gs) for gs in sorted(seen.values())]


def symmetric_splittings_over(
    gens: tuple[KVector, ...], typ: ThetaType
) -> list[dict[KVector, RootOfUnity]]:
    """All symmetric lifts of the subgroup generated by `gens` to G(delta).

    A lift sigma(h) = (s(h), h) is a homomorphism exactly when s satisfies the
    group-law cocycle relation s(h1 + h2) = s(h1) s(h2) <x(h1), y(h2)>, and is
    symmetric when s(-h) = s(h).  Returns the scalar maps s.
    """
    for g_ in gens:
        if g_.type != typ:
            raise TypeMismatch(f"types differ: {g_.type} vs {typ}")
    table = _ktable(typ)
    m = typ.scalar_modulus
    gen_coords = np.array([g_.coords for g_ in gens], dtype=np.int64)
    gen_ranks = table.rank(gen_coords.reshape(len(gens), 2 * typ.g))
    orders = [int(o) for o in table.orders[gen_ranks]]
    # the element at local coordinates c is sum c_j gens_j, of global rank gidx
    coords = np.array(
        list(itertools.product(*(range(o) for o in orders))), dtype=np.int64
    )
    gidx = table.rank(coords @ table.coords[gen_ranks])
    ranks = np.sort(gidx)
    if (ranks[1:] == ranks[:-1]).any():
        raise ValueError("generators do not realize the subgroup as a direct product")

    local = np.full(table.n, -1, dtype=np.int64)
    local[gidx] = np.arange(len(gidx))
    sums = local[table.sums(gidx)]
    neg_index = local[table.neg_index[gidx]]
    beta = table.coords[gidx] @ table.xy_form @ table.coords[gidx].T % m
    gen_positions = [int(i) for i in local[gen_ranks]]
    elems = [table.elements[i] for i in gidx]
    _check_additive(coords, sums, orders)

    chi, solvable = _solve_twisted_characters(
        coords, gen_positions, orders, sums, beta[None], m
    )
    chi = chi[0][(chi[0][:, neg_index] == chi[0]).all(axis=1) & solvable[0]]
    return [
        {z: RootOfUnity(Fraction(v, m)) for z, v in zip(elems, values)}
        for values in chi.tolist()
    ]
