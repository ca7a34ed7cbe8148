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

Semicharacters and symmetric lifts are read off in closed form
(`_semicharacter_values`).  The intended regimes are small types like (2),
(4), (2,2), (2,4), (3,3), (4,4): |K(delta)| <= 2^12 is enforced, and the
enumerations raise `TooLarge` before work starts past `_READ_BOUND` or
`_TUPLE_BOUND`.  Enumeration runs in blocks on integer arrays indexed by rank
in K(delta) (`_KTable`); automorphisms stay rows of arrays until read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .cyclo import ONE, RootOfUnity, _root

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
    return [KVector(typ, tuple(e[:g]), tuple(e[g:])) for e in np.eye(2 * g, dtype=int).tolist()]


def k_elements(typ: ThetaType) -> list[KVector]:
    """All of K(delta), in lexicographic coordinate order."""
    g = typ.g
    ranges = [range(d) for d in typ.divisors] * 2
    return [KVector(typ, c[:g], c[g:]) for c in itertools.product(*ranges)]


def pairing(z1: KVector, z2: KVector) -> RootOfUnity:
    """Standard symplectic pairing: <e_nu, e_{g+nu}> = zeta_{d_nu}^{-1}."""
    _same_type(z1, z2)
    return RootOfUnity(_xy_exponent(z1.x, z2.y, z1.type) - _xy_exponent(z2.x, z1.y, z1.type))


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
# The table keeps per-element arrays, indexed by lexicographic rank, and two
# 2g x 2g forms: with exponents over the scalar modulus M, the group-law scalar
# <x(z1), y(z2)> is c1 W c2^T and the pairing <z2, z1> is c1 (W^T - W) c2^T.
# Callers derive the sums, scalars and pairings they read from coordinates.

class _KTable:
    def __init__(self, typ: ThetaType):
        self.type = typ
        self.elements = tuple(k_elements(typ))
        self.n = len(self.elements)
        self.divisors = np.array(typ.divisors * 2, dtype=np.int64)
        self.coords = np.array([z.coords for z in self.elements], dtype=np.int64)
        self.orders = np.lcm.reduce(self.divisors // np.gcd(self.coords, self.divisors), axis=1)
        # mixed-radix place values for ranking a coordinate vector
        self.place = np.append(np.cumprod(self.divisors[:0:-1])[::-1], 1)
        m = typ.scalar_modulus
        self.xy_form = np.kron([[0, 1], [0, 0]], np.diag([-(m // d) for d in typ.divisors]))
        self.pair_form = self.xy_form.T - self.xy_form
        # `_ktable` caches one table per type for the process: the elements are
        # a tuple and the arrays read-only, so no caller can change them
        for a in (self.divisors, self.coords, self.orders, self.place, self.xy_form, self.pair_form):
            a.setflags(write=False)

    def rank(self, coords: np.ndarray) -> np.ndarray:
        return (coords % self.divisors) @ self.place

    def basis_ranks(self) -> np.ndarray:
        """Ranks of the standard basis e_1..e_2g."""
        return self.rank(np.eye(2 * self.type.g, dtype=np.int64))


def _check_bound(typ: ThetaType) -> None:
    if typ.k_order > ENUMERATION_BOUND:
        raise TooLarge(f"|K| = {typ.k_order} exceeds {ENUMERATION_BOUND}")


@lru_cache(maxsize=None)
def _ktable(typ: ThetaType) -> _KTable:
    _check_bound(typ)
    return _KTable(typ)


# --- semicharacters in closed form -------------------------------------------------

def _semicharacter_values(
    diag: np.ndarray, orders: Sequence[int], m: int, symmetric: bool
) -> np.ndarray:
    """Generator values l of the solutions s of a relation, or of the symmetric ones.

    The relation is s(a + b) = s(a) + s(b) + c_a B c_b^T mod M on A = prod Z/o_i,
    B symmetric with o_i B_ij = 0 and 4 | B_ii: E W E^T - W for a symplectic
    map with basis images E, or G W G^T for the generators G of an isotropic
    subgroup.  For diagonals diag (N, k), returns (N, P, k): the P solutions
    of each form, in product order over the generators, l_i ascending.

    Every solution has the closed form (Mumford, "On the equations defining
    abelian varieties I", Invent. Math. 1, 1966, section 1)

        s(c) = sum_{i<j} c_i B_ij c_j + sum_i B_ii c_i (c_i - 1) / 2 + l . c,

    l_i = s(e_i), and l gives one exactly when o_i l_i + B_ii o_i (o_i - 1) / 2
    = 0 mod M.  Proof: the quadratic part q has q(a + b) = q(a) + q(b) + a B b^T
    on Z^k, so s pulled back to Z^k is q + l . c, whose value at o_i e_i is
    s(0) = 0.  Conversely F = q + l . c has F(c + o_i e_i) - F(c) = F(o_i e_i)
    + o_i (c B)_i = 0 mod M, so F descends to A.  So l_i = -B_ii (o_i - 1) / 2
    mod M / o_i.

    s is symmetric exactly when 2 l = diag(B) mod M.  Proof: phi(z) = 2 s(z) -
    c B c^T is additive as B is symmetric, and s(z) + s(-z) = c B c^T, from
    s(0) = 0, gives s(-z) - s(z) = -phi(z), zero exactly when 2 l_i = B_ii.
    Of the roots B_ii / 2 + eps M / 2, with o_i B_ii = t M, the order relation
    keeps those with (t + eps) o_i even: both when o_i is even, one when odd
    (checked, so every form keeps as many rows).
    """
    diag = diag.astype(np.int64)
    options = []
    for i, o in enumerate(orders):
        step = m // o
        l = (-(diag[:, i] * (o - 1) // 2) % step)[:, None] + step * np.arange(o)
        if symmetric:
            keep = (2 * l - diag[:, i, None]) % m == 0
            count = 2 - o % 2
            if not (keep.sum(axis=1) == count).all():
                raise ArithmeticError(f"generator {i} has no {count} symmetric values")
            l = l[keep].reshape(len(l), count)
        options.append(l)
    grid = np.array(list(itertools.product(*(range(o.shape[1]) for o in options))), dtype=np.intp)
    values = [opts[:, grid[:, i]] for i, opts in enumerate(options)]
    return np.stack(values, axis=-1) if values else np.zeros((len(diag), 1, 0), dtype=np.int64)


def _closed_form(coords: np.ndarray, forms: np.ndarray, l: np.ndarray, m: int) -> np.ndarray:
    """s(c) mod M, shape (R, n), of R solutions (forms, l) on n coordinate rows.

    2 s(c) = c B c^T + (2 l - diag(B)) . c over the integers, B symmetric; its
    terms are integers below 2^53, so the float product and its half are exact.
    """
    r, k = l.shape
    forms, l = forms.astype(np.float64), l.astype(np.float64)
    coef = np.hstack([forms.reshape(r, k * k), 2 * l - np.diagonal(forms, axis1=1, axis2=2)])
    squares = (coords[:, :, None] * coords[:, None, :]).reshape(len(coords), k * k)
    terms = np.hstack([squares, coords])
    return (coef @ terms.T.astype(np.float64) / 2).astype(np.int64) % m


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
    return [SymmetricSplitting(typ, s) for s in itertools.product((1, -1), repeat=typ.g)]


def h2_pushforward_splitting(sigma: SymmetricSplitting) -> SymmetricSplitting:
    """Push a symmetric splitting of type 2 delta down to type delta.

    Computed by applying the doubling map to the lifted generators; the
    squared signs force the canonical splitting, whatever sigma was.
    """
    half = sigma.type.half()  # raises TypeMismatch when not a doubled type
    if not half.is_even:
        raise TypeMismatch(f"half type {half.divisors} is not even")
    for gen in np.eye(sigma.type.g, dtype=np.int64).tolist():
        if (scalar := h2_map(sigma.sigma(gen)).scalar) != ONE:
            raise ArithmeticError(f"pushforward scalar {scalar} is not trivial")
    return canonical_splitting(half)


# --- automorphisms ------------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergAutomorphism:
    """An automorphism (lambda, z) -> (lambda chi(z), eta z) fixing the center.

    eta is stored by the ranks (lexicographic positions, see `_KTable`) of the
    images of the 2g basis vectors, chi by its exponents over the scalar
    modulus M in that order: chi(z_i) = e^{2 pi i chi_exponents[i] / M}.
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


def _symplectic_map_count(typ: ThetaType) -> int:
    """The number of `_symplectic_maps`, read off coordinates.

    A partial map p on the pairs (e_mu, e_{g+mu}), mu < nu, has as many
    completions (f_nu, f_{g+nu}) as the identity's: its images span P of type
    (d_1, .., d_{nu-1}), K = P + P-perp, and P-perp, of type (d_nu, .., d_g)
    by cancellation, has a symplectic basis, so a symplectic automorphism of
    K sends the identity's partial map and completions to p's.  The identity's
    candidates form T, killed by d_nu and zero in the earlier pairs, spanned
    by the (d_mu / d_nu) e_mu, (d_mu / d_nu) e_{g+mu}, mu >= nu.  As
    f' -> <f, f'> maps T to mu_{d_nu}, f has |T| / d_nu partners when its
    pairings with those generate mu_{d_nu}, and none otherwise.
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
    return count


def _symplectic_maps(typ: ThetaType) -> np.ndarray:
    """All pairing-preserving automorphisms of K(delta), built pair by pair.

    Row k (N, 2g) holds the ranks of the basis images f_j under map k: d_j f_j
    = 0 and <f_j, f_k> = <e_j, e_k>.  The partial maps extend by every pair
    killed by d_nu, orthogonal to their images and pairing as e_nu, e_{g+nu}.
    """
    table = _ktable(typ)
    g, m = typ.g, typ.scalar_modulus
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


# chi exponents (automorphisms x |K|) an enumeration yields when read in full,
# 8 to 10 bytes each in a list: symmetric (2,6), 0.59 x 2^26, peaks at 406 MB.
# Non-symmetric (14,) .. (20,), (3,3) and (2,6) need 1.2 to 14 times 2^26.
_READ_BOUND = 2**26
_CHI_BLOCK = 2**16  # chi exponents computed at once while reading automorphisms


class _Automorphisms(Sequence):
    """Automorphisms as rows, built into `HeisenbergAutomorphism`s when read.

    Row k holds the ranks of the basis images of eta, l_i = chi(e_i), and the
    form B of eta (`_forms`); chi is the closed form of (B, l).  It equals
    any sequence of the same automorphisms; `in` looks up the (eta, l) row of
    its value and builds the chi table of a matching row only.
    """

    def __init__(self, typ: ThetaType, eta: np.ndarray, l: np.ndarray, forms: np.ndarray):
        self.type, self.eta, self.l, self.forms = typ, eta, l, forms

    def __len__(self) -> int:
        return len(self.eta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(index)
        return next(self._build([range(len(self))[index]]))

    def __iter__(self):
        step = max(1, _CHI_BLOCK // self.type.k_order)
        for start in range(0, len(self), step):
            yield from self._build(slice(start, start + step))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __contains__(self, value) -> bool:
        if type(value) is not HeisenbergAutomorphism or value.type != self.type:
            return False
        table, eta, chi = _ktable(self.type), value.eta_ranks, value.chi_exponents
        if len(eta) != 2 * self.type.g or len(chi) != table.n:
            return False
        l = [chi[i] for i in table.basis_ranks().tolist()]
        rows = np.flatnonzero((self.eta == eta).all(axis=1) & (self.l == l).all(axis=1))
        return bool((self.chi(rows) == chi).all(axis=1).any())

    def chi(self, rows) -> np.ndarray:
        """The chi exponent tables of `rows`, shape (R, |K|)."""
        coords = _ktable(self.type).coords
        return _closed_form(coords, self.forms[rows], self.l[rows], self.type.scalar_modulus)

    def _build(self, rows):
        for eta, chi in zip(self.eta[rows].tolist(), self.chi(rows).tolist()):
            yield HeisenbergAutomorphism(self.type, tuple(eta), tuple(chi))

    def _take(self, rows) -> "_Automorphisms":
        return _Automorphisms(self.type, self.eta[rows], self.l[rows], self.forms[rows])


def _forms(table: _KTable, maps: np.ndarray) -> np.ndarray:
    """B = E W E^T - W mod M, symmetric as E preserves W^T - W, for basis images E."""
    eta = table.coords[maps.astype(np.intp)]
    forms = eta @ table.xy_form @ eta.transpose(0, 2, 1) - table.xy_form
    return forms % table.type.scalar_modulus


def enumerate_automorphisms(
    typ: ThetaType, symmetric: bool = True
) -> Sequence[HeisenbergAutomorphism]:
    """All center-fixing automorphisms of G(delta); the symmetric ones by default.

    An automorphism is a pair (eta, chi) with eta symplectic on K(delta) and
    chi an eta-semicharacter, i.e. a solution of

        chi(z1 + z2) = chi(z1) chi(z2) <x(eta z1), y(eta z2)> <x(z1), y(z2)>^{-1},

    whose exponents meet s(z1 + z2) = s(z1) + s(z2) + c1 B c2^T (`_forms`).
    The symmetric ones commute with the inversion: chi(-z) = chi(z).  Each
    map has |K| solutions, or one per 2-torsion point when symmetric, and
    `TooLarge` is raised before any map is built when their chi tables
    together exceed `_READ_BOUND` entries.

    Returns a read-only sequence, not a list, in `sort_key` order: by map
    (ranks are lexicographic in coordinates), then by l read from its end.
    Two solutions differ by a homomorphism h; if l_i is their last differing
    entry, h vanishes below e_i in rank, so their chi tables first differ at e_i.
    """
    table, m, orders = _ktable(typ), typ.scalar_modulus, typ.divisors * 2
    per_map = prod(2 - o % 2 for o in orders) if symmetric else table.n
    count = _symplectic_map_count(typ)
    if (total := count * per_map * table.n) > _READ_BOUND:
        size = f"{count} symplectic maps x {per_map} semicharacters x |K| = {table.n}"
        raise TooLarge(f"{size} = {total} chi exponents exceed {_READ_BOUND}")
    maps = _symplectic_maps(typ).astype(np.min_scalar_type(table.n - 1))
    maps = maps[np.lexsort(maps.T[::-1])]  # small unsigned keys sort by radix
    forms = _forms(table, maps).astype(np.min_scalar_type(m - 1))
    diag = np.diagonal(forms, axis1=1, axis2=2)
    l = _semicharacter_values(diag[:, ::-1], orders[::-1], m, symmetric)[..., ::-1]
    l = l.reshape(-1, 2 * typ.g).astype(forms.dtype)
    return _Automorphisms(typ, np.repeat(maps, per_map, axis=0), l, np.repeat(forms, per_map, 0))


def enumerate_sym_automorphisms(typ: ThetaType) -> Sequence[HeisenbergAutomorphism]:
    """The symmetric automorphism group of G(delta), exhaustively."""
    return enumerate_automorphisms(typ, symmetric=True)


def stabilizer_u0sym(
    typ: ThetaType,
    automorphisms: Sequence[HeisenbergAutomorphism] | None = None,
    pointwise: bool = False,
) -> Sequence[HeisenbergAutomorphism]:
    """Stabilizer of the canonical splitting inside the symmetric automorphisms.

    The defining condition u . sigma_can(H) <= sigma_can(H) is read setwise:
    u must send each lift (1, h, 0) to some lift (1, h', 0).  The strictly
    stronger pointwise reading (h' = h) is available for comparison.  Returns
    the kept automorphisms in input order: given objects in a list, the rows
    of an enumeration as a read-only sequence.  Objects are converted to rows
    once (l = chi on the basis); a chi table off the closed form of its
    (eta, l) raises `ValueError`.

    No chi table is read: eta maps H x 0 into itself when the images of
    e_1..e_g have zero y-part, and fixes it when they are e_1..e_g; chi
    vanishes on H x 0 exactly when B_ij = 0 and l_i = 0 for i, j <= g, as
    B_ij = chi(e_i + e_j) - chi(e_i) - chi(e_j) and l_i = chi(e_i).
    """
    table, g = _ktable(typ), typ.g
    given = rows = enumerate_sym_automorphisms(typ) if automorphisms is None else automorphisms
    if not (isinstance(rows, _Automorphisms) and rows.type == typ):
        # identity first: comparing every type by value costs 40% of a (2,2) call
        if any(u.type is not typ and u.type != typ for u in rows):
            raise TypeMismatch(f"automorphisms of another type than {typ} given")
        eta = np.array([u.eta_ranks for u in rows], dtype=np.int64).reshape(len(rows), 2 * g)
        chi = np.array([u.chi_exponents for u in rows], dtype=np.int64).reshape(len(rows), table.n)
        rows = _Automorphisms(typ, eta, chi[:, table.basis_ranks()], _forms(table, eta))
        if not np.array_equal(rows.chi(slice(None)), chi):
            raise ValueError("a chi table is not the closed form of its eta and basis values")
    images = rows.eta[:, :g].astype(np.intp)
    keep = ~table.coords[images, g:].any(axis=(1, 2))
    if pointwise:
        keep &= (images == table.basis_ranks()[:g]).all(axis=1)
    keep &= ~rows.forms[:, :g, :g].any(axis=(1, 2)) & ~rows.l[:, :g].any(axis=1)
    kept = np.flatnonzero(keep)
    return rows._take(kept) if rows is given else [given[i] for i in kept.tolist()]


# --- splitting pairs over arbitrary maximal isotropic subgroups --------------------

_SPAN_CHUNK = 2**17  # span elements materialized at once while enumerating subgroups
_TUPLE_BOUND = 2**24  # generating tuples tried by one subgroup enumeration


class _PackedKeys:
    """Elements of K(delta) as unsigned keys, one b-bit digit per coordinate.

    With H = 2^(b-1) at least every divisor, reduced digits add without
    carries; a sum is at least D_k when bit b - 1 is set once H - D_k is
    added, and subtracting D_k there reduces it.  Coordinates of divisor 1
    take no digit, so keys fit 32 bits when |K| <= 2^12 (worst: (2,2,2,6)).
    """

    def __init__(self, table: _KTable):
        live = table.divisors > 1
        self.b = int(table.divisors.max() - 1).bit_length() + 1
        self.shift = np.zeros(len(live), dtype=np.int64)
        self.shift[live] = self.b * np.arange(np.count_nonzero(live))[::-1]
        self.dtype = np.min_scalar_type((1 << int(self.shift.max() + self.b)) - 1)
        self.table = table
        self.divisors = self.dtype.type(np.sum(table.divisors[live] << self.shift[live]))
        self.high = self.dtype.type(np.sum(1 << (self.b - 1) << self.shift[live]))

    def multiples(self, o: int) -> np.ndarray:
        """Keys of t z, shape (|K|, o): element z by rank, t < o."""
        out = np.zeros((self.table.n, o), dtype=np.int64)
        for c, d, shift in zip(self.table.coords.T, self.table.divisors, self.shift):
            out += np.multiply.outer(c, np.arange(o)) % d << shift
        return out.astype(self.dtype)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Keys of x[r, a] + y[r, b], shape (R, A B), in product order over (a, b)."""
        s = x[:, :, None] + y[:, None, :]
        over = (s + (self.high - self.divisors)) & self.high
        s -= (over >> (self.b - 1)) * ((1 << self.b) - 1) & self.divisors
        return s.reshape(len(s), x.shape[1] * y.shape[1])


def maximal_isotropic_subgroups(typ: ThetaType) -> list[tuple[KVector, ...]]:
    """Subgroups of K(delta) isomorphic to H(delta) with H-perp = H.

    Each subgroup is returned once, as the first generating tuple, in product
    order over the elements of order dividing d_i, whose span has d elements.
    `TooLarge` is raised when there are more than `_TUPLE_BOUND` tuples.

    A span is isotropic exactly when its generators pair trivially, read off
    the |K| x 2g table coords @ pair_form before any span is built (on
    `_PackedKeys`).  An isotropic span H with d elements is Lagrangian: H lies
    in H-perp, which has |K| / |H| = d elements.
    """
    table = _ktable(typ)
    g, d, m = typ.g, typ.degree, typ.scalar_modulus
    candidates = [np.flatnonzero(o % table.orders == 0) for o in typ.divisors]
    total = prod(len(c) for c in candidates)
    if total > _TUPLE_BOUND:
        raise TooLarge(f"{total} generating tuples exceed {_TUPLE_BOUND}")
    keys = _PackedKeys(table)
    multiples = [keys.multiples(o) for o in typ.divisors]
    paired = table.coords @ table.pair_form % m
    last = candidates[-1]
    # chunks of tuples over the first g - 1 generators keep product order
    heads = np.array(list(itertools.product(*candidates[:-1])), dtype=np.int64)
    step = max(1, _SPAN_CHUNK // (d * len(last)))
    seen: dict[bytes, tuple[int, ...]] = {}
    for start in range(0, len(heads), step):
        head = heads[start : start + step]
        ok = np.ones((len(head), len(last)), dtype=bool)
        for i, j in itertools.combinations(range(g - 1), 2):
            pairing = (paired[head[:, i]] * table.coords[head[:, j]]).sum(axis=1)
            ok &= (pairing % m == 0)[:, None]
        for i in range(g - 1):
            ok &= paired[head[:, i]] @ table.coords[last].T % m == 0
        r, q = np.nonzero(ok)
        span = np.zeros((len(head), 1), dtype=keys.dtype)
        for i in range(g - 1):
            span = keys.add(span, multiples[i][head[:, i]])
        spans = keys.add(span[r], multiples[-1][last[q]])
        full = np.count_nonzero(spans == 0, axis=1) == 1
        spans = np.sort(spans[full], axis=1)
        # the stable radix lexsort keeps the first tuple of each span in front
        order = np.lexsort(spans.T[::-1])
        gens = np.column_stack([head[r], last[q]])[full][order]
        spans = spans[order]
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

    A lift sigma(h) = (s(h), h) is a homomorphism exactly when s(h1 + h2) =
    s(h1) s(h2) <x(h1), y(h2)>, and symmetric when s(-h) = s(h).  Returns the
    maps s in product order over their values on the generators G, in closed
    form for G W G^T (`_semicharacter_values`).  Unless the generators pair
    trivially, G W G^T is not symmetric, and no lift exists.  The values are
    the shared `cyclo._root` instances.
    """
    if any(g_.type != typ for g_ in gens):
        raise TypeMismatch(f"generators of another type than {typ} given")
    table, m = _ktable(typ), typ.scalar_modulus
    gen_coords = np.array([g_.coords for g_ in gens], dtype=np.int64).reshape(len(gens), 2 * typ.g)
    orders = [int(o) for o in table.orders[table.rank(gen_coords)]]
    # the element at local coordinates c is sum c_j gens_j, of global rank gidx
    coords = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    gidx = table.rank(coords @ gen_coords)
    ranks = np.sort(gidx)  # np.unique would import numpy.ma
    if (ranks[1:] == ranks[:-1]).any():
        raise ValueError("generators do not realize the subgroup as a direct product")
    form = gen_coords @ table.xy_form @ gen_coords.T % m
    if (form != form.T).any():
        return []
    l = _semicharacter_values(np.diag(form)[None], orders, m, symmetric=True)[0]
    values = _closed_form(coords, np.broadcast_to(form, (len(l), *form.shape)), l, m)
    elems = [table.elements[i] for i in gidx]
    return [{z: _root(v, m) for z, v in zip(elems, r)} for r in values.tolist()]
