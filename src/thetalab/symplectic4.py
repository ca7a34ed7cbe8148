"""Symplectic groups over Z/4 with a theta characteristic, and their discriminant.

The objects here are the automorphism groups of the standard symplectic
module (Z/4)^{2g} equipped with the even or odd quadratic refinement of the
mod-2 pairing.  They sit in an extension

    1 -> (congruence kernel mod 2) -> (full group) -> O(2g, +-) -> 1,

and carry a distinguished mu_4-valued character, the discriminant: the
unique character that takes the value i on every anisotropic transvection
(oriented by the mu_4-valued standard pairing) and restricts on the kernel
to the linearization of the quadratic form.  The character is computed, not
assumed: every generator of a fixed generating set carries a prescribed
value, so there is exactly one candidate character.  The kernel K is
elementary abelian and its basis is among the generators, so the closure
runs over the quotient O(2g, +-) only (at most 120 elements), carrying one
mod-4 lift L(h) and one value mu(h) per element, and the candidate is
decided on the |O| x |gens| quotient edges and the kernel basis
(`group_data` states the three conditions and proves them sufficient).  It
must also meet every prescribed value; a candidate that fails is reported
as an error (`NonUnique`), never resolved silently.  The normalization is
pinned so that the character agrees on the nose with the mu_4 factor in
the classical theta functional equation (e.g. [[0,3],[1,0]] maps to i).

The elements are written out on packed uint64 keys (base-4 digits, entry
(i, j) of a k x k matrix in digit k i + j).  L (I + 2A) = L + 2 (L mod 2) A
mod 4, and a digit d + 2x mod 4 is d XOR 2x, so the keys of a coset L K
are key(L) XOR the span of the keys of 2 (L mod 2) A_i over the kernel
basis I + 2 A_i: r = g(2g+1) XOR doublings of an (|O|, .) array, the
values carried in the two bits below each key, and one sort.  The sorted
key array is the group's only index and its only element order: element i
is keys[i], matrices[i] and lam[i].  At g = 2, even parity the
transvections x -> x + B(x, v) v with q(v) = 1 generate an index-2
subgroup of O(4, +) (Dieudonne's exception), and the plane swap completes
the generating set (`_generators`).

Only g <= 2 is supported; the largest group (g = 2, odd parity) has
122880 elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _kernels
from .cyclo import RootOfUnity

__all__ = [
    "BadShape",
    "NotOrthogonal",
    "NotMember",
    "NonUnique",
    "MembershipReport",
    "symplectic_form_matrix",
    "is_symplectic_mod4",
    "quad_form_value",
    "preserves_quad_form",
    "reduce_mod2_and_membership",
    "dickson",
    "transvection",
    "orthogonal_group",
    "gamma2_elements",
    "gamma2_basis",
    "group_data",
    "discriminant",
    "character_solution_count",
]


class BadShape(ValueError):
    """Input is not a 2g-vector or a 2g x 2g matrix (g >= 1)."""


class NotOrthogonal(ValueError):
    """Matrix does not preserve the quadratic form mod 2."""


class NotMember(ValueError):
    """Matrix is not in the required symplectic/orthogonal group."""


class NonUnique(ArithmeticError):
    """The discriminant check left a number of characters different from one."""


def _parity(parity: str) -> str:
    aliases = {"even": "even", "+": "even", "odd": "odd", "-": "odd"}
    if parity not in aliases:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return aliases[parity]


def symplectic_form_matrix(g: int) -> np.ndarray:
    """Gram matrix of B(v, w) = sum_i (x_i(v) y_i(w) - y_i(v) x_i(w))."""
    j = np.zeros((2 * g, 2 * g), dtype=np.int64)
    j[:g, g:] = np.eye(g, dtype=np.int64)
    j[g:, :g] = -np.eye(g, dtype=np.int64)
    return j


def _as_integers(x) -> np.ndarray:
    """`x` as an int64 array; non-integer entries raise (integer-valued floats pass)."""
    a = np.asarray(x)
    if a.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            if not np.all(np.mod(a, 1) == 0):
                raise ValueError(f"entries must be integers, got {a.tolist()}")
    return a.astype(np.int64, copy=False)


def _as_matrix(mat) -> np.ndarray:
    m = _as_integers(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0 or m.shape[0] == 0:
        raise BadShape(f"expected a 2g x 2g matrix, got shape {m.shape}")
    return m % 4


def is_symplectic_mod4(mat) -> bool:
    m = _as_matrix(mat)
    j = symplectic_form_matrix(m.shape[0] // 2)
    return not np.any((m.T @ j @ m - j) % 4)


def quad_form_value(v, parity: str) -> int:
    """Standard quadratic form on F_2^{2g}: even = sum x_i y_i, odd twists the first plane."""
    parity = _parity(parity)
    v = _as_integers(v) % 2
    if v.ndim != 1 or len(v) % 2 or not len(v):
        raise BadShape(f"expected a 2g vector, got shape {v.shape}")
    g = len(v) // 2
    val = int(np.dot(v[:g], v[g:]))
    if parity == "odd":
        val += int(v[0]) + int(v[g])
    return val % 2


def _quad_form_values(vs: np.ndarray, parity: str) -> np.ndarray:
    """`quad_form_value` of each row of an integer (N, 2g) array; the scalar
    form stays separate, as `discriminant` calls it 32 times per lookup."""
    v = vs % 2
    g = v.shape[1] // 2
    val = (v[:, :g] * v[:, g:]).sum(axis=1)
    if parity == "odd":
        val += v[:, 0] + v[:, g]
    return val % 2


def _f2_vectors(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)


def preserves_quad_form(mbar, parity: str) -> bool:
    m = _as_matrix(mbar) % 2
    for v in _f2_vectors(m.shape[0]):
        if quad_form_value(m @ v, parity) != quad_form_value(v, parity):
            return False
    return True


@dataclass(frozen=True, slots=True)
class MembershipReport:
    in_sp4: bool
    in_gamma_pm: bool
    in_gamma2: bool


def reduce_mod2_and_membership(mat, parity: str) -> MembershipReport:
    """Symplectic mod 4, quadratic-form preservation mod 2, and congruence mod 2."""
    m = _as_matrix(mat)
    in_sp4 = is_symplectic_mod4(m)
    in_pm = in_sp4 and preserves_quad_form(m % 2, parity)
    eye = np.eye(m.shape[0], dtype=np.int64)
    in_g2 = in_sp4 and not np.any((m - eye) % 2)
    return MembershipReport(in_sp4, in_pm, in_g2)


def _f2_rank(mat: np.ndarray) -> int:
    """Rank over F_2, by Gauss-Jordan elimination on a 0/1 copy of `mat`."""
    a = (np.asarray(mat, dtype=np.int64) % 2).astype(np.uint8)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col] == 1
        mask[rank] = False
        a[mask] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def dickson(mbar, parity: str) -> RootOfUnity:
    """Dickson invariant of an orthogonal matrix mod 2: (-1)^{rank(m + I)}."""
    m = _as_matrix(mbar) % 2
    n = m.shape[0]
    if _f2_rank(m) != n or not preserves_quad_form(m, parity):
        raise NotOrthogonal(f"matrix is not in O({n},{parity})")
    r = _f2_rank((m + np.eye(n, dtype=np.int64)) % 2)
    return RootOfUnity(Fraction(r % 2, 2))


def transvection(v) -> np.ndarray:
    """The map z -> z + B(v, z) v over Z/4, as an int64 matrix (columns are images)."""
    v = _as_integers(v)
    if v.ndim != 1 or len(v) % 2 or not len(v):
        raise BadShape(f"expected a 2g vector, got shape {v.shape}")
    return _transvections(v[None, :])[0]


def _transvections(vs: np.ndarray) -> np.ndarray:
    """`transvection` of each row of an integer (N, 2g) array: I + v v^T J mod 4."""
    vs = vs % 4
    n = vs.shape[1]
    tails = vs @ symplectic_form_matrix(n // 2)
    return (np.eye(n, dtype=np.int64) + vs[:, :, None] * tails[:, None, :]) % 4


# The plane swap (x_1, y_1) <-> (x_2, y_2); it lies in O(4, +) but outside the
# subgroup generated by its transvections (Dieudonne's exception).
_PLANE_SWAP = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

_ORTHOGONAL_ORDERS = {(1, "even"): 2, (1, "odd"): 6, (2, "even"): 72, (2, "odd"): 120}


@lru_cache(maxsize=None)
def orthogonal_group(g: int, parity: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All of O(2g, +-) over F_2 in lexicographic order, by closure under products.

    The elements are the quotient closure of `group_data`'s generators
    reduced mod 2 (the congruence kernel basis becomes the identity): the
    transvections of anisotropic vectors generate the group except at
    (2, even), where they generate a subgroup of index 2 and the plane swap
    completes it.  The order is checked against |O(2, +)| = 2,
    |O(2, -)| = 6, |O(4, +)| = 72 and |O(4, -)| = 120.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")
    gens = np.array(_generators(g, parity), dtype=np.uint8)
    lifts = _quotient_closure(gens, np.zeros(len(gens), dtype=np.int8))[0]
    if len(lifts) != _ORTHOGONAL_ORDERS[(g, parity)]:
        raise ArithmeticError(f"O({2 * g}, {parity}) closure has order {len(lifts)}")
    return tuple(sorted(tuple(map(tuple, m)) for m in (lifts & 1).tolist()))


def gamma2_basis(g: int) -> list[np.ndarray]:
    """A basis of the mod-2 congruence kernel {I + 2M} as an F_2-vector space.

    I + 2M is symplectic mod 4 exactly when J M is symmetric mod 2, so the
    kernel is elementary abelian of rank g(2g+1), spanned by I + 2(J S) for
    S running over a basis of symmetric matrices.
    """
    n = 2 * g
    j = symplectic_form_matrix(g) % 2
    eye = np.eye(n, dtype=np.int64)
    out = []
    for i in range(n):
        for k in range(i, n):
            s = np.zeros((n, n), dtype=np.int64)
            s[i, k] = 1
            s[k, i] = 1
            out.append((eye + 2 * ((j @ s) % 2)) % 4)
    return out


def gamma2_elements(g: int) -> list[np.ndarray]:
    """The full mod-2 congruence kernel, of order 2^{g(2g+1)}: element j is
    the product of the basis elements b_i = I + 2 A_i with bit r-1-i set in
    j, written out as `group_data` writes each coset, key(I) XOR key(2 A_i)."""
    identity = _kernels.pack_mod4(np.eye(2 * g, dtype=np.uint8)[None, :, :])
    steps = _kernels.pack_mod4(np.array(gamma2_basis(g), dtype=np.uint8)) ^ identity
    return list(_unpack(_span(identity, steps[None, :])[0], 2 * g).astype(np.int64))


# --- group enumeration with character check ----------------------------------------

def _lookup(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Element indices of the packed `query` keys: their `searchsorted`
    positions in the sorted `keys` of a group; any key outside the group
    raises `NotMember`."""
    pos = keys.searchsorted(query)
    if (keys.take(pos, mode="clip") != query).any():
        raise NotMember("matrix is not in the enumerated group")
    return pos


@dataclass(frozen=True)
class GroupData:
    """Enumerated group with its discriminant character.

    The elements are stored in increasing order of their packed keys, the
    group's only index: element i is matrices[i] (uint8, mod 4), with packed
    key keys[i], and lam[i] is the exponent e with discriminant = i^e.
    solution_count records how many characters passed `group_data`'s check
    and every prescribed value: there is one candidate, and `group_data`
    raises `NonUnique` unless it passes; generator_count is the size of the
    generating set, and extended_generators says whether the plane swap is
    in it.  `group_data` caches one instance per (g, parity) for the
    process, so the instance is frozen and its arrays are read-only.
    """

    g: int
    parity: str
    matrices: np.ndarray
    keys: np.ndarray
    lam: np.ndarray
    solution_count: int
    generator_count: int
    extended_generators: bool

    @property
    def order(self) -> int:
        return len(self.matrices)

    def index_of(self, mat) -> int:
        m = _as_matrix(mat)
        # a larger matrix's packed key wraps modulo 2^64 and can equal an element's
        if m.shape[0] != 2 * self.g:
            raise NotMember(f"a {len(m)} x {len(m)} matrix is not in a g={self.g} group")
        key = _kernels.pack_mod4(m[None, :, :])
        return int(_lookup(self.keys, key)[0])

    def lambda_of(self, mat) -> RootOfUnity:
        return RootOfUnity(Fraction(int(self.lam[self.index_of(mat)]), 4))


def gamma2_character_exponent(u, parity: str) -> int:
    """Value (as an F_2 exponent) of the discriminant on the congruence kernel.

    An element u = I + 2M corresponds to the symmetric 2-tensor A = J M over
    F_2, and the discriminant restricts to the linearization of the quadratic
    form: basis tensors e_i . e_j (i < j) evaluate to the polarized pairing
    b(e_i, e_j) and diagonal tensors e_i . e_i to q(e_i).  The value is
    insensitive to the A = JM versus MJ convention (they differ by the J
    swap, which permutes the contributing entries among themselves).
    """
    parity = _parity(parity)
    m = _as_matrix(u)
    n = m.shape[0]
    g = n // 2
    if np.any((m - np.eye(n, dtype=np.int64)) % 2):
        raise NotMember("element is not congruent to the identity mod 2")
    half = ((m - np.eye(n, dtype=np.int64)) % 4) // 2
    a = (symplectic_form_matrix(g) @ half) % 2
    if np.any((a - a.T) % 2):
        raise NotMember("element is not symplectic mod 4")
    val = sum(int(a[k, g + k]) for k in range(g))
    if parity == "odd":
        val += int(a[0, 0]) + int(a[g, g])
    return val % 2


def _anisotropic_transvection_gens(g: int, parity: str) -> list[np.ndarray]:
    """One transvection lift per anisotropic class mod 2 (binary entries)."""
    vs = _f2_vectors(2 * g)
    return list(_transvections(vs[_quad_form_values(vs, parity) == 1]))


def _generators(g: int, parity: str) -> list[np.ndarray]:
    """The generating set of the mod-4 group: the congruence kernel basis, one
    anisotropic transvection lift per class mod 2 and, at (2, even), where the
    transvections reach only an index-2 subgroup of O(4, +), the plane swap."""
    gens = gamma2_basis(g) + _anisotropic_transvection_gens(g, parity)
    if (g, parity) == (2, "even"):
        gens.append(np.array(_PLANE_SWAP, dtype=np.int64))
    return gens


def _all_anisotropic_transvections(g: int, parity: str) -> np.ndarray:
    """Every transvection t_v with v in (Z/4)^{2g} anisotropic mod 2, once each.

    Distinct v can give the same map (t_v = t_{-v}); duplicates are dropped
    by packed key.
    """
    vs = np.array(list(itertools.product(range(4), repeat=2 * g)), dtype=np.int64)
    ts = _transvections(vs[_quad_form_values(vs, parity) == 1]).astype(np.uint8)
    _, first = np.unique(_kernels.pack_mod4(ts), return_index=True)
    return ts[first]


def _embed_block(mats2: np.ndarray, plane: int) -> np.ndarray:
    """Embed (n, 2, 2) mod-4 symplectic matrices into the given hyperbolic plane of g=2.

    Coordinates are ordered (x_1, x_2, y_1, y_2); plane k acts on (x_k, y_k).
    """
    out = np.tile(np.eye(4, dtype=np.uint8), (len(mats2), 1, 1))
    ij = np.array([plane, 2 + plane])
    out[:, ij[:, None], ij] = mats2 % 4
    return out


# the four base-4 digits of each byte value, low digit first, as the bytes of a
# uint32 (built in Python: the same numpy expression adds 0.26 MB RSS at import)
_BYTE_DIGITS = np.array(
    [sum(((b >> 2 * i) & 3) << 8 * i for i in range(4)) for b in range(256)], dtype="<u4"
)


def _unpack(keys: np.ndarray, k: int) -> np.ndarray:
    """The inverse of `_kernels.pack_mod4`, four digits per little-endian key byte."""
    octets = keys.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, : (k * k + 3) // 4]
    digits = _BYTE_DIGITS[octets].view(np.uint8)  # `take` would copy octets as intp
    return digits.reshape(len(keys), -1)[:, : k * k].reshape(-1, k, k)


def _span(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Row h (n, 2^r) is start[h] XOR each subset of steps[h] (n, r), subset j
    holding step i where bit r-1-i of j is set: r doublings of one array."""
    n, r = steps.shape
    out = np.empty((n, 1 << r), dtype=np.uint64)
    out[:, 0] = start
    for t in range(r):
        np.bitwise_xor(out[:, : 1 << t], steps[:, r - 1 - t, None], out=out[:, 1 << t : 2 << t])
    return out


def _inverse(mats: np.ndarray) -> np.ndarray:
    """Inverses of symplectic matrices mod 4, M^-1 = -J M^T J, as uint8."""
    j = symplectic_form_matrix(mats.shape[-1] // 2)
    return (-(j @ mats.transpose(0, 2, 1) @ j) % 4).astype(np.uint8)


def _kernel_form(u: np.ndarray, kernel_values: np.ndarray) -> np.ndarray:
    """kappa(u) mod 4 for kernel elements u = I + 2A (n, k, k): their
    `gamma2_basis` coordinates, the upper triangle of J A mod 2 row by row
    (A mod 2 is the high bit of u; J swaps the row halves), times the values."""
    ja = np.roll(u >> 1, u.shape[-1] // 2, axis=-2)
    rows, cols = np.triu_indices(u.shape[-1])
    return (ja[:, rows, cols].astype(np.int64) @ kernel_values) % 4


def _quotient_closure(gens: np.ndarray, values: np.ndarray):
    """Breadth-first closure of `gens` (s, k, k; uint8 mod 4) modulo 2: the
    element h' first reached as h s takes L(h') = L(h) s and mu(h') = mu(h)
    + values[s] mod 4, from L(I) = I, mu(I) = 0.  Returns the lifts (n, k, k)
    and mu (n,), in increasing order of the elements' mod-2 keys."""
    lifts = np.eye(gens.shape[-1], dtype=np.uint8)[None, :, :]
    mu = np.zeros(1, dtype=np.int8)
    seen, frontier = _kernels.pack_mod4(lifts), slice(0, 1)
    while True:
        prods = _kernels.mod4_products(lifts[frontier], gens)
        keys, first = np.unique(_kernels.pack_mod4(prods & 1), return_index=True)
        known = np.sort(seen)
        new = known.take(known.searchsorted(keys), mode="clip") != keys
        if not new.any():
            order = np.argsort(seen)
            return lifts[order], mu[order]
        first = first[new]
        carried = ((mu[frontier, None] + values) % 4).reshape(-1)[first]
        frontier = slice(len(lifts), len(lifts) + len(first))
        lifts, mu = np.concatenate([lifts, prods[first]]), np.concatenate([mu, carried])
        seen = np.concatenate([seen, keys[new]])


def _extend(lifts: np.ndarray, mu: np.ndarray, gens: np.ndarray, values: np.ndarray):
    """The sorted keys of the group the quotient closure (lifts, mu) of `gens`
    lifts to, lam on them, and whether (a)-(c) of `group_data` hold; the
    first r = k(k+1)/2 generators are `gamma2_basis`, values are 0..3."""
    n, k = len(lifts), lifts.shape[-1]
    r = k * (k + 1) // 2
    basis, kernel_values = gens[:r], values[:r].astype(np.int64)
    alive = bool(np.all(kernel_values % 2 == 0))  # (a)
    prods = _kernels.mod4_products(lifts, gens)  # (b), on the edge h -> h' = h s
    target = _kernels.pack_mod4(lifts & 1).searchsorted(_kernels.pack_mod4(prods & 1))
    kappa = _kernel_form((_inverse(lifts)[target] @ prods) & 3, kernel_values)
    alive &= bool(np.all((mu[:, None] + values).reshape(-1) % 4 == (mu[target] + kappa) % 4))
    conj = (_inverse(gens)[:, None] @ basis[None, :] @ gens[:, None]) & 3  # (c)
    kappa = _kernel_form(conj.reshape(-1, k, k), kernel_values).reshape(len(gens), r)
    alive &= bool(np.all(kappa == kernel_values))

    # the value bits sit below the keys; by (a) adding a kernel value is XOR
    lift_keys = _kernels.pack_mod4(lifts)
    steps = _kernels.pack_mod4(_kernels.mod4_products(lifts, basis)).reshape(n, r)
    two = np.uint64(2)
    packed = _span(
        lift_keys << two | mu.astype(np.uint64),
        (steps ^ lift_keys[:, None]) << two | kernel_values.astype(np.uint64),
    ).reshape(-1)
    packed.sort()
    return packed >> two, (packed & np.uint64(3)).astype(np.int8), alive


@lru_cache(maxsize=None)
def group_data(g: int, parity: str) -> GroupData:
    """Build the mod-4 group with theta characteristic and decide its discriminant.

    Generators (`_generators`): the basis b_i of the mod-2 congruence kernel
    K (`gamma2_basis`), one anisotropic transvection lift per mod-2 class
    and, at (2, even), the plane swap (`extended_generators`).  Each
    generator s takes its value x(s) from a prescribed value on it
    (`ArithmeticError` if there is none).  The quotient closure must reach
    |O(2g,+-)|, and its cosets L(h) K must give |K| |O(2g,+-)| distinct
    keys, or `ArithmeticError` is raised.  With kappa the linear form on K
    that takes x(b_i) on b_i, the candidate lam(L(h) k) = mu(h) + kappa(k)
    is a homomorphism with the prescribed generator values exactly when

      (a) every x(b_i) is 0 or 2, since b_i^2 = I;
      (b) on each quotient edge h -> h' = h s mod 2,
          mu(h) + x(s) = mu(h') + kappa(L(h')^-1 L(h) s);
      (c) kappa(s^-1 b_i s) = kappa(b_i) for every generator s and every i.

    Proof.  By (a) kappa is additive on K.  Every x in the group is L(h) k
    for one h and one k in K, and x s = L(h') k_e (s^-1 k s) with
    k_e = L(h')^-1 L(h) s in K, so by (b) and (c) lam(x s) = mu(h') +
    kappa(k_e) + kappa(s^-1 k s) = mu(h) + x(s) + kappa(k) = lam(x) + x(s).
    As lam(I) = 0 and every element is a word in the generators, lam is a
    homomorphism with lam(s) = x(s).  Conversely, such a homomorphism is mu
    on the lifts (each the first product reaching its element) and kappa
    on K, and (a)-(c) are among its relations.  The survivor must also
    meet every prescribed value, or `NonUnique` is raised.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")

    gens = np.array(_generators(g, parity), dtype=np.uint8)

    # The normalizing transvections are the ones built from the mu_4-valued
    # standard pairing, whose additive exponent is -B for the bilinear form
    # used by `transvection`; those are the inverses of our t_v, so on our
    # t_v the character takes the value i^{-1} = i^3.  (The opposite choice
    # is the complex-conjugate character, which fails the theta functional
    # equation oracle: it sends [[0,3],[1,0]] to -i instead of i.)
    transvections = _all_anisotropic_transvections(g, parity)
    cons = [transvections]
    exps = [np.full(len(transvections), 3)]

    # restriction to the congruence kernel: the quadratic-form linearization
    basis = gamma2_basis(g)
    cons.append(np.array(basis))
    exps.append([2 * gamma2_character_exponent(u, parity) for u in basis])

    # stabilization: on block-diagonal embeddings of the g=1 groups the
    # character restricts to the g=1 discriminant, and on the plane swap
    # (even parity) it takes the value -1 = 1/det of the constant weight
    # factor, both read off the product specialization of the squared theta
    # functional equation.  Needed at g=2 even, where transvections generate
    # a proper subgroup of the orthogonal quotient (the classical O_4^+(F_2)
    # exception) and would leave a residual sign twist otherwise.
    if g == 2:
        plane_parities = ("even", "even") if parity == "even" else ("odd", "even")
        for plane, p1 in enumerate(plane_parities):
            sub = group_data(1, p1)
            cons.append(_embed_block(sub.matrices, plane))
            exps.append(sub.lam)
        if parity == "even":
            cons.append(np.array([_PLANE_SWAP]))
            exps.append([2])
    cons_keys = _kernels.pack_mod4(np.concatenate(cons) % 4)
    cons_exp = np.concatenate(exps) % 4

    # every generator takes its value from a constraint on it
    match = _kernels.pack_mod4(gens)[:, None] == cons_keys
    unpinned = np.flatnonzero(~match.any(axis=1))
    if len(unpinned):
        raise ArithmeticError(f"generators {unpinned.tolist()} have no prescribed value")
    values = cons_exp[match.argmax(axis=1)].astype(np.int8)
    lifts, mu = _quotient_closure(gens, values)
    if len(lifts) != _ORTHOGONAL_ORDERS[(g, parity)]:
        raise ArithmeticError(f"O({2 * g}, {parity}) closure has order {len(lifts)}")
    keys, lam, alive = _extend(lifts, mu, gens, values)
    order = 1 + np.count_nonzero(keys[1:] != keys[:-1])
    target = (2 ** (g * (2 * g + 1))) * len(lifts)
    if order != target:
        raise ArithmeticError(f"closure has order {order}, not the extension order {target}")
    alive &= bool(np.all(lam[_lookup(keys, cons_keys)] == cons_exp))
    solutions = int(alive)
    if solutions != 1:
        raise NonUnique(
            f"discriminant check for g={g}, parity={parity} found "
            f"{solutions} characters instead of one"
        )
    matrices = _unpack(keys, 2 * g)
    for a in (matrices, keys, lam):
        a.setflags(write=False)
    return GroupData(
        g=g,
        parity=parity,
        matrices=matrices,
        keys=keys,
        lam=lam,
        solution_count=solutions,
        generator_count=len(gens),
        extended_generators=np.array_equal(gens[-1], _PLANE_SWAP),
    )


def character_solution_count(g: int, parity: str) -> int:
    """How many characters survived the discriminant check (must be one)."""
    return group_data(g, parity).solution_count


def discriminant(gamma, parity: str) -> RootOfUnity:
    """The mu_4-valued discriminant character, looked up in the enumerated group.

    `gamma` must preserve the symplectic form mod 4 and the parity's
    quadratic form mod 2; g <= 2.
    """
    parity = _parity(parity)
    m = _as_matrix(gamma)
    g = m.shape[0] // 2
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")
    report = reduce_mod2_and_membership(m, parity)
    if not report.in_gamma_pm:
        raise NotMember(f"matrix is not in the parity-{parity} group")
    return group_data(g, parity).lambda_of(m)
