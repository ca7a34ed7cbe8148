"""Symplectic groups over Z/4 with a theta characteristic, and their discriminant.

The objects here are the automorphism groups of the standard symplectic
module (Z/4)^{2g} equipped with the even or odd quadratic refinement of the
mod-2 pairing.  They sit in an extension

    1 -> (congruence kernel mod 2) -> (full group) -> O(2g, +-) -> 1,

and carry a distinguished mu_4-valued character, the discriminant: the
unique character that takes the value i on every anisotropic transvection
(oriented by the mu_4-valued standard pairing) and restricts on the kernel
to the linearization of the quadratic form.  The character is computed, not
assumed: the group is enumerated by breadth-first closure from a fixed
generating set, every generator of which carries a prescribed value, so
there is exactly one candidate character before the closure runs.  Each
product h s of the closure carries the value lam(h) + x(s) that the
candidate implies for it; a new element takes the value its products
carry, and the candidate dies where two products carry different values to
one element.  It must also meet every prescribed value.  A candidate that
fails is reported as an error (`NonUnique`), never resolved silently.  The
normalization is pinned so that the character agrees on the nose with the
mu_4 factor in the classical theta functional equation (e.g. [[0,3],[1,0]]
maps to i); the complex-conjugate character is the one normalized on the
opposite pairing orientation.

The enumeration works on packed uint64 keys (base-4 digits, row i of a
k x k matrix in bit field i) from start to end: right multiplication by a
generator maps each row field through a 4^k-entry table, so a BFS level is
k table gathers, one sort of the keys with their carried values and one
`searchsorted`, and the matrices are unpacked once at the end.  The sorted
key array is the group's only index and its only element order: element i
is keys[i], matrices[i] and lam[i].
The orthogonal quotient O(2g, +-) over F_2 is the same closure taken
mod 2, over the transvections x -> x + B(x, v) v with q(v) = 1; at g = 2,
even parity (Dieudonne's exception, O+(4, F_2)) they generate a subgroup
of index 2, and the plane swap completes it.  The mod-4 generating set
(`_generators`) is completed by the same plane swap, and the closure
order check proves that the generators reach the whole group.

Only g <= 2 is supported; the largest enumeration (g = 2, odd parity) has
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
    v = _as_integers(v) % 4
    if v.ndim != 1 or len(v) % 2 or not len(v):
        raise BadShape(f"expected a 2g vector, got shape {v.shape}")
    g = len(v) // 2
    j = symplectic_form_matrix(g)
    return (np.eye(2 * g, dtype=np.int64) + np.outer(v, v) @ j) % 4


# The plane swap (x_1, y_1) <-> (x_2, y_2); it lies in O(4, +) but outside the
# subgroup generated by its transvections (Dieudonne's exception).
_PLANE_SWAP = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

_ORTHOGONAL_ORDERS = {(1, "even"): 2, (1, "odd"): 6, (2, "even"): 72, (2, "odd"): 120}


@lru_cache(maxsize=None)
def orthogonal_group(g: int, parity: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All of O(2g, +-) over F_2 in lexicographic order, by closure under products.

    The generators are those of `group_data` reduced mod 2, less the
    congruence kernel basis, which becomes the identity: the transvections of
    anisotropic vectors generate the group except at (2, even), where they
    generate a subgroup of index 2 and the plane swap completes it.  The
    order is checked against |O(2, +)| = 2, |O(2, -)| = 6, |O(4, +)| = 72 and
    |O(4, -)| = 120.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")
    eye = np.eye(2 * g, dtype=np.int64)
    gens = [s % 2 for s in _generators(g, parity) if np.any((s - eye) % 2)]
    mats = _bfs_closure(gens, np.zeros(len(gens), dtype=np.int8), modulus=2)[0]
    if len(mats) != _ORTHOGONAL_ORDERS[(g, parity)]:
        raise ArithmeticError(f"O({2 * g}, {parity}) closure has order {len(mats)}")
    return tuple(sorted(tuple(map(tuple, m)) for m in mats.tolist()))


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
    """The full mod-2 congruence kernel, of order 2^{g(2g+1)}."""
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


# --- group enumeration with character check ----------------------------------------

def _lookup(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Element indices of the packed `query` keys: their `searchsorted`
    positions in the sorted `keys` of a group; any key outside the group
    raises `NotMember`."""
    pos = keys.searchsorted(query)
    if (keys.take(pos, mode="clip") != query).any():
        raise NotMember("matrix is not in the enumerated group")
    return pos


@dataclass
class GroupData:
    """Enumerated group with its discriminant character.

    The elements are stored in increasing order of their packed keys, the
    group's only index: element i is matrices[i] (uint8, mod 4), with packed
    key keys[i], and lam[i] is the exponent e with discriminant = i^e, the
    value that every closure product reaching element i carries.
    solution_count records how many characters passed the check on every
    closure product and prescribed value: there is one candidate, and
    `group_data` raises `NonUnique` unless it passes;
    generator_count is the size of the generating set, and
    extended_generators says whether the plane swap is in it.
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
    out = []
    for v in _f2_vectors(2 * g):
        if not any(v):
            continue
        if quad_form_value(v, parity) == 1:
            out.append(transvection(v))
    return out


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
    ts = np.array(
        [
            transvection(v)
            for v in itertools.product(range(4), repeat=2 * g)
            if quad_form_value(np.array(v) % 2, parity) == 1
        ],
        dtype=np.uint8,
    )
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


def _unpack(keys: np.ndarray, k: int) -> np.ndarray:
    """The inverse of `_kernels.pack_mod4`: (n, k, k) uint8 matrices from keys."""
    shifts = np.uint64(2) * np.arange(k * k, dtype=np.uint64)
    return ((keys[:, None] >> shifts) & np.uint64(3)).astype(np.uint8).reshape(-1, k, k)


def _row_tables(gens: list[np.ndarray], modulus: int) -> list[np.ndarray]:
    """Per-row product tables for right multiplication by each generator.

    In a packed key, row i of a k x k matrix is the 2k-bit field i.  Entry
    [r, s] of table i is the packed row (r @ gens[s]) mod `modulus`, shifted
    into field i, so key(M @ gens[s]) is the OR over i of table i at row i
    of M.  There are 4^k rows, 256 at k = 4.
    """
    k = gens[0].shape[0]
    rows = (np.arange(4**k)[:, None] >> (2 * np.arange(k))) & 3
    images = (rows @ (np.array(gens, dtype=np.int64) % modulus)) % modulus
    packed = (images << (2 * np.arange(k))).sum(axis=2).T.astype(np.uint64)
    return [np.ascontiguousarray(packed << np.uint64(2 * k * i)) for i in range(k)]


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted array `a` that differ from their predecessor."""
    first = np.empty(len(a), dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _bfs_closure(gens: list[np.ndarray], values: np.ndarray, modulus: int = 4):
    """Breadth-first closure that checks a candidate character as it finds products.

    Returns the matrices, their packed keys and the exponents lam (n,) of
    the candidate that takes the int8 value values[s] mod 4 on generator s,
    all three in increasing key order, and whether the candidate is a
    character (alive, a bool).  Products are taken mod `modulus` (4, or 2
    for subgroups of O(2g, +-), which pass zeros).
    The whole search runs on packed uint64 keys: a frontier is expanded by k
    gathers from `_row_tables`, so no product matrix is formed, and the
    matrices are unpacked once at the end.  Each product h * s = t of a
    level carries the value lam(h) + x(s) mod 4 that it implies for t in
    the two bits below its key, and one in-place sort and a cut to the
    distinct entries leave the (key, value) pairs of the level.  The
    candidate dies where one key carries two values, or where a key seen
    on an earlier level carries a value other than its lam; the distinct
    keys are looked up with one `searchsorted` in the sorted array of keys
    seen so far, which lam stays aligned with: the unseen keys and the
    values they carry are inserted into both at the same `searchsorted`
    positions, and they are the next frontier.  Every product is checked,
    so a survivor is a homomorphism.
    """
    k = gens[0].shape[0]
    tables = _row_tables(gens, modulus)
    values = np.asarray(values, dtype=np.int8) % 4
    field = np.uint64(4**k - 1)
    shifts = [np.uint64(2 * k * i) for i in range(k)]

    sorted_keys = _kernels.pack_mod4(np.eye(k, dtype=np.uint8)[None, :, :])
    lam = np.zeros(1, dtype=np.int8)
    alive = True
    frontier_keys, frontier_vals = sorted_keys, lam

    while True:
        prods = tables[0][frontier_keys & field]
        for table, shift in zip(tables[1:], shifts[1:]):
            prods |= table[(frontier_keys >> shift) & field]
        # the value each product implies, in place beside its key: one (2, odd)
        # level holds 1.3M products, and each copy of them is 11 MB
        prods <<= np.uint64(2)
        prods |= ((frontier_vals[:, None] + values) % 4).astype(np.uint8)
        pairs = prods.reshape(-1)
        pairs.sort()
        pairs = pairs[_first_of_runs(pairs)]
        del prods

        keys = pairs >> np.uint64(2)
        first = _first_of_runs(keys)
        alive &= bool(first.all())
        uniq = keys[first]
        carried = (pairs[first] & np.uint64(3)).astype(np.int8)
        pos = np.searchsorted(sorted_keys, uniq)
        new = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] != uniq
        alive &= bool(np.all(lam[pos[~new]] == carried[~new]))
        if not new.any():
            break

        frontier_keys, frontier_vals = uniq[new], carried[new]
        sorted_keys = np.insert(sorted_keys, pos[new], frontier_keys)
        lam = np.insert(lam, pos[new], frontier_vals)

    return _unpack(sorted_keys, k), sorted_keys, lam, alive


@lru_cache(maxsize=None)
def group_data(g: int, parity: str) -> GroupData:
    """Enumerate the mod-4 group with theta characteristic and decide its discriminant.

    Generators (`_generators`): a basis of the mod-2 congruence kernel
    together with one anisotropic transvection lift per mod-2 class.  Mod 2
    these generate the transvection subgroup of O(2g,+-); where that is
    proper (only at g = 2, even parity) the plane swap completes it, and the
    `extended_generators` flag records this.  Each generator takes its value
    from a prescribed value on it (`ArithmeticError` if there is none), so
    the one closure checks one candidate character.  The closure must reach
    the extension order |kernel| * |O(2g,+-)|, or `ArithmeticError` is
    raised.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")

    gens = _generators(g, parity)

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
    match = _kernels.pack_mod4(np.array(gens) % 4)[:, None] == cons_keys
    unpinned = np.flatnonzero(~match.any(axis=1))
    if len(unpinned):
        raise ArithmeticError(f"generators {unpinned.tolist()} have no prescribed value")
    values = cons_exp[match.argmax(axis=1)].astype(np.int8)
    mats, keys, lam, alive = _bfs_closure(gens, values)

    target = (2 ** (g * (2 * g + 1))) * _ORTHOGONAL_ORDERS[(g, parity)]
    if len(mats) != target:
        raise ArithmeticError(
            f"closure has order {len(mats)}, not the extension order {target}"
        )
    alive &= bool(np.all(lam[_lookup(keys, cons_keys)] == cons_exp))
    solutions = int(alive)
    if solutions != 1:
        raise NonUnique(
            f"discriminant check for g={g}, parity={parity} found "
            f"{solutions} characters instead of one"
        )
    return GroupData(
        g=g,
        parity=parity,
        matrices=mats,
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
