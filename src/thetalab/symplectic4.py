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
generating set, and the prescribed values fix the character on every
generator they reach (only the orthogonal lift appended at g = 2, even
parity, is left free and ranges over Z/4).  Each choice of generator values
is propagated down the search tree and kept only if it respects every
product relation found during the closure and every prescribed value;
exactly one choice must survive.  Non-uniqueness is reported as an error
(`NonUnique`), never resolved silently.  The normalization is pinned so
that the character agrees on the nose with the mu_4 factor in the classical
theta functional equation (e.g. [[0,3],[1,0]] maps to i); the
complex-conjugate character is the one normalized on the opposite pairing
orientation.

The enumeration works on packed uint64 keys (base-4 digits, row i of a
k x k matrix in bit field i) from start to end: right multiplication by a
generator maps each row field through a 4^k-entry table, so a BFS level is
k table gathers, one sort and one `searchsorted`, and the matrices are
unpacked once at the end.  The orthogonal quotient O(2g, +-) over F_2 is
the same closure taken mod 2, over the transvections x -> x + B(x, v) v
with q(v) = 1; at g = 2, even parity (Dieudonne's exception, O+(4, F_2))
they generate a subgroup of index 2, and the plane swap completes it.  The
mod-4 generating set completes it the same way, with `_ORTHOGONAL_LIFT`, a
fixed lift of one orthogonal element outside that subgroup; the closure
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
    """Input matrix is not 2g x 2g."""


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
    g = len(v) // 2
    val = int(np.dot(v[:g], v[g:]))
    if parity == "odd":
        val += int(v[0]) + int(v[g])
    return val % 2


def _f2_vectors(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)


def preserves_quad_form(mbar, parity: str) -> bool:
    m = _as_integers(mbar) % 2
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadShape(f"expected a square matrix, got {m.shape}")
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
    m = _as_integers(mbar) % 2
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise BadShape(f"expected a 2g x 2g matrix, got {m.shape}")
    n = m.shape[0]
    if _f2_rank(m) != n or not preserves_quad_form(m, parity):
        raise NotOrthogonal(f"matrix is not in O({n},{parity})")
    r = _f2_rank((m + np.eye(n, dtype=np.int64)) % 2)
    return RootOfUnity(Fraction(r % 2, 2))


def transvection(v) -> np.ndarray:
    """The map z -> z + B(v, z) v over Z/4, as an int64 matrix (columns are images)."""
    v = _as_integers(v) % 4
    if v.ndim != 1 or len(v) % 2:
        raise BadShape(f"expected a 2g vector, got shape {v.shape}")
    g = len(v) // 2
    j = symplectic_form_matrix(g)
    return (np.eye(2 * g, dtype=np.int64) + np.outer(v, v) @ j) % 4


# The plane swap (x_1, y_1) <-> (x_2, y_2); it lies in O(4, +) but outside the
# subgroup generated by its transvections (Dieudonne's exception).
_PLANE_SWAP = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

# A mod-4 symplectic lift of the lexicographically first element of O(4, +)
# outside its transvection subgroup: mod 2 it is the map
# (x_1, x_2, y_1, y_2) -> (y_2, y_1, x_2, x_1).  `group_data` appends it to the
# generators at (2, even), where the transvections do not reach all of O(4, +).
_ORTHOGONAL_LIFT = ((0, 0, 0, 3), (0, 0, 3, 0), (0, 1, 0, 0), (1, 0, 0, 0))

_ORTHOGONAL_ORDERS = {(1, "even"): 2, (1, "odd"): 6, (2, "even"): 72, (2, "odd"): 120}


@lru_cache(maxsize=None)
def orthogonal_group(g: int, parity: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All of O(2g, +-) over F_2 in lexicographic order, by closure under products.

    The transvections of anisotropic vectors generate the group except at
    (2, even), where they generate a subgroup of index 2 and the plane swap
    is added.  The order is checked against |O(2, +)| = 2, |O(2, -)| = 6,
    |O(4, +)| = 72 and |O(4, -)| = 120.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")
    gens = [t % 2 for t in _anisotropic_transvection_gens(g, parity)]
    if (g, parity) == (2, "even"):
        gens.append(np.array(_PLANE_SWAP, dtype=np.int64))
    mats = _bfs_closure(gens, modulus=2)[0]
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

def _key(mat) -> int:
    """The packed key of one mod-4 matrix, as stored in `GroupData.key_index`."""
    return int(_kernels.pack_mod4(np.asarray(mat).astype(np.uint8)[None, :, :])[0])


@dataclass
class GroupData:
    """Enumerated group with its discriminant character.

    matrices[i] is the i-th element (uint8, mod 4); key_index maps packed
    keys to indices; lam[i] is the exponent e with discriminant = i^e; and
    solution_count records how many characters passed the check on every
    closure edge and prescribed value (`group_data` raises `NonUnique`
    unless it is one); generator_count is the size of the generating set,
    and extended_generators says whether `_ORTHOGONAL_LIFT` is in it.
    """

    g: int
    parity: str
    matrices: np.ndarray
    key_index: dict[int, int]
    lam: np.ndarray
    solution_count: int
    generator_count: int
    extended_generators: bool

    @property
    def order(self) -> int:
        return len(self.matrices)

    def index_of(self, mat) -> int:
        idx = self.key_index.get(_key(_as_matrix(mat)))
        if idx is None:
            raise NotMember("matrix is not in the enumerated group")
        return idx

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


def _all_anisotropic_transvections(g: int, parity: str) -> list[np.ndarray]:
    """Every transvection t_v with v in (Z/4)^{2g} anisotropic mod 2."""
    seen = {}
    for v in itertools.product(range(4), repeat=2 * g):
        if quad_form_value(np.array(v) % 2, parity) == 1:
            t = transvection(np.array(v)).astype(np.uint8)
            seen[_key(t)] = t
    return list(seen.values())


def _embed_block(mat2: np.ndarray, plane: int) -> np.ndarray:
    """Embed a 2x2 mod-4 symplectic matrix into the given hyperbolic plane of g=2.

    Coordinates are ordered (x_1, x_2, y_1, y_2); plane k acts on (x_k, y_k).
    """
    out = np.eye(4, dtype=np.int64)
    i, j = plane, 2 + plane
    out[i, i] = mat2[0, 0]
    out[i, j] = mat2[0, 1]
    out[j, i] = mat2[1, 0]
    out[j, j] = mat2[1, 1]
    return out % 4


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


def _bfs_closure(gens: list[np.ndarray], modulus: int = 4):
    """Breadth-first closure; returns matrices, key index, parent/gen trees, edges.

    Products are taken mod `modulus` (4, or 2 for subgroups of O(2g, +-)).
    The whole search runs on packed uint64 keys: a frontier is expanded by k
    gathers from `_row_tables`, so no product matrix is formed, and the
    matrices are unpacked once at the end.  Per level, each product key is
    tagged in its low bits with its frontier position and generator, so one
    plain sort groups equal keys with the first product leading; the
    distinct keys are looked up with one `searchsorted` in the sorted array
    of keys seen so far.  The first product with an unseen key becomes a
    tree node, numbered in key order; every other product is a constraint
    edge.  Elements are numbered level by level, and the last return value
    holds the end index of each BFS level: level L is range(ends[L-1],
    ends[L]), and every parent lies on the level before.  A level too large
    for the tag raises `ValueError`; at k <= 4 every closure here fits.
    """
    k = gens[0].shape[0]
    n_gens = len(gens)
    tables = _row_tables(gens, modulus)
    field = np.uint64(4**k - 1)
    shifts = [np.uint64(2 * k * i) for i in range(k)]
    # tag layout: key in the high 2k^2 bits, then frontier position, then generator
    tag_bits = 64 - 2 * k * k
    gen_bits = (n_gens - 1).bit_length()
    if tag_bits <= gen_bits:
        raise ValueError(f"{k} x {k} keys leave no room for a 64-bit tag")
    tag_mask = np.uint64((1 << tag_bits) - 1)
    gen_mask = np.uint64((1 << gen_bits) - 1)
    gen_tags = np.arange(n_gens, dtype=np.uint64)

    sorted_keys = _kernels.pack_mod4(np.eye(k, dtype=np.uint8)[None, :, :])
    sorted_vals = np.array([0], dtype=np.int64)
    key_chunks = [sorted_keys]
    parent_chunks = [np.array([0], dtype=np.int64)]
    gen_chunks = [np.array([-1], dtype=np.int64)]
    e_par, e_gen, e_tgt = [], [], []
    count = 1
    frontier_keys = sorted_keys
    frontier_start = 0

    while True:
        n = len(frontier_keys)
        if (n << gen_bits) >> tag_bits:
            raise ValueError(f"{n} x {n_gens} products do not fit a 64-bit tag")
        prods = tables[0][frontier_keys & field]
        for table, shift in zip(tables[1:], shifts[1:]):
            prods |= table[(frontier_keys >> shift) & field]
        prods <<= np.uint64(tag_bits)
        prods |= (np.arange(n, dtype=np.uint64)[:, None] << np.uint64(gen_bits)) | gen_tags
        tagged = np.sort(prods, axis=None)
        keys = tagged >> np.uint64(tag_bits)
        tags = tagged & tag_mask

        starts = np.empty(len(keys), dtype=bool)
        starts[0] = True
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        uniq = keys[starts]
        group = np.cumsum(starts) - 1
        pos = np.searchsorted(sorted_keys, uniq)
        new = sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] != uniq
        n_new = int(np.count_nonzero(new))
        assigned = count + np.arange(n_new, dtype=np.int64)
        target = np.empty(len(uniq), dtype=np.int64)
        target[~new] = sorted_vals[pos[~new]]
        target[new] = assigned

        tree = starts.copy()
        tree[starts] = new
        edge_tags = tags[~tree]
        e_par.append(frontier_start + (edge_tags >> np.uint64(gen_bits)).astype(np.int64))
        e_gen.append((edge_tags & gen_mask).astype(np.int64))
        e_tgt.append(target[group[~tree]])
        if n_new == 0:
            break

        tree_tags = tags[tree]
        parent_chunks.append(
            frontier_start + (tree_tags >> np.uint64(gen_bits)).astype(np.int64)
        )
        gen_chunks.append((tree_tags & gen_mask).astype(np.int64))
        frontier_keys = uniq[new]
        key_chunks.append(frontier_keys)
        sorted_keys = np.insert(sorted_keys, pos[new], frontier_keys)
        sorted_vals = np.insert(sorted_vals, pos[new], assigned)
        frontier_start = count
        count += n_new

    mats = _unpack(np.concatenate(key_chunks), k)
    key_index = dict(zip(sorted_keys.tolist(), sorted_vals.tolist()))
    return (
        mats,
        key_index,
        np.concatenate(parent_chunks),
        np.concatenate(gen_chunks),
        np.concatenate(e_par),
        np.concatenate(e_gen),
        np.concatenate(e_tgt),
        np.cumsum([len(c) for c in parent_chunks]),
    )


def _characters(
    parent_of, gen_of, e_par, e_gen, e_tgt, level_ends, n_gens, constraints
) -> list[np.ndarray]:
    """Every mod-4 character of a closure with the prescribed values.

    The first six arguments are what `_bfs_closure` returns after the matrices
    and the key index; `constraints` lists (element index, exponent) pairs.
    A constraint on a level-1 tree node fixes the value of that node's
    generator; every other generator ranges over Z/4.  Each candidate is
    propagated down the search tree, lam(h * s) = lam(h) + x(s), and kept only
    if it holds on every non-tree edge, which makes it a homomorphism, and on
    every constraint.  Returns the exponent arrays lam (int8) of the survivors.
    """
    cons_idx = np.array([i for i, _ in constraints], dtype=np.int64)
    cons_exp = np.array([e for _, e in constraints], dtype=np.int64) % 4
    pins = {
        int(gen_of[i]): e for i, e in zip(cons_idx, cons_exp) if i and parent_of[i] == 0
    }
    free = [s for s in range(n_gens) if s not in pins]

    survivors = []
    for values in itertools.product(range(4), repeat=len(free)):
        x = np.zeros(n_gens, dtype=np.int8)
        x[list(pins)] = list(pins.values())
        x[free] = values
        lam = np.zeros(len(parent_of), dtype=np.int8)
        for start, end in zip(level_ends[:-1], level_ends[1:]):
            level = np.arange(start, end)
            lam[level] = (lam[parent_of[level]] + x[gen_of[level]]) % 4
        if np.any((lam[e_par] + x[e_gen] - lam[e_tgt]) % 4):
            continue
        if np.any(lam[cons_idx] != cons_exp):
            continue
        survivors.append(lam)
    return survivors


@lru_cache(maxsize=None)
def group_data(g: int, parity: str) -> GroupData:
    """Enumerate the mod-4 group with theta characteristic and decide its discriminant.

    Generators: a basis of the mod-2 congruence kernel together with one
    anisotropic transvection lift per mod-2 class.  Mod 2 these generate the
    transvection subgroup of O(2g,+-); where that is proper (only at g = 2,
    even parity) the fixed lift `_ORTHOGONAL_LIFT` of an orthogonal element
    outside it is appended before the one closure, and the
    `extended_generators` flag records this.  The closure must reach the
    extension order |kernel| * |O(2g,+-)|, or `ArithmeticError` is raised.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")

    gens = gamma2_basis(g) + _anisotropic_transvection_gens(g, parity)
    extended = (g, parity) == (2, "even")
    if extended:
        gens.append(np.array(_ORTHOGONAL_LIFT, dtype=np.int64))
    target = (2 ** (g * (2 * g + 1))) * _ORTHOGONAL_ORDERS[(g, parity)]
    (
        mats, key_index, parent_of, gen_of, e_par, e_gen, e_tgt, level_ends
    ) = _bfs_closure(gens)
    if len(mats) != target:
        raise ArithmeticError(
            f"closure has order {len(mats)}, not the extension order {target}"
        )

    # The normalizing transvections are the ones built from the mu_4-valued
    # standard pairing, whose additive exponent is -B for the bilinear form
    # used by `transvection`; those are the inverses of our t_v, so on our
    # t_v the character takes the value i^{-1} = i^3.  (The opposite choice
    # is the complex-conjugate character, which fails the theta functional
    # equation oracle: it sends [[0,3],[1,0]] to -i instead of i.)
    constraints = [
        (key_index[_key(t)], 3) for t in _all_anisotropic_transvections(g, parity)
    ]

    # restriction to the congruence kernel: the quadratic-form linearization
    constraints += [
        (key_index[_key(u)], 2 * gamma2_character_exponent(u, parity))
        for u in gamma2_basis(g)
    ]

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
            for i in range(sub.order):
                emb = _embed_block(sub.matrices[i].astype(np.int64), plane)
                constraints.append((key_index[_key(emb)], int(sub.lam[i])))
        if parity == "even":
            constraints.append((key_index[_key(_PLANE_SWAP)], 2))

    n_gens = len(gens)
    lams = _characters(
        parent_of, gen_of, e_par, e_gen, e_tgt, level_ends, n_gens, constraints
    )
    if len(lams) != 1:
        raise NonUnique(
            f"discriminant check for g={g}, parity={parity} found "
            f"{len(lams)} characters instead of one"
        )
    return GroupData(
        g=g,
        parity=parity,
        matrices=mats,
        key_index=key_index,
        lam=lams[0],
        solution_count=len(lams),
        generator_count=n_gens,
        extended_generators=extended,
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
