"""Symplectic groups over Z/4 with a theta characteristic, and their discriminant.

The objects here are the automorphism groups of the standard symplectic
module (Z/4)^{2g} equipped with the even or odd quadratic refinement of the
mod-2 pairing.  They sit in an extension

    1 -> (congruence kernel mod 2) -> (full group) -> O(2g, +-) -> 1,

and carry a distinguished mu_4-valued character, the discriminant: the
unique character that takes the value i on every anisotropic transvection
(oriented by the mu_4-valued standard pairing) and restricts on the kernel
to the linearization of the quadratic form.  The character is computed, not
assumed: the group is enumerated by breadth-first closure, every product
relation discovered during the closure becomes a linear constraint mod 4 on
candidate characters, and the solver asserts that exactly one character
satisfies all constraints together with the normalizations.  Non-uniqueness
is reported as an error (`NonUnique`), never resolved silently.  The
normalization is pinned so that the character agrees on the nose with the
mu_4 factor in the classical theta functional equation (e.g. [[0,3],[1,0]]
maps to i); the complex-conjugate character is the one normalized on the
opposite pairing orientation.

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
    "Mod4SymplecticElement",
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
    """The character solve found a number of solutions different from one."""


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


def _as_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=np.int64)
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
    v = np.asarray(v, dtype=np.int64) % 2
    g = len(v) // 2
    val = int(np.dot(v[:g], v[g:]))
    if parity == "odd":
        val += int(v[0]) + int(v[g])
    return val % 2


def _f2_vectors(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)


def preserves_quad_form(mbar, parity: str) -> bool:
    m = np.asarray(mbar, dtype=np.int64) % 2
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


def _f2_eliminate(a: np.ndarray, cols: int) -> list[int]:
    """Reduce the uint8 0/1 matrix `a` in place over F_2 (Gauss-Jordan).

    Pivots are sought in the first `cols` columns only, so an augmented
    column beyond them is carried along.  Returns the pivot columns; pivot
    i sits in row i.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
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
        pivots.append(col)
        if rank + 1 == rows:
            break
    return pivots


def _f2_rank(mat: np.ndarray) -> int:
    a = (np.asarray(mat, dtype=np.int64) % 2).astype(np.uint8)
    return len(_f2_eliminate(a, a.shape[1]))


def dickson(mbar, parity: str) -> RootOfUnity:
    """Dickson invariant of an orthogonal matrix mod 2: (-1)^{rank(m + I)}."""
    m = np.asarray(mbar, dtype=np.int64) % 2
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise BadShape(f"expected a 2g x 2g matrix, got {m.shape}")
    n = m.shape[0]
    if _f2_rank(m) != n or not preserves_quad_form(m, parity):
        raise NotOrthogonal(f"matrix is not in O({n},{parity})")
    r = _f2_rank((m + np.eye(n, dtype=np.int64)) % 2)
    return RootOfUnity(Fraction(r % 2, 2))


@dataclass(frozen=True)
class Mod4SymplecticElement:
    """A 2g x 2g matrix over Z/4 preserving the standard alternating form."""

    matrix: tuple[tuple[int, ...], ...]
    parity: str | None = None

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if not is_symplectic_mod4(m):
            raise NotMember("matrix does not preserve the symplectic form mod 4")
        object.__setattr__(self, "matrix", tuple(tuple(int(e) for e in row) for row in m))

    @property
    def np(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64)

    @property
    def g(self) -> int:
        return len(self.matrix) // 2

    def __matmul__(self, other: "Mod4SymplecticElement") -> "Mod4SymplecticElement":
        return Mod4SymplecticElement(
            tuple(map(tuple, (self.np @ other.np) % 4)), self.parity
        )


def transvection(v) -> Mod4SymplecticElement:
    """The map z -> z + B(v, z) v over Z/4, as a matrix (columns are images)."""
    v = np.asarray(v, dtype=np.int64) % 4
    if v.ndim != 1 or len(v) % 2:
        raise BadShape(f"expected a 2g vector, got shape {v.shape}")
    g = len(v) // 2
    j = symplectic_form_matrix(g)
    t = (np.eye(2 * g, dtype=np.int64) + np.outer(v, v) @ j) % 4
    return Mod4SymplecticElement(tuple(map(tuple, t)))


@lru_cache(maxsize=None)
def orthogonal_group(g: int, parity: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All of O(2g, +-) over F_2, by brute force over binary matrices."""
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")
    n = 2 * g
    cand = _f2_vectors(n * n).reshape(-1, n, n)
    vs = _f2_vectors(n)
    qv = np.array([quad_form_value(v, parity) for v in vs], dtype=np.int64)
    images = np.einsum("nij,vj->nvi", cand, vs) % 2
    qi = np.sum(images[:, :, :g] * images[:, :, g:], axis=2)
    if parity == "odd":
        qi = qi + images[:, :, 0] + images[:, :, g]
    preserves = np.all(qi % 2 == qv[None, :], axis=1)
    dets = np.rint(np.linalg.det(cand.astype(np.float64))).astype(np.int64)
    invertible = dets % 2 != 0
    out = [tuple(map(tuple, m)) for m in cand[preserves & invertible]]
    return tuple(out)


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


# --- F2 and mod-4 linear algebra ---------------------------------------------------

def _f2_solve(a: np.ndarray, b: np.ndarray):
    """All solutions of a x = b over F_2: (particular, nullspace basis) or None."""
    a = (np.asarray(a, dtype=np.int64) % 2).astype(np.uint8)
    b = (np.asarray(b, dtype=np.int64) % 2).astype(np.uint8)
    cols = a.shape[1]
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    pivots = _f2_eliminate(aug, cols)
    rank = len(pivots)
    if np.any(aug[rank:, cols]):
        return None
    particular = np.zeros(cols, dtype=np.uint8)
    for r, col in enumerate(pivots):
        particular[col] = aug[r, cols]
    free = [c for c in range(cols) if c not in pivots]
    null = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for r, col in enumerate(pivots):
            v[col] = aug[r, f]
        null.append(v)
    return particular, null


def _solve_mod4(a: np.ndarray, b: np.ndarray, cap: int = 4096) -> list[np.ndarray]:
    """All solutions of a x = b (mod 4), by solving mod 2 and lifting."""
    a = np.asarray(a, dtype=np.int64) % 4
    b = np.asarray(b, dtype=np.int64) % 4
    first = _f2_solve(a, b)
    if first is None:
        return []
    part0, null0 = first
    if 2 ** len(null0) > cap:
        raise NonUnique(
            f"mod-2 solution space has dimension {len(null0)}; character is far from unique"
        )
    sols = []
    for bits in itertools.product((0, 1), repeat=len(null0)):
        x0 = part0.copy()
        for bit, v in zip(bits, null0):
            if bit:
                x0 ^= v
        r = (b - a @ x0.astype(np.int64)) % 4
        if np.any(r % 2):
            continue
        second = _f2_solve(a, r // 2)
        if second is None:
            continue
        part1, null1 = second
        if 2 ** len(null1) > cap:
            raise NonUnique(
                f"lift solution space has dimension {len(null1)}; character is far from unique"
            )
        for bits1 in itertools.product((0, 1), repeat=len(null1)):
            x1 = part1.copy()
            for bit, v in zip(bits1, null1):
                if bit:
                    x1 ^= v
            sols.append((x0.astype(np.int64) + 2 * x1.astype(np.int64)) % 4)
            if len(sols) > cap:
                raise NonUnique("too many candidate characters")
    return sols


# --- group enumeration with character solve ----------------------------------------

@dataclass
class GroupData:
    """Enumerated group with its discriminant character.

    matrices[i] is the i-th element (uint8, mod 4); key_index maps packed
    keys to indices; lam[i] is the exponent e with discriminant = i^e; and
    solution_count records how many characters survived the solve (asserted
    to be one before this object is built).
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
        m = _as_matrix(mat).astype(np.uint8)
        key = int(_kernels.pack_mod4(m[None, :, :])[0])
        idx = self.key_index.get(key)
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
            out.append(transvection(v).np)
    return out


def _all_anisotropic_transvections(g: int, parity: str) -> list[np.ndarray]:
    """Every transvection t_v with v in (Z/4)^{2g} anisotropic mod 2."""
    seen = {}
    for v in itertools.product(range(4), repeat=2 * g):
        if quad_form_value(np.array(v) % 2, parity) == 1:
            t = transvection(np.array(v)).np.astype(np.uint8)
            key = int(_kernels.pack_mod4(t[None, :, :])[0])
            seen[key] = t
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


def _lift_orthogonal(obar: np.ndarray, g: int) -> np.ndarray:
    """Lift an element of O(2g,+-) to a mod-4 symplectic matrix.

    Solves the linear mod-2 condition on the correction E in obar + 2E.
    """
    n = 2 * g
    j = symplectic_form_matrix(g)
    o = np.asarray(obar, dtype=np.int64) % 2
    w = ((o.T @ j @ o - j) // 2) % 2
    # (obar + 2E)^T J (obar + 2E) = J (mod 4)  <=>  E^T J o + o^T J E = -W (mod 2)
    rows = []
    rhs = []
    basis = []
    for i in range(n):
        for k in range(n):
            e = np.zeros((n, n), dtype=np.int64)
            e[i, k] = 1
            basis.append((e.T @ j @ o + o.T @ j @ e) % 2)
    for i in range(n):
        for k in range(n):
            rows.append([int(bmat[i, k]) for bmat in basis])
            rhs.append(int(w[i, k]) % 2)
    sol = _f2_solve(np.array(rows), np.array(rhs))
    if sol is None:
        raise ArithmeticError("orthogonal element does not lift; form data inconsistent")
    e = sol[0].astype(np.int64).reshape(n, n)
    lifted = (o + 2 * e) % 4
    assert is_symplectic_mod4(lifted)
    return lifted


def _bfs_closure(gens: list[np.ndarray]):
    """Breadth-first closure; returns matrices, key index, parent/gen trees, edges.

    Membership testing is vectorized by keeping the discovered keys in a
    sorted array with a companion index array; per batch, already-seen
    products become constraint edges and unseen ones become tree nodes.
    """
    k = gens[0].shape[0]
    gen_arr = np.ascontiguousarray(np.array(gens, dtype=np.uint8) % 4)
    n_gens = len(gens)
    eye = np.eye(k, dtype=np.uint8)

    sorted_keys = _kernels.pack_mod4(eye[None, :, :]).astype(np.uint64)
    sorted_vals = np.array([0], dtype=np.int64)
    mat_chunks = [eye[None, :, :]]
    parent_chunks = [np.array([0], dtype=np.int64)]
    gen_chunks = [np.array([-1], dtype=np.int64)]
    e_par, e_gen, e_tgt = [], [], []
    count = 1
    frontier_mats = eye[None, :, :]
    frontier_idx = np.array([0], dtype=np.int64)

    while len(frontier_idx):
        prods = _kernels.mod4_products(np.ascontiguousarray(frontier_mats), gen_arr)
        keys = _kernels.pack_mod4(prods).astype(np.uint64)
        parents = np.repeat(frontier_idx, n_gens)
        gidx = np.tile(np.arange(n_gens, dtype=np.int64), len(frontier_idx))

        pos = np.searchsorted(sorted_keys, keys)
        pos_clip = np.minimum(pos, len(sorted_keys) - 1)
        found = sorted_keys[pos_clip] == keys
        e_par.append(parents[found])
        e_gen.append(gidx[found])
        e_tgt.append(sorted_vals[pos_clip[found]])

        nk = keys[~found]
        if len(nk) == 0:
            break
        uniq, first_idx, inv = np.unique(nk, return_index=True, return_inverse=True)
        is_first = np.zeros(len(nk), dtype=bool)
        is_first[first_idx] = True
        nparents = parents[~found]
        ngens = gidx[~found]
        nprods = prods[~found]

        assigned = count + np.arange(len(uniq), dtype=np.int64)
        mat_chunks.append(nprods[first_idx])
        parent_chunks.append(nparents[first_idx])
        gen_chunks.append(ngens[first_idx])
        # duplicate occurrences of a new key in the same batch are edges too
        e_par.append(nparents[~is_first])
        e_gen.append(ngens[~is_first])
        e_tgt.append(count + inv[~is_first])

        merged_keys = np.concatenate([sorted_keys, uniq])
        merged_vals = np.concatenate([sorted_vals, assigned])
        order = np.argsort(merged_keys, kind="stable")
        sorted_keys = merged_keys[order]
        sorted_vals = merged_vals[order]

        frontier_mats = nprods[first_idx]
        frontier_idx = assigned
        count += len(uniq)

    mats = np.concatenate(mat_chunks)
    key_index = {int(k_): int(v_) for k_, v_ in zip(sorted_keys, sorted_vals)}
    return (
        mats,
        key_index,
        np.concatenate(parent_chunks),
        np.concatenate(gen_chunks),
        np.concatenate(e_par),
        np.concatenate(e_gen),
        np.concatenate(e_tgt),
    )


@lru_cache(maxsize=None)
def group_data(g: int, parity: str) -> GroupData:
    """Enumerate the mod-4 group with theta characteristic and solve for its discriminant.

    Generators: a basis of the mod-2 congruence kernel together with one
    anisotropic transvection lift per mod-2 class.  If the closure falls
    short of the extension order |kernel| * |O(2g,+-)| (transvections need
    not generate the orthogonal group in every case), lifted orthogonal
    generators are appended until it does not; the `extended_generators`
    flag records this.
    """
    parity = _parity(parity)
    if g not in (1, 2):
        raise ValueError(f"only g <= 2 is supported, got g={g}")

    gens = gamma2_basis(g) + _anisotropic_transvection_gens(g, parity)
    ortho = orthogonal_group(g, parity)
    target = (2 ** (g * (2 * g + 1))) * len(ortho)
    extended = False
    while True:
        mats, key_index, parent_of, gen_of, e_par, e_gen, e_tgt = _bfs_closure(gens)
        if len(mats) == target:
            break
        if len(mats) > target:
            raise ArithmeticError("closure exceeds the extension order; form data wrong")
        # find an orthogonal element not represented mod 2 and append a lift
        reduced = {
            int(_kernels.pack_mod4((m % 2).astype(np.uint8)[None, :, :])[0])
            for m in mats
        }
        missing = None
        for obar in ortho:
            o = np.array(obar, dtype=np.uint8)
            if int(_kernels.pack_mod4(o[None, :, :])[0]) not in reduced:
                missing = o
                break
        if missing is None:
            raise ArithmeticError("closure is short but covers O; kernel data wrong")
        gens = gens + [_lift_orthogonal(missing.astype(np.int64), g)]
        extended = True

    n_gens = len(gens)
    n = len(mats)
    # exponent vectors with respect to the generators, along the search tree
    tvecs = np.zeros((n, n_gens), dtype=np.int8)
    for i in range(1, n):
        tvecs[i] = tvecs[parent_of[i]]
        tvecs[i, gen_of[i]] = (tvecs[i, gen_of[i]] + 1) % 4

    # every non-tree edge parent*gen = target is a character constraint
    rows = (
        tvecs[e_par].astype(np.int64)
        + np.eye(n_gens, dtype=np.int64)[e_gen]
        - tvecs[e_tgt].astype(np.int64)
    ) % 4
    weights = np.int64(4) ** np.arange(n_gens, dtype=np.int64)
    packed = rows @ weights
    _, first = np.unique(packed, return_index=True)
    edge_rows = rows[first]

    # The normalizing transvections are the ones built from the mu_4-valued
    # standard pairing, whose additive exponent is -B for the bilinear form
    # used by `transvection`; those are the inverses of our t_v, so on our
    # t_v the character takes the value i^{-1} = i^3.  (The opposite choice
    # is the complex-conjugate character, which fails the theta functional
    # equation oracle: it sends [[0,3],[1,0]] to -i instead of i.)
    trans_rows = []
    for t in _all_anisotropic_transvections(g, parity):
        key = int(_kernels.pack_mod4(t[None, :, :])[0])
        trans_rows.append(tvecs[key_index[key]].astype(np.int64))
    trans_rows = np.array(trans_rows, dtype=np.int64) % 4

    # restriction to the congruence kernel: the quadratic-form linearization
    kernel_rows = []
    kernel_rhs = []
    for u in gamma2_basis(g):
        key = int(_kernels.pack_mod4(u.astype(np.uint8)[None, :, :])[0])
        kernel_rows.append(tvecs[key_index[key]].astype(np.int64))
        kernel_rhs.append(2 * gamma2_character_exponent(u, parity))
    kernel_rows = np.array(kernel_rows, dtype=np.int64) % 4

    # stabilization: on block-diagonal embeddings of the g=1 groups the
    # character restricts to the g=1 discriminant, and on the plane swap
    # (even parity) it takes the value -1 = 1/det of the constant weight
    # factor, both read off the product specialization of the squared theta
    # functional equation.  Needed at g=2 even, where transvections generate
    # a proper subgroup of the orthogonal quotient (the classical O_4^+(F_2)
    # exception) and would leave a residual sign twist otherwise.
    stab_rows = []
    stab_rhs = []
    if g == 2:
        plane_parities = ("even", "even") if parity == "even" else ("odd", "even")
        for plane, p1 in enumerate(plane_parities):
            sub = group_data(1, p1)
            for i in range(sub.order):
                emb = _embed_block(sub.matrices[i].astype(np.int64), plane)
                key = int(_kernels.pack_mod4(emb.astype(np.uint8)[None, :, :])[0])
                stab_rows.append(tvecs[key_index[key]].astype(np.int64))
                stab_rhs.append(int(sub.lam[i]))
        if parity == "even":
            swap = np.array(
                [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=np.uint8,
            )
            key = int(_kernels.pack_mod4(swap[None, :, :])[0])
            stab_rows.append(tvecs[key_index[key]].astype(np.int64))
            stab_rhs.append(2)
    stab_rows = (
        np.array(stab_rows, dtype=np.int64) % 4
        if stab_rows
        else np.zeros((0, n_gens), dtype=np.int64)
    )

    a = np.concatenate([edge_rows, trans_rows, kernel_rows, stab_rows])
    b = np.concatenate(
        [
            np.zeros(len(edge_rows), dtype=np.int64),
            3 * np.ones(len(trans_rows), dtype=np.int64),
            np.array(kernel_rhs, dtype=np.int64),
            np.array(stab_rhs, dtype=np.int64),
        ]
    )
    solutions = _solve_mod4(a, b)
    if len(solutions) != 1:
        raise NonUnique(
            f"discriminant solve for g={g}, parity={parity} found "
            f"{len(solutions)} characters instead of one"
        )
    lam = (tvecs.astype(np.int64) @ solutions[0]) % 4
    return GroupData(
        g=g,
        parity=parity,
        matrices=mats,
        key_index=key_index,
        lam=lam.astype(np.int8),
        solution_count=len(solutions),
        generator_count=n_gens,
        extended_generators=extended,
    )


def character_solution_count(g: int, parity: str) -> int:
    """How many characters survived the discriminant solve (must be one)."""
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
