"""The Schroedinger representation of a finite Heisenberg group, as matrices.

G(delta) acts on functions H(delta) -> C by

    (rho(l, x, y) f)(y') = l <x, y'> f(y' + y),

a weight-one representation of rank d = d_1...d_g in the basis of delta
functions indexed by H(delta) in lexicographic order.  The matrices are
monomial with root-of-unity entries, so they are stored exactly (target row
and scalar exponent per column) and embedded into numpy only for the linear
algebra: joint invariant subspaces of lifted subgroups and intertwiner
spaces between representations, whose dimensions realize the uniqueness
statements of the Stone-von Neumann theory at this finite scale.

`rho` reads each matrix off one integer table per type (`_rho_table`): the
translation permutations of H(delta) and the exponents of <x, nu> in units
of the scalar modulus.  `Fraction`s are built only for the exponents of the
returned matrix, one per distinct value, and `to_numpy` embeds each distinct
exponent once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import _embed
from .heisenberg import HeisenbergElement, SymmetricSplitting, ThetaType, TooLarge

__all__ = [
    "RHO_BOUND",
    "SchrodingerMatrix",
    "h_basis",
    "rho",
    "invariant_subspace",
    "intertwiner_space",
]

RHO_BOUND = 2**10


@lru_cache(maxsize=None)
def h_basis(typ: ThetaType) -> tuple[tuple[int, ...], ...]:
    """H(delta) in lexicographic order; indexes rows and columns of rho."""
    return tuple(itertools.product(*(range(d) for d in typ.divisors)))


@dataclass(frozen=True, slots=True)
class SchrodingerMatrix:
    """A monomial d x d matrix with exact root-of-unity entries.

    Column nu holds its single nonzero entry in row `row_of_col[nu]`, with
    value e^{2 pi i exponents[nu]}.
    """

    type: ThetaType
    row_of_col: tuple[int, ...]
    exponents: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.row_of_col)

    def __matmul__(self, other: "SchrodingerMatrix") -> "SchrodingerMatrix":
        if self.type != other.type:
            raise ValueError("type mismatch")
        rows = tuple(self.row_of_col[r] for r in other.row_of_col)
        exps = tuple(
            (other.exponents[nu] + self.exponents[other.row_of_col[nu]]) % 1
            for nu in range(self.dim)
        )
        return SchrodingerMatrix(self.type, rows, exps)

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        values = {q: _embed(q % 1) for q in set(self.exponents)}
        out[self.row_of_col, range(self.dim)] = [values[q] for q in self.exponents]
        return out

    def is_permutation_consistent(self) -> bool:
        return sorted(self.row_of_col) == list(range(self.dim))


def rho(a: HeisenbergElement) -> SchrodingerMatrix:
    """Matrix of the weight-one action on delta functions: delta_nu -> l <x, nu> delta_{nu+y}.

    This is the transpose of the naive "multiply by the character, then
    translate the argument" operator (l, x, y) f(y') = l <x, y'> f(y' + y);
    the naive operator composes against the group law in reversed order
    (the character slot pairs with the translated variable), while its
    transpose is an exact homomorphism for the law
    (l1, x1, y1)(l2, x2, y2) = (l1 l2 <x1, y2>, ...).  On elements with
    x = 0 or y = 0 the two agree.  The center acts by its scalar.
    """
    typ = a.type
    if typ.degree > RHO_BOUND:
        raise TooLarge(f"|H| = {typ.degree} exceeds {RHO_BOUND}")
    shift, pair, place = _rho_table(typ)
    # exponents in units of 1/n, n the lcm of the scalar modulus and the scalar's order
    m, q = typ.scalar_modulus, a.scalar.exponent
    n = math.lcm(m, q.denominator)
    k, s = n // m, q.numerator * (n // q.denominator)
    units = [(p * k + s) % n for p in pair[_rank(a.z.x, place)].tolist()]
    fractions = {u: Fraction(u, n) for u in set(units)}
    return SchrodingerMatrix(
        typ, tuple(shift[_rank(a.z.y, place)].tolist()), tuple(map(fractions.__getitem__, units))
    )


def _rank(h: tuple[int, ...], place: tuple[int, ...]) -> int:
    """Position of the reduced h in `h_basis` order."""
    return sum(c * p for c, p in zip(h, place))


@lru_cache(maxsize=None)
def _rho_table(typ: ThetaType) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(shift, pair, place) over H(delta) in `h_basis` order.

    shift[y, nu] is the index of nu + y, pair[x, nu] is M times the exponent
    of <x, nu> reduced mod M, M the scalar modulus, and place holds the
    mixed-radix place values that index an element.
    """
    divisors = np.array(typ.divisors, dtype=np.int64)
    coords = np.array(h_basis(typ), dtype=np.int64).reshape(typ.degree, typ.g)
    place = np.append(np.cumprod(divisors[:0:-1])[::-1], 1)
    m = typ.scalar_modulus
    shift = np.zeros((typ.degree, typ.degree), dtype=np.int64)
    for c, d, p in zip(coords.T, divisors, place):
        shift += (c[:, None] + c) % d * p
    pair = (coords * -(m // divisors)) @ coords.T % m
    for a in (shift, pair):
        a.setflags(write=False)
    return shift, pair, tuple(place.tolist())


def _nullspace(mat: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the nullspace, columns, via SVD."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=np.complex128)
    u, s, vh = np.linalg.svd(mat)
    cutoff = rtol * max(1.0, (s[0] if len(s) else 0.0))
    null_mask = np.concatenate([s, np.zeros(mat.shape[1] - len(s))]) <= cutoff
    return vh.conj().T[:, null_mask]


def _normalize_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is real positive (sign convention)."""
    flat = vec.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    pivot = flat[k]
    if abs(pivot) == 0:
        return vec
    return vec * (abs(pivot) / pivot)


def invariant_subspace(sigma: SymmetricSplitting) -> list[np.ndarray]:
    """Basis of the common fixed space of rho over the lifted subgroup.

    For the canonical splitting this is exactly the span of the delta
    function at 0; for every maximal symmetric splitting it is a line.
    """
    typ = sigma.type
    if typ.degree > RHO_BOUND:
        raise TooLarge(f"|H| = {typ.degree} exceeds {RHO_BOUND}")
    d = typ.degree
    blocks = []
    for h in h_basis(typ):
        m = rho(sigma.sigma(h)).to_numpy()
        blocks.append(m - np.eye(d))
    basis = _nullspace(np.vstack(blocks))
    return [_normalize_phase(basis[:, j]) for j in range(basis.shape[1])]


def intertwiner_space(
    a_mats: list[np.ndarray], b_mats: list[np.ndarray]
) -> list[np.ndarray]:
    """Basis of {M : M A_i = B_i M for all i}.

    The lists must be index-aligned images of the same group elements.  For
    two weight-one representations of full rank the space is a line; basis
    matrices are normalized so their largest-magnitude entry is real
    positive, pinning the answer up to the sign ambiguity that is inherent
    to the situation.
    """
    if len(a_mats) != len(b_mats):
        raise ValueError("lists must be index-aligned")
    if not a_mats:
        raise ValueError("need at least one constraint pair")
    a = np.asarray(a_mats, dtype=np.complex128)
    b = np.asarray(b_mats, dtype=np.complex128)
    n, d = a.shape[:2]
    eye = np.eye(d)
    # M A = B M  <=>  (A^T (x) I - I (x) B) vec_col(M) = 0: entry (i d + k, j d + l)
    # of the block is A[j, i] I[k, l] - I[i, j] B[k, l], for every pair at once
    blocks = (
        a.transpose(0, 2, 1)[:, :, None, :, None] * eye[None, None, :, None, :]
        - eye[None, :, None, :, None] * b[:, None, :, None, :]
    )
    basis = _nullspace(blocks.reshape(n * d * d, d * d))
    out = []
    for j in range(basis.shape[1]):
        m = basis[:, j].reshape(d, d, order="F")
        out.append(_normalize_phase(m))
    return out
