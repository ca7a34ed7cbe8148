"""The m-dimensional unitary representation of the metaplectic group.

On the group ring of Z/m (m even) the two generators act by

    T  |->  diag(e^{pi i k^2 / m})
    S  |->  (prefactor / sqrt(m)) (e^{-2 pi i k l / m})_{k,l}

with the prefactor an eighth root of unity.  Its sign is *measured*, not
assumed: of the two candidates e^{+- i pi/4} exactly one makes the defining
relations (S T)^3 = S^2 and S^8 = 1 hold as matrices, and the constructor
selects that one at runtime (it is e^{-i pi/4}, the square root of -i, for
every even m; an error is raised if the relation check ever fails to single
out one candidate).  The relations are checked on three probe rows, e_0, e_1
and one generic row, not on the m x m identity: both sides of a relation
normalize the translations and modulations of C^m, which act irreducibly
(Stone-von Neumann), so the two sides differ by a scalar times a
translation-modulation, and e_0 and e_1 detect any such factor but 1 (proof
in `_relation_prefactor`).

No generator is stored as a matrix.  A word over T^k, S^k and the central
Z = S^4 = -1 (the continued-fraction factorization from the metaplectic
module) acts on a block of rows by one fold, token by token: T^k scales the
columns by a cached phase table at the exact index (j^2 k) mod 2m, S is an
FFT along the rows, and Z flips a sign.  The fold allocates its block once
(the identity, or a copy of the given rows) and applies every token to it in
place.  `weil_rep(m, p)` folds the word over the identity; since every
generator is symmetric, rho(p) v is the fold of the reversed word over the
row v, which is how `weil_rep(m, p, vectors)` transforms vectors without
forming rho.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .cyclo import RootOfUnity, ru_snap
from .metaplectic import MpElement, mp_lift_word

__all__ = [
    "BadIndex",
    "WEIL_DIM_BOUND",
    "weil_generator",
    "weil_rep",
    "det_character",
    "det_character_order",
    "det_character_square_order",
]

WEIL_DIM_BOUND = 512


class BadIndex(ValueError):
    """m is not an even positive integer within the supported bound."""


def _check_m(m: int, bound: int | None = WEIL_DIM_BOUND) -> int:
    """m as a Python int; BadIndex unless m is an even integer with 0 < m <= bound.

    Integers of any type (numpy integers included) pass through
    `operator.index`; floats, strings and fractions are rejected even when
    they equal an even integer.  A bound of None sets no upper bound.
    """
    try:
        k = operator.index(m)
    except TypeError:
        k = None
    if k is None or k <= 0 or k % 2 != 0 or (bound is not None and k > bound):
        limit = "" if bound is None else f" <= {bound}"
        raise BadIndex(f"m must be even with 0 < m{limit}, got {m!r}")
    return k


@lru_cache(maxsize=None)
def _generators(m: int) -> tuple[complex, np.ndarray, np.ndarray]:
    """(prefactor / sqrt(m), j^2 mod 2m for j < m, e^{i pi n / m} for n < 2m).

    The prefactor is the one candidate for which (S T)^3 = S^2 and S^8 = 1
    hold as matrices; `_relation_prefactor` decides that on three probe
    rows, so no m x m block is formed here.  Callers pass m through
    `_check_m` first, so that every integer type shares one cache entry.
    """
    m = _check_m(m)
    j = np.arange(m, dtype=np.int64)
    squares = (j * j) % (2 * m)
    phases = np.exp(1j * np.pi * np.arange(2 * m) / m)
    c = _relation_prefactor(squares, phases)
    for a in (squares, phases):
        a.setflags(write=False)
    return c, squares, phases


def _relation_prefactor(squares: np.ndarray, phases: np.ndarray) -> complex:
    """The one c = e^{-+ i pi/4} / sqrt(m) for which S = c F satisfies the relations.

    F is the unit DFT (e^{-2 pi i k l / m}) and T the diagonal read from the
    tables.  S^2, (S T)^3 and S^8 are folded with a unit S scale over the
    probe rows e_0, e_1 and (j + 1) / m, and a candidate is kept when both
    c^3 (S T)^3 - c^2 S^2 and c^8 S^8 - 1 have largest absolute row sum
    below 1e-9 there.  ArithmeticError unless exactly one candidate is kept.

    Why the probe rows decide the relations as matrices.  Let X e_j = e_{j+1}
    (translation) and Y e_j = zeta^j e_j (modulation, zeta = e^{2 pi i / m}),
    and let N be the group of the lambda X^a Y^b, lambda a nonzero scalar.
    N acts irreducibly on C^m (an operator commuting with Y is diagonal, and
    one commuting with X too is scalar), and S and T normalize it: S X S^-1
    and S Y S^-1 are modulations and translations, T Y T^-1 = Y and
    T X T^-1 = e^{-i pi / m} Y X (m even, so j^2 mod 2m is well defined on
    Z/m).  Conjugation by a word in S and T therefore acts on N modulo
    scalars through the word's image in SL2(Z/m).  Let A = B be one of the
    relations and Q = A B^-1.  The relation holds in SL2(Z), so Q n Q^-1 =
    chi(n) n for a character chi of N / scalars, and some h0 in N has the
    same commutators: h0^-1 Q commutes with N and is a scalar (Schur).  So
    Q = lambda X^a Y^b.  A row v gives v A - v B = v (Q - 1) B, and B is
    unitary, so the residual on v is at least |v (Q - 1)|_2.  On e_0 that is
    sqrt(2) when a != 0 (a translation moves e_0) and |lambda - 1| when
    a = 0; then on e_1 it is |lambda zeta^b - 1|, at least 2 sin(pi / m) -
    |lambda - 1| >= 0.012 - |lambda - 1| (m <= 512) when b != 0.  Residuals
    below 1e-9 on both rows thus leave Q = lambda with |lambda - 1| < 1e-9,
    and the residual of the dense check is |lambda - 1| as well.  The
    generic row, with no zero entry, is a further witness on every column.
    """
    m = len(squares)
    unit = (1, squares, phases)
    probe = np.zeros((3, m))
    probe[0, 0] = probe[1, 1] = 1
    probe[2] = (np.arange(m) + 1) / m
    s2 = _fold(unit, [("S", 2)], probe)
    st3 = _fold(unit, [("S", 1), ("T", 1)] * 3, probe)
    s8 = _fold(unit, [("S", 6)], s2)

    def residual(a):  # the largest absolute row sum
        return np.abs(a).sum(axis=1).max()

    consistent = []
    for pref in (cmath.exp(-1j * np.pi / 4), cmath.exp(1j * np.pi / 4)):
        c = pref / m**0.5
        braid = residual(c**3 * st3 - c**2 * s2)
        octic = residual(c**8 * s8 - probe)
        if braid < 1e-9 and octic < 1e-9:
            consistent.append(c)
    if len(consistent) != 1:
        raise ArithmeticError(
            f"relation check selected {len(consistent)} prefactors for m={m}"
        )
    return consistent[0]


def _fold(
    gens: tuple[complex, np.ndarray, np.ndarray],
    tokens: Iterable[tuple[str, int]],
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """rows @ X_1 @ ... @ X_n, X_i the generator matrix of the i-th token.

    The fold allocates one complex128 block, the identity when `rows` is
    None and otherwise a copy of `rows` (the caller's array is never
    written), and applies every token to that block in place.  T^k scales
    column j by e^{i pi j^2 k / m}, read from the phase table at the exact
    integer index (j^2 k) mod 2m; S is the FFT along the rows (its kernel
    e^{-2 pi i k l / m} is symmetric) times prefactor / sqrt(m), and S^k is
    k mod 8 of them (S^8 = 1); Z^k is (-1)^k.  Negative k are inverse
    powers.  The scalars of S and Z commute with everything and are applied
    once, at the end.
    """
    s_scale, squares, phases = gens
    two_m = len(phases)
    if rows is None:
        out = np.eye(len(squares), dtype=np.complex128)
    else:
        out = np.array(rows, dtype=np.complex128)
    scale = 1
    for name, k in tokens:
        if name == "T":
            np.multiply(out, phases[(squares * (k % two_m)) % two_m], out=out)
        elif name == "S":
            for _ in range(k % 8):
                np.fft.fft(out, axis=-1, out=out)
                scale *= s_scale
        elif name == "Z":
            if k % 2:
                scale = -scale
        else:
            raise ValueError(f"unknown token {name!r}")
    if scale != 1:
        out *= scale
    return out


def weil_generator(m: int, which: str) -> np.ndarray:
    """Generator matrix: 'T', 'S', or 'Zminus' (the central element, S^4 = -1)."""
    tokens = {"T": ("T", 1), "S": ("S", 1), "Zminus": ("Z", 1)}
    if which not in tokens:
        raise ValueError(f"which must be 'T', 'S' or 'Zminus', got {which!r}")
    return _fold(_generators(_check_m(m)), [tokens[which]])


def weil_rep(m: int, p: MpElement, vectors: np.ndarray | None = None) -> np.ndarray:
    """Matrix of an arbitrary metaplectic element, folded along its word.

    The word comes from the continued-fraction factorization of gamma into
    S and T with an optional trailing central correction; because the
    generator matrices satisfy the defining relations, the result does not
    depend on the word chosen, and the representation is a homomorphism.

    Given `vectors` (one vector of length m or a (k, m) stack of them), the
    result has their shape and holds rho_m(p) v for each vector v, that is
    vectors @ rho_m(p).T: the reversed word is folded over the vectors, and
    the matrix is never formed.
    """
    m = _check_m(m)
    gens = _generators(m)
    word = mp_lift_word(p.gamma, p.eps)
    if vectors is None:
        return _fold(gens, word)
    vectors = np.asarray(vectors)
    if vectors.ndim not in (1, 2) or vectors.shape[-1] != m:
        raise ValueError(
            f"vectors must have shape (m,) or (k, m) with m={m}, got {vectors.shape}"
        )
    return _fold(gens, word[::-1], vectors)


def det_character(m: int, p: MpElement) -> complex:
    """Determinant of the representation at p."""
    return complex(np.linalg.det(weil_rep(m, p)))


def _det_exponents(m: int) -> tuple[Fraction, Fraction]:
    """Exact exponents in Q/Z of det(T) and det(S).

    det(T) is exact from the diagonal; det(S) is computed numerically and
    snapped into mu_24, which is safe because the determinant character of
    the double cover has order dividing 24.
    """
    m = _check_m(m)
    q_t = Fraction(sum(k * k for k in range(m)), 2 * m) % 1
    det_s = complex(np.linalg.det(weil_generator(m, "S")))
    q_s = ru_snap(det_s, 24, 1e-6).exponent
    return q_t, q_s


def det_character_order(m: int) -> int:
    """Order of the determinant character: least n killing both generator dets."""
    q_t, q_s = _det_exponents(m)
    order = np.lcm(q_t.denominator, q_s.denominator)
    for n in range(1, int(order) + 1):  # brute-force cross-check of the lcm
        if (q_t * n) % 1 == 0 and (q_s * n) % 1 == 0:
            if n != order:
                raise ArithmeticError("lcm disagrees with brute-force order")
            break
    return int(order)


def det_character_square_order(m: int) -> int:
    """Order of the squared determinant character."""
    q_t, q_s = _det_exponents(m)
    return int(np.lcm(((2 * q_t) % 1).denominator, ((2 * q_s) % 1).denominator))
