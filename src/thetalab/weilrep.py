"""The m-dimensional unitary representation of the metaplectic group.

On the group ring of Z/m (m even) the two generators act by

    T  |->  diag(e^{pi i k^2 / m})
    S  |->  (prefactor / sqrt(m)) (e^{-2 pi i k l / m})_{k,l}

with the prefactor e^{-i pi/4}, the square root of -i, for every even m.
It is the one eighth root of unity for which the defining relations
(S T)^3 = S^2 and S^8 = 1 hold, by the quadratic Gauss sum
sum_{j mod m} e^{pi i j^2 / m} = sqrt(m) e^{i pi/4} (Landsberg-Schaar; see
Berndt, Evans and Williams, Gauss and Jacobi Sums, 1998); the proof is in
`_generators`.  The determinants of T and S are exact as well: det T from
sum k^2, det S from the eigenvalue multiplicities of the unit DFT
(McClellan and Parks, 1972), and `det_character` is exact from an
element's word, with no matrix formed.

No generator is stored as a matrix.  A word over T^k, S^k and the central
Z = S^4 = -1 (the continued-fraction factorization from the metaplectic
module) acts on a block of rows by one fold, token by token: T^k scales the
columns by a cached phase table at the exact index (j^2 k) mod 2m, S is an
FFT along the rows, and Z flips a sign.  The fold takes a stack of words and
an (n, k, m) block, word i acting on block[i], and walks the words token
position by token position: at each position every T^k of the stack is one
gathered phase multiply, every S^k is k mod 8 FFTs of the sub-stack with
that count, and Z^k is a sign.  Each word's S and Z scalars are collected in
the order its tokens come and applied once at the end, to the words whose
scalar is not 1.  So every block sees exactly the operations, in the same
order, that folding its word alone gives it, elementwise products and
row-wise FFTs of the same values, and the stacked result equals the
one-word folds bit for bit.  A step at which every word of the stack has the
same token (always, for a stack of one) is the one-word fold's step, in
place on the whole block with no per-word bookkeeping, so a dense
`weil_rep(m, p)` is folded in place with no copy; a step at which every
word has a T, or an S with the same count, works in place too.

`weil_rep` is the one entry point of the fold, for one element or a list,
with or without vectors.  `weil_rep(m, p)` folds the word over the
identity; since every generator is symmetric, rho(p) v is the fold of the
reversed word over the row v, which is how `weil_rep(m, p, vectors)`
transforms vectors without forming rho.  Given a list, every word is folded
over its own identity block or copy of the vectors in one stacked fold; a
single element is the stack of one.  `weil_generator` is `weil_rep` of
MP_T, MP_S or MP_Z, whose words are the one token T, S or Z.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

# numpy's FFT kernel: `np.fft.fft(a, axis=-1, out=a)` checks its arguments
# and calls `_fft(a, 1, out=a)`, so the direct call gives its values bit for
# bit, without about 2 us of argument handling per call
from numpy.fft._pocketfft_umath import fft as _fft

from .cyclo import RootOfUnity
from .metaplectic import MP_S, MP_T, MP_Z, MpElement, mp_lift_word

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
    """(e^{-i pi/4} / sqrt(m), j^2 mod 2m for j < m, e^{i pi n / m} for n < 2m).

    Callers pass m through `_check_m` first, so that every integer type
    shares one cache entry.

    Why S = c' F with c' = e^{-i pi/4} satisfies (S T)^3 = S^2 and S^8 = 1,
    F the unit DFT (e^{-2 pi i k l / m} / sqrt(m)) and T = diag(e^{pi i k^2 / m}).
    F^2 is the permutation e_k -> e_{-k} and F^4 = 1, so S^8 = c'^8 = 1.  As m
    is even, e^{pi i j^2 / m} has period m in j, so sum_{j mod m}
    e^{pi i (j - n)^2 / m} is the Gauss sum G = sqrt(m) e^{i pi/4} for every
    integer n, and completing the square gives

        (F T F)_{kl} = (1/m) sum_j e^{pi i (j^2 - 2 j (k + l)) / m}
                     = (G/m) e^{-pi i (k + l)^2 / m} = e^{i pi/4} (T^-1 F T^-1)_{kl}.

    So S T S = c' e^{i pi/4} T^-1 S T^-1, and (S T)^3 = S^2 holds exactly
    when c' e^{i pi/4} = 1: then T S T S T = S, and multiplying by S on the
    left gives (S T)^3 = S^2.  The other eighth root e^{+i pi/4} gives
    (S T)^3 = i S^2.
    """
    m = _check_m(m)
    j = np.arange(m, dtype=np.int64)
    squares = (j * j) % (2 * m)
    phases = _t_phases(np.arange(2 * m), m)
    for a in (squares, phases):
        a.setflags(write=False)
    return cmath.exp(-1j * np.pi / 4) / m**0.5, squares, phases


def _t_phases(n: np.ndarray, m: int) -> np.ndarray:
    """e^{i pi n / m} at the integers n, each entry the phase table's entry at n, bit for bit."""
    return np.exp(1j * np.pi * n / m)


def _fold_words(
    gens: tuple[complex, np.ndarray, np.ndarray],
    words: list[Iterable[tuple[str, int]]],
    block: np.ndarray,
) -> np.ndarray:
    """block[i] @ X_1 @ ... @ X_n for the tokens X_j of words[i], in place on
    the (n, k, m) complex128 block; returns the block.

    T^k scales column j by e^{i pi j^2 k / m}, read from the phase table at
    the exact integer index (j^2 k) mod 2m; S is the FFT along the rows (its
    kernel e^{-2 pi i k l / m} is symmetric) times prefactor / sqrt(m), and
    S^k is k mod 8 of them (S^8 = 1); Z^k is (-1)^k.  Negative k are inverse
    powers.  The scalars of S and Z commute with everything; each word's is
    collected token by token and applied once, at the end.  The words are
    walked position by position, and each step touches only the sub-stack
    of words with that kind of token there (in place when that is all of
    them), so every block gets the operations of its own word, in order.
    A step whose token is the same for every word skips the sorting of
    words by token and applies that token to the whole block.
    """
    s_scale, squares, phases = gens
    two_m = len(phases)
    n = len(block)
    # the target of a step that touches every word; numpy's FFT takes less
    # time on the one (k, m) block of a stack of one than on the stack
    whole = block[0] if n == 1 else block
    scales = [1] * n
    for step in itertools.zip_longest(*words):
        token = step[0]
        if token is not None and step.count(token) == n:
            # every word has this token here (always, for a stack of one):
            # the one-word fold's step, in place on the whole block
            name, k = token
            if name == "T":
                np.multiply(whole, phases[(squares * (k % two_m)) % two_m], out=whole)
                continue
            if name == "S":
                for _ in range(k % 8):
                    _fft(whole, 1, out=whole)
            for i in range(n):
                scales[i] = _scaled(scales[i], s_scale, name, k)
            continue
        t_rows, t_powers = [], []
        s_rows: dict[int, list[int]] = {}  # FFT count -> rows
        for i, token in enumerate(step):
            if token is None:  # word i has ended
                continue
            name, k = token
            if name == "T":
                t_rows.append(i)
                t_powers.append(k % two_m)
                continue
            scales[i] = _scaled(scales[i], s_scale, name, k)
            if name == "S" and k % 8:
                s_rows.setdefault(k % 8, []).append(i)
        if t_rows:
            gathered = phases[(squares * np.array(t_powers)[:, None]) % two_m][:, None]
            if len(t_rows) == n:
                np.multiply(whole, gathered, out=whole)
            else:
                block[t_rows] *= gathered
        for count, rows in s_rows.items():
            sub = whole if len(rows) == n else block[rows]
            for _ in range(count):
                _fft(sub, 1, out=sub)
            if sub is not whole:
                block[rows] = sub
    for i, scale in enumerate(scales):
        if scale != 1:
            word_block = block[i]
            word_block *= scale
    return block


def _scaled(scale: complex, s_scale: complex, name: str, k: int) -> complex:
    """A word's S and Z scalar after its token (name, k), which is not a T^k:
    times the S prefactor k mod 8 times for S^k, negated for odd Z^k."""
    if name == "S":
        for _ in range(k % 8):
            scale *= s_scale
    elif name == "Z":
        if k % 2:
            scale = -scale
    else:
        raise ValueError(f"unknown token {name!r}")
    return scale


def weil_generator(m: int, which: str) -> np.ndarray:
    """Generator matrix: 'T', 'S', or 'Zminus' (the central element, S^4 = -1),
    `weil_rep` of MP_T, MP_S or MP_Z, whose words are that one token."""
    elements = {"T": MP_T, "S": MP_S, "Zminus": MP_Z}
    if which not in elements:
        raise ValueError(f"which must be 'T', 'S' or 'Zminus', got {which!r}")
    return weil_rep(m, elements[which])


def weil_rep(
    m: int, p: MpElement | list[MpElement], vectors: np.ndarray | None = None
) -> np.ndarray:
    """Matrix of an arbitrary metaplectic element, folded along its word.

    The word comes from the continued-fraction factorization of gamma into
    S and T with an optional trailing central correction; because the
    generator matrices satisfy the defining relations, the result does not
    depend on the word chosen, and the representation is a homomorphism.

    Given `vectors` (one vector of length m or a (k, m) stack of them), the
    result has their shape and holds rho_m(p) v for each vector v, that is
    vectors @ rho_m(p).T: the reversed word is folded over the vectors, and
    the matrix is never formed.  Given a list of n elements, the n results
    are stacked, slice i being `weil_rep(m, p[i], vectors)`.  Either way
    each word is lifted once and all are folded in one `_fold_words` call,
    over identity blocks or over copies of the vectors; a single element is
    the stack of one.
    """
    m = _check_m(m)
    one = isinstance(p, MpElement)
    ps = [p] if one else p
    if vectors is None:
        block = np.zeros((len(ps), m, m), dtype=np.complex128)
        block.reshape(len(ps), m * m)[:, :: m + 1] = 1  # identity blocks
        words = [mp_lift_word(q.gamma, q.eps) for q in ps]
        stack = block
    else:
        vectors = np.asarray(vectors)
        if vectors.ndim not in (1, 2) or vectors.shape[-1] != m:
            raise ValueError(
                f"vectors must have shape (m,) or (k, m) with m={m}, got {vectors.shape}"
            )
        block = np.empty((len(ps), *vectors.shape), dtype=np.complex128)
        block[:] = vectors
        words = [mp_lift_word(q.gamma, q.eps)[::-1] for q in ps]
        stack = block if vectors.ndim == 2 else block[:, None]
    _fold_words(_generators(m), words, stack)
    return block[0] if one else block


def det_character(m: int, p: MpElement) -> complex:
    """det rho_m(p), exact from the word of p: T^k and S^k multiply it by
    det(T)^k and det(S)^k, and Z = -1 by (-1)^m = 1.  No matrix is formed."""
    q_t, q_s = _det_exponents(m)
    exponents = {"T": q_t, "S": q_s, "Z": 0}
    word = mp_lift_word(p.gamma, p.eps)
    return RootOfUnity(sum(k * exponents[name] for name, k in word)).value


def _det_exponents(m: int) -> tuple[Fraction, Fraction]:
    """Exact exponents in Q/Z of det(T) and det(S).

    det T = e^{pi i sum_{k<m} k^2 / m}, and sum k^2 / 2m = (m-1)(2m-1)/12.
    det S = e^{-i pi m/4} det F, F the unit DFT, whose eigenvalues 1, -1, -i
    and i have multiplicities floor((m+4)/4), b = floor((m+2)/4),
    c = floor((m+1)/4) and d = floor((m-1)/4) (McClellan and Parks, IEEE
    Trans. Audio Electroacoustics 20, 1972), so det F = (-1)^b (-i)^c i^d.
    """
    m = _check_m(m)
    b, c, d = (m + 2) // 4, (m + 1) // 4, (m - 1) // 4
    q_t = Fraction((m - 1) * (2 * m - 1), 12) % 1
    q_s = (Fraction(-m, 8) + Fraction(b, 2) + Fraction(3 * c, 4) + Fraction(d, 4)) % 1
    return q_t, q_s


def det_character_order(m: int) -> int:
    """Order of the determinant character: least n killing both generator dets."""
    q_t, q_s = _det_exponents(m)
    return math.lcm(q_t.denominator, q_s.denominator)


def det_character_square_order(m: int) -> int:
    """Order of the squared determinant character."""
    q_t, q_s = _det_exponents(m)
    return math.lcm(((2 * q_t) % 1).denominator, ((2 * q_s) % 1).denominator)
