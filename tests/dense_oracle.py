"""Dense oracle for the Weil representation: explicit m x m matrix products.

The generators are built as dense matrices (S with the prefactor that the
defining relations select, T^k with `np.diag` at an exactly reduced
exponent, Z as -I) and multiplied along a token word, |k| times for S^k and
Z^k (S^{-1} as the adjoint), independently of the FFT fold in `weilrep`.
Shared by the weilrep and thetanum tests.

`allocating_fold` is the FFT fold as it was before `weilrep._fold` worked in
place: a new block for every token.  It pins the in-place fold bit for bit.

`dense_generators` is `weilrep._generators` as it was before the relation
check moved to probe rows: S^2, (S T)^3 and S^8 folded over the m x m
identity.  `probe_prefactor` is the probe-row relation check that chose the
prefactor before it was written in closed form.  Both pin the closed form
bit for bit.

`dense_det_exponents` is `weilrep._det_exponents` as it was before the
closed forms: det T from the sum of k^2, det S a dense determinant snapped
into mu_24.
"""

import cmath
from fractions import Fraction
from functools import lru_cache

import numpy as np

from thetalab.cyclo import ru_snap
from thetalab.metaplectic import MpElement, mp_lift_word
from thetalab.weilrep import _fold


@lru_cache(maxsize=None)
def _dense_s(m: int) -> np.ndarray:
    """Dense S matrix; of the two prefactors e^{-+ i pi/4}, the one for which
    (S T)^3 = S^2 and S^8 = 1 hold as dense matrix products."""
    k = np.arange(m)
    t = np.diag(np.exp(1j * np.pi * (k * k) / m))
    base = np.exp(-2j * np.pi * (np.outer(k, k) % m) / m) / np.sqrt(m)
    consistent = []
    for pref in (cmath.exp(-1j * np.pi / 4), cmath.exp(1j * np.pi / 4)):
        s = pref * base
        st_ = s @ t
        braid = np.linalg.norm(st_ @ st_ @ st_ - s @ s, ord=np.inf)
        s4 = s @ s @ s @ s
        octic = np.linalg.norm(s4 @ s4 - np.eye(m), ord=np.inf)
        if braid < 1e-9 and octic < 1e-9:
            consistent.append(s)
    assert len(consistent) == 1
    return consistent[0]


def _dense_t_power(m: int, k: int) -> np.ndarray:
    j = np.arange(m)
    return np.diag(np.exp(1j * np.pi * ((j * j * (k % (2 * m))) % (2 * m)) / m))


def dense_word(m: int, tokens) -> np.ndarray:
    """Product of the dense generator matrices along a token word."""
    out = np.eye(m, dtype=np.complex128)
    for name, k in tokens:
        if name == "T":
            out = out @ _dense_t_power(m, k)
        elif name == "S":
            # S is unitary: a negative power repeats S^{-1} = S^*
            s = _dense_s(m) if k >= 0 else _dense_s(m).conj().T
            for _ in range(abs(k)):
                out = out @ s
        elif name == "Z":
            for _ in range(abs(k)):
                out = out @ (-np.eye(m))
        else:
            raise ValueError(f"unknown token {name!r}")
    return out


def dense_weil_rep(m: int, p: MpElement) -> np.ndarray:
    """rho_m(p) composed densely along the same word as weil_rep."""
    return dense_word(m, mp_lift_word(p.gamma, p.eps))


def allocating_fold(gens, tokens, rows: np.ndarray) -> np.ndarray:
    """rows @ X_1 @ ... @ X_n by the FFT fold, allocating a new block per token.

    Same token semantics and order of operations as `weilrep._fold`: T^k a
    column phase at the exact index (j^2 k) mod 2m, S an FFT along the rows,
    S^k and Z^k reduced mod 8 and mod 2, the S and Z scalars applied once
    at the end.
    """
    s_scale, squares, phases = gens
    two_m = len(phases)
    scale = 1
    out = rows
    for name, k in tokens:
        if name == "T":
            out = out * phases[(squares * (k % two_m)) % two_m]
        elif name == "S":
            for _ in range(k % 8):
                out = np.fft.fft(out, axis=-1)
                scale *= s_scale
        elif name == "Z":
            if k % 2:
                scale = -scale
        else:
            raise ValueError(f"unknown token {name!r}")
    return out if scale == 1 else out * scale


def generator_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(j^2 mod 2m for j < m, e^{i pi n / m} for n < 2m), for any even m."""
    j = np.arange(m, dtype=np.int64)
    return (j * j) % (2 * m), np.exp(1j * np.pi * np.arange(2 * m) / m)


def dense_generators(m: int):
    """(prefactor / sqrt(m), j^2 mod 2m, e^{i pi n / m}), the prefactor being
    the one candidate for which c^3 (S T)^3 = c^2 S^2 and c^8 S^8 = 1 hold as
    m x m matrices (largest absolute row sum of the difference below 1e-9)."""
    squares, phases = generator_tables(m)
    unit = (1, squares, phases)
    s2 = _fold(unit, [("S", 2)])
    st3 = _fold(unit, [("S", 1), ("T", 1)] * 3)
    s8 = _fold(unit, [("S", 6)], s2)
    consistent = []
    for pref in (cmath.exp(-1j * np.pi / 4), cmath.exp(1j * np.pi / 4)):
        c = pref / m**0.5
        braid = np.linalg.norm(c**3 * st3 - c**2 * s2, ord=np.inf)
        octic = np.linalg.norm(c**8 * s8 - np.eye(m), ord=np.inf)
        if braid < 1e-9 and octic < 1e-9:
            consistent.append(c)
    assert len(consistent) == 1
    return consistent[0], squares, phases


def probe_prefactor(squares: np.ndarray, phases: np.ndarray) -> complex:
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
    |lambda - 1| when b != 0, and 2 sin(pi / m) > 9.5e-5 for m <= 65 536.
    Residuals below 1e-9 on both rows thus leave Q = lambda with
    |lambda - 1| < 1e-9, and the residual of the dense check is |lambda - 1|
    as well.  The generic row, with no zero entry, is a further witness on
    every column.  The tables are the caller's, so any even m can be probed.
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


def dense_det_exponents(m: int) -> tuple[Fraction, Fraction]:
    """Exponents in Q/Z of det T, from the sum of k^2, and of det S, the
    dense determinant of the oracle's S snapped into mu_24."""
    q_t = Fraction(sum(k * k for k in range(m)), 2 * m) % 1
    q_s = ru_snap(complex(np.linalg.det(_dense_s(m))), 24, 1e-6).exponent
    return q_t, q_s
