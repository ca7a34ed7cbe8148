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
identity.  It pins the probe-row selection bit for bit.
"""

import cmath
from functools import lru_cache

import numpy as np

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


def dense_generators(m: int):
    """(prefactor / sqrt(m), j^2 mod 2m, e^{i pi n / m}), the prefactor being
    the one candidate for which c^3 (S T)^3 = c^2 S^2 and c^8 S^8 = 1 hold as
    m x m matrices (largest absolute row sum of the difference below 1e-9)."""
    j = np.arange(m, dtype=np.int64)
    squares = (j * j) % (2 * m)
    phases = np.exp(1j * np.pi * np.arange(2 * m) / m)
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
