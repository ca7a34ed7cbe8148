"""Numeric kernels: theta q-series summation and mod-4 matrix keys.

There is one vectorised numpy implementation of each kernel.  The theta
sums, behind `thetanum`, add the terms for r = -R..R in ascending order of
r (``np.bincount`` accumulates its weights in input order), so every result
is deterministic run to run and equal, bit for bit, to the plain loop that
adds e^{pi i tau r^2 / m} into ``out[r % m]`` for r = -R, ..., R.
`pack_mod4` turns mod-4 matrices into the uint64 keys of `symplectic4`.
`mod4_products` has no caller in the library; the benchmark's kernel probe
times it.  Its products are exact: they multiply in uint8, which wraps
modulo 256, and 4 divides 256.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "BACKEND",
    "theta_class_sums",
    "riemann_theta_sum",
    "mod4_products",
    "pack_mod4",
]

# The one implementation; benchmark run metadata records it.
BACKEND = "numpy"


def theta_class_sums(m: int, tau: complex, radius: int) -> np.ndarray:
    """Sum e^{pi i tau r^2 / m} into residue classes r mod m, |r| <= radius."""
    w = 1j * cmath.pi * tau / m
    r = np.arange(-radius, radius + 1)
    terms = np.exp(w * (r * r))
    classes = r % m
    out = np.empty(m, dtype=np.complex128)
    out.real = np.bincount(classes, weights=terms.real, minlength=m)
    out.imag = np.bincount(classes, weights=terms.imag, minlength=m)
    return out


def riemann_theta_sum(tau: complex, radius: int) -> complex:
    """sum_{|n| <= radius} e^{pi i tau n^2}, the single class sum at m = 1."""
    return complex(theta_class_sums(1, tau, radius)[0])


def mod4_products(mats: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Products mats[i] @ gens[j] mod 4; result shape (n*g, k, k), i-major."""
    a = np.asarray(mats, dtype=np.uint8)
    b = np.asarray(gens, dtype=np.uint8)
    prod = np.matmul(a[:, None], b[None]) & 3
    n, g, k, _ = prod.shape
    return prod.reshape(n * g, k, k)


def pack_mod4(mats: np.ndarray) -> np.ndarray:
    """Pack (n, k, k) mod-4 matrices into uint64 keys (base-4 digits)."""
    n = mats.shape[0]
    flat = mats.reshape(n, -1).astype(np.uint64)
    weights = np.uint64(4) ** np.arange(flat.shape[1], dtype=np.uint64)
    return flat @ weights
