"""Numeric kernels: theta q-series summation and mod-4 matrix keys.

There is one vectorised numpy implementation of each kernel.  The theta
sums, behind `thetanum`, add the terms for r = -R..R in ascending order of
r (``np.bincount`` accumulates its weights in input order, ``np.cumsum``
along a row is sequential), so every result is deterministic run to run and
equal, bit for bit, to the plain loop that adds e^{pi i tau r^2 / m} into
``out[r % m]`` for r = -R, ..., R.  `riemann_theta_sums` takes many taus
at once, one pass per distinct radius that computes each term once for
n >= 0 and mirrors it to -n, and gives each tau the value
`riemann_theta_sum` gives it.
`pack_mod4` turns mod-4 matrices into the uint64 keys of `symplectic4`,
and `mod4_products` gives the products its quotient closure takes.  They
are exact: they multiply in uint8, which wraps modulo 256, and 4 divides
256.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "BACKEND",
    "theta_class_sums",
    "riemann_theta_sum",
    "riemann_theta_sums",
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
    """sum_{|n| <= radius} e^{pi i tau n^2}, the single class sum at m = 1.

    The one-row form of `riemann_theta_sums`, with the same terms added in
    the same order.  The cocycle checks call these single sums one at a
    time, and the batch's per-call setup makes a batch of one cost
    23.3-24.7 us against 5.0-5.3 us for this sum (radius 3, warm, best of
    15 repeats in each of 6 processes, numpy 2.4.6 on a 2-vCPU Xeon VM).
    """
    n = np.arange(-radius, radius + 1)
    terms = np.exp(1j * cmath.pi * tau * (n * n))
    # adding 0.0 turns an all-(-0.0) sum into the +0.0 a sum from 0.0 gives
    return complex(terms.real.cumsum()[-1] + 0.0, terms.imag.cumsum()[-1] + 0.0)


def riemann_theta_sums(taus, radii) -> np.ndarray:
    """riemann_theta_sum(taus[i], radii[i]) for every i, bit for bit, as a complex array.

    One stable sort groups the rows by radius, and the taus of one radius are
    summed in one pass over one block of terms.  The term of n is computed
    once, for n >= 0, into the block's right half and mirrored to -n (it
    depends on n^2 only); each row then adds its terms in ascending n by one
    sequential complex cumsum, taken in place, which adds the real and
    imaginary parts as `riemann_theta_sum`'s two cumsums do.
    """
    taus = np.asarray(taus, dtype=np.complex128)
    radii = np.asarray(radii, dtype=np.int64)
    out = np.empty(len(taus), dtype=np.complex128)
    order = np.argsort(radii, kind="stable")
    ordered = radii[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(order)]):
        rows, radius = order[start:stop], int(ordered[start])
        k = np.arange(radius + 1)
        terms = np.empty((len(rows), 2 * radius + 1), dtype=np.complex128)
        np.exp(1j * cmath.pi * taus[rows, None] * (k * k), out=terms[:, radius:])
        terms[:, :radius] = terms[:, : radius : -1]
        out[rows] = np.cumsum(terms, axis=1, out=terms)[:, -1] + 0.0
    return out


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
