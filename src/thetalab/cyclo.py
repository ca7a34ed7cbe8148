"""Exact arithmetic with roots of unity.

Every scalar that occurs in the finite group laws implemented by this
package (Heisenberg extensions, symplectic characters, branch signs) is a
root of unity.  We store such a scalar exactly as its exponent q in Q/Z,
so that group identities hold on the nose and exhaustive tests are
decidable.  Conversion to floating point happens only at the numerical
boundary, and `ru_snap` is the inverse direction: it reads an exact root
of unity off a float that is known to be one.  Instances are immutable, so
`ru_snap` and the congruence action factors hand out one cached instance
per (k, order) (`_root`) instead of building a `Fraction` per call.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

__all__ = [
    "NoSnap",
    "RootOfUnity",
    "ONE",
    "MINUS_ONE",
    "ZETA4",
    "ru_mul",
    "ru_embed",
    "ru_snap",
    "mu_group",
]

_TWO_PI = 2.0 * math.pi

ExponentLike = Union["RootOfUnity", Fraction, int]


class NoSnap(ValueError):
    """No root of unity of the requested order lies within tolerance."""


class RootOfUnity:
    """The complex number e^{2*pi*i*q}, stored as the reduced rational q with 0 <= q < 1."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: Fraction | int | str = 0):
        q = Fraction(exponent) % 1
        object.__setattr__(self, "exponent", q)

    @classmethod
    def of(cls, num: int, den: int = 1) -> "RootOfUnity":
        return cls(Fraction(num, den))

    @property
    def order(self) -> int:
        """Multiplicative order, i.e. the denominator of the exponent."""
        return self.exponent.denominator

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.exponent * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent)

    # complex conjugation and inversion agree on the unit circle
    conjugate = inverse

    @property
    def value(self) -> complex:
        return _embed(self.exponent)

    def is_one(self) -> bool:
        return self.exponent == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RootOfUnity):
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RootOfUnity", self.exponent))

    def __setattr__(self, name, value):
        raise AttributeError("RootOfUnity is immutable")

    def __repr__(self) -> str:
        return f"RootOfUnity({self.exponent})"

    def to_json(self) -> dict:
        return {"num": self.exponent.numerator, "den": self.exponent.denominator}

    @classmethod
    def from_json(cls, obj: dict) -> "RootOfUnity":
        return cls(Fraction(obj["num"], obj["den"]))


_QUARTERS = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def _embed(q: Fraction) -> complex:
    """e^{2 pi i q} for q in [0, 1): quarter points exactly, everything else through exp."""
    if q.denominator in (1, 2, 4):
        return _QUARTERS[q]
    return cmath.exp(1j * _TWO_PI * float(q))


ONE = RootOfUnity(0)
MINUS_ONE = RootOfUnity(Fraction(1, 2))
ZETA4 = RootOfUnity(Fraction(1, 4))


def ru_mul(a: RootOfUnity, b: RootOfUnity) -> RootOfUnity:
    """Multiply two roots of unity (exponents add mod 1)."""
    return a * b


def ru_embed(a: RootOfUnity) -> complex:
    """Embed into the unit circle as a double-precision complex number."""
    return a.value


def ru_snap(z: complex, order: int, tol: float) -> RootOfUnity:
    """Return the unique k/order with |z - e^{2 pi i k/order}| < tol.

    Uniqueness is guaranteed by the precondition tol < 1/(4*order): distinct
    order-th roots of unity are at distance >= 2*sin(pi/order) > 4*tol apart.
    Raises NoSnap when z is not within tolerance of any such root, which
    downstream code treats as a convention or precision failure, never as a
    value to be guessed; a non-finite z is within tolerance of none.
    """
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    if not 0 < tol < 1.0 / (4 * order):
        raise ValueError(f"tol={tol} violates 0 < tol < 1/(4*order) for order {order}")
    if not cmath.isfinite(z):
        raise NoSnap(f"{z} is not within {tol} of any {order}-th root of unity")
    k = round(cmath.phase(z) / _TWO_PI * order) % order
    # int / int rounds correctly, so k / order is the float of Fraction(k, order)
    if abs(z - cmath.exp(1j * _TWO_PI * (k / order))) >= tol:
        raise NoSnap(f"{z} is not within {tol} of any {order}-th root of unity")
    return _root(k, order)


@lru_cache(maxsize=4096)
def _root(k: int, n: int) -> RootOfUnity:
    """e^{2 pi i k / n}; one shared instance per (k, n), since instances are immutable."""
    return RootOfUnity(Fraction(k, n))


def mu_group(n: int) -> list[RootOfUnity]:
    """All n-th roots of unity, in exponent order."""
    return [RootOfUnity(Fraction(k, n)) for k in range(n)]
