"""Exact arithmetic in the metaplectic double cover of SL2(Z).

An element is a pair (gamma, phi) with phi a holomorphic square root of
c tau + d on the upper half-plane; we store phi by its sign relative to the
principal branch (argument in (-pi, pi], so sqrt(-1) = i).  The product
(gamma1, phi1)(gamma2, phi2) = (gamma1 gamma2, phi1(gamma2 tau) phi2(tau))
multiplies the signs by Kubota's cocycle, two real Hilbert symbols of
bottom-row entries, corrected for the principal-branch convention
(`_cocycle`); the sign is decided in integer arithmetic, with no evaluation
at any point.

Also provided: factorization of SL2(Z) matrices into the standard
generators S and T by a continued-fraction reduction, lifting of words to
the double cover, and the mu_8-valued character on the theta group that
measures the square-root-of-tau cocycle against the classical theta
function, read off the element's even-quotient word in S and T^2 from
pinned generator values, with no theta series evaluated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .congruence import SL2Matrix, SL2_I, SL2_S, SL2_T, THETA12, NotMember, member
from .cyclo import MINUS_ONE, ONE, RootOfUnity

__all__ = [
    "MpElement",
    "MP_I",
    "MP_S",
    "MP_T",
    "MP_Z",
    "phi_eval",
    "mp_mul",
    "mp_inv",
    "mp_pow",
    "st_factor",
    "word_to_matrix",
    "mp_lift_word",
    "mp_from_word",
    "tilde_lambda",
]

@dataclass(frozen=True, slots=True)
class MpElement:
    """(gamma, eps): the square root phi(tau) = eps * principal sqrt(c tau + d)."""

    gamma: SL2Matrix
    eps: int = 1

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError(f"eps must be +-1, got {self.eps}")

    def as_string(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        a, b, c, d = self.gamma.entries()
        return f"{a},{b},{c},{d}:{sign}"

    @classmethod
    def from_string(cls, text: str) -> "MpElement":
        body, _, sign = text.partition(":")
        if sign not in ("+", "-"):
            raise ValueError(f"branch must be '+' or '-': {text!r}")
        nums = [int(t) for t in body.split(",")]
        if len(nums) != 4:
            raise ValueError(f"need four entries: {text!r}")
        return cls(SL2Matrix(*nums), 1 if sign == "+" else -1)

    def __repr__(self) -> str:
        return f"MpElement({self.as_string()!r})"


MP_I = MpElement(SL2_I, 1)
MP_S = MpElement(SL2_S, 1)
MP_T = MpElement(SL2_T, 1)
MP_Z = MpElement(SL2_I, -1)  # the nontrivial central element
_POWERED = {"S": (MP_S, 8), "Z": (MP_Z, 2)}  # word tokens: generator and its order

# lambda~ on (S,+), (T^2,+) and (I,-): theta(-1/tau) = sqrt(tau/i) theta(tau),
# theta(tau + 2) = theta(tau), and (I,-) only flips the sign of phi
_LAMBDA_S = RootOfUnity.of(1, 8)
_LAMBDA_T2 = ONE
_LAMBDA_Z = MINUS_ONE


def phi_eval(p: MpElement, tau: complex) -> complex:
    """phi(tau) = eps * principal sqrt(c tau + d); squares to c tau + d."""
    if tau.imag <= 0:
        raise ValueError(f"tau must be in the upper half-plane, got {tau}")
    return p.eps * cmath.sqrt(p.gamma.c * tau + p.gamma.d)


def _cocycle(g1: SL2Matrix, g2: SL2Matrix, g: SL2Matrix) -> int:
    """sigma with phi1(g2 tau) phi2(tau) = sigma * eps1 eps2 * sqrt(c tau + d), g = g1 g2.

    Kubota's cocycle (x(g1), x(g2)) (-x(g1) x(g2), x(g)), where x is the
    bottom-left entry, or the bottom-right one when that is 0, and the real
    Hilbert symbol (a, b) is -1 exactly when a and b are both negative.  That
    formula is for the convention sqrt(-1) = -i, which differs from the
    principal branch exactly when c = 0 and d < 0, hence one more sign for
    each such matrix among g1, g2 and g.
    """
    x1, x2, x = g1.c or g1.d, g2.c or g2.d, g.c or g.d
    sign = _hilbert(x1, x2) * _hilbert(-x1 * x2, x)
    for h in (g1, g2, g):
        if h.c == 0 and h.d < 0:
            sign = -sign
    return sign


def _hilbert(a: int, b: int) -> int:
    """The Hilbert symbol (a, b) over the reals, a and b nonzero."""
    return -1 if a < 0 and b < 0 else 1


def mp_mul(p: MpElement, q: MpElement) -> MpElement:
    """(gamma1, phi1)(gamma2, phi2) = (gamma1 gamma2, phi1(gamma2 tau) phi2(tau))."""
    gamma = p.gamma * q.gamma
    return MpElement(gamma, p.eps * q.eps * _cocycle(p.gamma, q.gamma, gamma))


def mp_inv(p: MpElement) -> MpElement:
    inverse = p.gamma.inverse()
    return MpElement(inverse, p.eps * _cocycle(p.gamma, inverse, SL2_I))


def mp_pow(p: MpElement, n: int) -> MpElement:
    """p^n by repeated squaring; negative n raises the inverse."""
    if n < 0:
        p, n = mp_inv(p), -n
    out = MP_I
    while n:
        if n & 1:
            out = mp_mul(out, p)
        n >>= 1
        if n:
            p = mp_mul(p, p)
    return out


def st_factor(gamma: SL2Matrix) -> list[tuple[str, int]]:
    """Factor gamma as a product of S and T powers, tokens [("T", k), ("S", 1), ...]."""
    return _cf_word(gamma, 1)


def _cf_word(gamma: SL2Matrix, step: int) -> list[tuple[str, int]]:
    """Continued-fraction reduction on the left, every T power a multiple of step.

    Peeling T^k makes |a| at most |c|/2, or below |c| at step 2, where
    k = 2 nearest(a / 2c); peeling S swaps the rows, so the bottom-left entry
    Euclid-shrinks and the token count is logarithmic in the entries.  On
    the theta group a and c have opposite parity, so step 2 stays in it and
    ends at +-T^(even): a word in S and T^2.  Elsewhere it may not terminate.
    """
    tokens: list[tuple[str, int]] = []
    w = gamma
    s_inv = SL2_S.inverse()
    while w.c != 0:
        k = step * _nearest_quotient(w.a, step * w.c)
        if k != 0:
            tokens.append(("T", k))
            w = SL2Matrix(w.a - k * w.c, w.b - k * w.d, w.c, w.d)
        tokens.append(("S", 1))
        w = s_inv * w
    if w.a == -1:
        tokens.append(("S", 1))
        tokens.append(("S", 1))
        w = -w
    if w.b != 0:
        tokens.append(("T", w.b))
        w = SL2Matrix(1, 0, 0, 1)
    return tokens


def _nearest_quotient(a: int, c: int) -> int:
    """Integer k minimizing |a - k c| (exact, no floats)."""
    q = a // c
    return q if abs(a - q * c) <= abs(a - (q + 1) * c) else q + 1


def word_to_matrix(tokens: list[tuple[str, int]]) -> SL2Matrix:
    return mp_from_word(tokens).gamma


def mp_lift_word(gamma: SL2Matrix, eps: int = 1) -> list[tuple[str, int]]:
    """Word over (S,+), (T,+) and the central (I,-) multiplying to (gamma, eps).

    At most one trailing central token ("Z", 1) is emitted, exactly when the
    all-principal lift of the S/T word lands on the opposite branch.
    """
    tokens = st_factor(gamma)
    lifted = mp_from_word(tokens)
    if lifted.gamma != gamma:
        raise ArithmeticError("factorization does not multiply back to gamma")
    if lifted.eps != eps:
        tokens = tokens + [("Z", 1)]
    return tokens


def mp_from_word(tokens: list[tuple[str, int]]) -> MpElement:
    """Multiply out a token word; ("S", k) and ("Z", k) raise their generator to
    the k-th power, any integer k, with k reduced mod the generator's order
    (S^8 = Z^2 = 1 in Mp2(Z))."""
    out = MP_I
    for name, k in tokens:
        if name == "T":
            out = mp_mul(out, MpElement(SL2Matrix(1, k, 0, 1), 1))
        elif name in _POWERED:
            gen, order = _POWERED[name]
            for _ in range(k % order):
                out = mp_mul(out, gen)
        else:
            raise ValueError(f"unknown token {name!r}")
    return out


def tilde_lambda(p: MpElement) -> RootOfUnity:
    """The mu_8 character lambda~(p) = phi(tau) theta(tau) / theta(gamma tau).

    It is independent of tau and multiplicative, so it is the product of its
    generator values over the even-quotient word of gamma, times -1 when the
    all-principal lift of that word is the other branch than p.
    """
    if not member(p.gamma, THETA12):
        raise NotMember(f"{p.gamma} is not in the theta group")
    tokens = _cf_word(p.gamma, 2)
    s_power = sum(k for name, k in tokens if name == "S")
    t2_power = sum(k // 2 for name, k in tokens if name == "T")
    flipped = int(mp_from_word(tokens).eps != p.eps)
    return _LAMBDA_S**s_power * _LAMBDA_T2**t2_power * _LAMBDA_Z**flipped
