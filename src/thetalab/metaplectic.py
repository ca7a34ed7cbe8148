"""Exact arithmetic in the metaplectic double cover of SL2(Z).

An element is a pair (gamma, phi) with phi a holomorphic square root of
c tau + d on the upper half-plane; we store phi by its sign relative to the
principal branch (argument in (-pi, pi], so sqrt(-1) = i).  The product
(gamma1, phi1)(gamma2, phi2) = (gamma1 gamma2, phi1(gamma2 tau) phi2(tau))
multiplies the signs by Kubota's cocycle, two real Hilbert symbols of
bottom-row entries, corrected for the principal-branch convention; the sign
is decided in integer arithmetic, with no evaluation at any point.

All products run through one routine on plain integers (`_mul`, five
integers per element: the entries and the sign), and every word through
one routine built on it (`_word`), which takes one product per run of S
or T tokens: a T run by T to the sum of its exponents, an S run by one
entry of the table S^0 .. S^7 (S^8 = 1), and the central Z tokens as one
sign flip.  `mp_mul`, `mp_inv`, `mp_pow` and
`mp_from_word` call them and build one validated `MpElement` for their
result, so a word is multiplied out without an object per token; callers
that only compare products, such as the suite's associativity check, stay
on the integer tuples and build no element at all.

Also provided: factorization of SL2(Z) matrices into the standard
generators S and T by a continued-fraction reduction, lifting of words to
the double cover, and the mu_8-valued character on the theta group that
measures the square-root-of-tau cocycle against the classical theta
function, read off the element's even-quotient word in S and T^2 from
pinned generator values, with no theta series evaluated.
"""

from __future__ import annotations

import cmath
from operator import index as _index

from .congruence import SL2Matrix, SL2_I, SL2_S, SL2_T, THETA12, NotMember, member
from .cyclo import MINUS_ONE, ONE, RootOfUnity, _set, _Value

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

class MpElement(_Value):
    """(gamma, eps): the square root phi(tau) = eps * principal sqrt(c tau + d)."""

    __slots__ = ("gamma", "eps")

    def __init__(self, gamma: SL2Matrix, eps: int = 1):
        sign = eps
        if sign.__class__ is not int:  # other integer types (numpy's) pass, bool and float do not
            try:
                sign = None if sign.__class__ is bool else _index(sign)
            except TypeError:
                sign = None
        if sign != 1 and sign != -1:
            raise ValueError(f"eps must be the integer 1 or -1, got {eps!r}")
        _set(self, "gamma", gamma)
        _set(self, "eps", sign)

    # `_Value`'s equality and hash, written out: each call costs about half the generic one
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.gamma, self.eps) == (other.gamma, other.eps)
        return NotImplemented

    def __hash__(self):
        return hash((self.gamma, self.eps))

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


def _mul(a1, b1, c1, d1, e1, a2, b2, c2, d2, e2):
    """(gamma1, e1)(gamma2, e2) on integers: the entries of gamma1 gamma2 and its sign.

    The sign is e1 e2 times Kubota's cocycle (x1, x2)(-x1 x2, x), where x is
    the bottom-left entry of gamma1, gamma2 and the product, or the
    bottom-right one when that is 0, and the real Hilbert symbol (u, v) is
    -1 exactly when u and v are both negative.  That formula is for the
    convention sqrt(-1) = -i, which differs from the principal branch exactly
    when c = 0 and d < 0, hence one more sign for each such matrix among
    gamma1, gamma2 and the product.
    """
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    x1, x2, x = c1 or d1, c2 or d2, c or d
    e = e1 * e2
    if x1 < 0 and x2 < 0:
        e = -e
    if x < 0 and (x1 < 0) == (x2 < 0):  # the symbol (-x1 x2, x)
        e = -e
    if c1 == 0 and d1 < 0:
        e = -e
    if c2 == 0 and d2 < 0:
        e = -e
    if c == 0 and d < 0:
        e = -e
    return a, b, c, d, e


def _inv(a, b, c, d, e):
    """The inverse of (gamma, e) on integers: p p^-1 = (I, +) fixes its sign."""
    return d, -b, -c, a, _mul(a, b, c, d, e, d, -b, -c, a, 1)[4]


def _element(a, b, c, d, e) -> MpElement:
    return MpElement(SL2Matrix(a, b, c, d), e)


def _ints(p: MpElement) -> tuple[int, int, int, int, int]:
    g = p.gamma
    return g.a, g.b, g.c, g.d, p.eps


def mp_mul(p: MpElement, q: MpElement) -> MpElement:
    """(gamma1, phi1)(gamma2, phi2) = (gamma1 gamma2, phi1(gamma2 tau) phi2(tau))."""
    g, h = p.gamma, q.gamma
    return _element(*_mul(g.a, g.b, g.c, g.d, p.eps, h.a, h.b, h.c, h.d, q.eps))


def mp_inv(p: MpElement) -> MpElement:
    return _element(*_inv(*_ints(p)))


def mp_pow(p: MpElement, n: int) -> MpElement:
    """p^n by repeated squaring; negative n raises the inverse."""
    x = _ints(p)
    if n < 0:
        x, n = _inv(*x), -n
    out = (1, 0, 0, 1, 1)
    while n:
        if n & 1:
            out = _mul(*out, *x)
        n >>= 1
        if n:
            x = _mul(*x, *x)
    return _element(*out)


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
    The reduction runs on the four entries; T^-k w and S^-1 w are row
    operations.
    """
    tokens: list[tuple[str, int]] = []
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    while c != 0:
        k = step * _nearest_quotient(a, step * c)
        if k != 0:
            tokens.append(("T", k))
            a, b = a - k * c, b - k * d
        tokens.append(("S", 1))
        a, b, c, d = c, d, -a, -b
    if a == -1:
        tokens.append(("S", 1))
        tokens.append(("S", 1))
        b = -b
    if b != 0:
        tokens.append(("T", b))
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
    all-principal lift of the S/T word lands on the opposite branch: the
    correction lift^-1 (gamma, eps) is (I, +) or (I, -) when the word
    multiplies back to gamma, and anything else is an internal failure.
    """
    tokens = st_factor(gamma)
    correction = mp_mul(mp_inv(mp_from_word(tokens)), MpElement(gamma, eps))
    if correction.gamma != SL2_I:
        raise ArithmeticError("factorization does not multiply back to gamma")
    if correction.eps == -1:
        tokens.append(("Z", 1))
    return tokens


def mp_from_word(tokens: list[tuple[str, int]]) -> MpElement:
    """Multiply out a token word; ("S", k) and ("Z", k) raise their generator to
    the k-th power, any integer k, with k reduced mod the generator's order
    (S^8 = Z^2 = 1 in Mp2(Z)).  The word is multiplied on integers by
    `_word`, one product per run of S or T tokens, and one `MpElement` is
    built for the result; an unknown token raises `ValueError`."""
    return _element(*_word(tokens))


def _word(tokens: list[tuple[str, int]]) -> tuple[int, int, int, int, int]:
    """The product of a token word as five integers (a, b, c, d, eps), see `mp_from_word`.

    Each run of consecutive T tokens is one `_mul` by T^(sum of exponents),
    and each run of S tokens one `_mul` by `_S_POWERS[sum mod 8]`: T^j T^k =
    T^(j+k) and S^8 = (I, +) hold in Mp2(Z), and `_mul` is its group law, so
    the runs multiply to the letter-by-letter product exactly.  Z = (I, -) is
    central, so a Z token may sit anywhere, and an odd power of it flips the
    sign of the product once, at the end.
    """
    x = (1, 0, 0, 1, 1)
    t = s = flip = 0  # the pending T and S run exponents; at most one is nonzero
    for name, k in tokens:
        if name == "T":
            if s:
                x = _mul(*x, *_S_POWERS[s])
                s = 0
            t += k
        elif name == "S":
            if t:
                x = _mul(*x, 1, t, 0, 1, 1)
                t = 0
            s = (s + k) % 8
        elif name == "Z":
            flip ^= k % 2
        else:
            raise ValueError(f"unknown token {name!r}")
    if t:
        x = _mul(*x, 1, t, 0, 1, 1)
    elif s:
        x = _mul(*x, *_S_POWERS[s])
    if flip:
        x = (*x[:4], -x[4])  # the central (I, -) flips the sign only
    return x


def _s_powers() -> tuple[tuple[int, int, int, int, int], ...]:
    powers = [(1, 0, 0, 1, 1)]
    for _ in range(7):
        powers.append(_mul(*powers[-1], 0, -1, 1, 0, 1))
    return tuple(powers)


_S_POWERS = _s_powers()  # S^0 .. S^7 as five integers each


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
