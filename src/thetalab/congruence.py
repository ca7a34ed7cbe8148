"""Congruence subgroups of SL2(Z) and the finite level data they stabilize.

Membership predicates for Gamma(N), Gamma0(N), Gamma(m,2m) and the theta
group Gamma(1,2); the descent homomorphism Gamma0(2m) -> Gamma(1,2) and the
halving map Gamma0(2) -> SL2(Z); the exact exponential factors by which a
matrix moves a distinguished theta structure or splitting (triviality of
those factors characterizes the stabilizer subgroups); and subgroup indices
computed by coset counting in SL2(Z/L), for moduli L up to MODULUS_BOUND.

Everything here is exact integer / rational arithmetic.  The action
factors are 2m-th roots of unity: their exponent is evaluated as an
integer mod 2m, and the root is read from `cyclo`'s cache of immutable
`RootOfUnity` instances, so a sweep over many matrices builds no
`Fraction` per call.  `Gamma`, `Gamma0` and `GammaM2M` return one shared
`Group` per level, so a membership check builds no descriptor either.

The entry-bound pool is enumerated once, as one (N, 4) int64 array of
rows (a, b, c, d) (`_entry_bound_rows`, which imports numpy when called,
so membership queries load none); `sl2_with_entry_bound` wraps each row in
an `SL2Matrix` of Python ints.  `_contains` combines its conditions with
`&`, so one expression tests one matrix or a whole pool at once
(`_contains(group, *pool.T)` is a boolean mask), and callers that filter a
pool build matrices only for the rows they keep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index as _index
from typing import TYPE_CHECKING, Iterator

from .cyclo import RootOfUnity, _root, _set, _Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NotUnimodular",
    "NotMember",
    "SL2Matrix",
    "SL2_I",
    "SL2_S",
    "SL2_T",
    "Group",
    "Gamma",
    "Gamma0",
    "GammaM2M",
    "THETA12",
    "member",
    "des_hom",
    "v_hom",
    "theta_action_factor",
    "splitting_action_factor",
    "descended_theta_char",
    "subgroup_index",
    "relative_index",
    "sl2_with_entry_bound",
]


# the largest modulus L whose SL2(Z/L), at most L^3 elements, is enumerated
# (L = 64: 196 608 elements)
MODULUS_BOUND = 64


class NotUnimodular(ValueError):
    """Matrix has an entry that is not an integer, or its determinant is not one."""


class NotMember(ValueError):
    """Matrix is outside the congruence subgroup required by the operation."""


class SL2Matrix(_Value):
    """The matrix (a b; c d) in SL2(Z); its entries are stored as Python ints."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        try:
            a, b, c, d = _index(a), _index(b), _index(c), _index(d)
        except TypeError:
            for name, x in zip("abcd", (a, b, c, d)):
                if not hasattr(type(x), "__index__"):
                    raise NotUnimodular(f"entry {name}={x!r} is not an integer") from None
            raise
        if a * d - b * c != 1:
            raise NotUnimodular(f"det {(a, b, c, d)} != 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    # `_Value`'s equality and hash, written out: each call costs about half the generic one
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    def mod(self, n: int) -> tuple[int, int, int, int]:
        return (self.a % n, self.b % n, self.c % n, self.d % n)

    def moebius(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def __repr__(self) -> str:
        return f"SL2Matrix({self.a}, {self.b}, {self.c}, {self.d})"


SL2_I = SL2Matrix(1, 0, 0, 1)
SL2_S = SL2Matrix(0, -1, 1, 0)
SL2_T = SL2Matrix(1, 1, 0, 1)


class Group(_Value):
    """Descriptor for one of the supported congruence subgroup families."""

    __slots__ = ("kind", "level")

    def __init__(self, kind: str, level: int = 1):
        _set(self, "kind", kind)  # "gamma" | "gamma0" | "gamma_m_2m" | "theta12"
        _set(self, "level", level)

    def __str__(self) -> str:
        if self.kind == "gamma":
            return f"Gamma({self.level})"
        if self.kind == "gamma0":
            return f"Gamma0({self.level})"
        if self.kind == "gamma_m_2m":
            return f"Gamma({self.level},{2 * self.level})"
        return "Gamma(1,2)"

    @property
    def modulus(self) -> int:
        """Smallest even L with Gamma(L) contained in the group."""
        if self.kind == "gamma_m_2m":
            return 2 * self.level
        if self.kind == "theta12":
            return 2
        return self.level if self.level % 2 == 0 else 2 * self.level


# one shared descriptor per level: `Group` is frozen, and the action factors
# look their group up on every call
@lru_cache(maxsize=64)
def Gamma(n: int) -> Group:
    if n < 1:
        raise ValueError(f"the level of Gamma(n) must be positive, got {n}")
    return Group("gamma", n)


@lru_cache(maxsize=64)
def Gamma0(n: int) -> Group:
    if n < 1:
        raise ValueError(f"the level of Gamma0(n) must be positive, got {n}")
    return Group("gamma0", n)


@lru_cache(maxsize=64)
def GammaM2M(m: int) -> Group:
    if m <= 0 or m % 2 != 0:
        raise ValueError(f"Gamma(m,2m) is only used for even positive m, got {m}")
    return Group("gamma_m_2m", m)


THETA12 = Group("theta12")


def member(g: SL2Matrix, group: Group) -> bool:
    """Exact congruence membership test."""
    return _contains(group, *g.entries())


def _contains(group: Group, a: int, b: int, c: int, d: int) -> bool:
    """Whether the matrix (a b; c d) lies in `group`.

    Only the residues of the entries mod `group.modulus` matter, so the
    same test decides membership of a residue matrix in SL2(Z/L).  The
    conditions are combined with `&`: on ints the answer is a bool, on
    integer arrays of matching shape a boolean array, one entry per matrix.
    """
    n = group.level
    if group.kind == "gamma":
        return ((a - 1) % n == 0) & ((d - 1) % n == 0) & (b % n == 0) & (c % n == 0)
    if group.kind == "gamma0":
        return c % n == 0
    if group.kind == "gamma_m_2m":
        return (
            ((a - 1) % n == 0)
            & ((d - 1) % n == 0)
            & (b % (2 * n) == 0)
            & (c % (2 * n) == 0)
        )
    if group.kind == "theta12":
        return ((a * b) % 2 == 0) & ((c * d) % 2 == 0)
    raise ValueError(f"unknown group kind {group.kind!r}")


def des_hom(g: SL2Matrix, m: int) -> SL2Matrix:
    """Descent homomorphism Gamma0(2m) -> Gamma(1,2), (a b; c d) -> (a bm; c/m d)."""
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    if not member(g, Gamma0(2 * m)):
        raise NotMember(f"{g} is not in Gamma0({2 * m})")
    return SL2Matrix(g.a, g.b * m, g.c // m, g.d)


def v_hom(g: SL2Matrix) -> SL2Matrix:
    """Halving map Gamma0(2) -> SL2(Z), (a b; c d) -> (a 2b; c/2 d)."""
    if not member(g, Gamma0(2)):
        raise NotMember(f"{g} is not in Gamma0(2)")
    return SL2Matrix(g.a, 2 * g.b, g.c // 2, g.d)


def theta_action_factor(g: SL2Matrix, m: int, u1: int, u2: int) -> RootOfUnity:
    """Relative factor by which g in Gamma(m) moves the distinguished theta structure.

    The value at the 2m-torsion point indexed by (u1, u2) is
    e^{-2 pi i (a b u1^2 + (a d + b c - 1) u1 u2 + c d u2^2) / (2m)}; it is
    trivial for every (u1, u2) exactly when g stabilizes the structure, i.e.
    when g lies in Gamma(m, 2m).
    """
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    a, b, c, d = g.a, g.b, g.c, g.d
    if not _contains(Gamma(m), a, b, c, d):
        raise NotMember(f"{g} is not in Gamma({m})")
    e = a * b * u1 * u1 + (a * d + b * c - 1) * u1 * u2 + c * d * u2 * u2
    return _root(-e % (2 * m), 2 * m)


def splitting_action_factor(g: SL2Matrix, m: int, u: int) -> RootOfUnity:
    """Factor by which g in Gamma0(m) moves the distinguished splitting.

    Equal to e^{-2 pi i c d u^2 / (2m)}; trivial for every u exactly when
    g lies in Gamma0(2m).
    """
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    if not _contains(Gamma0(m), g.a, g.b, g.c, g.d):
        raise NotMember(f"{g} is not in Gamma0({m})")
    return _root(-g.c * g.d * u * u % (2 * m), 2 * m)


def descended_theta_char(m: int, u1: int, u2: int) -> RootOfUnity:
    """Theta characteristic of the degree-one descended bundle at a 2-torsion point.

    Evaluated via the finite formula e^{-2 pi i * 2m * w1 w2} at
    w1 = u1/2, w2 = u2/(2m); the result (-1)^{u1 u2} is the standard even
    quadratic form, independently of (even) m.
    """
    if m % 2 != 0 or m <= 0:
        raise ValueError(f"m must be even positive, got {m}")
    w1 = Fraction(u1, 2)
    w2 = Fraction(u2, 2 * m)
    return RootOfUnity(-2 * m * w1 * w2)


# --- finite SL2(Z/L) machinery -------------------------------------------------

def _sl2_mod(L: int) -> list[tuple[int, int, int, int]]:
    """All of SL2(Z/L), generated from S and T by closure."""
    if L < 1:
        raise ValueError(f"modulus must be positive, got {L}")
    if L > MODULUS_BOUND:
        raise ValueError(f"modulus {L} exceeds the enumeration bound {MODULUS_BOUND}")
    s = (0, (-1) % L, 1, 0)
    t = (1, 1, 0, 1)

    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % L,
            (x[0] * y[1] + x[1] * y[3]) % L,
            (x[2] * y[0] + x[3] * y[2]) % L,
            (x[2] * y[1] + x[3] * y[3]) % L,
        )

    seen = {(1 % L, 0, 0, 1 % L)}
    frontier = [(1 % L, 0, 0, 1 % L)]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in (s, t):
                y = mul(x, gen)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def subgroup_index(group: Group, modulus: int | None = None) -> int:
    """Index in SL2(Z), by counting cosets of the image inside SL2(Z/L).

    The reduction is faithful for index purposes because each supported
    family contains the principal congruence subgroup of its level; any
    multiple of `group.modulus` may be passed as `modulus` to cross-check.
    """
    L = group.modulus if modulus is None else modulus
    if L % group.modulus != 0:
        raise ValueError(f"modulus {L} is not a multiple of the level {group.modulus}")
    elements = _sl2_mod(L)
    image = sum(1 for x in elements if _contains(group, *x))
    if len(elements) % image != 0:
        raise ArithmeticError("image size does not divide group order")
    return len(elements) // image


def relative_index(sub: Group, sup: Group, modulus: int) -> int:
    """Index [sup : sub] for nested congruence groups, at a common modulus.

    Groups that are not nested are an input error (`ValueError`); a size
    that does not divide is an internal failure (`ArithmeticError`).
    """
    if modulus % sub.modulus or modulus % sup.modulus:
        raise ValueError("modulus must be a multiple of both levels")
    elements = _sl2_mod(modulus)
    n_sub = 0
    n_sup = 0
    for x in elements:
        in_sub = _contains(sub, *x)
        in_sup = _contains(sup, *x)
        if in_sub and not in_sup:
            raise ValueError(f"{sub} is not contained in {sup}")
        n_sub += in_sub
        n_sup += in_sup
    if n_sup % n_sub != 0:
        raise ArithmeticError("subgroup size does not divide supergroup size")
    return n_sup // n_sub


def sl2_with_entry_bound(bound: int) -> Iterator[SL2Matrix]:
    """All SL2(Z) matrices with |a|,|b|,|c|,|d| <= bound, in `_entry_bound_rows` order."""
    for row in _entry_bound_rows(bound).tolist():
        yield SL2Matrix(*row)


def _entry_bound_rows(bound: int) -> np.ndarray:
    """The entries (a, b, c, d) of every SL2(Z) matrix with all |entries| <= bound.

    One (N, 4) int64 array.  For each coprime bottom row (c, d), c-major,
    the solutions of a*d - b*c = 1 form the line (a0 + t*c, b0 + t*d); the
    admissible interval of t is cut out by the entry bound with integer
    floor division, and t runs through it in ascending order.  All lines
    are found and cut at once.
    """
    import numpy as np  # here, so that membership queries load no numpy

    span = np.arange(-bound, bound + 1, dtype=np.int64)
    c, d = (x.ravel() for x in np.meshgrid(span, span, indexing="ij"))
    g, x, y = _xgcd(d, -c)
    coprime = np.abs(g) == 1
    c, d, g = c[coprime], d[coprime], g[coprime]
    a0, b0 = x[coprime] * g, y[coprime] * g  # g = +-1, so (a0, b0) solves a*d - b*c = 1
    # recenter the line (a0 + t c, b0 + t d) so the base point is small; a
    # bottom row (0, d) is (0, +-1), and rint rounds half to even, as round does
    on_c = c != 0
    shift = -np.rint(np.where(on_c, a0, b0) / np.where(on_c, c, d)).astype(np.int64)
    a0, b0 = a0 + shift * c, b0 + shift * d
    # after recentering |t| <= bound + 1 covers every admissible entry;
    # each entry x0 + t*step with step != 0 then bounds t on both sides
    lo = np.full(len(c), -(bound + 1))
    hi = np.full(len(c), bound + 1)
    for x0, step in ((a0, c), (b0, d)):
        x0, step = np.where(step < 0, -x0, x0), np.abs(step)
        moving = step != 0
        step = np.where(moving, step, 1)
        lo = np.where(moving, np.maximum(lo, -((bound + x0) // step)), lo)
        hi = np.where(
            moving, np.minimum(hi, (bound - x0) // step), np.where(abs(x0) > bound, lo - 1, hi)
        )
    counts = np.maximum(hi - lo + 1, 0)
    line = np.repeat(np.arange(len(c)), counts)
    t = np.arange(len(line)) - np.repeat(np.cumsum(counts) - counts, counts) + lo[line]
    c, d = c[line], d[line]
    return np.stack([a0[line] + t * c, b0[line] + t * d, c, d], axis=1)


def _xgcd(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (g, s, t) with s x + t y = g = +-gcd(x, y), by the steps of
    Euclid's algorithm with floor division, each pair stopping at its zero."""
    import numpy as np

    old_r, r = x, y
    old_s, s = np.ones_like(x), np.zeros_like(x)
    old_t, t = np.zeros_like(x), np.ones_like(x)
    while (live := r != 0).any():
        q = old_r // np.where(live, r, 1)
        old_r, r = np.where(live, r, old_r), np.where(live, old_r - q * r, r)
        old_s, s = np.where(live, s, old_s), np.where(live, old_s - q * s, s)
        old_t, t = np.where(live, t, old_t), np.where(live, old_t - q * t, t)
    return old_r, old_s, old_t
