"""Certified numerical theta series and the analytic verification battery.

Evaluation: the one-variable theta series and the vector of level-m theta
constants

    theta_{m,nu}(tau) = sum_{r = nu mod m} e^{2 pi i tau r^2 / (2m)},

truncated at a radius whose tail is certified by an explicit geometric
bound; every returned vector carries its error bound, that tail plus a
certified bound on the float rounding of the sum.  `theta_constants` sums
at tau - k, Re(tau - k) in [-1/2, 1/2), and moves the sum to tau by the
Weil T^k phases, so its rounding does not grow with |Re tau|.  The radius is
searched above a closed-form floor and capped at MAX_RADIUS (TauTooLow
beyond it), and a non-finite tau or tolerance is rejected, on the one path
every evaluation takes.  Verification: the mu_4 character of the squared
theta series (the square of the exact `metaplectic.tilde_lambda`), the
half-form and level-2 cocycles, the elliptic automorphy cocycle for the
semidirect product with the lattice, and the central transformation-law
check

    theta(gamma tau) = phi(tau) . rho_m(gamma, phi) . theta(tau),

which is tested against rho_m and its entrywise conjugate, both applied to
the theta vector by the Weil-representation word fold without forming the
matrix.  Which of the two conventions holds is measured, not asserted; it
must be the same for every decisive query in a run, and a flip raises an
error.  The check runs in batches of (word, tau) queries, a single query
being a batch of one: every query's input is checked before any sum, each
word is lifted once, all are folded in one stacked fold, the residuals are
taken in one array step, and the queries are observed in word-major
order.  The summation order is fixed (r ascending), so results are
reproducible bit for bit run to run.  The Riemann theta sums behind the
cocycles sit in a bounded LRU cache keyed by (tau, tol), THETA_CACHE_SIZE
entries, so theta at a fixed base point (the suite's PROBE_POINTS, tau0) is
summed once per process; a cached value is the stored sum, bit for bit.
The level-m theta vectors behind the transformation-law check sit in a
second such cache, keyed by (m, tau, tol), so a sweep of many words at a
few taus sums theta at each tau once; a cached vector is read-only.
Theta at many taus at once (the suite's discriminant oracle) goes past the
cache through one `_kernels.riemann_theta_sums` batch, with each tau's own
radius and reduction, so each value is the one the cache would hold.  There
is one truncation-radius rule, `_radius_unchecked`; a batch runs it once
per distinct Im tau, on which alone the radius of a finite tau depends.
"""

from __future__ import annotations

import cmath
import math
import threading
from functools import lru_cache

import numpy as np

from . import _kernels
from .congruence import (
    Gamma0,
    SL2Matrix,
    THETA12,
    NotMember,
    member,
)
from .cyclo import RootOfUnity, _set, _Value
from .metaplectic import MpElement, phi_eval, tilde_lambda
from .weilrep import _check_m, _t_phases, weil_rep

__all__ = [
    "TauTooLow",
    "ConventionFlip",
    "ThetaVector",
    "TransformCheck",
    "MIN_IM_EVAL",
    "MIN_IM_VERIFY",
    "MAX_THETA_INDEX",
    "PROBE_POINTS",
    "truncation_radius",
    "riemann_theta",
    "theta_constants",
    "functional_eq_lambda",
    "halfform_cocycle",
    "shimura_cocycle",
    "jacobi_cocycle",
    "jacobi_compose",
    "jacobi_action",
    "verify_transformation",
    "get_convention",
    "reset_convention",
    "decisive_count",
]

MIN_IM_EVAL = 0.1
MIN_IM_VERIFY = 0.5
# the largest truncation radius an evaluation may use, far above the 221 the
# benchmark needs at m = 512, Im tau = 0.1, tol = 1e-12; the term arrays of
# a radius-R sum hold 2R + 1 entries
MAX_RADIUS = 10**5
# the largest m `theta_constants` evaluates: its vector holds m complex values
# (1 MiB at the bound), far above the 512 the tests, the suite and the
# benchmark use; a larger m raises BadIndex before anything is allocated
MAX_THETA_INDEX = 2**16

# the two points at which the suite evaluates and cross-checks its
# tau-independent theta quotients
PROBE_POINTS = (2j, 0.3 + 1.1j)


class TauTooLow(ValueError):
    """Im(tau) is below the precision contract of the operation."""


class ConventionFlip(RuntimeError):
    """Two decisive verification queries in one run disagreed on the convention."""


class ThetaVector(_Value):
    """Theta constants at tau with a certified error bound.

    `err_bound` bounds |values[nu] - theta_{m,nu}(tau)| for every nu: the
    truncation tail plus the float rounding of the sum at Re tau in
    [-1/2, 1/2) (`_rounding_bound`) and of the phase product that moves it
    to tau, so it may exceed the tolerance that chose the radius only where
    that rounding is above the tolerance (small Im tau, large m).
    """

    __slots__ = ("m", "tau", "values", "err_bound")

    def __init__(self, m: int, tau: complex, values: np.ndarray, err_bound: float):
        _set(self, "m", m)
        _set(self, "tau", tau)
        _set(self, "values", values)
        _set(self, "err_bound", err_bound)


class TransformCheck(_Value):
    """One transformation-law query: the smaller residual, its convention, and both residuals."""

    __slots__ = ("residual", "convention", "passed", "residual_direct", "residual_conjugate")

    def __init__(
        self,
        residual: float,
        convention: str,  # "direct" | "conjugate"
        passed: bool,
        residual_direct: float,
        residual_conjugate: float,
    ):
        _set(self, "residual", residual)
        _set(self, "convention", convention)
        _set(self, "passed", passed)
        _set(self, "residual_direct", residual_direct)
        _set(self, "residual_conjugate", residual_conjugate)

    # `_Value`'s equality and hash, written out: each call costs about half the generic one
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.residual, self.convention, self.passed, self.residual_direct,
                self.residual_conjugate,
            ) == (
                other.residual, other.convention, other.passed, other.residual_direct,
                other.residual_conjugate,
            )
        return NotImplemented

    def __hash__(self):
        return hash((
            self.residual, self.convention, self.passed, self.residual_direct,
            self.residual_conjugate,
        ))


def _tail_bound(m: int, im_tau: float, radius: int) -> float:
    """Certified bound on 2 sum_{r >= radius} e^{-pi im_tau r^2 / m}.

    The term ratio is at most q = e^{-pi im_tau (2 radius + 1)/m} < 1, so the
    tail is dominated by the geometric series term(radius) / (1 - q).
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    x = math.pi * im_tau / m
    q = math.exp(-x * (2 * radius + 1))
    return 2.0 * math.exp(-x * radius * radius) / (1.0 - q)


def _rounding_bound(m: int, tau: complex, radius: int) -> float:
    """Certified bound on the float rounding of each class sum of
    `_kernels.theta_class_sums(m, tau, radius)`, for tau already reduced.

    With u = 2^-53, x = pi Im(tau) / m and a = pi (|Re tau| + Im tau) / m:
    each exponent w r^2 is formed with four roundings, so to first order it
    is off by at most 4 u a r^2, which grows with |Re tau| r^2; numpy's complex exp
    adds at most 8 u relative to each term; and the float sum of a class,
    n <= (2R + 1) // m + 1 terms, adds at most sqrt(2) gamma_n sum|term|,
    below 1.5 n u sum|term|.
    The sums over |r| <= R of e^{-x r^2} and r^2 e^{-x r^2} are at most their
    integrals plus their largest terms, 1 + sqrt(pi / x) and
    sqrt(pi) / 2 x^{-3/2} + 2 / (e x); the constants carry slack for the
    second-order terms.
    """
    x = math.pi * tau.imag / m
    a = math.pi * (abs(tau.real) + tau.imag) / m
    terms = 1.0 + math.sqrt(math.pi / x)
    weighted = 0.5 * math.sqrt(math.pi) * x**-1.5 + 2.0 / (math.e * x)
    summands = (2 * radius + 1) // m + 1
    return 2.0**-53 * ((1.5 * summands + 8.5) * terms + 4.5 * a * weighted)


def _radius_unchecked(m: int, tau: complex, tol: float) -> int:
    """Smallest radius whose certified tail bound at Im(tau) is below tol.

    Every evaluation passes through here, so this is where non-finite input
    and radii above MAX_RADIUS are rejected.  The tail bound is strictly
    decreasing in the radius and at least 2 e^{-x radius^2}, x = pi Im(tau)/m,
    so the answer exceeds sqrt(log(2/tol) / x); from there the search steps
    up by doubling strides, then bisects the last stride.
    """
    if not (cmath.isfinite(tau) and math.isfinite(tol)):
        raise ValueError(f"tau and tol must be finite, got tau={tau}, tol={tol}")
    im_tau = tau.imag
    if im_tau <= 0:
        raise ValueError("im_tau must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = math.pi * im_tau / m
    log_ratio = max(math.log(2.0 / tol), 0.0)
    if log_ratio >= x * MAX_RADIUS**2:
        raise _radius_too_large(im_tau, tol)
    lo = hi = int(math.sqrt(log_ratio / x)) + 1
    stride = 1
    while _tail_bound(m, im_tau, hi) >= tol:
        if hi >= MAX_RADIUS:
            raise _radius_too_large(im_tau, tol)
        lo, hi = hi + 1, min(hi + stride, MAX_RADIUS)
        stride *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(m, im_tau, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _radii_unchecked(m: int, taus: list[complex], tol: float) -> list[int]:
    """`_radius_unchecked(m, tau, tol)` for every tau, in order, the search run
    once per distinct Im tau: past its finiteness check the radius depends on
    Im tau alone.  A tau that is not finite is searched, so the batch raises
    at the first tau the scalar loop would raise at, with its message."""
    found: dict[float, int] = {}
    radii = []
    for tau in taus:
        radius = found.get(tau.imag) if cmath.isfinite(tau) else None
        if radius is None:
            radius = found[tau.imag] = _radius_unchecked(m, tau, tol)
        radii.append(radius)
    return radii


def _radius_too_large(im_tau: float, tol: float) -> TauTooLow:
    return TauTooLow(
        f"Im(tau)={im_tau} with tol={tol} needs a truncation radius above "
        f"the cap MAX_RADIUS={MAX_RADIUS}"
    )


def truncation_radius(m: int, im_tau: float, tol: float) -> int:
    """Smallest radius whose certified tail bound is below tol (at most MAX_RADIUS).

    m is any even positive integer (`BadIndex` otherwise): a large m is
    refused by the radius cap, as `TauTooLow`.
    """
    m = _check_m(m, None)
    if im_tau < MIN_IM_EVAL:
        raise TauTooLow(f"im_tau={im_tau} is below the contract floor {MIN_IM_EVAL}")
    return _radius_unchecked(m, complex(0.0, im_tau), tol)


# theta(tau) and the level-m theta vectors for the most recent queries, each
# cache THETA_CACHE_SIZE entries: the cocycles divide by theta at a fixed
# base point on every call, a pair identity c(g1 g2, tau) = c(g1, g2 tau)
# c(g2, tau) evaluates theta(g2 tau) twice, and the transformation-law sweep
# checks many words at the same few taus; a cached vector is read-only
THETA_CACHE_SIZE = 64


@lru_cache(maxsize=THETA_CACHE_SIZE)
def _riemann_theta_unchecked(tau: complex, tol: float) -> complex:
    radius = _radius_unchecked(1, tau, tol)
    return _kernels.riemann_theta_sum(_reduce_real(tau, 2), radius)


def _riemann_thetas_unchecked(taus: list[complex], tol: float) -> np.ndarray:
    """theta at every tau in taus, each the value `_riemann_theta_unchecked` gives,
    bit for bit, summed in one `_kernels.riemann_theta_sums` call past the cache;
    the radius is searched once per distinct Im tau (`_radii_unchecked`)."""
    radii = _radii_unchecked(1, taus, tol)
    taus = np.array(taus, dtype=np.complex128)
    taus.real = np.fmod(taus.real, 2)  # `_reduce_real(tau, 2)`, exact as well
    return _kernels.riemann_theta_sums(taus, radii)


def riemann_theta(tau: complex, tol: float = 1e-12) -> complex:
    """theta(tau) = sum_n e^{pi i n^2 tau}, within tol; non-vanishing on the half-plane."""
    if tau.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(tau)={tau.imag} is below the contract floor {MIN_IM_EVAL}")
    return _riemann_theta_unchecked(tau, tol)


def _reduce_real(tau: complex, period: int) -> complex:
    """tau with Re tau reduced mod the series' period by `math.fmod`.

    fmod is exact, so the phases of the terms lose no accuracy to a large
    Re tau, and a tau with |Re tau| < period is returned unchanged.  Called
    after `_radius_unchecked` has rejected non-finite tau, on which fmod
    raises.
    """
    return complex(math.fmod(tau.real, period), tau.imag)


@lru_cache(maxsize=THETA_CACHE_SIZE)
def _theta_vector_unchecked(m: int, tau: complex, tol: float) -> tuple[np.ndarray, int]:
    """The m theta constants at tau, read-only, and the truncation radius
    they were summed to."""
    radius = _radius_unchecked(m, tau, tol)
    # theta_{m,nu}(tau + 2m) = theta_{m,nu}(tau)
    values = _kernels.theta_class_sums(m, _reduce_real(tau, 2 * m), radius)
    values.setflags(write=False)
    return values, radius


# bound, in units of max |value|, on the rounding that the T phase multiply in
# `theta_constants` adds (`_unit_shift`)
_PHASE_ROUNDING = 32 * 2.0**-53


def _unit_shift(tau: complex) -> tuple[int, complex]:
    """(k, tau - k) with k an integer and Re(tau - k) in [-1/2, 1/2).

    tau - k is exact: k = round(Re tau) lies within a factor of two of
    Re tau unless it is 0, so the subtraction has no rounding (Sterbenz).
    Called after `_radius_unchecked` has rejected non-finite tau.
    """
    k = round(tau.real)
    if tau.real - k == 0.5:  # round() breaks the tie to the even neighbour
        k += 1
    if k == 0:
        return 0, tau
    return k, complex(tau.real - k, tau.imag)


def theta_constants(m: int, tau: complex, tol: float = 1e-12) -> ThetaVector:
    """All m theta constants at tau, with a shared certified error bound.

    The series is summed at tau0 = tau - k, Re tau0 in [-1/2, 1/2), and moved
    to tau by theta_{m,nu}(tau0 + k) = e^{pi i nu^2 k / m} theta_{m,nu}(tau0)
    (m is even), the phase read as the Weil T^k fold reads it, at the exact
    index (nu^2 k) mod 2m.  The rounding of the sum at tau0 then no longer
    grows with |Re tau|; the product adds at most `_PHASE_ROUNDING` times the
    largest value (the phase's argument and exp, about 23 u, and the complex
    product, sqrt(5) u).  Where every phase is 1 (2m divides k, k = 0
    included) nothing is multiplied.
    """
    m = _check_m(m, MAX_THETA_INDEX)
    if tau.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(tau)={tau.imag} is below the contract floor {MIN_IM_EVAL}")
    radius = _radius_unchecked(m, tau, tol)
    k, tau0 = _unit_shift(tau)
    values = _kernels.theta_class_sums(m, tau0, radius)
    err = _tail_bound(m, tau.imag, radius + 1) + _rounding_bound(m, tau0, radius)
    two_m = 2 * m
    if k % two_m:
        nu = np.arange(m, dtype=np.int64)
        err += _PHASE_ROUNDING * float(np.abs(values).max())
        values *= _t_phases(nu * nu % two_m * (k % two_m) % two_m, m)
    return ThetaVector(m, tau, values, err)


def functional_eq_lambda(gamma: SL2Matrix) -> RootOfUnity:
    """The mu_4 value of (c tau + d) theta(tau)^2 / theta(gamma tau)^2.

    This is the character by which the squared theta series transforms on
    the theta group.  It is the square of `tilde_lambda` on either lift of
    gamma (phi^2 = c tau + d), so it is exact for entries of any size.
    """
    return tilde_lambda(MpElement(gamma)) ** 2


def halfform_cocycle(gamma: SL2Matrix, tau: complex) -> complex:
    """theta(gamma tau) / theta(tau) on the theta group."""
    if not member(gamma, THETA12):
        raise NotMember(f"{gamma} is not in the theta group")
    if tau.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(tau)={tau.imag} is below {MIN_IM_EVAL}")
    return _riemann_theta_unchecked(gamma.moebius(tau), 1e-13) / _riemann_theta_unchecked(
        tau, 1e-13
    )


def shimura_cocycle(gamma: SL2Matrix, k: int, tau: complex) -> complex:
    """(theta(2 gamma tau) / theta(2 tau))^k on Gamma0(4)."""
    if not member(gamma, Gamma0(4)):
        raise NotMember(f"{gamma} is not in Gamma0(4)")
    if tau.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(tau)={tau.imag} is below {MIN_IM_EVAL}")
    base = _riemann_theta_unchecked(
        2 * gamma.moebius(tau), 1e-13
    ) / _riemann_theta_unchecked(2 * tau, 1e-13)
    return base**k


def jacobi_cocycle(
    gamma: SL2Matrix, lam1: int, lam2: int, m: int, tau: complex, z: complex
) -> complex:
    """Automorphy factor of index m on the universal elliptic curve, reciprocal convention.

    e^{2 pi i m (lam1^2 tau + 2 lam1 z - c (z + lam1 tau + lam2)^2 / (c tau + d))}
    for the semidirect action of (lam1, lam2; gamma) on (z, tau).  On the
    lattice (gamma = I) it is the inverse square of the lattice factor of
    theta_{m,nu}(tau, z) = sum_{r = nu mod m} e^{2 pi i (tau r^2 / (2m) + r z)},
    which has index m/2 (Eichler and Zagier, The Theory of Jacobi Forms,
    1985, section 1):
    theta(tau, z + lam1 tau + lam2) = e^{-2 pi i (m/2)(lam1^2 tau + 2 lam1 z)} theta(tau, z).
    m is any even positive integer (`BadIndex` otherwise).
    """
    m = _check_m(m, None)
    if tau.imag <= 0:
        raise ValueError("tau must be in the upper half-plane")
    c, d = gamma.c, gamma.d
    w = z + lam1 * tau + lam2
    expo = lam1 * lam1 * tau + 2 * lam1 * z - c * w * w / (c * tau + d)
    return np.exp(2j * np.pi * m * expo)


def jacobi_compose(
    g1: tuple[SL2Matrix, tuple[int, int]], g2: tuple[SL2Matrix, tuple[int, int]]
) -> tuple[SL2Matrix, tuple[int, int]]:
    """Semidirect product: (gamma, lam)(gamma', lam') = (gamma gamma', lam gamma' + lam')."""
    gamma1, (l1, l2) = g1
    gamma2, (m1, m2) = g2
    a, b, c, d = gamma2.entries()
    return (gamma1 * gamma2, (l1 * a + l2 * c + m1, l1 * b + l2 * d + m2))


def jacobi_action(
    g: tuple[SL2Matrix, tuple[int, int]], point: tuple[complex, complex]
) -> tuple[complex, complex]:
    """(z, tau) -> ((z + lam1 tau + lam2)/(c tau + d), gamma tau)."""
    gamma, (l1, l2) = g
    z, tau = point
    return ((z + l1 * tau + l2) / (gamma.c * tau + gamma.d), gamma.moebius(tau))


# --- the transformation-law check -------------------------------------------------

class _ConventionState:
    def __init__(self):
        self._lock = threading.Lock()
        self._value: str | None = None
        self._decisive = 0

    def observe(self, convention: str) -> None:
        with self._lock:
            self._decisive += 1
            if self._value is None:
                self._value = convention
            elif self._value != convention:
                raise ConventionFlip(
                    f"convention flipped from {self._value} to {convention}"
                )

    def get(self) -> str | None:
        with self._lock:
            return self._value

    def decisive(self) -> int:
        with self._lock:
            return self._decisive

    def reset(self) -> None:
        with self._lock:
            self._value = None
            self._decisive = 0


_CONVENTION = _ConventionState()


def get_convention() -> str | None:
    """The run-global convention fixed so far, if any."""
    return _CONVENTION.get()


def reset_convention() -> None:
    """Forget the run-global convention and its query count (test isolation hook)."""
    _CONVENTION.reset()


def decisive_count() -> int:
    """How many decisive queries `verify_transformation` has answered since the last reset."""
    return _CONVENTION.decisive()


def verify_transformation(
    m: int, p: MpElement, tau: complex, tol: float = 1e-9
) -> TransformCheck:
    """Check theta(gamma tau) = phi(tau) . rho_m(p) . theta(tau) at tau.

    Both rho_m(p) and its entrywise conjugate are tried, each applied to
    theta(tau) by `weil_rep`'s word fold, which forms no matrix (and
    conj(rho) theta = conj(rho conj(theta))); the residual is the smaller
    max-norm deviation and the convention records which side achieved it.
    A query is decisive when exactly one side is below tol; all decisive
    queries in a run must agree, otherwise ConventionFlip is raised.  This
    is the batch of one of `_verify_words`, which checks every query's m,
    tol, Im tau and Im(gamma tau) before any theta sum and observes its
    queries in word-major order, as a loop of single queries would.
    """
    return _verify_words(m, [p], [tau], tol)[0]


def _verify_words(
    m: int, ps: list[MpElement], taus: list[complex], tol: float
) -> list[TransformCheck]:
    """`verify_transformation(m, p, tau, tol)` for every p in ps and tau in
    taus, word-major (taus inner), each check bit for bit the query's own.

    Every query's input is checked before any theta sum; each word is lifted
    once, and all are folded at once (`weil_rep` on the list).  The
    residuals are taken in one array step, and the decisive queries
    observed in word-major order, so a ConventionFlip is raised by the query
    the one-query loop would raise it at.
    """
    m = _check_m(m)  # rho_m's own bound, before any theta sum
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    moved, phis = [], []
    for p in ps:
        for tau in taus:
            if tau.imag < MIN_IM_VERIFY:
                raise TauTooLow(f"Im(tau)={tau.imag} is below {MIN_IM_VERIFY}")
            gt = p.gamma.moebius(tau)
            if gt.imag < MIN_IM_EVAL:
                raise TauTooLow(f"Im(gamma tau)={gt.imag} is below {MIN_IM_EVAL}")
            moved.append(gt)
            phis.append(phi_eval(p, tau))
    if not moved:
        return []
    eval_tol = min(tol * 1e-3, 1e-12)
    # rows: theta and conj(theta) at each tau, which the fold takes to
    # rho theta and rho conj(theta), and conj(rho) theta = conj(rho conj(theta))
    rows = []
    for tau in taus:
        here = _theta_vector_unchecked(m, tau, eval_tol)[0]
        rows += (here, here.conj())
    theta_moved = np.array([_theta_vector_unchecked(m, gt, eval_tol)[0] for gt in moved])
    images = weil_rep(m, ps, np.array(rows)).reshape(-1, 2, m)
    conj_rows = images[:, 1]
    np.conjugate(conj_rows, out=conj_rows)
    phis = np.array(phis)[:, None, None]
    residuals = np.abs(theta_moved[:, None] - phis * images).max(axis=2)
    checks = []
    for r_direct, r_conj in residuals.tolist():
        if r_direct <= r_conj:
            residual, convention = r_direct, "direct"
        else:
            residual, convention = r_conj, "conjugate"
        if residual < tol <= max(r_direct, r_conj):
            _CONVENTION.observe(convention)
        checks.append(TransformCheck(residual, convention, residual < tol, r_direct, r_conj))
    return checks
