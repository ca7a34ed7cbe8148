"""Certified numerical theta series and the analytic verification battery.

Evaluation: the one-variable theta series and the vector of level-m theta
constants

    theta_{m,nu}(tau) = sum_{r = nu mod m} e^{2 pi i tau r^2 / (2m)},

truncated at a radius whose tail is certified by an explicit geometric
bound; every returned vector carries its error bound, that tail plus a
certified bound on the float rounding of the sum.  The radius is
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
error.  The summation order is fixed (r ascending), so results are
reproducible bit for bit run to run.  The Riemann theta sums behind the
cocycles sit in a bounded LRU cache keyed by (tau, tol), THETA_CACHE_SIZE
entries, so theta at a fixed base point (the suite's PROBE_POINTS, tau0) is
summed once per process; a cached value is the stored sum, bit for bit.
Theta at many taus at once (the suite's discriminant oracle) goes past the
cache through one `_kernels.riemann_theta_sums` batch, with each tau's own
radius and reduction, so each value is the one the cache would hold.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
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
from .cyclo import RootOfUnity
from .metaplectic import MpElement, phi_eval, tilde_lambda
from .weilrep import _check_m, weil_rep

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


@dataclass(frozen=True, slots=True)
class ThetaVector:
    """Theta constants at tau with a certified error bound.

    `err_bound` bounds |values[nu] - theta_{m,nu}(tau)| for every nu: the
    truncation tail plus the float rounding of the sum (`_rounding_bound`),
    so where rounding dominates (large |Re tau| r^2 at small Im tau) it may
    exceed the tolerance that chose the radius.
    """

    m: int
    tau: complex
    values: np.ndarray
    err_bound: float


@dataclass(frozen=True, slots=True)
class TransformCheck:
    residual: float
    convention: str  # "direct" | "conjugate"
    passed: bool
    residual_direct: float
    residual_conjugate: float


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


# theta(tau) for the most recent (tau, tol) queries: the cocycles divide by
# theta at a fixed base point on every call, and a pair identity
# c(g1 g2, tau) = c(g1, g2 tau) c(g2, tau) evaluates theta(g2 tau) twice
THETA_CACHE_SIZE = 64


@lru_cache(maxsize=THETA_CACHE_SIZE)
def _riemann_theta_unchecked(tau: complex, tol: float) -> complex:
    radius = _radius_unchecked(1, tau, tol)
    return _kernels.riemann_theta_sum(_reduce_real(tau, 2), radius)


def _riemann_thetas_unchecked(taus: list[complex], tol: float) -> np.ndarray:
    """theta at every tau in taus, each the value `_riemann_theta_unchecked` gives,
    bit for bit, summed in one `_kernels.riemann_theta_sums` call past the cache."""
    radii = [_radius_unchecked(1, tau, tol) for tau in taus]
    return _kernels.riemann_theta_sums([_reduce_real(tau, 2) for tau in taus], radii)


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


def _theta_vector_unchecked(m: int, tau: complex, tol: float) -> tuple[np.ndarray, int]:
    """The m theta constants at tau and the truncation radius they were summed to."""
    radius = _radius_unchecked(m, tau, tol)
    # theta_{m,nu}(tau + 2m) = theta_{m,nu}(tau)
    return _kernels.theta_class_sums(m, _reduce_real(tau, 2 * m), radius), radius


def theta_constants(m: int, tau: complex, tol: float = 1e-12) -> ThetaVector:
    """All m theta constants at tau, with a shared certified error bound."""
    m = _check_m(m, MAX_THETA_INDEX)
    if tau.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(tau)={tau.imag} is below the contract floor {MIN_IM_EVAL}")
    values, radius = _theta_vector_unchecked(m, tau, tol)
    rounding = _rounding_bound(m, _reduce_real(tau, 2 * m), radius)
    err = _tail_bound(m, tau.imag, radius + 1) + rounding
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
    """Automorphy factor of the index-m/2 line bundle on the universal elliptic curve.

    e^{2 pi i m (lam1^2 tau + 2 lam1 z - c (z + lam1 tau + lam2)^2 / (c tau + d))}
    for the semidirect action of (lam1, lam2; gamma) on (z, tau).  m is any
    even positive integer (`BadIndex` otherwise).
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
    max-norm deviation and the convention records which side achieved it.  A query is decisive when exactly one side is
    below tol; all decisive queries in a run must agree, otherwise
    ConventionFlip is raised.
    """
    m = _check_m(m)  # rho_m's own bound, before any theta sum
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if tau.imag < MIN_IM_VERIFY:
        raise TauTooLow(f"Im(tau)={tau.imag} is below {MIN_IM_VERIFY}")
    gt = p.gamma.moebius(tau)
    if gt.imag < MIN_IM_EVAL:
        raise TauTooLow(f"Im(gamma tau)={gt.imag} is below {MIN_IM_EVAL}")
    eval_tol = min(tol * 1e-3, 1e-12)
    theta_here, _ = _theta_vector_unchecked(m, tau, eval_tol)
    theta_moved, _ = _theta_vector_unchecked(m, gt, eval_tol)
    phi = phi_eval(p, tau)
    direct, conj = weil_rep(m, p, np.array([theta_here, theta_here.conj()]))
    r_direct = float(np.abs(theta_moved - phi * direct).max())
    r_conj = float(np.abs(theta_moved - phi * conj.conj()).max())
    if r_direct <= r_conj:
        residual, convention = r_direct, "direct"
    else:
        residual, convention = r_conj, "conjugate"
    decisive = residual < tol <= max(r_direct, r_conj)
    if decisive:
        _CONVENTION.observe(convention)
    return TransformCheck(
        residual=residual,
        convention=convention,
        passed=residual < tol,
        residual_direct=r_direct,
        residual_conjugate=r_conj,
    )
