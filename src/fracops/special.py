"""Gamma-family special functions and series summation.

Everything downstream (the fractional operator, its closed forms, the
univalence criteria) reduces to ratios of Gamma functions, so this module
centralises the log-Gamma plumbing: pole guards, Pochhammer symbols and
the Beta function. It also owns the one series-summation driver,
_sum_terms, which pulls terms from an iterator through a SeriesMonitor
and reports an explicit status (converged, slow, divergent, pole hit)
instead of silent nonsense. fox_wright_eval here, and the closed-form and
criterion sums in fracdiff and geometry, are thin callers of it.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import DomainError, PoleHitError

# Distance to the nearest non-positive integer below which a Gamma argument
# is treated as sitting on a pole.
POLE_GUARD = 1e-9

# Term-monitor knobs: a geometric tail bound is trusted once this many
# consecutive term ratios sit below 1; divergence is declared after this
# many consecutive non-decreasing term magnitudes (ignoring the first few
# indices, where transients are common).
RATIO_WINDOW = 5
DIVERGENCE_RUN = 20
DIVERGENCE_MIN_INDEX = 10
MAX_TERMS_DEFAULT = 10000
_LOG_OVERFLOW = 700.0  # log scale beyond which exp() overflows float64
_STOP_RTOL = 1e-16


def is_near_pole(z, guard: float = POLE_GUARD) -> bool:
    """True if z lies within `guard` of a Gamma pole (0, -1, -2, ...)."""
    x = complex(z)
    n = round(x.real)
    if n > 0:
        return False
    return math.hypot(x.real - n, x.imag) < guard


def log_gamma(z):
    """Principal-branch log Gamma with a hard pole guard.

    Parameters
    ----------
    z : float or complex
        Argument; must stay at least ``POLE_GUARD`` away from every
        non-positive integer.

    Returns
    -------
    float or complex
        ``log Gamma(z)``; real for positive real input, complex otherwise.

    Raises
    ------
    PoleHitError
        If z is within the guard distance of a pole.
    """
    if is_near_pole(z):
        raise PoleHitError(z)
    if not isinstance(z, complex):
        x = float(z)
        if x > 0.0:
            return float(sc.loggamma(x))
        z = complex(x)
    return complex(sc.loggamma(z))


def pochhammer(rho, kappa: int):
    """Rising factorial (rho)_kappa = Gamma(rho + kappa) / Gamma(rho).

    Uses the direct product for small kappa, or whenever rho sits left of
    the positive real axis (the product is exact there, while the log-Gamma
    ratio would need branch bookkeeping); switches to a log-Gamma ratio for
    long products over positive arguments.

    pochhammer(rho, 0) == 1 for every rho, including Gamma poles.
    """
    if kappa != int(kappa) or kappa < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {kappa!r}")
    kappa = int(kappa)
    if kappa == 0:
        return rho * 0 + 1.0
    if kappa <= 64 or complex(rho).real <= 0.0 or is_near_pole(rho):
        out = rho * 0 + 1.0
        for j in range(kappa):
            out = out * (rho + j)
        return out
    return np.exp(log_gamma(rho + kappa) - log_gamma(rho))


def beta_fn(u, v):
    """Euler Beta function B(u, v) = Gamma(u) Gamma(v) / Gamma(u + v).

    Evaluated as exp of log-Gamma differences. When u + v lands on a
    Gamma pole the reciprocal Gamma vanishes and 0.0 is returned; a pole
    in u or v itself raises PoleHitError.
    """
    if is_near_pole(u):
        raise PoleHitError(u)
    if is_near_pole(v):
        raise PoleHitError(v)
    if is_near_pole(u + v):
        return 0.0
    s = log_gamma(u) + log_gamma(v) - log_gamma(u + v)
    if isinstance(s, complex):
        out = cmath.exp(s)
        return out.real if out.imag == 0.0 else out
    return math.exp(s)


@dataclass(frozen=True)
class FoxWrightSpec:
    """Parameter block of a Fox-Wright series pPsi_q.

    upper holds the (a_j, A_j) pairs and lower the (b_j, B_j) pairs; all
    weights A_j, B_j must be strictly positive. The term at index kappa is

        prod Gamma(a_j + kappa A_j) / (prod Gamma(b_j + kappa B_j) * kappa!) * z^kappa.
    """

    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(wa)) for a, wa in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(wb)) for b, wb in self.lower))
        for _, wa in self.upper:
            if wa <= 0:
                raise DomainError(f"upper weight must be positive, got {wa}")
        for _, wb in self.lower:
            if wb <= 0:
                raise DomainError(f"lower weight must be positive, got {wb}")

    @property
    def delta(self) -> float:
        """1 + sum(B_j) - sum(A_j); positive means entire, zero means unit radius."""
        return 1.0 + sum(wb for _, wb in self.lower) - sum(wa for _, wa in self.upper)

    def to_json_dict(self) -> dict:
        return {"upper": [list(p) for p in self.upper], "lower": [list(p) for p in self.lower]}


def _log_coefficient(spec: FoxWrightSpec, kappa: int):
    """log of the z^kappa coefficient; raises PoleHitError on any pole."""
    s = -math.lgamma(kappa + 1)
    for a, wa in spec.upper:
        s = s + log_gamma(a + kappa * wa)
    for b, wb in spec.lower:
        s = s - log_gamma(b + kappa * wb)
    return s


def fox_wright_coefficient(spec: FoxWrightSpec, kappa: int):
    """Coefficient of z^kappa in the Fox-Wright series for `spec`.

    Computed as exp of a log-Gamma sum so large kappa does not overflow
    intermediate Gammas. Raises PoleHitError if any Gamma argument (upper
    or lower) sits within the guard distance of a pole.
    """
    if kappa != int(kappa) or kappa < 0:
        raise DomainError(f"series index must be a nonnegative integer, got {kappa!r}")
    s = _log_coefficient(spec, int(kappa))
    if isinstance(s, complex):
        out = cmath.exp(s)
        return out.real if out.imag == 0.0 else out
    return math.exp(s) if s < _LOG_OVERFLOW else math.inf


class EvalStatus(enum.Enum):
    CONVERGED = "Converged"
    SLOW_CONVERGENCE = "SlowConvergence"
    DIVERGENT = "Divergent"
    POLE_HIT = "PoleHit"


@dataclass
class EvalOutcome:
    """Result of summing a term series, with an honest status.

    value is the partial sum at the point the loop stopped; tail_bound is
    the geometric tail estimate when status is CONVERGED (0.0 for an exact
    finite sum, inf when no bound is available).
    """

    value: complex
    status: EvalStatus
    terms_used: int
    tail_bound: float = 0.0


class SeriesMonitor:
    """Watches successive term magnitudes of a series being summed.

    Convergence: once RATIO_WINDOW consecutive ratios |t_k|/|t_{k-1}| all
    sit below 1, the tail is bounded by |t_k| r/(1-r) with r the largest
    ratio in the window (geometric comparison).

    Divergence: DIVERGENCE_RUN consecutive non-decreasing magnitudes past
    index DIVERGENCE_MIN_INDEX, or any term magnitude near float64
    overflow.
    """

    def __init__(self):
        self.index = -1
        self.prev_abs = None
        self.ratios = []
        self.nondecreasing_run = 0
        self.diverged = False

    def update(self, abs_term: float) -> None:
        self.index += 1
        if self.prev_abs is not None and self.prev_abs > 0.0:
            ratio = abs_term / self.prev_abs
            self.ratios.append(ratio)
            if len(self.ratios) > RATIO_WINDOW:
                self.ratios.pop(0)
            if abs_term >= self.prev_abs and abs_term > 0.0:
                self.nondecreasing_run += 1
            else:
                self.nondecreasing_run = 0
        if self.index >= DIVERGENCE_MIN_INDEX and self.nondecreasing_run >= DIVERGENCE_RUN:
            self.diverged = True
        if abs_term > 1e290:
            self.diverged = True
        self.prev_abs = abs_term

    def tail_bound(self):
        """Geometric tail bound, or None while no bound is trustworthy."""
        if len(self.ratios) < RATIO_WINDOW or self.prev_abs is None:
            return None
        r = max(self.ratios)
        if r >= 1.0:
            return None
        return self.prev_abs * r / (1.0 - r)


def _sum_terms(terms, max_terms: int) -> EvalOutcome:
    """Sum at most max_terms terms pulled from the iterator `terms`.

    Stops with status
      POLE_HIT at the index whose term raised PoleHitError (value is the
        sum so far, NaN if no term was summed);
      DIVERGENT on a non-finite term (not added) or when the monitor sees
        sustained growth (term added);
      CONVERGED when a term past index 0 is exactly zero, when the
        geometric tail bound drops below roundoff, or when the iterator
        ends (an exact finite sum, tail 0);
      SLOW_CONVERGENCE when the budget runs out first.
    Terms are only pulled as needed, so an iterator may be infinite.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    total = 0.0
    monitor = SeriesMonitor()
    for k in range(max_terms):
        try:
            term = next(terms)
        except StopIteration:
            return EvalOutcome(total, EvalStatus.CONVERGED, k, 0.0)
        except PoleHitError:
            return EvalOutcome(total if k else complex("nan"), EvalStatus.POLE_HIT, k, math.inf)
        if not cmath.isfinite(term):
            return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
        abs_term = abs(term)
        total += term
        monitor.update(abs_term)
        if monitor.diverged:
            return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
        if k and abs_term == 0.0:
            return EvalOutcome(total, EvalStatus.CONVERGED, k + 1, 0.0)
        tail = monitor.tail_bound()
        if tail is not None and tail <= _STOP_RTOL * max(1.0, abs(total)):
            return EvalOutcome(total, EvalStatus.CONVERGED, k + 1, tail)
    tail = monitor.tail_bound()
    return EvalOutcome(
        total,
        EvalStatus.SLOW_CONVERGENCE,
        max_terms,
        math.inf if tail is None else tail,
    )


def fox_wright_eval(spec: FoxWrightSpec, z, max_terms: int = MAX_TERMS_DEFAULT) -> EvalOutcome:
    """Sum the Fox-Wright series at z with explicit convergence reporting.

    Returns an EvalOutcome whose status is CONVERGED (geometric tail bound
    below roundoff), DIVERGENT (sustained term growth or overflow),
    SLOW_CONVERGENCE (term budget exhausted first), or POLE_HIT (a Gamma
    argument of some term sat on a pole). The value field always carries
    the partial sum accumulated so far.
    """
    z = complex(z)

    def terms():
        yield complex(fox_wright_coefficient(spec, 0))
        if z == 0:
            return
        log_z = cmath.log(z)
        for kappa in itertools.count(1):
            log_term = complex(_log_coefficient(spec, kappa)) + kappa * log_z
            yield cmath.exp(log_term) if log_term.real <= _LOG_OVERFLOW else complex(math.inf)

    return _sum_terms(terms(), max_terms)
