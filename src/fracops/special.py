"""Gamma-family special functions and series summation.

Everything downstream (the fractional operator, its closed forms, the
univalence criteria) reduces to ratios of Gamma functions, so this module
centralises the log-Gamma plumbing: the pole guard, the Beta function and
Fox-Wright parameter blocks, whose radius of convergence is read from
Delta = 1 + sum B - sum A: infinite for Delta > 0, zero for Delta < 0 and
prod B^B / prod A^A at Delta = 0 (Wright 1935; Kilbas, Saigo & Trujillo
2002). The one series-summation driver, _sum_terms, behind fox_wright_eval
and the closed-form and criterion sums, reports an explicit status
(converged, slow, divergent, pole hit) instead of silent nonsense; given
|z| over the radius it never calls a sum inside its disk divergent, and
calls one that cancels past float64 resolution slow, not converged.
"""

from __future__ import annotations

import cmath
import collections
import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import DomainError, PoleHitError

# Distance to the nearest non-positive integer below which a Gamma argument
# is treated as sitting on a pole.
POLE_GUARD = 1e-9

# Summation knobs: a geometric tail bound is trusted once this many
# consecutive term ratios sit below 1; without a known radius, divergence
# is declared after this many consecutive non-decreasing term magnitudes.
RATIO_WINDOW = 5
DIVERGENCE_RUN = 20
MAX_TERMS_DEFAULT = 10000
_STOP_RTOL = 1e-16
# Inside the radius a sum with sum |t_k| above this multiple of |total| has
# cancelled (roundoff eps * sum |t_k| > 1e-10 |total|): not reported converged.
_MAX_CANCELLATION = 4.5e5
# |Delta| below this counts as Delta = 0 (rounding in the weight sums).
_DELTA_TOL = 1e-12
# fox_wright_eval computes terms in blocks that double from the first size
# to the last, so short sums stay cheap and long ones make few numpy calls.
_FIRST_BLOCK = 32
_LAST_BLOCK = 1024


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
    z : float, complex or ndarray of real floats
        Argument; must stay at least ``POLE_GUARD`` away from every
        non-positive integer.

    Returns
    -------
    float, complex or ndarray
        ``log Gamma(z)``; real for positive real input, complex otherwise
        (for an array, complex as soon as one argument is not positive).

    Raises
    ------
    PoleHitError
        If z, or an element of the array, is within the guard distance of a pole.
    """
    if isinstance(z, np.ndarray):
        if np.min(z, initial=np.inf) > 0.0:
            return sc.loggamma(z)
        n = np.rint(z)
        near = (n <= 0.0) & (np.abs(z - n) < POLE_GUARD)
        if near.any():
            raise PoleHitError(float(z.flat[np.argmax(near)]))
        return np.where(z > 0.0, sc.loggamma(z), sc.loggamma(z.astype(np.complex128)))
    if is_near_pole(z):
        raise PoleHitError(z)
    if not isinstance(z, complex):
        x = float(z)
        if x > 0.0:
            return float(sc.loggamma(x))
        z = complex(x)
    return complex(sc.loggamma(z))


def beta_fn(u, v):
    """Euler Beta function B(u, v) = Gamma(u) Gamma(v) / Gamma(u + v).

    Evaluated as exp of log-Gamma differences. When u + v lands on a
    Gamma pole the reciprocal Gamma vanishes and 0.0 is returned; a pole
    in u or v itself raises PoleHitError.
    """
    s = log_gamma(u) + log_gamma(v)  # raises at a pole of u or v
    if is_near_pole(u + v):
        return 0.0
    s -= log_gamma(u + v)
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
        """1 + sum(B_j) - sum(A_j); positive means entire, zero means a finite radius."""
        return 1.0 + sum(wb for _, wb in self.lower) - sum(wa for _, wa in self.upper)

    @property
    def radius(self) -> float:
        """Radius of convergence: inf for Delta > 0, 0 for Delta < 0, else prod B^B / prod A^A."""
        d = self.delta
        if abs(d) > _DELTA_TOL:
            return math.inf if d > 0 else 0.0
        return math.prod(wb**wb for _, wb in self.lower) / math.prod(wa**wa for _, wa in self.upper)

    def log_coefficients(self, kappa) -> np.ndarray:
        """log of the z^kappa coefficients over an array of indices kappa >= 0.

        Real while every Gamma argument is positive; otherwise complex, on
        the principal branch of log_gamma. Raises PoleHitError naming the
        first argument within POLE_GUARD of a Gamma pole.
        """
        k = np.atleast_1d(np.asarray(kappa, dtype=np.float64))
        s = -sc.loggamma(k + 1.0)
        for a, wa in self.upper:
            s = s + log_gamma(a + k * wa)
        for b, wb in self.lower:
            s = s - log_gamma(b + k * wb)
        return s

    def to_json_dict(self) -> dict:
        return {"upper": [list(p) for p in self.upper], "lower": [list(p) for p in self.lower]}


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


def _sum_terms(terms, max_terms: int, limit: float | None = None) -> EvalOutcome:
    """Sum at most max_terms terms pulled from the iterator `terms`.

    limit is |z| over the radius of convergence when the caller knows it.
    Once RATIO_WINDOW consecutive ratios |t_k|/|t_{k-1}| are known, let r
    be the largest of them, raised to limit when limit < 1; if r < 1 the
    tail is bounded by |t_k| r / (1 - r) (geometric comparison). Stops with
    status
      DIVERGENT before any term when limit > 1 (value 0, tail inf);
      POLE_HIT at the index whose term raised PoleHitError (value is the
        sum so far, NaN if no term was summed);
      DIVERGENT on a non-finite term (not added), on a term magnitude near
        float64 overflow, or, unless limit < 1, after DIVERGENCE_RUN
        consecutive non-decreasing magnitudes (term added);
      CONVERGED when a term past index 0 is exactly zero or the tail bound
        drops below roundoff (tail 0 or the bound), or when the iterator
        ends (an exact finite sum, tail 0);
      SLOW_CONVERGENCE when the budget runs out first, or, if limit < 1,
        at a CONVERGED stop where sum |t_k| > _MAX_CANCELLATION * |total|.
    Terms are only pulled as needed, so an iterator may be infinite.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    if limit is not None and limit > 1.0:
        return EvalOutcome(0.0, EvalStatus.DIVERGENT, 0, math.inf)
    inside = limit is not None and limit < 1.0
    floor = limit if inside else 0.0
    ratios = collections.deque(maxlen=RATIO_WINDOW)
    total, mass, prev, run, tail = 0.0, 0.0, 0.0, 0, math.inf
    for k in range(max_terms):
        try:
            term = next(terms)
        except StopIteration:
            return EvalOutcome(total, EvalStatus.CONVERGED, k, 0.0)
        except PoleHitError:
            return EvalOutcome(total if k else complex("nan"), EvalStatus.POLE_HIT, k, math.inf)
        if not cmath.isfinite(term):
            return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
        size = abs(term)
        total += term
        mass += size
        if prev > 0.0:
            ratios.append(size / prev)
            run = run + 1 if size >= prev else 0
        if size > 1e290 or (run >= DIVERGENCE_RUN and not inside):
            return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
        prev = size
        if k and size == 0.0:
            tail = 0.0
        elif len(ratios) == RATIO_WINDOW:
            r = max(floor, *ratios)
            tail = size * r / (1.0 - r) if r < 1.0 else math.inf
        if tail <= _STOP_RTOL * max(1.0, abs(total)):
            lost = inside and mass > _MAX_CANCELLATION * abs(total)
            return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE if lost else EvalStatus.CONVERGED,
                               k + 1, tail)
    return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE, max_terms, tail)


def fox_wright_eval(spec: FoxWrightSpec, z, max_terms: int = MAX_TERMS_DEFAULT) -> EvalOutcome:
    """Sum the Fox-Wright series at z with explicit convergence reporting.

    Returns an EvalOutcome whose status is CONVERGED (geometric tail bound
    below roundoff), DIVERGENT (|z| beyond spec.radius, overflow, or, on
    the circle |z| = radius, sustained term growth), SLOW_CONVERGENCE (term
    budget exhausted first, or, inside the radius, terms that cancel past
    float64 resolution), or POLE_HIT (a Gamma argument of some term sat
    on a pole). The value field always carries the partial sum accumulated
    so far. Terms are computed in blocks as the driver pulls them.
    """
    z = complex(z)
    log_z = cmath.log(z) if z else 0j

    def block(k):
        log_t = spec.log_coefficients(k) + k * log_z
        with np.errstate(over="ignore", invalid="ignore"):  # the driver stops at an overflow
            return np.exp(log_t).tolist()

    def terms():
        start, size, stop = 0, _FIRST_BLOCK, max_terms if z else 1
        while start < stop:
            k = np.arange(start, min(start + size, stop), dtype=np.float64)
            try:
                yield from block(k)
            except PoleHitError:  # the terms before the pole, then the pole itself
                for kappa in k:
                    yield from block(np.array([kappa]))
            start, size = start + k.size, min(2 * size, _LAST_BLOCK)

    radius = spec.radius
    limit = abs(z) / radius if radius > 0.0 else (math.inf if z else 0.0)
    return _sum_terms(terms(), max_terms, limit)
