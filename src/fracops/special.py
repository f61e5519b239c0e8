"""Gamma-family special functions and series summation.

Everything downstream (the fractional operator, its closed forms, the
univalence criteria) reduces to ratios of Gamma functions, so this module
centralises the log-Gamma plumbing: the pole guard, the Beta function and
Fox-Wright parameter blocks, whose radius of convergence is read from
Delta = 1 + sum B - sum A: infinite for Delta > 0, zero for Delta < 0 and
prod B^B / prod A^A at Delta = 0 (Wright 1935; Kilbas, Saigo & Trujillo
2002). The one series-summation driver, _sum_terms, sums every series in
the package: fox_wright_eval, the closed forms and the criterion sums. It
pulls index blocks itself, asks its caller for the terms at those indices,
and needs |z| over the radius. It reports an explicit status (converged,
slow, divergent, pole hit) instead of silent nonsense; it never calls a sum
inside its disk divergent, and calls one that cancels past float64
resolution slow, not converged.

log_gamma and FoxWrightSpec.log_coefficients use scipy.special.loggamma
and import it inside the function: importing fracops loads NumPy alone,
and only the routes that reach these functions (verify, the quadrature
oracle, Fox-Wright sums, the closed forms, the Hadamard route) load SciPy.
"""

from __future__ import annotations

import cmath
import collections
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleHitError

# Distance to the nearest non-positive integer below which a Gamma argument
# is treated as sitting on a pole.
POLE_GUARD = 1e-9

# Summation knobs: a geometric tail bound is trusted once this many
# consecutive term ratios sit below 1; on the circle of convergence,
# divergence is declared after this many consecutive non-decreasing term
# magnitudes.
RATIO_WINDOW = 5
DIVERGENCE_RUN = 20
MAX_TERMS_DEFAULT = 10000
_STOP_RTOL = 1e-16
# Inside the radius a sum with sum |t_k| above this multiple of |total| has
# cancelled (roundoff eps * sum |t_k| > 1e-10 |total|): not reported converged.
_MAX_CANCELLATION = 4.5e5
# |Delta| below this counts as Delta = 0 (rounding in the weight sums).
_DELTA_TOL = 1e-12
# Lengths of the index blocks _sum_terms asks for: they double from first to last.
_FIRST_BLOCK = 32
_LAST_BLOCK = 1024


def is_near_pole(z) -> bool:
    """True if z lies within POLE_GUARD of a Gamma pole (0, -1, -2, ...).

    Raises DomainError for a non-finite z, which is no Gamma argument.
    """
    x = complex(z)
    if not cmath.isfinite(x):
        raise DomainError(f"Gamma argument must be finite, got {z}")
    n = round(x.real)
    if n > 0:
        return False
    return math.hypot(x.real - n, x.imag) < POLE_GUARD


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
    DomainError
        If a scalar z is not finite.
    """
    import scipy.special as sc

    if isinstance(z, np.ndarray):
        if np.min(z, initial=np.inf) >= POLE_GUARD:
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
    in u or v itself raises PoleHitError, a non-finite u or v DomainError.
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

    upper holds the (a_j, A_j) pairs and lower the (b_j, B_j) pairs; every
    parameter must be finite and every weight A_j, B_j finite and strictly
    positive. The term at index kappa is

        prod Gamma(a_j + kappa A_j) / (prod Gamma(b_j + kappa B_j) * kappa!) * z^kappa.
    """

    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(wa)) for a, wa in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(wb)) for b, wb in self.lower))
        for a, w in self.upper + self.lower:
            if not (math.isfinite(a) and 0.0 < w < math.inf):
                raise DomainError(f"Fox-Wright pair ({a}, {w}) needs a finite parameter "
                                  f"and a finite positive weight")

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
        from scipy.special import loggamma

        k = np.atleast_1d(np.asarray(kappa, dtype=np.float64))
        s = -loggamma(k + 1.0)
        for a, wa in self.upper:
            s = s + log_gamma(a + k * wa)
        for b, wb in self.lower:
            s = s - log_gamma(b + k * wb)
        return s


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


def _pull(block, kappa) -> tuple:
    """(terms at the indices kappa as a list, True if a Gamma pole cut them short)."""
    try:
        return block(kappa).tolist(), False
    except PoleHitError:  # redo one index at a time: the terms before the pole, then stop
        terms = []
        for i in range(kappa.size):
            try:
                terms += block(kappa[i:i + 1]).tolist()
            except PoleHitError:
                return terms, True
        return terms, False


def _sum_terms(block, max_terms: int, limit: float) -> EvalOutcome:
    """Sum the terms of a series at the indices 0, 1, ..., at most max_terms of them.

    The driver pulls the indices itself, as float64 arrays whose length
    doubles from _FIRST_BLOCK to _LAST_BLOCK, so short sums stay cheap and
    long ones make few numpy calls. block(kappa) returns the terms at the
    indices kappa as an ndarray; a shorter array ends the series there (an
    exact finite sum). A block that raises PoleHitError is redone one index
    at a time, so the terms before the pole are summed first.

    limit is |z| over the radius of convergence. Once RATIO_WINDOW
    consecutive ratios |t_k|/|t_{k-1}| are known, let r be the largest of
    them, raised to limit when limit < 1; if r < 1 the tail is bounded by
    |t_k| r / (1 - r) (geometric comparison). Stops with status
      DIVERGENT before any term when limit > 1 (value 0, tail inf);
      POLE_HIT at the index whose term raised PoleHitError (value is the
        sum so far, NaN if no term was summed);
      DIVERGENT on a non-finite term (not added), on a term magnitude near
        float64 overflow, or, on the circle (limit == 1), after
        DIVERGENCE_RUN consecutive non-decreasing magnitudes (term added);
      CONVERGED when a term past index 0 is exactly zero or the tail bound
        drops below roundoff (tail 0 or the bound), or when the series ends
        (an exact finite sum, tail 0);
      SLOW_CONVERGENCE when the budget runs out first, or, if limit < 1,
        at a CONVERGED stop where sum |t_k| > _MAX_CANCELLATION * |total|.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    if limit > 1.0:
        return EvalOutcome(0.0, EvalStatus.DIVERGENT, 0, math.inf)
    inside = limit < 1.0
    floor = limit if inside else 0.0
    ratios = collections.deque(maxlen=RATIO_WINDOW)
    total, mass, prev, run, tail = 0.0, 0.0, 0.0, 0, math.inf
    k, width = 0, _FIRST_BLOCK
    while k < max_terms:
        kappa = np.arange(k, min(k + width, max_terms), dtype=np.float64)
        width = min(2 * width, _LAST_BLOCK)
        terms, pole = _pull(block, kappa)
        for term in terms:
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
            k += 1
            if tail <= _STOP_RTOL * max(1.0, abs(total)):
                lost = inside and mass > _MAX_CANCELLATION * abs(total)
                return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE if lost else EvalStatus.CONVERGED,
                                   k, tail)
        if pole:
            return EvalOutcome(total if k else complex("nan"), EvalStatus.POLE_HIT, k, math.inf)
        if len(terms) < kappa.size:
            return EvalOutcome(total, EvalStatus.CONVERGED, k, 0.0)
    return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE, max_terms, tail)


def fox_wright_eval(spec: FoxWrightSpec, z) -> EvalOutcome:
    """Sum the Fox-Wright series at z with explicit convergence reporting.

    Returns an EvalOutcome whose status is CONVERGED (geometric tail bound
    below roundoff), DIVERGENT (|z| beyond spec.radius, overflow, or, on
    the circle |z| = radius, sustained term growth), SLOW_CONVERGENCE (the
    MAX_TERMS_DEFAULT term budget exhausted first, or, inside the radius,
    terms that cancel past float64 resolution), or POLE_HIT (a Gamma argument of some term sat
    on a pole). The value field always carries the partial sum accumulated
    so far. At z = 0 the sum is the exact one-term sum, the kappa = 0 term.
    """
    z = complex(z)
    log_z = cmath.log(z) if z else 0j

    def block(k):
        k = k if z else k[:1]
        with np.errstate(over="ignore", invalid="ignore"):  # the driver stops at an overflow
            return np.exp(spec.log_coefficients(k) + k * log_z)

    radius = spec.radius
    limit = abs(z) / radius if radius > 0.0 else (math.inf if z else 0.0)
    return _sum_terms(block, MAX_TERMS_DEFAULT, limit)
