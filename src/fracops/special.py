"""Gamma-family special functions and series summation.

Everything downstream (the fractional operator, its closed forms, the
univalence criteria) reduces to ratios of Gamma functions, so this module
centralises the log-Gamma plumbing: the pole guard, the Beta function and
Fox-Wright parameter blocks, whose radius of convergence is read from
Delta = 1 + sum B - sum A: infinite for Delta > 0, zero for Delta < 0 and
prod B^B / prod A^A at Delta = 0 (Wright 1935; Kilbas, Saigo & Trujillo
2002). The one series-summation driver, _sum_rows, sums every series in
the package: the Fox-Wright sums (one row per block and point) and the
closed forms (one row per point). It pulls index blocks itself, asks its caller
for the terms of every row at those indices, and needs each row's |z|
over the radius. It reports an explicit status per row (converged, slow,
divergent, pole hit) instead of silent nonsense; it never calls a sum
inside its disk divergent, and calls one that cancels past float64
resolution slow, not converged; a sum on its circle of convergence gets
no geometric tail stop. Its stop and divergence rules hold per term, and
it checks them for all rows a whole block at a time in one NumPy scan
from index 0, its first block sized to the length expected from the
largest |z| over the radius; each row retires at its own first stop,
with the bits it gets when summed alone. Each magnitude is taken as
hypot(re, im), as Python's abs of a complex.

log Gamma needs NumPy and the math module alone, at every argument. Of a
positive real, scalar or array, from x = 16 up it sums the Stirling series
with the Bernoulli terms B_2 ... B_12, and below 16 it takes
log(math.gamma(x)), exact at small integers. It is within a few ulps of
max(1, |log Gamma|) and gives the same bits for an element of an array as
for a scalar. Of a complex or non-positive argument it sums the same
Stirling series after at most 16 upward steps, and left of Re z = 1/2 it
reflects, on the principal branch. This code is not the Gamma-ratio
expansion and step-up of fracdiff.log_gamma_ratio, which forms no Gamma
value, so the closed forms and the kernel compare two Gamma codes at every
argument.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleHitError

# Distance to the nearest non-positive integer below which a Gamma argument
# is treated as sitting on a pole.
POLE_GUARD = 1e-9

# Summation knobs: a geometric tail bound is trusted once this many
# consecutive term ratios are known; its ratio is at least |z| over the
# radius, so a sum on its circle of convergence never gets one.
RATIO_WINDOW = 5
MAX_TERMS_DEFAULT = 10000
_STOP_RTOL = 1e-16
# A sum with sum |t_k| above this multiple of |total| has cancelled
# (roundoff eps * sum |t_k| > 1e-10 |total|): not reported converged.
_MAX_CANCELLATION = 4.5e5
# |Delta| below this counts as Delta = 0 (rounding in the weight sums).
_DELTA_TOL = 1e-12
# Lengths of the index blocks _sum_rows asks for: they double from first to last.
_FIRST_BLOCK = 32
_LAST_BLOCK = 1024
# From _STIRLING_FROM up, log Gamma sums the Stirling series with the terms
# B_2k / (2k (2k - 1) x^(2k-1)), k = 1..6; the first term left out is below 2e-18.
_STIRLING_FROM = 16.0
_STIRLING_TERMS = tuple(b / (2 * k * (2 * k - 1))
                        for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1))
_STIRLING_CONSTANT = 0.5 * math.log(2.0 * math.pi) - 0.5


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


def _stirling(x):
    """The Stirling series of log Gamma over a float64 or complex128 array, or a NumPy scalar, Re x >= _STIRLING_FROM.

    Written as (x - 1/2)(log x - 1) + (log(2 pi) - 1)/2 + sum, which is inf at
    x = inf. A float64 array element and a NumPy scalar take the same ufunc
    loops, so they give the same bits.
    """
    r = 1.0 / x
    u = r * r
    s = u * _STIRLING_TERMS[-1]
    for c in reversed(_STIRLING_TERMS[1:-1]):  # Horner in 1/x^2, in place on an array
        s += c
        s *= u
    s += _STIRLING_TERMS[0]
    s *= r
    out = np.log(x)
    out -= 1.0
    out *= x - 0.5
    out += _STIRLING_CONSTANT
    out += s
    return out


def _log_gamma_real(x):
    """log Gamma(x) for real x > 0: a float for a scalar, else an array of x's shape.

    The Stirling series from _STIRLING_FROM up, log(math.gamma(x)) below,
    per element the same way whatever the call's size. The caller keeps
    x at least POLE_GUARD from 0; no pole check is made here.
    """
    if not isinstance(x, np.ndarray):
        x = float(x)
        return math.log(math.gamma(x)) if x < _STIRLING_FROM else float(_stirling(np.float64(x)))
    flat = x.ravel()
    out = _stirling(np.maximum(flat, _STIRLING_FROM))  # the elements below are redone next
    below = np.flatnonzero(flat < _STIRLING_FROM)
    if below.size:
        out[below] = list(map(math.log, map(math.gamma, flat[below].tolist())))
    return out.reshape(x.shape)


def _log_gamma_complex(z):
    """Principal-branch log Gamma over a complex128 array z, no element on a pole.

    From Re z = 1/2 up: _stirling(z + n) - sum_{j<n} log(z + j), n <= 16 steps
    up to Re >= _STIRLING_FROM, one array operation per j with a zero where an
    element needs fewer. Below: the reflection log pi - log sin(pi z) -
    log Gamma(1 - z) + i copysign(2 pi, Im z) floor(Re z / 2 + 1/4), on the
    principal branch on both sides of the cut (Hare 1997), with sin(pi z) =
    (-1)^k cosh(pi y) (sin(pi d) + i cos(pi d) tanh(pi y)) for z = k + d + iy,
    k the nearest integer: finite at any y, and exact in d next to a pole.
    """
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    n = np.maximum(np.ceil(_STIRLING_FROM - w.real), 0.0)
    out = _stirling(w + n)
    for j in range(int(n.max(initial=0.0))):
        out -= np.log(np.where(j < n, w + j, 1.0))
    z = z[left]
    k = np.rint(z.real)
    sign = 1.0 - 2.0 * np.mod(k, 2.0)
    d, py = np.pi * (z.real - k), np.pi * z.imag
    sine = np.empty_like(z)  # set part by part: a complex sum would lose the sign of a zero Im
    sine.real = sign * np.sin(d)
    sine.imag = sign * np.cos(d) * np.tanh(py)
    refl = (math.log(2.0 * math.pi) - np.logaddexp(py, -py)) - np.log(sine) - out[left]
    refl.imag += np.copysign(2.0 * math.pi, z.imag) * np.floor(0.5 * z.real + 0.25)
    out[left] = refl
    return out


def log_gamma(z):
    """Principal-branch log Gamma with a hard pole guard.

    A positive real argument, scalar or array, goes to _log_gamma_real
    (the Stirling series, or the math module's Gamma below 16); a complex
    or non-positive one to _log_gamma_complex. An element of a real array
    has the bits of its own scalar call.

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
    if isinstance(z, np.ndarray):
        if np.min(z, initial=np.inf) >= POLE_GUARD:
            return _log_gamma_real(z)
        n = np.rint(z)
        near = (n <= 0.0) & (np.abs(z - n) < POLE_GUARD)
        if near.any():
            raise PoleHitError(float(z.flat[np.argmax(near)]))
        out = _log_gamma_complex(z.astype(np.complex128))
        positive = z > 0.0
        out[positive] = _log_gamma_real(z[positive])
        return out
    if is_near_pole(z):
        raise PoleHitError(z)
    if not isinstance(z, complex):
        x = float(z)
        if x > 0.0:
            return _log_gamma_real(x)
    return complex(_log_gamma_complex(np.array([z], dtype=np.complex128))[0])


def beta_fn(u, v):
    """Euler Beta function B(u, v) = Gamma(u) Gamma(v) / Gamma(u + v).

    Evaluated as exp of log-Gamma differences: a float for real u and v,
    complex if either is complex. When u + v lands on a Gamma pole the
    reciprocal Gamma vanishes and 0.0 is returned; a pole in u or v itself
    raises PoleHitError, a non-finite u or v DomainError.
    """
    s = log_gamma(u) + log_gamma(v)  # raises at a pole of u or v
    if is_near_pole(u + v):
        return 0.0
    s -= log_gamma(u + v)
    if isinstance(u + v, complex):
        return cmath.exp(s)
    if isinstance(s, complex):  # real u and v: Im s is k pi, so B is real with the sign (-1)^k
        return -math.exp(s.real) if round(s.imag / math.pi) % 2 else math.exp(s.real)
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

    @functools.cached_property
    def radius(self) -> float:
        """Radius of convergence: inf for Delta > 0, 0 for Delta < 0, else prod B^B / prod A^A."""
        d = self.delta
        if abs(d) > _DELTA_TOL:
            return math.inf if d > 0 else 0.0
        return math.prod(wb**wb for _, wb in self.lower) / math.prod(wa**wa for _, wa in self.upper)

    def log_coefficients(self, kappa) -> np.ndarray:
        """log of the z^kappa coefficients over an array of indices kappa >= 0.

        Real while every Gamma argument is positive; otherwise complex, on
        the principal branch of log_gamma. The arguments of all rows go to
        log_gamma in one stacked call. Raises PoleHitError naming the first
        argument, in row order, within POLE_GUARD of a Gamma pole.
        """
        k = np.atleast_1d(np.asarray(kappa, dtype=np.float64))
        return _log_coefficient_rows(_pair_columns([self]), k.ravel())[0].reshape(k.shape)


def _pair_columns(specs: list) -> tuple:
    """(P, a, w) for T blocks: their P upper, then Q lower pairs' parameters a and weights w, (P + Q, T, 1) columns.

    A block with fewer upper or lower pairs than the longest gets the pair
    (1, 0), whose Gamma argument is 1 at every index: log Gamma(1) is
    exactly 0, so those rows add or subtract exact zeros.
    """
    upper = max((len(spec.upper) for spec in specs), default=0)
    lower = max((len(spec.lower) for spec in specs), default=0)
    pad = ((1.0, 0.0),)
    pairs = np.array([spec.upper + pad * (upper - len(spec.upper)) + spec.lower + pad * (lower - len(spec.lower))
                      for spec in specs], dtype=np.float64).reshape(len(specs), upper + lower, 2)
    a, w = pairs.transpose(2, 1, 0)[..., None]
    return upper, a, w


def _log_coefficient_rows(columns: tuple, k: np.ndarray) -> np.ndarray:
    """log_coefficients(k) at the 1-D indices k for each of the T blocks of _pair_columns: a (T, n) array.

    The arguments k + 1, then every upper pair's a + k A, then every lower
    pair's b + k B (for one block, in the order of its own call) go to one
    log_gamma call, so the first argument on a pole is named in that order.
    """
    upper, a, w = columns
    args = np.empty((1 + a.shape[0], a.shape[1], k.size))
    args[0] = k + 1.0
    np.multiply(k, w, out=args[1:])
    args[1:] += a
    logs = log_gamma(args)
    s = -logs[0]
    for row in logs[1:1 + upper]:
        s = s + row
    for row in logs[1 + upper:]:
        s = s - row
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


def _pull(block, kappa, rows: int) -> tuple:
    """(the terms at the indices kappa as a (rows, n) ndarray, True if a Gamma pole cut them short)."""
    try:
        return block(kappa), False
    except PoleHitError:  # redo one index at a time: the terms before the pole, then stop
        terms = [np.empty((rows, 0))]
        for i in range(kappa.size):
            try:
                terms.append(block(kappa[i:i + 1]))
            except PoleHitError:
                return np.concatenate(terms, axis=1), True
        return np.concatenate(terms, axis=1), False


def _sum_rows(block, max_terms: int, limits) -> list:
    """Sum several series at the indices 0, 1, ..., at most max_terms terms each: one EvalOutcome per row.

    block(kappa) returns a (rows, n) ndarray, row i holding the terms of
    series i at the indices kappa; limits holds one |z| over the radius of
    convergence per row. The driver pulls the indices itself, as float64
    arrays of consecutive indices whose length doubles up to _LAST_BLOCK,
    so short sums stay cheap and long ones make few numpy calls. The first
    block has the smallest power of two at or above both _FIRST_BLOCK and
    n* = ln(_STOP_RTOL) / ln(limit) for the largest limit of the rows still
    running, the length at which limit^k reaches roundoff (n* = 0 at limit
    0 and 1), at most _LAST_BLOCK indices. A result with fewer than n
    columns ends every series there (an exact finite sum). A block that
    raises PoleHitError is redone one index at a time, so the terms before
    the pole are summed first; the pole ends every row at once.

    Once RATIO_WINDOW consecutive ratios |t_k|/|t_{k-1}| of a row are
    known, let r be the largest of them and its limit; if r < 1 the tail
    is bounded by |t_k| r / (1 - r) (geometric comparison). On the circle
    (limit == 1) r is never below 1, so no tail bound stops the sum there.
    Each row stops with status
      DIVERGENT before any term when its limit > 1 (value 0, tail inf);
      POLE_HIT at the index whose term raised PoleHitError (value is the
        sum so far, NaN if no term was summed);
      DIVERGENT on a non-finite term (not added) or on a term magnitude
        near float64 overflow (term added);
      CONVERGED when a term past index 0 is exactly zero or the tail bound
        drops below roundoff (tail 0 or the bound), or when the series ends
        (an exact finite sum, tail 0);
      SLOW_CONVERGENCE when the budget runs out first (tail the last bound,
        inf on the circle), or at a zero-term or tail-bound stop where
        sum |t_k| > _MAX_CANCELLATION * |total|.

    The rules hold per term and are checked a block at a time, for all rows
    in one NumPy scan down the columns of the transposed block, one column
    per row: running totals by np.add.accumulate from the carried totals,
    magnitudes hypot(re, im) (Python's abs of a complex), window maxima by
    shifted np.maximum over the ratios of the block's magnitudes and the
    last RATIO_WINDOW before it, and each row's first index that stops it by
    argmax over the stop flags. A row retires at its first stop; the block
    keeps computing it, and the scan ignores it, until the last row stops.
    Each row's outcome is, bit for bit, that of checking its terms one at a
    time, alone: it does not depend on where the blocks split or on the
    other rows. Floating-point errors are ignored while the blocks are
    pulled and scanned: the flags catch a non-finite term or ratio.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    outcomes = [EvalOutcome(0.0, EvalStatus.DIVERGENT, 0, math.inf) if limit > 1.0 else None for limit in limits]
    running = [limit for limit in limits if not limit > 1.0]
    if not running:
        return outcomes
    left, top, limit = len(running), max(running), np.array(limits, dtype=np.float64)
    # |t_k| ~ top^k falls below _STOP_RTOL after about `expected` terms: the first block holds them
    expected = math.log(_STOP_RTOL) / math.log(top) if 0.0 < top < 1.0 else 0.0
    # The scan runs down the columns of the transposed block, one column per row. last holds the
    # sizes of the RATIO_WINDOW terms before a block, 0 before index 0; total and mass start at 0.
    last = np.zeros((RATIO_WINDOW, len(limits)))
    total = mass = last[:1]
    k, width = 0, _FIRST_BLOCK
    while width < min(expected, _LAST_BLOCK):
        width *= 2
    with np.errstate(all="ignore"):  # a block may overflow: the flags below catch a non-finite term or ratio
        while k < max_terms:
            kappa = np.arange(k, min(k + width, max_terms), dtype=np.float64)
            width = min(2 * width, _LAST_BLOCK)
            terms, pole = _pull(block, kappa, len(limits))
            terms = terms.T
            n = terms.shape[0]
            if n:
                seen = np.concatenate((last, np.hypot(terms.real, terms.imag)))  # abs(complex) bit for bit
                sizes = seen[RATIO_WINDOW:]
                totals = np.add.accumulate(np.concatenate((total, terms)))[1:]
                masses = np.add.accumulate(np.concatenate((mass, sizes)))[1:]
                # Each size over the one before, from RATIO_WINDOW - 1 terms before the block. At
                # index 0, and at index 1 after a zero first term, prev is 0 and the ratio inf or
                # NaN: until the window holds RATIO_WINDOW true ratios, r is inf or NaN too, and
                # the tail stays inf.
                window = seen[1:] / seen[:-1]
                r = np.maximum(window[:n], limit)
                for j in range(1, RATIO_WINDOW):
                    np.maximum(r, window[j:j + n], out=r)
                tails = sizes * r / np.maximum(1.0 - r, 0.0)  # inf or NaN where r >= 1: no bound
                bound = _STOP_RTOL * np.maximum(1.0, np.hypot(totals.real, totals.imag))
                stop = (sizes == 0.0) | (tails <= bound)
                if not k:  # a zero term at index 0 is no stop
                    stop[0] = False
                hit = ~(sizes <= 1e290) | stop  # a term near overflow, or non-finite, is a hit too
                for i, j in enumerate(hit.argmax(axis=0).tolist()):
                    if outcomes[i] is not None or not hit.item(j, i):
                        continue
                    left -= 1
                    size, value = sizes.item(j, i), totals.item(j, i)
                    if not cmath.isfinite(terms.item(j, i)):  # not added
                        value = totals.item(j - 1, i) if j else total.item(0, i)
                    if not size <= 1e290:
                        outcomes[i] = EvalOutcome(value, EvalStatus.DIVERGENT, k + j + 1, math.inf)
                    else:
                        lost = masses.item(j, i) > _MAX_CANCELLATION * abs(value)
                        outcomes[i] = EvalOutcome(value, EvalStatus.SLOW_CONVERGENCE if lost else EvalStatus.CONVERGED,
                                                  k + j + 1, tails.item(j, i) if size else 0.0)
                if not left:
                    return outcomes
                total, mass, last = totals[-1:], masses[-1:], seen[n:]
                k += n
            if pole or n < kappa.size:
                break
    for i, out in enumerate(outcomes):  # the rows still running when a pole, the series' end or the budget came
        if out is not None:
            continue
        value = total.item(0, i)
        if pole:
            outcomes[i] = EvalOutcome(value if k else complex("nan"), EvalStatus.POLE_HIT, k, math.inf)
        elif n < kappa.size:  # an exact finite sum
            outcomes[i] = EvalOutcome(value, EvalStatus.CONVERGED, k, 0.0)
        else:
            outcomes[i] = EvalOutcome(value, EvalStatus.SLOW_CONVERGENCE, k,
                                      tails.item(-1, i) if r.item(-1, i) < 1.0 else math.inf)
    return outcomes


def fox_wright_eval(spec: FoxWrightSpec, z) -> EvalOutcome:
    """Sum the Fox-Wright series at z with explicit convergence reporting.

    Returns an EvalOutcome whose status is CONVERGED (geometric tail bound
    below roundoff, an exact zero term, or a finite series' end), DIVERGENT
    (|z| beyond spec.radius, or a term that is not finite or near
    overflow), SLOW_CONVERGENCE (the MAX_TERMS_DEFAULT term budget
    exhausted first, or terms that cancel past float64 resolution), or
    POLE_HIT (a Gamma argument of some term sat on a pole). On the circle
    |z| = radius no tail bound is taken: a sum there that does not stop
    otherwise is SLOW_CONVERGENCE, tail inf. The value field always
    carries the partial sum accumulated so far. At z = 0 the sum is the
    exact one-term sum, the kappa = 0 term. At a real z the terms' real
    parts are summed: the value's imaginary part is exactly 0. It is the
    one-row call of _fox_wright_rows.
    """
    return _fox_wright_rows([spec], [z])[0]


def _fox_wright_rows(specs: list, zs: list) -> list:
    """fox_wright_eval(specs[t], zs[t]) for every t, summed as the rows of one _sum_rows pass.

    Each row's terms come from _log_coefficient_rows, so a row has the bits
    of its own call as long as no term of any row meets a Gamma pole: a
    block that meets one ends every row, where a single sum ends only its
    own. The points are all nonzero or all 0, since z = 0 ends its sum at
    its first term and so would end the other rows there too.
    """
    zs = [complex(z) for z in zs]
    columns, log_z = _pair_columns(specs), np.array([cmath.log(z) if z else 0j for z in zs])[:, None]
    nonzero, real = any(zs), [not z.imag for z in zs]

    def block(k):  # the driver ignores floating-point errors here and stops at an overflow
        k = k if nonzero else k[:1]
        terms = np.exp(_log_coefficient_rows(columns, k) + k * log_z)
        if all(real):  # at a real z each Im is rounding alone
            return terms.real + 0j
        if any(real):
            terms[real] = terms[real].real + 0j
        return terms

    limits = []
    for spec, z in zip(specs, zs):
        radius = spec.radius
        limits.append(abs(z) / radius if radius > 0.0 else (math.inf if z else 0.0))
    return _sum_rows(block, MAX_TERMS_DEFAULT, limits)
