"""Sampled geometric-function-theory screens and coefficient-sum criteria.

Starlikeness/convexity of order lambda are checked on a polar grid of the
unit disk; these are necessary-condition screens ("no violation found on
the grid"), never proofs. DiskGrid.evaluate, the one grid evaluator, returns
a (radii x angles) array that the screens and Bloch norms reduce, taking one
inverse DFT of the coefficients folded mod the angle count per ring; a grid
holds at most MAX_GRID_POINTS points. A failing screen reads its witness from
Horner on the deciding ring, for numerator and denominator at two angles:
the grid's argmin on that ring and its mirror angle, the complex-conjugate
point, with NumPy's array Horner bits (on Python complex numbers where those
give the same bits: one point on the real axis, real coefficients). The
univalence criterion forms the partial sums of the explicit rearranged proof
terms at z = 1; their divergence is proved, not detected, so it never forces
a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracdiff import OperatorParams, log_gamma_ratio, theta_front_constant
from .series import PowerSeries, _last_nonzero, evaluate_many
from .special import EvalStatus

_ZERO_GUARD = 1e-14
#: Largest number of sample points (radii x angles) a DiskGrid may hold.
MAX_GRID_POINTS = 2**22
# DiskGrid.evaluate folds and transforms blocks of whole rings of about this many
# points, which bounds its temporaries.
_BLOCK_POINTS = 2**14


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid: every radius crossed with equispaced angles."""

    radii: tuple
    angles_per_radius: int = 256

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii:
            raise DomainError("grid needs at least one radius")
        if any(not 0.0 < r <= 0.999 for r in radii):
            raise DomainError("grid radii must lie in (0, 0.999]")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("grid radii must be strictly increasing")
        m = self.angles_per_radius
        if not isinstance(m, (int, np.integer)) or m < 1:  # even 4.0: evaluate sizes its arrays by it
            raise DomainError(f"angles_per_radius must be a positive integer, got {m!r}")
        if len(radii) * self.angles_per_radius > MAX_GRID_POINTS:
            raise DomainError(f"grid of {len(radii)} radii x {self.angles_per_radius} "
                              f"angles exceeds {MAX_GRID_POINTS} points")

    @classmethod
    def default(cls) -> "DiskGrid":
        """Radii 0.1..0.9 plus a boundary-approach ring at 0.99, 256 angles."""
        return cls(radii=tuple(k / 10 for k in range(1, 10)) + (0.99,), angles_per_radius=256)

    def refine(self) -> "DiskGrid":
        """Superset grid: midpoint radii inserted, angle count doubled.

        Refinement only ever adds sample points, so grid suprema are
        nondecreasing under it.
        """
        radii = []
        for a, b in zip(self.radii, self.radii[1:]):
            radii.append(a)
            radii.append((a + b) / 2.0)
        radii.append(self.radii[-1])
        return DiskGrid(radii=tuple(radii), angles_per_radius=2 * self.angles_per_radius)

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample points of the rings radii[start:stop], one row per ring, angle 0 first."""
        theta = 2.0 * np.pi * np.arange(self.angles_per_radius) / self.angles_per_radius
        return np.array(self.radii[start:stop])[:, None] * np.exp(1j * theta)

    def evaluate(self, f: PowerSeries) -> np.ndarray:
        """f at every sample point, shaped like points(); one inverse DFT per ring.

        With M angles, f(r e^{2 pi i j/M}) = sum_m a_m e^{2 pi i jm/M} where
        a_m = r^m sum_q c_{qM+m} r^{qM}: the coefficients folded mod M, the
        fold run as Horner in r^M over the rows of a (ceil((N+1)/M) x M)
        table. That costs O(N + M log M) per ring (Cooley & Tukey 1965).
        Each point's absolute error is a small multiple of
        eps * sum_k |c_k| r^k, like Horner's, but not bit-equal to it.
        The fold runs up to the last nonzero coefficient only
        (_last_nonzero), with the same bits as over all N + 1: the dropped
        rows are +0 and would enter the first kept row as (+0) r^M + row,
        so that row starts the fold as row + 0.0.
        """
        m = self.angles_per_radius
        c = f.coeffs[:_last_nonzero(f.coeffs) + 1]
        rows_dropped = -(-f.coeffs.size // m) > -(-c.size // m)
        table = np.zeros(-(-c.size // m) * m, dtype=np.complex128)
        table[:c.size] = c
        # columns past c_N are zero in every row; ifft's n=m pads them back
        table = table.reshape(-1, m)[:, :min(c.size, m)]
        powers = np.arange(table.shape[1])
        radii = np.array(self.radii)
        out = np.empty((radii.size, m), dtype=np.complex128)
        rows = max(1, _BLOCK_POINTS // m)
        for i in range(0, radii.size, rows):
            r = radii[i:i + rows, None]
            acc = np.repeat(table[-1:], r.shape[0], axis=0)
            if rows_dropped:
                acc += 0.0  # -0.0 parts become +0.0, as after a +0 row
            r_m = r**m
            for row in table[-2::-1]:
                acc *= r_m
                acc += row
            acc *= r**powers
            out[i:i + rows] = np.fft.ifft(acc, n=m, axis=1, norm="forward")
        return out

    def to_json_dict(self) -> dict:
        return {"radii": list(self.radii), "angles_per_radius": self.angles_per_radius}


@dataclass
class ScreenResult:
    """Outcome of a sampled inequality screen.

    passed means no violation was found on the grid (not a proof). On
    failure, witness is the point of the smallest radius containing any
    violation that _order_screen picks from the grid's worst point and
    its conjugate; witness_value is Horner's screened value there, with
    the bits of PowerSeries.evaluate on the whole deciding ring.
    """

    passed: bool
    lam: float
    points_checked: int
    witness: complex | None = None
    witness_value: float | None = None


def _order_screen(lam: float, shift: float, num: PowerSeries, den: PowerSeries,
                  vanishes: str) -> ScreenResult:
    """Screen Re(shift + z num(z) / den(z)) > lam over DiskGrid.default().

    The grid values decide: the first ring in ascending radius that
    violates the screen or has a denominator below _ZERO_GUARD. The
    latter, or a non-finite quotient on that ring, raises DomainError.
    Otherwise, with j the grid's first argmin on that ring of M angles,
    the witness is whichever of angles j and (M - j) mod M (the conjugate
    point, which ties with j in exact arithmetic when the coefficients are
    real) has the smaller Horner value, the smaller index on a tie. Horner
    runs at those angles only, for num and den in one evaluate_many pass;
    when j is 0 or M / 2 (then also its own mirror) and the coefficients
    are real, _horner runs on Python complex numbers instead, with the same
    bits.
    """
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"order lambda must lie in [0, 1), got {lam}")
    grid = DiskGrid.default()
    z = grid.points()
    n, d = grid.evaluate(num), grid.evaluate(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.real(z * n / d)
    if shift:  # adding 0.0 would turn a -0.0 witness value into 0.0
        vals = vals + shift
    vanishing = np.any(np.abs(d) < _ZERO_GUARD, axis=1)
    failing = vanishing | ~np.all(vals > lam, axis=1)
    if not failing.any():
        return ScreenResult(True, lam, z.size)
    i = int(np.argmax(failing))
    if vanishing[i]:
        j = int(np.argmin(np.abs(d[i])))
        raise DomainError(f"{vanishes} vanishes at grid point {z[i, j]}; quotient undefined")
    # The witness value sits near lam, where the quotient is ill-conditioned: take
    # it from Horner, which is more accurate there than the folded DFT.
    ring = z[i]
    j = int(np.argmin(vals[i]))
    idx = sorted({j, (ring.size - j) % ring.size})
    hn, hd = np.zeros_like(ring), np.ones_like(ring)
    if 2 * j % ring.size == 0 and not (num.coeffs.imag.any() or den.coeffs.imag.any()):
        # On the real axis Horner's imaginary parts stay ulps of its real parts and
        # reach them only through products far below an ulp, so CPython's complex
        # product rounds the real parts as NumPy's fused SIMD kernels do (save a
        # product within about u^2 of a rounding midpoint): evaluate_many's bits
        # without its two NumPy calls per coefficient.
        hn[j], hd[j] = _horner(num, complex(ring[j])), _horner(den, complex(ring[j]))
    else:
        hn[idx], hd[idx] = evaluate_many([num, den], ring[idx])
    # The quotient is formed over the whole ring, as on the full Horner ring:
    # NumPy rounds a complex product on a length-1 array differently.
    with np.errstate(divide="ignore", invalid="ignore"):
        ring_vals = np.real(ring * hn / hd)[idx]
    if shift:
        ring_vals = ring_vals + shift
    if not (np.all(np.isfinite(vals[i])) and np.all(np.isfinite(ring_vals))):
        # float64 overflow; argmin would stop at a nan
        raise DomainError(f"screened quotient is not finite on the ring of radius {grid.radii[i]}")
    m = int(np.argmin(ring_vals))
    return ScreenResult(False, lam, (i + 1) * z.shape[1], complex(ring[idx[m]]), float(ring_vals[m]))


def _horner(f: PowerSeries, w: complex) -> complex:
    """f(w) by Horner on Python complex numbers.

    The +0 coefficients past _last_nonzero leave the accumulator at its
    starting 0j, so skipping them gives the bits of Horner over all of them.
    """
    acc = 0j
    for c in f.coeffs[_last_nonzero(f.coeffs)::-1].tolist():
        acc = acc * w + c
    return acc


def starlike_order(f: PowerSeries, lam: float) -> ScreenResult:
    """Screen Re(z f'(z) / f(z)) > lam over DiskGrid.default().

    Raises DomainError if f vanishes at a sample point (every grid point
    is away from 0, where class-A functions legitimately vanish).
    """
    return _order_screen(lam, 0.0, f.derivative(), f, "series")


def convex_order(f: PowerSeries, lam: float) -> ScreenResult:
    """Screen Re(1 + z f''(z) / f'(z)) > lam over DiskGrid.default()."""
    fp = f.derivative()
    return _order_screen(lam, 1.0, fp.derivative(), fp, "derivative")


@dataclass
class BoundScreenResult:
    """Coefficient-bound screen outcome; index of the first violation if any."""

    passed: bool
    mode: str
    first_violation_index: int | None = None


def bieberbach_screen(f: PowerSeries, mode: str) -> BoundScreenResult:
    """Check |a_k| <= k (starlike_bound) or |a_k| <= 1 (convex_bound) for k <= N."""
    if mode not in ("starlike_bound", "convex_bound"):
        raise DomainError(f"unknown screen mode {mode!r}")
    if not f.is_normalized():
        raise DomainError("coefficient screens expect a normalized series")
    c = f.coeffs[2:]
    bound = np.arange(2.0, f.order + 1) if mode == "starlike_bound" else 1.0
    # hypot is abs() of a complex scalar bit for bit; np.abs on an array need not be
    over = np.flatnonzero(np.hypot(c.real, c.imag) > bound * (1.0 + 1e-12) + 1e-12)
    if over.size:
        return BoundScreenResult(False, mode, int(over[0]) + 2)
    return BoundScreenResult(True, mode, None)


# ---------------------------------------------------------------------------
# Coefficient-sum univalence criteria
# ---------------------------------------------------------------------------

CRITERION_MODES = ("theorem5_S", "theorem6_K")
VERDICT_INCONCLUSIVE = "Inconclusive-Divergent"
# Partial sums a criterion report holds: index 0 and 20 rises. This keeps the
# report that a divergence test on 20 rising terms printed, byte for byte.
_CRITERION_TERMS = 21


@dataclass
class CriterionReport:
    """Partial sums of a coefficient-sum criterion plus an honest verdict.

    The criterion series diverges at every admissible (beta, tau, gamma).
    With R(m) = log_gamma_ratio(p, m), the log of the Gamma ratio in
    criterion_term, R does not decrease in m (beta >= tau and digamma
    increases), so the terms are positive and rise, and theorem 5's first
    term, like theorem 6's second partial sum, is e^{R(1)} + 2 e^{R(2)}
    >= 1.5 times the threshold 2 e^{R(1)}. The series cannot converge, so
    every report is Inconclusive-Divergent with an unknown tail:
    series_status Divergent when the budget holds all _CRITERION_TERMS
    partial sums, SlowConvergence when it ran out first.
    """

    mode: str
    params: OperatorParams
    partial_sums: list
    rhs_threshold: float
    series_status: EvalStatus
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "params": self.params.to_json_dict(),
            "partial_sums": list(self.partial_sums),
            "rhs_threshold": self.rhs_threshold,
            "series_status": self.series_status.value,
            "verdict": self.verdict,
            "tail_bound": None,  # the sum diverges: no tail bound exists
        }


def criterion_term(p: OperatorParams, mode: str, kappa):
    """k-th rearranged proof term of the criterion sum (k >= 0; scalar or array).

    With R(m) = Gamma((m+beta-1)/(gamma+1) + 1) / Gamma(... - beta + tau):
    the single-sum form contributes (k+1) R(k+1); the two-sum form adds
    (k+1)(k+2) R(k+2) on top. At tau = beta these reduce to (k+1) and
    (k+1)(k+3) exactly, which grow without bound - divergence is the
    expected outcome across the entire parameter window.
    """
    k1 = np.asarray(kappa, dtype=np.float64) + 1.0
    return _criterion_terms(mode, k1, log_gamma_ratio(p, np.stack((k1, k1 + 1.0))))


def _criterion_terms(mode: str, k1, r):
    """criterion_term at k1 - 1 from the kernel values r = (R(k1), R(k1 + 1))."""
    if mode not in CRITERION_MODES:
        raise DomainError(f"unknown criterion mode {mode!r}; choices: {CRITERION_MODES}")
    t = k1 * np.exp(r[0])
    if mode == "theorem5_S":
        t = t + k1 * (k1 + 1.0) * np.exp(r[1])
    return t


def criterion_threshold(p: OperatorParams) -> float:
    """RHS threshold 2 Gamma(beta/(gamma+1)+1) / Gamma(beta/(gamma+1)+1-beta+tau).

    Equals exactly 2.0 at tau = beta.
    """
    return 2.0 / theta_front_constant(p)


def univalence_criterion(p: OperatorParams, mode: str, max_terms: int = 512) -> CriterionReport:
    """The criterion's first min(max_terms, _CRITERION_TERMS) partial sums at z = 1.

    No sum is run to detect divergence: it is proved (see CriterionReport),
    since with R(m) non-decreasing the sums pass 1.5 times the threshold
    by the second term and keep rising. The terms grow like a power of k,
    so the radius is 1 and z = 1 sits on the circle. Raises DomainError
    for max_terms < 1 or an unknown mode.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    n = min(max_terms, _CRITERION_TERMS)
    r = log_gamma_ratio(p, np.arange(1.0, n + 2.0))  # R(1 .. n + 1): the terms and the threshold 2 e^{R(1)}
    return CriterionReport(
        mode=mode,
        params=p,
        partial_sums=np.cumsum(_criterion_terms(mode, np.arange(1.0, n + 1.0), (r[:-1], r[1:]))).tolist(),
        rhs_threshold=2.0 / math.exp(-r[0]),
        series_status=EvalStatus.DIVERGENT if n == _CRITERION_TERMS else EvalStatus.SLOW_CONVERGENCE,
        verdict=VERDICT_INCONCLUSIVE,
    )
