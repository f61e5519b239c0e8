"""Sampled geometric-function-theory screens and coefficient-sum criteria.

Starlikeness/convexity of order lambda are checked on a polar grid of the
unit disk; these are necessary-condition screens ("no violation found on
the grid"), never proofs. DiskGrid.evaluate, the one grid evaluator, returns
a (radii x angles) array that the screens and Bloch norms reduce, taking one
inverse DFT of the coefficients folded mod the angle count per ring; a grid
holds at most MAX_GRID_POINTS points. Coefficients whose imaginary parts are
all +0.0 fold in float64 with the bits of the complex fold, which an
overflowing block falls back to. A grid keeps its angle row, read-only;
the default grid is one shared instance, which also keeps its r^j table
(as bloch's default grid does), while any other grid forms r^j afresh per
evaluation. A failing
screen reads its witness from Horner on the deciding ring, for numerator
and denominator at two angles: the grid's argmin on that ring and its
mirror angle, the complex-conjugate point, with NumPy's array Horner bits
(on Python complex numbers where those give the same bits: one point on
the real axis, real coefficients).
univalence_criterion holds this repository's one transcription of the
paper's Theorems 5 and 6: it forms the partial sums of their rearranged
proof terms at z = 1, and the threshold they are held against. Their
divergence is proved, not detected, so it never forces a verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count
from .fracdiff import OperatorParams, log_gamma_ratio
from .series import PowerSeries, _last_nonzero, evaluate_many
from .special import EvalStatus

_ZERO_GUARD = 1e-14
#: Largest number of sample points (radii x angles) a DiskGrid may hold.
MAX_GRID_POINTS = 2**22
# DiskGrid.evaluate folds and transforms blocks of whole rings of about this many
# points, which bounds its temporaries.
_BLOCK_POINTS = 2**14


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid: every radius crossed with equispaced angles.

    On first use a grid keeps, read-only, the angle row e^{2 pi i j/M}
    (M values) that points() scales. DiskGrid.default() and
    bloch.default_bloch_grid() each return one shared grid, built once by
    _shared_grid, and only those two also keep the table r^j (radii x M
    float64, 8 bytes a point) that evaluate() folds with: any other grid,
    such as a refined one evaluated once, forms each block's r^j rows
    afresh by the same pow. evaluate() forms r^M, one value a ring, afresh.
    """

    radii: tuple
    angles_per_radius: int = 256
    _keeps_tables = False  # set on the shared grids alone, by _shared_grid

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii:
            raise DomainError("grid needs at least one radius")
        if any(not 0.0 < r <= 0.999 for r in radii):
            raise DomainError("grid radii must lie in (0, 0.999]")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("grid radii must be strictly increasing")
        check_count(self.angles_per_radius, "angles_per_radius", 1)
        if len(radii) * self.angles_per_radius > MAX_GRID_POINTS:
            raise DomainError(f"grid of {len(radii)} radii x {self.angles_per_radius} "
                              f"angles exceeds {MAX_GRID_POINTS} points")

    @classmethod
    def default(cls) -> "DiskGrid":
        """The shared grid of radii 0.1..0.9 plus a boundary-approach ring at 0.99, 256 angles."""
        return _DEFAULT_GRID

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

    @functools.cached_property
    def _angle_row(self) -> np.ndarray:
        """e^{2 pi i j/M} for j = 0 .. M - 1, read-only."""
        theta = 2.0 * np.pi * np.arange(self.angles_per_radius) / self.angles_per_radius
        return _read_only(np.exp(1j * theta))

    @functools.cached_property
    def _column_powers(self) -> np.ndarray:
        """r^j for every radius and j = 0 .. M - 1, read-only (radii x M)."""
        return _read_only(self._powers_of(0, len(self.radii)))

    def _powers_of(self, start: int, stop: int) -> np.ndarray:
        """r^j for the radii[start:stop] and j = 0 .. M - 1, one pow per point."""
        return np.array(self.radii[start:stop])[:, None] ** np.arange(self.angles_per_radius)

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sample points of the rings radii[start:stop], one row per ring, angle 0 first.

        A fresh, writable array: the kept angle row scaled by each radius.
        """
        return np.array(self.radii[start:stop])[:, None] * self._angle_row

    def evaluate(self, f: PowerSeries) -> np.ndarray:
        """f at every sample point, shaped like points(); one inverse DFT per ring.

        With M angles, f(r e^{2 pi i j/M}) = sum_m a_m e^{2 pi i jm/M} where
        a_m = r^m sum_q c_{qM+m} r^{qM}: the coefficients folded mod M, the
        fold run as Horner in r^M over the rows of a (ceil((N+1)/M) x M)
        table. That costs O(N + M log M) per ring (Cooley & Tukey 1965).
        r^j comes from the kept table on a shared grid and from a fresh pow
        per block on any other, the same values either way, and r^M from a
        fresh pow.
        Each point's absolute error is a small multiple of
        eps * sum_k |c_k| r^k, like Horner's, but not bit-equal to it.
        The fold runs up to the last nonzero coefficient only
        (_last_nonzero), with the same bits as over all N + 1: the dropped
        rows are +0 and would enter the first kept row as (+0) r^M + row,
        so that row starts the fold as row + 0.0.

        When every kept imaginary part is +0.0 (tested on the bits, so a
        -0.0 keeps the complex fold) the table is float64 and the same loop
        runs in real arithmetic with the complex fold's bits: NumPy's
        complex product and sum of two numbers with +0 imaginary parts are
        (x r, +0) and (x + c, +0) on any SIMD kernel, fused or not, and
        ifft reads x as x + 0j. Overflow is the exception: the complex fold
        turns inf into inf + nan j at its next product, so a block whose
        float64 fold is not all finite is folded again in complex.
        """
        m = self.angles_per_radius
        c = f.coeffs[:_last_nonzero(f.coeffs) + 1]
        rows_dropped = -(-f.coeffs.size // m) > -(-c.size // m)
        real = not c.imag.view(np.uint64).any()
        table = _fold_table(c.real if real else c, m)
        r_m = np.array(self.radii)[:, None] ** m
        out = np.empty((len(self.radii), m), dtype=np.complex128)
        rows = max(1, _BLOCK_POINTS // m)
        for i in range(0, len(self.radii), rows):
            r_j = self._column_powers[i:i + rows] if self._keeps_tables else self._powers_of(i, i + rows)
            powers = r_m[i:i + rows], r_j
            acc = _fold(table, *powers, rows_dropped)
            if real and not np.isfinite(acc).all():
                acc = _fold(_fold_table(c, m), *powers, rows_dropped)
            np.fft.ifft(acc, axis=1, norm="forward", out=out[i:i + rows])
        return out

    def to_json_dict(self) -> dict:
        return {"radii": list(self.radii), "angles_per_radius": self.angles_per_radius}


def _shared_grid(radii: tuple, angles_per_radius: int) -> DiskGrid:
    """A grid that keeps its r^j table: for the shared default grids, built once and evaluated many times."""
    grid = DiskGrid(radii, angles_per_radius)
    object.__setattr__(grid, "_keeps_tables", True)
    return grid


_DEFAULT_GRID = _shared_grid(tuple(k / 10 for k in range(1, 10)) + (0.99,), 256)


def _fold_table(c: np.ndarray, m: int) -> np.ndarray:
    """c in rows of m coefficients, in c's dtype, zero-padded."""
    table = np.zeros(-(-c.size // m) * m, dtype=c.dtype)
    table[:c.size] = c
    return table.reshape(-1, m)


def _fold(table: np.ndarray, r_m: np.ndarray, r_j: np.ndarray, rows_dropped: bool) -> np.ndarray:
    """The folded sums times r^j, one row per ring: Horner in r^m (a column) over the table's rows."""
    acc = np.repeat(table[-1:], r_m.shape[0], axis=0)
    if rows_dropped:
        acc += 0.0  # -0.0 parts become +0.0, as after a +0 row
    for row in table[-2::-1]:
        acc *= r_m
        acc += row
    acc *= r_j
    return acc


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


def _common_scale(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per row of n and d, the power of two that takes their largest real or imaginary part into [1/2, 1).

    A row holding an inf or a nan gets 2^0: no scale makes it finite.
    """
    big = np.maximum(np.abs(n.view(np.float64)).max(axis=-1), np.abs(d.view(np.float64)).max(axis=-1))
    return -np.frexp(big)[1]


def _scaled(v: np.ndarray, e) -> np.ndarray:
    """v times 2^e, exactly, part by part (save parts that fall below the normal range)."""
    return np.ldexp(v.view(np.float64), e).view(np.complex128)


def _order_screen(lam: float, shift: float, num: PowerSeries, den: PowerSeries,
                  vanishes: str) -> ScreenResult:
    """Screen Re(shift + z num(z) / den(z)) > lam over DiskGrid.default().

    The grid values decide: the first ring in ascending radius that
    violates the screen or has a denominator below _ZERO_GUARD. The
    latter, or a non-finite quotient on that ring, raises DomainError. A
    ring whose quotient is not finite is first formed again, grid and
    Horner values alike, from num and den scaled by a common power of two:
    z f'/f = 1 for f = 1.7e308 z, but z f' / f overflows. The other rings
    keep their bits.
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.real(z * n / d)
        # With |z num| and |den| near float64's top the quotient overflows though it is moderate:
        # such a ring is formed again from num and den scaled by a common power of two, and only it.
        over = ~np.isfinite(vals).all(axis=1)
        scales = np.zeros(z.shape[0], dtype=int)
        if over.any():
            scales[over] = _common_scale(n[over], d[over])
            sn, sd = (_scaled(v[over], scales[over, None]) for v in (n, d))
            vals[over] = np.real(z[over] * sn / sd)
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
    if over[i]:
        hn, hd = _scaled(hn, scales[i]), _scaled(hd, scales[i])
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

    With R(m) = log_gamma_ratio(p, m), the log of the Gamma ratio
    Gamma((m+beta-1)/(gamma+1) + 1) / Gamma(... - beta + tau), the k-th
    rearranged proof term (k = 1, 2, ...) is k e^{R(k)} for theorem 6's
    single sum, and theorem 5's two-sum form adds k(k+1) e^{R(k+1)}; at
    tau = beta they are k and k(k+2) exactly. The threshold is 2 e^{R(1)},
    exactly 2.0 at tau = beta.

    The criterion series diverges at every admissible (beta, tau, gamma).
    R does not decrease in m (beta >= tau and digamma increases), so the
    terms are positive and rise, and theorem 5's first term, like theorem
    6's second partial sum, is e^{R(1)} + 2 e^{R(2)} >= 1.5 times the
    threshold 2 e^{R(1)}. terms holds the proof terms the partial sums
    add up; the JSON document carries the sums alone. The series cannot
    converge, so every report is Inconclusive-Divergent with an unknown tail:
    series_status Divergent when the budget holds all _CRITERION_TERMS
    partial sums, SlowConvergence when it ran out first.
    """

    mode: str
    params: OperatorParams
    terms: list
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


def univalence_criterion(p: OperatorParams, mode: str, max_terms: int = 512) -> CriterionReport:
    """The criterion's first min(max_terms, _CRITERION_TERMS) partial sums at z = 1.

    No sum is run to detect divergence: it is proved (see CriterionReport),
    since with R(m) non-decreasing the sums pass 1.5 times the threshold
    by the second term and keep rising. The terms grow like a power of k,
    so the radius is 1 and z = 1 sits on the circle. Raises DomainError
    for a max_terms that is not an integer >= 1, or an unknown mode.
    """
    check_count(max_terms, "max_terms", 1)
    if mode not in CRITERION_MODES:
        raise DomainError(f"unknown criterion mode {mode!r}; choices: {CRITERION_MODES}")
    n = min(max_terms, _CRITERION_TERMS)
    r = log_gamma_ratio(p, np.arange(1.0, n + 2.0))  # R(1 .. n + 1): the terms and the threshold 2 e^{R(1)}
    k = np.arange(1.0, n + 1.0)
    terms = k * np.exp(r[:-1])
    if mode == "theorem5_S":
        terms = terms + k * (k + 1.0) * np.exp(r[1:])
    return CriterionReport(
        mode=mode,
        params=p,
        terms=terms.tolist(),
        partial_sums=np.cumsum(terms).tolist(),
        rhs_threshold=2.0 / math.exp(-r[0]),
        series_status=EvalStatus.DIVERGENT if n == _CRITERION_TERMS else EvalStatus.SLOW_CONVERGENCE,
        verdict=VERDICT_INCONCLUSIVE,
    )
