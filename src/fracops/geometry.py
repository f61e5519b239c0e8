"""Sampled geometric-function-theory screens and coefficient-sum criteria.

Starlikeness/convexity of order lambda are checked on a polar grid of the
unit disk; these are necessary-condition screens ("no violation found on
the grid"), never proofs. DiskGrid.evaluate, the one grid evaluator, returns
a (radii x angles) array that the screens and Bloch norms reduce, taking one
inverse DFT of the coefficients folded mod the angle count per ring; a grid
holds at most MAX_GRID_POINTS points. A failing screen reads its witness from
Horner on the deciding ring, run in one pass for numerator and denominator
and only at the angles that the grid values and the error bounds of both
evaluators cannot rule out. The univalence criterion sums the explicit
rearranged proof terms at z = 1 and reports divergence honestly instead
of forcing a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracdiff import OperatorParams, log_gamma_ratio, theta_front_constant
from .series import PowerSeries, evaluate_many
from .special import EvalStatus, _sum_terms

_ZERO_GUARD = 1e-14
_EPS = float(np.finfo(np.float64).eps)
#: DiskGrid.evaluate is within this many eps * sum_k |c_k| r^k of f at r e^{2 pi i j/M}
#: (61 is the worst case measured against mpmath; see the geometry tests).
_GRID_ERROR_UNITS = 128
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
        if self.angles_per_radius < 1:
            raise DomainError("angles_per_radius must be positive")
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
        """
        m, c = self.angles_per_radius, f.coeffs
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
    failure, witness is the worst point (smallest screened value) on the
    smallest radius containing any violation, breaking ties by smallest
    angle index; witness_value is that offending real part.
    """

    passed: bool
    lam: float
    points_checked: int
    witness: complex | None = None
    witness_value: float | None = None


def _ring_error(f: PowerSeries, r: float) -> float:
    """Bound on |Horner value - grid value| of f at each sample point of the ring of radius r.

    With S0 = sum_k |c_k| r^k and S1 = sum_k k |c_k| r^k, in units of eps:
    Horner's a-priori bound, (4N + 4) S0 for complex arithmetic (Higham 2002,
    ch. 5: each step is one complex product, within 3u, and one sum); the
    grid's, _GRID_ERROR_UNITS S0; and 32 S1 because points() rounds
    r e^{2 pi i j/M}, where the grid evaluates, by less than 16 eps r. inf
    when Horner might overflow (2 sum_k |c_k| is not finite).
    """
    a = np.abs(f.coeffs)
    k = np.arange(a.size)
    with np.errstate(over="ignore"):
        if not np.isfinite(2.0 * a.sum()):
            return math.inf
        rk = r**k
        s0, s1 = float(a @ rk), float((k * a) @ rk)
        return _EPS * ((4 * f.order + 4 + _GRID_ERROR_UNITS) * s0 + 32 * s1)


def _candidate_angles(r: float, shift: float, num: PowerSeries, den: PowerSeries,
                      num_grid, den_grid, vals) -> np.ndarray:
    """Angle indices of a ring where Horner's screened value may be the ring's smallest.

    vals are the grid's screened values Re(shift + z num/den). If |Horner
    quotient - grid quotient| <= D_j at every angle j, then an angle with
    vals_j - D_j > min_i (vals_i + D_i) is beaten by Horner at some other
    angle, so the first Horner argmin over the rest is the full ring's.
    D_j carries the numerator and denominator bounds through the quotient
    as 1/(|den_j| - E_den), plus 16 eps (|z num/den| + |shift|) for
    rounding the quotient itself; the whole ring comes back when a bound is
    not finite, |den_j| <= E_den, or Horner's quotient might overflow.
    """
    e_num, e_den = _ring_error(num, r), _ring_error(den, r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = r * np.abs(num_grid / den_grid)
        margin = np.abs(den_grid) - e_den
        bound = (r * e_num + q * e_den) / margin + 16.0 * _EPS * (q + abs(shift))
        if not (np.all(margin > 0.0) and np.all(np.isfinite(4.0 * (q + bound)))):
            return np.arange(vals.size)
        return np.flatnonzero(vals - bound <= np.min(vals + bound))


def _order_screen(lam: float, shift: float, num: PowerSeries, den: PowerSeries,
                  vanishes: str) -> ScreenResult:
    """Screen Re(shift + z num(z) / den(z)) > lam over DiskGrid.default().

    The grid values decide: the first ring in ascending radius that
    violates the screen or has a denominator below _ZERO_GUARD. The
    latter, or a non-finite quotient on that ring, raises DomainError;
    otherwise the worst point of Horner's values on that ring is returned
    (argmin, first angle among ties). Horner runs, for num and den in one
    pass, only at the angles whose grid value the error bounds cannot rule
    out (_candidate_angles), which gives the full ring's argmin bit for bit.
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
    idx = _candidate_angles(grid.radii[i], shift, num, den, n[i], d[i], vals[i])
    # The quotient is formed over the whole ring, as on the full Horner ring:
    # NumPy rounds a complex product on a length-1 array differently.
    hn, hd = np.zeros_like(ring), np.ones_like(ring)
    hn[idx], hd[idx] = evaluate_many([num, den], ring[idx])
    with np.errstate(divide="ignore", invalid="ignore"):
        ring_vals = np.real(ring * hn / hd)[idx]
    if shift:
        ring_vals = ring_vals + shift
    if not (np.all(np.isfinite(vals[i])) and np.all(np.isfinite(ring_vals))):
        # float64 overflow; argmin would stop at a nan
        raise DomainError(f"screened quotient is not finite on the ring of radius {grid.radii[i]}")
    m = int(np.argmin(ring_vals))
    return ScreenResult(False, lam, (i + 1) * z.shape[1], complex(ring[idx[m]]), float(ring_vals[m]))


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
    for k in range(2, f.order + 1):
        bound = float(k) if mode == "starlike_bound" else 1.0
        if abs(f.coeffs[k]) > bound * (1.0 + 1e-12) + 1e-12:
            return BoundScreenResult(False, mode, k)
    return BoundScreenResult(True, mode, None)


# ---------------------------------------------------------------------------
# Coefficient-sum univalence criteria
# ---------------------------------------------------------------------------

CRITERION_MODES = ("theorem5_S", "theorem6_K")
VERDICT_SATISFIED = "Satisfied"
VERDICT_VIOLATED = "Violated"
VERDICT_INCONCLUSIVE = "Inconclusive-Divergent"


@dataclass
class CriterionReport:
    """Partial sums of a coefficient-sum criterion plus an honest verdict.

    The verdict is Satisfied only when the series status is Converged and
    the final partial sum plus its tail bound clears the threshold;
    any non-converged series yields Inconclusive-Divergent, never a pass.
    """

    mode: str
    params: OperatorParams
    partial_sums: list
    rhs_threshold: float
    series_status: EvalStatus
    verdict: str
    tail_bound: float = math.inf

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "params": self.params.to_json_dict(),
            "partial_sums": list(self.partial_sums),
            "rhs_threshold": self.rhs_threshold,
            "series_status": self.series_status.value,
            "verdict": self.verdict,
            # strict JSON has no Infinity; an unknown tail serializes as null
            "tail_bound": self.tail_bound if math.isfinite(self.tail_bound) else None,
        }


def criterion_term(p: OperatorParams, mode: str, kappa):
    """k-th rearranged proof term of the criterion sum (k >= 0; scalar or array).

    With R(m) = Gamma((m+beta-1)/(gamma+1) + 1) / Gamma(... - beta + tau):
    the single-sum form contributes (k+1) R(k+1); the two-sum form adds
    (k+1)(k+2) R(k+2) on top. At tau = beta these reduce to (k+1) and
    (k+1)(k+3) exactly, which grow without bound - divergence is the
    expected outcome across the entire parameter window.
    """
    if mode not in CRITERION_MODES:
        raise DomainError(f"unknown criterion mode {mode!r}; choices: {CRITERION_MODES}")
    k1 = np.asarray(kappa, dtype=np.float64) + 1.0
    t = k1 * np.exp(log_gamma_ratio(p, k1))
    if mode == "theorem5_S":
        t = t + k1 * (k1 + 1.0) * np.exp(log_gamma_ratio(p, k1 + 1.0))
    return t


def criterion_threshold(p: OperatorParams) -> float:
    """RHS threshold 2 Gamma(beta/(gamma+1)+1) / Gamma(beta/(gamma+1)+1-beta+tau).

    Equals exactly 2.0 at tau = beta.
    """
    return 2.0 / theta_front_constant(p)


def univalence_criterion(p: OperatorParams, mode: str, max_terms: int = 512) -> CriterionReport:
    """Sum the criterion series at z = 1 and report against the threshold.

    Terms are fed through the shared summation driver so sustained growth
    is detected and reported instead of producing a bogus verdict. The
    driver asks for them in index blocks as it goes, so a large max_terms
    costs nothing once the sum has stopped. They grow like a power of k,
    so the radius is 1 and z = 1 sits on the circle.
    """
    threshold = criterion_threshold(p)
    out = _sum_terms(lambda k: criterion_term(p, mode, k), max_terms, limit=1.0)
    partial_sums = np.cumsum(criterion_term(p, mode, np.arange(out.terms_used))).tolist()
    if out.status is EvalStatus.CONVERGED:
        tail = out.tail_bound
        verdict = VERDICT_SATISFIED if out.value + tail < threshold else VERDICT_VIOLATED
    else:
        tail = math.inf
        verdict = VERDICT_INCONCLUSIVE
    return CriterionReport(
        mode=mode,
        params=p,
        partial_sums=partial_sums,
        rhs_threshold=threshold,
        series_status=out.status,
        verdict=verdict,
        tail_bound=tail,
    )
