"""Weighted Bloch-norm estimation on disk grids.

Norms here are grid infima of the true suprema: a truncated series is
evaluated on a fixed polar grid and the maximum of |f'(z)| (1-|z|)^mu / w(1-|z|)
(or classically (1-|z|^2)|f'(z)|) is reported together with the argmax
point. grid_values gives that quantity at every grid point, from
DiskGrid.evaluate's one inverse DFT per ring; the norms are
its maximum and the per-radius trace its row maxima. Comparisons between
functions are made on matched grids so the systematic under-estimation cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracdiff import OperatorParams, log_gamma_ratio, theta_multiplier_apply
from .geometry import DiskGrid
from .series import PowerSeries

WEIGHT_KINDS = ("constant_one", "power", "log_weight", "table")
#: Largest family index compactness_decay_check accepts. Member n costs one
#: power r^(n-1) per grid radius, so the cap bounds the length of the returned
#: list (and of the CLI document) more than the work.
MAX_FAMILY_INDEX = 1024


@dataclass(frozen=True)
class WeightSpec:
    """Weight function w(t) on (0, 1] used by the weighted Bloch norm.

    kinds: 'constant_one' (w = 1, recovering the classical space),
    'power' (w(t) = t^alpha_w), 'log_weight' (w(t) = 1 - log t), and
    'table' (piecewise-linear through the given (t, w) points).
    """

    kind: str = "constant_one"
    alpha_w: float = 0.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise DomainError(f"unknown weight kind {self.kind!r}; choices: {WEIGHT_KINDS}")
        if not math.isfinite(self.alpha_w):
            raise DomainError(f"weight exponent alpha_w must be finite, got {self.alpha_w}")
        if self.kind == "table":
            pts = tuple((float(t), float(wv)) for t, wv in self.table)
            object.__setattr__(self, "table", pts)
            if len(pts) < 2:
                raise DomainError("table weight needs at least two points")
            ts = [t for t, _ in pts]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise DomainError("table abscissae must be strictly increasing")
            if any(not 0.0 < t <= 1.0 for t in ts):
                raise DomainError("table abscissae must lie in (0, 1]")
            if any(not 0.0 < wv < math.inf for _, wv in pts):  # NaN fails too
                raise DomainError("table weight values must be positive and finite")

    def evaluate(self, t):
        """w(t) for t in (0, 1], scalar or ndarray; must come out positive."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
            raise DomainError("weight argument must lie in (0, 1]")
        if self.kind == "constant_one":
            out = np.ones_like(t_arr)
        elif self.kind == "power":
            out = t_arr**self.alpha_w
        elif self.kind == "log_weight":
            out = 1.0 - np.log(t_arr)
        else:
            xs = np.array([x for x, _ in self.table])
            ys = np.array([y for _, y in self.table])
            out = np.interp(t_arr, xs, ys)
        if np.any(out <= 0.0):
            raise DomainError(f"weight {self.kind!r} evaluated non-positive")
        if out.ndim == 0:
            return float(out)
        return out

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "power":
            doc["alpha_w"] = self.alpha_w
        if self.kind == "table":
            doc["table"] = [list(p) for p in self.table]
        return doc


def default_bloch_grid() -> DiskGrid:
    """Radii 0.05..0.99 in steps of 0.01 with 0.999 appended, 128 angles."""
    radii = tuple(k / 100 for k in range(5, 100)) + (0.999,)
    return DiskGrid(radii=radii, angles_per_radius=128)


@dataclass
class BlochEstimate:
    """Grid supremum of a derivative-weighted quantity.

    truncation_warning is a boundary-sensitivity heuristic: it fires when
    coefficients continuing at the magnitude of the last stored one could
    contribute more than 1e-8 of the estimate at the outermost radius.
    Exact polynomials can trigger it spuriously; it is advisory only.
    """

    norm_estimate: float
    argmax_point: complex
    grid: DiskGrid
    mu: float
    truncation_warning: bool = False

    def to_json_dict(self) -> dict:
        return {
            "norm_estimate": self.norm_estimate,
            "argmax_point": [self.argmax_point.real, self.argmax_point.imag],
            "mu": self.mu,
            "grid": self.grid.to_json_dict(),
            "truncation_warning": self.truncation_warning,
        }


def _radial_factor(mu: float | None, w: WeightSpec | None):
    """r -> 1 - r^2 when mu is None, else r -> (1 - r)^mu / w(1 - r) (w None: w = 1)."""
    if mu is None:
        return lambda r: 1.0 - r * r
    if not 0.0 < mu < math.inf:
        raise DomainError(f"exponent mu must be positive and finite, got {mu}")
    w = WeightSpec() if w is None else w
    return lambda r: (1.0 - r) ** mu / w.evaluate(1.0 - r)


def grid_values(f: PowerSeries, grid: DiskGrid, mu: float | None = None,
                w: WeightSpec | None = None) -> np.ndarray:
    """|f'(z)| times _radial_factor(mu, w) at every grid point, shape (radii, angles)."""
    factor = _radial_factor(mu, w)
    return np.abs(grid.evaluate(f.derivative())) * factor(np.array(grid.radii))[:, None]


def _tail_heuristic(f: PowerSeries, r: float) -> float:
    """Crude bound on the neglected derivative tail past the stored order.

    Assumes hypothetical coefficients of magnitude |c_N| continue forever:
    |c_N| * sum_{k>N} k r^{k-1} = |c_N| d/dr [r^{N+1}/(1-r)].
    """
    n = f.order
    c = abs(f.coeffs[-1])
    if c == 0.0 or r >= 1.0:
        return 0.0
    return c * ((n + 1) * r**n * (1.0 - r) + r ** (n + 1)) / (1.0 - r) ** 2


def _grid_sup(f: PowerSeries, grid: DiskGrid | None, mu: float | None,
              w: WeightSpec | None) -> BlochEstimate:
    grid = grid or default_bloch_grid()
    vals = grid_values(f, grid, mu, w)
    # first ring, then first angle, among ties
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best, point = float(vals[i, j]), complex(grid.points(i, i + 1)[0, j])
    if not math.isfinite(best):  # argmax stops at the first nan
        raise DomainError(f"|f'| overflows float64 at grid point {point}")
    if best == 0.0 and np.any(f.derivative().coeffs):
        raise DomainError(f"the weighted |f'| underflows float64 on the whole grid (mu = {mu})")
    r_max = grid.radii[-1]
    warn = _tail_heuristic(f, r_max) * _radial_factor(mu, w)(r_max) > 1e-8 * max(best, 1e-300)
    return BlochEstimate(best, point, grid,
                         mu=1.0 if mu is None else float(mu), truncation_warning=bool(warn))


def bloch_norm_classical(f: PowerSeries, grid: DiskGrid | None = None) -> BlochEstimate:
    """Grid supremum of (1 - |z|^2) |f'(z)|."""
    return _grid_sup(f, grid, None, None)


def bloch_norm_weighted(f: PowerSeries, mu: float, w: WeightSpec,
                        grid: DiskGrid | None = None) -> BlochEstimate:
    """Grid supremum of |f'(z)| (1 - |z|)^mu / w(1 - |z|)."""
    return _grid_sup(f, grid, mu, w)


@dataclass
class EquivalenceReport:
    """Matched-grid norms of f and of its Theta image, plus their ratio."""

    norm_f: BlochEstimate
    norm_theta_f: BlochEstimate
    ratio: float


def boundedness_equivalence_check(p: OperatorParams, f: PowerSeries, mu: float,
                                  w: WeightSpec) -> EquivalenceReport:
    """Desk-scale witness that f and Theta f have comparable weighted norms.

    Both norms are taken on the same grid, default_bloch_grid(); finiteness
    of both at matched scale is the check — no operator-norm claim is made.
    """
    grid = default_bloch_grid()
    nf = bloch_norm_weighted(f, mu, w, grid)
    ntf = bloch_norm_weighted(theta_multiplier_apply(p, f), mu, w, grid)
    if nf.norm_estimate == 0.0:
        raise DomainError("input series has zero derivative on the grid")
    return EquivalenceReport(nf, ntf, ntf.norm_estimate / nf.norm_estimate)


def compactness_decay_check(p: OperatorParams, family_index_max: int, mu: float,
                            w: WeightSpec, grid: DiskGrid | None = None) -> list:
    """Weighted norms of Theta applied to f_n(z) = z^n / n for n = 2..max.

    The family tends to 0 uniformly on the closed disk; a compact operator
    must send it to 0 in norm, so the returned sequence should decay past
    a burn-in index. Note the grid supremum of r^{n-1}(1-r)^mu itself
    decays only like n^{-mu}, which bounds how fast this witness can fall.
    family_index_max is an integer from 2 to MAX_FAMILY_INDEX.

    (Theta f_n)'(z) = Phi(n) z^{n-1} has one modulus on each ring, so member
    n's grid norm is Phi(n) max_i r_i^{n-1} factor(r_i) over the grid's
    radii: no series is built or evaluated on the grid.
    """
    if not isinstance(family_index_max, (int, np.integer)) or not 2 <= family_index_max <= MAX_FAMILY_INDEX:
        raise DomainError(f"family_index_max must lie in [2, {MAX_FAMILY_INDEX}] and be an integer, "
                          f"got {family_index_max}")
    grid = grid or default_bloch_grid()
    r = np.array(grid.radii)
    n = np.arange(2, family_index_max + 1)
    log_ratio = log_gamma_ratio(p, np.arange(1, family_index_max + 1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # checked below
        norms = np.exp(log_ratio[1:] - log_ratio[0]) * np.max(
            r ** (n[:, None] - 1.0) * _radial_factor(mu, w)(r), axis=1)
    if not np.all(np.isfinite(norms)):
        raise DomainError(f"the weighted |(Theta f_n)'| overflows float64 on the grid (mu = {mu})")
    if not np.all(norms > 0.0):
        raise DomainError(f"the weighted |(Theta f_n)'| underflows float64 on the whole grid (mu = {mu})")
    return norms.tolist()
