"""The three-parameter fractional differential operator on power series.

Implements the coefficientwise action of the operator T^{beta,tau,gamma}
on truncated power series, its normalized companion Theta (multiplier
sequence Phi), the Fox-Wright/Hadamard representation of Theta, and
closed-form images for the stock input functions. Every closed form is a
Fox-Wright block summed by the one driver in special; the Lerch-type input
adds a factor (k + a)^-s to its coefficients.

Every coefficient of an operator image comes from one vectorized kernel,
log_gamma_ratio: R(m) = log Gamma(X_m) - log Gamma(X_m - beta + tau) with
X_m = (m + beta - 1)/(gamma + 1) + 1, evaluated over a whole index array
at once. The monomial image is (gamma+1)^{beta-tau} Gamma(tau)/Gamma(beta)
exp(R(m)), the Theta multiplier is Phi(k) = exp(R(k) - R(1)), and the
univalence criteria in geometry read the same R. The kernel is one NumPy
path: from c = X_m - beta = 16 up it sums the asymptotic expansion of a
ratio of Gamma functions (Tricomi & Erdelyi 1951; Fields 1966) from
hard-coded Bernoulli numbers, and below it steps up from c + 16 by log1p
terms, forming no Gamma value; the front factor Gamma(tau)/Gamma(beta) is
two math.lgamma calls. log_gamma_ratios runs the same code over T triples:
beta, tau and gamma become (T, 1) columns broadcast against the indices,
where one triple has floats, and each row has the bits of its triple's own
call. The helpers that turn R into multipliers, _front_times_exp and
Theta's _times_phi, take the same T rows, and monomial_transforms gives T
monomial images from one kernel call (monomial_transform is its one-row
call); the verify suites check their draws through them, and the
Hadamard route's through _theta_hadamard_rows.

Every kept row follows one rule, _kept_row: a read-only row over the
indices 0 .. n - 1 for the last key asked, grown by filling only the
missing indices, so each element has the bits of a fresh row. The kernel
row R(0..N), _kernel_row, is keyed on the triple and read by
apply_operator, theta_multiplier_apply and closed_form_spec (the
criteria, phi_multiplier and monomial_transforms call the kernel
directly). The row of Theta's Gamma pair, _pair_row: L_k = log Gamma(b1 +
k/g1) - log Gamma(b1 + tau - beta + k/g1), is keyed on the pair and read
by the Hadamard route and the closed forms, each of which keeps its own
z-free rows. It is the real log Gamma of
special (Stirling from 16 up, the math module's Gamma below), not the
kernel's expansion and step-up. The Hadamard route and the closed-form
sums never read the kernel row (a closed form reads only its constant,
R(1), there), nor the kernel the pair row, so the two Theta routes, and
the closed forms and the kernel, compare two Gamma codes at every index.

At tau == beta the operator degenerates to multiplication by z^gamma with
exactly unchanged coefficients, in floating point too: the kernel gives
R == 0 exactly there (the expansion's coefficients are odd in beta - tau,
and every step is log1p(0)), and expressions of the form 1 - beta + tau
are evaluated as 1 + (tau - beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleHitError
from .series import _NORMALIZED_TOL, PowerSeries, stock_rows
from .special import (
    POLE_GUARD,
    EvalOutcome,
    EvalStatus,
    FoxWrightSpec,
    MAX_TERMS_DEFAULT,
    _log_gamma_real,
    _sum_rows,
    log_gamma,
)

# At c >= _SWITCH the kernel sums _RATIO_TERMS terms of the Gamma-ratio expansion
# in w^-2, where the first term left out is below 1e-18 of R; below, it steps up
# from c + _SWITCH, _STEP_ROWS elements at a time (a step array of 512 KB at most).
_SWITCH = 16.0
_RATIO_TERMS = 6
_STEPS = np.arange(_SWITCH)
_STEP_ROWS = 4096
# Bernoulli numbers B_0, B_2, ..., B_12.
_BERNOULLI_EVEN = (1.0, 1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)
_SIGMA_POWERS = np.arange(_RATIO_TERMS + 1.0)
# Row j maps (sigma^{2i+1})_{i=0..N} to the w^-2j coefficient -2 B_{2j+1}(1/2 + sigma) / (2j (2j+1)),
# as B_m(1/2 + sigma) = sum_k C(m, k) B_k(1/2) sigma^{m-k} with B_k(1/2) = (2^{1-k} - 1) B_k.
_BERNOULLI_ROWS = np.array([[-2.0 / (2 * j * (2 * j + 1)) * math.comb(2 * j + 1, 2 * j - 2 * i)
                             * (2.0 ** (1 - 2 * j + 2 * i) - 1.0) * _BERNOULLI_EVEN[j - i] if i <= j else 0.0
                             for i in range(_RATIO_TERMS + 1)]
                            for j in range(1, _RATIO_TERMS + 1)])


@dataclass(frozen=True)
class OperatorParams:
    """Validated parameter triple (beta, tau, gamma).

    The admissible window is 0 < beta <= 1, 0 < tau <= 1,
    0 <= beta - tau < 1 and gamma >= 0, narrowed to tau >= POLE_GUARD
    (1e-9): the front factor Gamma(tau) has its pole at 0, and log_gamma
    refuses arguments within the guard. Construction fails with a
    DomainError naming the violated inequality.
    """

    beta: float
    tau: float
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"parameter window violated: 0 < beta <= 1 (beta = {self.beta})")
        if not POLE_GUARD <= self.tau <= 1.0:
            raise DomainError(f"parameter window violated: 0 < tau <= 1 and "
                              f"tau >= POLE_GUARD = {POLE_GUARD} (tau = {self.tau})")
        if self.beta - self.tau < 0.0:
            raise DomainError(
                f"parameter window violated: 0 <= beta - tau (beta - tau = {self.beta - self.tau})"
            )
        if self.beta - self.tau >= 1.0:
            raise DomainError(
                f"parameter window violated: beta - tau < 1 (beta - tau = {self.beta - self.tau})"
            )
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError(
                f"parameter window violated: gamma >= 0 and finite (gamma = {self.gamma})"
            )

    @property
    def diff(self) -> float:
        """tau - beta, the (non-positive) fractional order difference."""
        return self.tau - self.beta

    @property
    def shift(self) -> float:
        """Prefactor exponent (1 - beta + tau) * gamma carried by every image."""
        return (1.0 + self.diff) * self.gamma

    @property
    def jacobi_exponents(self) -> tuple:
        """(alpha', beta') = (tau - beta, (beta - 1)/(gamma + 1)), both in (-1, 0]."""
        return (self.diff, (self.beta - 1.0) / (self.gamma + 1.0))

    def to_json_dict(self) -> dict:
        return {"beta": self.beta, "tau": self.tau, "gamma": self.gamma}


@dataclass(frozen=True)
class MonomialImage:
    """Image of z^upsilon: coefficient * z^exponent."""

    coefficient: float
    exponent: float

    def evaluate(self, z) -> complex:
        return self.coefficient * complex(z) ** self.exponent


def log_gamma_ratio(p: OperatorParams, m):
    """The coefficient kernel R(m) = log Gamma(X_m) - log Gamma(X_m - beta + tau).

    X_m = (m + beta - 1)/(gamma + 1) + 1. m may be a scalar or an array of
    indices; the result is an array of the same shape. With
    c = (m + gamma (1 - beta))/(gamma + 1) >= 0, a = beta and b = tau,
    R = log Gamma(c + a) - log Gamma(c + b), by one NumPy path whatever the
    call's size, so an index gets the same bits from every call:
    - for c >= _SWITCH (16), from the expansion of a ratio of Gamma
      functions (Tricomi & Erdelyi 1951; Fields 1966), centred at
      w = c + (a + b - 1)/2 so that only even powers of 1/w appear:
        R = (a - b) log w - sum_{j=1..6} 2 B_{2j+1}(1/2 + sigma) / (2j (2j+1) w^{2j}),
      sigma = (a - b)/2, B_n the Bernoulli polynomials. The coefficients
      come from hard-coded Bernoulli numbers by one small matrix-vector
      product. No argument of size c log c is formed;
    - below _SWITCH, by the step-up
        R(c) = R(c + 16) - sum_{j<16} log1p((a - b)/(c + j + b)),
      which forms no Gamma value.
    R stays within 8 ulps of max(1, |R|) at every index; NumPy is the only
    dependency. At tau = beta every coefficient and step is exactly 0, so
    tau = beta leaves coefficients bit-identical and Phi(1) == 1.0.
    log_gamma_ratios runs the same code over many triples, and each of its
    rows has the bits of this call. Raises PoleHitError naming the smallest
    argument c + tau if it lies below POLE_GUARD.
    """
    m = np.asarray(m, dtype=np.float64)
    return _log_gamma_ratio(p.beta, p.tau, p.gamma, m.ravel()).reshape(m.shape)


def log_gamma_ratios(ps, m) -> np.ndarray:
    """The kernel over T triples at once: row t has the bits of log_gamma_ratio(ps[t], its indices).

    ps is a sequence of T >= 1 OperatorParams, so every triple is validated.
    Their beta, tau and gamma become (T, 1) columns that broadcast against
    the indices m: a scalar or an (n,) array gives every triple the same
    indices, a (T, 1) or (T, n) array each triple its own row. The result
    has shape (T, n), n = 1 for a scalar. It is log_gamma_ratio's code, run
    once: its scalars are a triple's floats there and columns here.
    """
    if not len(ps):
        raise DomainError("log_gamma_ratios needs at least one parameter triple")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim > 2 or m.ndim == 2 and m.shape[0] not in (1, len(ps)):
        raise DomainError(f"indices of shape {m.shape} do not broadcast against {len(ps)} triples")
    a, b, g = _columns([(p.beta, p.tau, p.gamma) for p in ps])
    return _log_gamma_ratio(a, b, g, m)


def _columns(rows: list) -> tuple:
    """The (T, 1) float columns of T equal-length tuples, one per tuple entry."""
    return tuple(np.array(rows, dtype=np.float64).T[..., None])


def _log_gamma_ratio(a, b, g, m: np.ndarray) -> np.ndarray:
    """R at the indices m for beta, tau and gamma a, b and g: one triple's floats with m 1-D, or (T, 1) columns.

    A triple's floats are its T = 1 case: NumPy broadcasts a float as it does
    a column, without a column's cost, so every element has the same recipe.
    c is (n,) for floats and (T, n) for columns, and the step-up reads each
    kept element's triple from the leading part of its index, () for floats.
    """
    c = (m + g * (1.0 - a)) / (g + 1.0)
    below = c < _SWITCH
    *lead, rows = below.nonzero()
    kept = c[below]
    if kept.size and np.minimum.reduce(kept, None) < 0.0:  # c >= 0 gives c + tau >= tau >= POLE_GUARD
        low = float(np.min(c + b))
        if low < POLE_GUARD:
            raise PoleHitError(low)
    r = _ratio_expansion(np.add(c, _SWITCH, out=c, where=below), a, b)  # c is shifted in place
    diff, steps = np.asarray(a - b), _STEPS + b
    for i in range(0, rows.size, _STEP_ROWS):
        t = tuple([axis[i:i + _STEP_ROWS] for axis in lead])
        k = t + (rows[i:i + _STEP_ROWS],)
        q = kept[i:i + _STEP_ROWS, None] + steps[t]  # 16 wide, so an in-place op is cheaper than a new array
        r[k] = r[k] - np.add.reduce(np.log1p(np.divide(diff[t], q, q), q), 1)
    return r


# The module's kept rows, row kind -> [key, row] (see _kept_row).
_row_store = {"kernel": [None, np.empty(0)], "pair": [None, np.empty(0)]}


def _kept_row(kept: list, key, n: int, fill) -> np.ndarray:
    """The read-only row over the indices 0 .. n - 1 for key, from the store kept = [last key, its row].

    Another key starts the row afresh; a longer n grows it by one call fill(k, out) that writes
    the missing float indices k into out, their slot of a preallocated row. The last axis is the
    index, the kept row's others give the shape. Each element has the bits of a fresh row.
    """
    last, row = kept  # one read, so a row is never taken with a key another thread has replaced
    have = row.shape[-1] if last == key else 0
    if have < n:
        row, old = np.empty(row.shape[:-1] + (n,)), row
        if have:
            row[..., :have] = old[..., :have]
        fill(np.arange(have, n, dtype=np.float64), row[..., have:])
        row.flags.writeable = False
        kept[:] = key, row
    return row[..., :n]


def _kernel_row(p: OperatorParams, n: int) -> np.ndarray:
    """The read-only row log_gamma_ratio(p, [0, 1, ..., n - 1]), kept by _kept_row for the last triple."""
    return _kept_row(_row_store["kernel"], p, n, lambda k, out: np.copyto(out, log_gamma_ratio(p, k)))


def _ratio_expansion(x: np.ndarray, a, b) -> np.ndarray:
    """The expansion of log Gamma(x + a) - log Gamma(x + b) over an array x >= _SWITCH, a and b floats or columns."""
    w = x + 0.5 * (a + b - 1.0)
    u = 1.0 / (w * w)
    coeffs = _expansion_coefficients(0.5 * (a - b))
    r = coeffs[-1] * u
    for coeff in coeffs[-2::-1]:
        r = (r + coeff) * u  # new arrays: an in-place op costs about twice as much on a one-element array
    return r + (a - b) * np.log(w)


def _expansion_coefficients(sigma) -> list:
    """The w^-2j coefficients, j = 1 .. 6, of sigma: floats for a float, (T, 1) columns for a (T, 1) column.

    Each triple's coefficients come from its own matrix-vector product, so a
    column holds the bits of each triple's floats. They are odd in sigma, so
    every coefficient is exactly 0 at a = b.
    """
    powers = sigma * (sigma * sigma) ** _SIGMA_POWERS
    if powers.ndim == 1:  # Python floats: a NumPy scalar operand slows a ufunc call on a short array
        return (_BERNOULLI_ROWS @ powers).tolist()
    return list((_BERNOULLI_ROWS @ powers[..., None]).transpose(1, 0, 2))


def _front(p: OperatorParams) -> tuple:
    """(gamma+1)^{beta-tau} and log Gamma(tau) - log Gamma(beta), the front factor's two floats."""
    return (p.gamma + 1.0) ** (-p.diff), math.lgamma(p.tau) - math.lgamma(p.beta)


def _front_times_exp(p, s):
    """(gamma+1)^{beta-tau} Gamma(tau)/Gamma(beta) * exp(s).

    p is one OperatorParams, with s a scalar or an array, or a sequence of T
    of them, with s an array of T rows, one per triple.
    """
    scale, shift = _front(p) if isinstance(p, OperatorParams) else _columns([_front(q) for q in p])
    return scale * np.exp(s + shift)


def _times_phi(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Theta's multiplier on coefficient rows: index 0 set to 0, index k >= 1 times Phi(k) = exp(R(k) - R(1)).

    r holds the kernel rows R(0 .. N) of the coefficient rows, along the last axis.
    """
    out = coeffs.copy()
    out[..., 0] = 0.0
    out[..., 1:] *= np.exp(r[..., 1:] - r[..., 1:2])
    return out


def monomial_transform(p: OperatorParams, upsilon: float) -> MonomialImage:
    """Closed-form image of the monomial z^upsilon: the one-row call of monomial_transforms."""
    return monomial_transforms([p], [upsilon])[0]


def monomial_transforms(ps, upsilons) -> list:
    """Closed-form images of the monomials z^upsilons[t] under ps[t], for every t, from one kernel call.

    Each image has coefficient (gamma+1)^{beta-tau} Gamma(X) Gamma(tau) /
    (Gamma(X - beta + tau) Gamma(beta)) with X = (upsilon+beta-1)/(gamma+1) + 1,
    and exponent (1 - beta + tau) * gamma + upsilon. Negative or non-finite
    upsilon, or one whose coefficient or exponent is not finite in float64,
    is rejected with a DomainError: the first refused power's, else the first
    refused image's. Non-integer upsilon >= 0 is allowed (the formula
    extends).
    """
    upsilons = [_monomial_power(upsilon) for upsilon in upsilons]
    if len(upsilons) != len(ps):
        raise DomainError(f"{len(ps)} parameter triples but {len(upsilons)} monomial powers")
    if not ps:
        return []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected by _monomial_image
        coeffs = _front_times_exp(ps, log_gamma_ratios(ps, np.array(upsilons)[:, None]))[:, 0].tolist()
    return [_monomial_image(p, upsilon, coeff) for p, upsilon, coeff in zip(ps, upsilons, coeffs)]


def _monomial_power(upsilon) -> float:
    """float(upsilon), refused unless finite and >= 0."""
    upsilon = float(upsilon)
    if not 0.0 <= upsilon < math.inf:
        raise DomainError(f"monomial power must be finite and >= 0, got {upsilon}")
    return upsilon


def _monomial_image(p: OperatorParams, upsilon: float, coeff: float) -> MonomialImage:
    """The image coeff * z^(shift + upsilon), refused unless its coefficient and exponent are finite."""
    if not math.isfinite(coeff):
        raise DomainError(f"monomial power {upsilon} gives a non-finite coefficient")
    exponent = p.shift + upsilon
    if not math.isfinite(exponent):
        raise DomainError(f"monomial power {upsilon} plus the shift {p.shift} overflows float64")
    return MonomialImage(coefficient=coeff, exponent=exponent)


@dataclass
class OperatorImage:
    """Operator image z^prefactor_power * series(z)."""

    prefactor_power: float
    series: PowerSeries

    def evaluate(self, z):
        """The image at a complex scalar, or at each point of a 1-D array with one Horner pass."""
        if np.ndim(z) == 0:
            z = complex(z)
            return self._times_prefactor(z, self.series.evaluate(z))
        z = np.asarray(z, dtype=np.complex128)
        if z.ndim > 1:
            raise DomainError("an operator image takes a complex scalar or a 1-D array of points")
        return np.array([self._times_prefactor(w, s)
                         for w, s in zip(z.tolist(), self.series.evaluate(z).tolist())], dtype=np.complex128)

    def _times_prefactor(self, z: complex, value: complex) -> complex:
        if z == 0:
            # z^p -> 0 for p > 0; the p == 0 case degenerates to the series value.
            return value if self.prefactor_power == 0.0 else 0.0 + 0.0j
        return cmath.exp(self.prefactor_power * cmath.log(z)) * value


def apply_operator(p: OperatorParams, f: PowerSeries) -> OperatorImage:
    """Apply the operator termwise to a truncated series.

    Each monomial c_u z^u maps to c_u * C(u) z^{shift + u}; the common
    prefactor z^shift is represented once and the scaled coefficients
    stay inside the PowerSeries algebra. C(0..N) comes from the kernel row
    _kernel_row(p, N + 1), shared with theta_multiplier_apply.
    """
    coeffs = f.coeffs * _front_times_exp(p, _kernel_row(p, f.coeffs.size))
    return OperatorImage(prefactor_power=p.shift, series=PowerSeries(coeffs))


# ---------------------------------------------------------------------------
# Normalized operator Theta: multiplier sequence Phi
# ---------------------------------------------------------------------------


#: Largest index phi_multiplier takes: 2**53, the largest integer up to which
#: float64, the kernel's dtype, holds every integer exactly.
MAX_MULTIPLIER_INDEX = 2**53


def phi_multiplier(p: OperatorParams, kappa: int) -> float:
    """Normalized multiplier Phi(kappa) = exp(R(kappa) - R(1)), 1 <= kappa <= MAX_MULTIPLIER_INDEX.

    Phi(1) == 1.0 exactly, and so is every Phi(kappa) at tau = beta.
    """
    if (isinstance(kappa, (bool, np.bool_)) or not 1 <= kappa <= MAX_MULTIPLIER_INDEX
            or kappa != int(kappa)):
        raise DomainError(f"multiplier index must be an integer in [1, {MAX_MULTIPLIER_INDEX}], got {kappa!r}")
    r = log_gamma_ratio(p, [1.0, kappa])
    return math.exp(r[1] - r[0])


def theta_multiplier_apply(p: OperatorParams, f: PowerSeries) -> PowerSeries:
    """Apply the Theta multiplier a_k -> Phi(k) a_k linearly (k >= 1).

    Requires a vanishing constant term but not full normalization, so it
    also serves boundedness_equivalence_check, whose inputs need not be
    normalized. R(1..N) is read from the kernel row _kernel_row(p, N + 1),
    shared with apply_operator; the Hadamard route never reads it.
    """
    if abs(f.coeffs[0]) > _NORMALIZED_TOL:
        raise DomainError("Theta needs a series with zero constant term")
    return PowerSeries(_times_phi(f.coeffs, _kernel_row(p, f.coeffs.size)))


def theta_normalize(p: OperatorParams, f: PowerSeries) -> PowerSeries:
    """Normalized operator image z + sum_{k>=2} Phi(k) a_k z^k.

    The input must be class-A normalized (f(0) = 0, f'(0) = 1).
    """
    if not f.is_normalized():
        raise DomainError("theta_normalize requires a normalized series (c0 = 0, c1 = 1)")
    return theta_multiplier_apply(p, f)


def theta_fox_wright_spec(p: OperatorParams):
    """(constant, FoxWrightSpec) of the Hadamard kernel for Theta.

    Theta f = constant * [z 2Psi1(z)] (x) f(z), where (x) is the
    coefficientwise product: the z^kappa kernel coefficient times the
    constant reproduces Phi(kappa). The kappa = 1 coefficient is 1 in
    exact arithmetic, but the float64 product exp(a) * exp(-a) comes out
    1 +- 1 ulp for many parameters; theta_normalize, not this route, pins
    Phi(1) at exactly 1.0. The block is [(1, 1), (b1, 1/g1); (b1 + tau -
    beta, 1/g1)], its Gamma pair from _theta_gamma_pair. The constant is
    computed by special.log_gamma, not by the kernel.
    """
    upper, lower = _theta_gamma_pair(p)
    spec = FoxWrightSpec(upper=((1.0, 1.0), upper), lower=(lower,))
    return math.exp(log_gamma(lower[0]) - log_gamma(upper[0])), spec


def _theta_gamma_pair(p: OperatorParams) -> tuple:
    """The Fox-Wright rows ((b1, 1/g1), (b1 + tau - beta, 1/g1)) of Theta and the closed forms.

    b1 = c1 + beta and b1 + tau - beta = c1 + tau are formed from the
    kernel's c1 = c(1), never from a rounded tau - beta, so the lower row
    stays >= tau >= POLE_GUARD and coincides with the upper one at
    tau = beta.
    """
    g1 = p.gamma + 1.0
    c1 = (1.0 + p.gamma * (1.0 - p.beta)) / g1  # the kernel's c at m = 1
    return (c1 + p.beta, 1.0 / g1), (c1 + p.tau, 1.0 / g1)


def theta_hadamard(p: OperatorParams, f: PowerSeries) -> PowerSeries:
    """Theta image computed through the Fox-Wright Hadamard kernel.

    Independent route used to cross-check theta_normalize: coefficient
    kappa of the image is constant * kernel(kappa-1) * a_kappa. The kernel
    is the kept Gamma-pair row _pair_row of spec's rows (b1, 1/g1) and
    (b1 + tau - beta, 1/g1), shared with the closed forms of the triple,
    not log_gamma_ratio: spec.log_coefficients' other two rows, log k! and
    log Gamma(1 + k), cancel exactly, so each element has the bits of
    spec.log_coefficients at its index. _times_hadamard takes the products.
    """
    if abs(f.coeffs[0]) > _NORMALIZED_TOL:
        raise DomainError("Theta needs a series with zero constant term")
    constant, spec = theta_fox_wright_spec(p)
    row = _pair_row(spec.upper[1], spec.lower[0], f.coeffs.size - 1)
    return PowerSeries(_times_hadamard(f.coeffs, constant, row))


def _times_hadamard(coeffs: np.ndarray, constant, rows: np.ndarray) -> np.ndarray:
    """The Hadamard route on coefficient rows: index 0 set to 0, index k >= 1 times constant, then times exp(L_{k-1}).

    coeffs is one row, with a float constant and one pair row, or T rows,
    with a (T, 1) constant column and T pair rows. The products are taken in
    place on a copy: larger temporaries page-faulted afresh on every call.
    """
    out = coeffs.copy()
    out[..., 0] = 0.0
    head = out[..., 1:]
    head *= constant
    head *= np.exp(rows)
    return out


def _theta_hadamard_rows(ps: list, coeffs: np.ndarray) -> np.ndarray:
    """theta_hadamard(ps[t], PowerSeries(coeffs[t])).coeffs for each of T triples, as a (T, N + 1) array.

    The T pair rows L_0 .. L_{N-1} (at least L_0) are filled by one
    _fill_pair_row call, whose blocks are one _log_gamma_real call over all
    T rows. Each constant Gamma(b1 + tau - beta) / Gamma(b1) is
    math.exp(-L_0), with the bits of theta_fox_wright_spec's
    math.exp(log_gamma(b1 + tau - beta) - log_gamma(b1)): L_0 is the same
    difference of the same two log Gammas, taken the other way round, and
    a rounded difference changes only its sign when its operands swap.
    """
    upper, lower = zip(*(_theta_gamma_pair(p) for p in ps))
    rows = np.empty((len(ps), max(coeffs.shape[1] - 1, 1)))
    _fill_pair_row(_columns(upper), _columns(lower), np.arange(float(rows.shape[1])), rows)
    constants = np.array([[math.exp(-x)] for x in rows[:, 0].tolist()])
    return _times_hadamard(coeffs, constants, rows[:, :coeffs.shape[1] - 1])


def _pair_row(upper: tuple, lower: tuple, n: int) -> np.ndarray:
    """The read-only row L_k = log Gamma(b + k w) - log Gamma(b_low + k w), k = 0 .. n - 1, kept for the last pair."""
    return _kept_row(_row_store["pair"], (upper, lower), n, lambda k, out: _fill_pair_row(upper, lower, k, out))


def _fill_pair_row(upper: tuple, lower: tuple, k: np.ndarray, out: np.ndarray) -> None:
    """The pair rows' fill for (b, w), (b_low, w): one real log Gamma call on both rows per 2048 indices.

    b, w and b_low are one pair's floats, for one row out, or (T, 1) columns, for T rows.
    """
    (b, w), (b_low, _) = upper, lower
    for start in range(0, k.size, 2048):
        block = k[start:start + 2048]
        logs = _log_gamma_real(np.stack([b + block * w, b_low + block * w]))
        np.subtract(logs[0], logs[1], out=out[..., start:start + block.size])


# ---------------------------------------------------------------------------
# Closed-form images of the stock inputs
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormImage:
    """Closed-form operator image constant * z^power * sum_k (c_k / c_0) (k + a)^-s z^k.

    c_k are the coefficients of the Fox-Wright block fox_wright: unit-weight
    rows from the stock input, then the operator's Gamma pair (b1, 1/g1),
    (b1 + tau - beta, 1/g1). constant is the image coefficient of z^power.
    s and a are the stock input's, handed over by closed_form_spec from its
    one series.stock_rows call.
    inner_sum and evaluate take a complex scalar or a 1-D array of points; an
    array is summed in one pass of the summation driver, one row per point,
    and every point gets the bits of its scalar call.
    """

    kind: str
    constant: float
    power: float
    fox_wright: FoxWrightSpec
    s: float
    a: float
    # the image's own store of its z-free rows (see _kept_row and inner_sum), one key
    _rows: list = field(default_factory=lambda: [None, np.empty((2, 0))], init=False, repr=False, compare=False)

    def inner_sum(self, z):
        """Sum the normalized series at z through the one summation driver.

        z is a complex scalar, for one EvalOutcome, or a 1-D array of points,
        for a list of them from one driver pass, each with the bits of its
        own scalar call. At most MAX_TERMS_DEFAULT terms are summed per point.
        The unit-weight rows advance by their ratio recurrence: term k + 1
        is term k times z q_k, q_k = prod (upper + k) / ((k + 1) prod (lower
        + k)), one running product per point and index block, with z a
        column, that starts from the products carried from the last block;
        each product runs in sequence, so its bits do not depend on where
        the blocks split. No log-Gamma of size k log k and no Gamma of a
        stock parameter enters. Neither q_k nor the Gamma pair over its k = 0
        value times (k + a)^-s depends on z: both are computed once per
        index, the pair from the triple's kept row _pair_row, and kept in
        the image's own store for all points and the next call.
        z = 0 is the exact one-term sum; in an array that also holds other
        points it is summed apart, as the driver ends all rows together.
        """
        points = np.asarray(z, dtype=np.complex128)
        if not points.ndim:
            return self._sums([complex(points)])[0]
        if points.ndim > 1:
            raise DomainError("a closed form takes a complex scalar or a 1-D array of points")
        zs = points.tolist()
        if 0 in zs and any(zs):  # z = 0 ends its series at one term, the other points do not
            rest, at_zero = iter(self._sums([x for x in zs if x])), self._sums([0j])[0]
            return [next(rest) if x else at_zero for x in zs]
        return self._sums(zs)

    def _sums(self, zs: list) -> list:
        """inner_sum at a list of complex points, all of them 0 or none: the one-image call of _closed_form_rows."""
        return _closed_form_rows([self], zs)

    def _fill_rows(self, k: np.ndarray, out: np.ndarray) -> None:
        """Write the z-free rows at the indices k into out: q_k into out[0], exp(L_k - L_0 - s log(k + a)) into out[1]."""
        (*upper, pair), (*lower, pair_low) = self.fox_wright.upper, self.fox_wright.lower
        out[0] = math.prod(x + k for x, _ in upper) / math.prod((x + k for x, _ in lower), start=k + 1.0)
        row = _pair_row(pair, pair_low, int(k[-1]) + 1)
        out[1] = np.exp(row[int(k[0]):] - row[0] - self.s * np.log(k + self.a))

    def evaluate(self, z):
        """Value at a complex scalar, or at each point of a 1-D array in one inner_sum.

        Raises DomainError unless the inner sum is CONVERGED; for an array,
        the scalar's error for the first point, in array order, that is not.
        """
        points = np.asarray(z, dtype=np.complex128)
        if not points.ndim:
            z = complex(points)
            return self._value(z, self._sums([z])[0])
        return np.array([self._value(x, out) for x, out in zip(points.tolist(), self.inner_sum(points))],
                        dtype=np.complex128)

    def _value(self, z: complex, out: EvalOutcome) -> complex:
        if out.status is not EvalStatus.CONVERGED:
            raise DomainError(
                f"closed-form series for {self.kind!r} did not converge at z={z} "
                f"(status {out.status.value})"
            )
        if z == 0:  # power = shift + 1 >= 1
            return 0j
        return self.constant * cmath.exp(self.power * cmath.log(z)) * out.value


def _closed_form_rows(images: list, zs: list) -> list:
    """inner_sum of each image at each point of zs, summed as the rows of one _sum_rows pass: one EvalOutcome per row.

    The rows run image by image, each image's in the order of zs. Each
    block reads every image's z-free rows from its own store once, for all
    points; a row runs its own image's product of z q_k from the products
    carried from the last block, and ends by the driver's rules for its own
    terms, so it has the bits of its one-image call. The points are all 0
    or none, as in _fox_wright_rows: z = 0 ends its sum at its first term,
    and so would end the other rows there too.
    """
    z, nonzero = np.array(zs * len(images), dtype=np.complex128)[:, None], any(zs)
    carried = [0, [[1.0]] * len(z)]  # the last block's last index and the ratio products there, a column

    def block(k):  # the driver asks for consecutive indices, each block after the last
        k = k if nonzero else k[:1]  # z = 0: the exact one-term sum
        (start, product), first, stop = carried, int(k[0]), int(k[-1]) + 1
        # the driver ignores floating-point errors here and stops at an overflow
        rows = [_kept_row(image._rows, None, stop, image._fill_rows) for image in images]
        # q_k, then the Gamma-pair factor: one row of each for one image, else one per image and point
        rows = rows[0] if len(rows) == 1 else np.repeat(np.stack(rows, axis=1), len(zs), axis=1)
        h = np.multiply.accumulate(np.concatenate((product, z * rows[0, ..., start:stop - 1]), axis=1), axis=1)
        carried[:] = stop - 1, h[:, -1:]  # h holds the products at start .. stop - 1
        return h[:, first - start:] * rows[1, ..., first:stop]

    return _sum_rows(block, MAX_TERMS_DEFAULT, [abs(x) / image.fox_wright.radius for image in images for x in zs])


def closed_form_spec(p: OperatorParams, kind: str, **params) -> ClosedFormImage:
    """Closed-form image of a stock input under the operator.

    kind and params are those of series.make_builtin and are checked by
    the same series.stock_rows. Each input is
    z sum_k prod (upper)_k / (prod (lower)_k k!) (k + a)^-s z^k. The
    operator scales coefficient k by
    Gamma(1 + tau - beta) B(x_k, 1 + tau - beta) (x_k + tau - beta)
    = Gamma(1 + tau - beta) Gamma(x_k) / Gamma(x_k + tau - beta), with
    x_k = b1 + k/g1, so the image is the block [(upper, 1), (b1, 1/g1);
    (lower, 1), (b1 + tau - beta, 1/g1)], with theta_fox_wright_spec's
    Gamma pair from _theta_gamma_pair (not its constant), normalized to its
    k = 0 term, times the image coefficient of z: monomial_transform(p, 1)'s
    coefficient, from R(1) of the kept kernel row, so a closed form built
    after apply_operator at the same triple makes no kernel call. An upper
    parameter at a non-positive integer makes the input a polynomial, which
    the sum ends exactly.
    """
    upper, lower, s, a = stock_rows(kind, **params)
    gamma_upper, gamma_lower = _theta_gamma_pair(p)
    spec = FoxWrightSpec(
        upper=tuple((x, 1.0) for x in upper) + (gamma_upper,),
        lower=tuple((x, 1.0) for x in lower) + (gamma_lower,),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected by _monomial_image
        constant = float(_front_times_exp(p, _kernel_row(p, 2)[1]))
    return ClosedFormImage(kind, _monomial_image(p, 1.0, constant).coefficient, p.shift + 1.0, spec, s, a)
