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
univalence criteria in geometry read the same R. The kernel needs NumPy
alone: from c = X_m - beta = 16 up it sums the asymptotic expansion of a
ratio of Gamma functions (Tricomi & Erdelyi 1951; Fields 1966) from
hard-coded Bernoulli numbers, and below it takes math.gamma per element;
the front factor Gamma(tau)/Gamma(beta) is two math.lgamma calls. So
transform, criteria and bloch never import SciPy.

The Hadamard route to Theta and the closed forms read Theta's kernel rows
from theta_fox_wright_spec and keep their own Gamma arithmetic on
scipy.special.loggamma, imported inside the functions that use it, so the
two Theta routes, and the closed forms and the kernel, stay independent.

At tau == beta the operator degenerates to multiplication by z^gamma with
exactly unchanged coefficients, in floating point too: both forms of the
kernel give R == 0 exactly there (the expansion's coefficients are odd in
beta - tau, and math.gamma sees c + beta == c + tau), and expressions of
the form 1 - beta + tau are evaluated as 1 + (tau - beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleHitError
from .series import STOCK_INPUTS, PowerSeries, stock_rows
from .special import (
    POLE_GUARD,
    EvalOutcome,
    EvalStatus,
    FoxWrightSpec,
    MAX_TERMS_DEFAULT,
    _sum_terms,
    log_gamma,
)

# At c >= _SWITCH the kernel sums _RATIO_TERMS terms of the Gamma-ratio expansion
# in w^-2, where the first term left out is below 1e-18 of R; a call of at most
# _FEW_INDICES indices runs on plain floats while every c lies below _SWITCH.
_SWITCH = 16.0
_RATIO_TERMS = 6
_FEW_INDICES = 32
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
    R = log Gamma(c + a) - log Gamma(c + b), evaluated per element the same
    way whatever the call's size:
    - for c >= _SWITCH (16), from the expansion of a ratio of Gamma
      functions (Tricomi & Erdelyi 1951; Fields 1966), centred at
      w = c + (a + b - 1)/2 so that only even powers of 1/w appear:
        R = (a - b) log w - sum_{j=1..6} 2 B_{2j+1}(1/2 + sigma) / (2j (2j+1) w^{2j}),
      sigma = (a - b)/2, B_n the Bernoulli polynomials. The coefficients
      come from hard-coded Bernoulli numbers by one small matrix-vector
      product. No argument of size c log c is formed, so R stays within a
      few ulps of max(1, |R|) up to any index;
    - below _SWITCH, as log(Gamma(c + a)/Gamma(c + b)) from math.gamma,
      within about 40 ulps of max(1, |R|): c + a and c + b are rounded.
    NumPy and the math module are the only dependencies: no SciPy.
    At tau = beta both forms give R == 0 exactly, so tau = beta leaves
    coefficients bit-identical and Phi(1) = exp(R(1) - R(1)) == 1.0.
    Raises PoleHitError naming the smallest argument c + tau if it lies
    below POLE_GUARD.
    """
    m = np.asarray(m, dtype=np.float64)
    a, b, s, g1 = p.beta, p.tau, p.gamma * (1.0 - p.beta), p.gamma + 1.0
    if m.size <= _FEW_INDICES:
        # plain floats: cheaper than numpy calls on the many tiny arrays of the verify suites
        ks = m.ravel().tolist()
        low = (min(ks, default=0.0) + s) / g1 + b  # c grows with m
        if low < POLE_GUARD:
            raise PoleHitError(low)
        if (max(ks, default=0.0) + s) / g1 < _SWITCH:
            return np.array(_ratio_below_switch([(k + s) / g1 for k in ks], a, b)).reshape(m.shape)
    c = (m.ravel() + s) / g1
    low = float(np.min(c)) + b
    if low < POLE_GUARD:
        raise PoleHitError(low)
    r = _ratio_expansion(np.maximum(c, _SWITCH), a, b)  # the elements below are redone next
    below = np.flatnonzero(c < _SWITCH)
    if below.size:
        r[below] = _ratio_below_switch(c[below].tolist(), a, b)
    return r.reshape(m.shape)


def _ratio_below_switch(cs: list, a: float, b: float) -> list:
    """log(Gamma(c + a)/Gamma(c + b)) for each c < _SWITCH: both Gammas stay below 2.1e13."""
    return [math.log(math.gamma(c + a) / math.gamma(c + b)) for c in cs]


def _ratio_expansion(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """The expansion of log Gamma(c + a) - log Gamma(c + b) over an array c >= _SWITCH."""
    sigma = 0.5 * (a - b)
    # odd in sigma, so every coefficient is exactly 0 at a = b
    coeffs = (_BERNOULLI_ROWS @ (sigma * (sigma * sigma) ** _SIGMA_POWERS)).tolist()
    w = c + 0.5 * (a + b - 1.0)
    u = 1.0 / (w * w)
    r = coeffs[-1] * u
    for x in reversed(coeffs[:-1]):
        r += x
        r *= u
    r += (a - b) * np.log(w)
    return r


def _front_times_exp(p: OperatorParams, s):
    """(gamma+1)^{beta-tau} Gamma(tau)/Gamma(beta) * exp(s), s scalar or array."""
    return (p.gamma + 1.0) ** (-p.diff) * np.exp(s + (math.lgamma(p.tau) - math.lgamma(p.beta)))


def monomial_transform(p: OperatorParams, upsilon: float) -> MonomialImage:
    """Closed-form image of the monomial z^upsilon.

    Returns coefficient (gamma+1)^{beta-tau} Gamma(X) Gamma(tau) /
    (Gamma(X - beta + tau) Gamma(beta)) with X = (upsilon+beta-1)/(gamma+1) + 1,
    and exponent (1 - beta + tau) * gamma + upsilon. Negative or non-finite
    upsilon, or one whose coefficient or exponent is not finite in float64,
    is rejected; non-integer upsilon >= 0 is allowed (the formula extends).
    """
    upsilon = float(upsilon)
    if not 0.0 <= upsilon < math.inf:
        raise DomainError(f"monomial power must be finite and >= 0, got {upsilon}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        coeff = float(_front_times_exp(p, log_gamma_ratio(p, upsilon)))
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
        return np.array([self._times_prefactor(w, s)
                         for w, s in zip(z.tolist(), self.series.evaluate(z).tolist())])

    def _times_prefactor(self, z: complex, value: complex) -> complex:
        if z == 0:
            # z^p -> 0 for p > 0; the p == 0 case degenerates to the series value.
            return value if self.prefactor_power == 0.0 else 0.0 + 0.0j
        return cmath.exp(self.prefactor_power * cmath.log(z)) * value

    def to_json_dict(self) -> dict:
        return {
            "prefactor_power": self.prefactor_power,
            "coefficients": [[c.real, c.imag] for c in self.series.coeffs],
            "order": self.series.order,
        }


def apply_operator(p: OperatorParams, f: PowerSeries) -> OperatorImage:
    """Apply the operator termwise to a truncated series.

    Each monomial c_u z^u maps to c_u * C(u) z^{shift + u}; the common
    prefactor z^shift is represented once and the scaled coefficients
    stay inside the PowerSeries algebra.
    """
    coeffs = f.coeffs * _front_times_exp(p, log_gamma_ratio(p, np.arange(f.coeffs.size)))
    return OperatorImage(prefactor_power=p.shift, series=PowerSeries(coeffs))


# ---------------------------------------------------------------------------
# Normalized operator Theta: multiplier sequence Phi
# ---------------------------------------------------------------------------


def theta_front_constant(p: OperatorParams) -> float:
    """Gamma(beta/(gamma+1) + 1 - beta + tau) / Gamma(beta/(gamma+1) + 1) = exp(-R(1)).

    This is Phi(1)'s normalizer; multiplying the raw Gamma-ratio sequence
    by it pins the kappa = 1 multiplier at exactly 1.
    """
    return math.exp(-log_gamma_ratio(p, 1.0))


def phi_multiplier(p: OperatorParams, kappa: int) -> float:
    """Normalized multiplier Phi(kappa) = exp(R(kappa) - R(1)), kappa >= 1.

    Phi(1) == 1.0 exactly, and so is every Phi(kappa) at tau = beta.
    """
    if kappa < 1 or kappa != int(kappa):
        raise DomainError(f"multiplier index must be an integer >= 1, got {kappa!r}")
    r = log_gamma_ratio(p, [1.0, kappa])
    return math.exp(r[1] - r[0])


def theta_multiplier_apply(p: OperatorParams, f: PowerSeries) -> PowerSeries:
    """Apply the Theta multiplier a_k -> Phi(k) a_k linearly (k >= 1).

    Requires a vanishing constant term but not full normalization, so it
    also serves non-normalized test families like z^n / n.
    """
    if abs(f.coeffs[0]) > 1e-12:
        raise DomainError("Theta needs a series with zero constant term")
    coeffs = f.coeffs.copy()
    coeffs[0] = 0.0
    r = log_gamma_ratio(p, np.arange(1, coeffs.size))
    if r.size:
        coeffs[1:] *= np.exp(r - r[0])
    return PowerSeries(coeffs)


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
    Phi(1) at exactly 1.0. The Gamma rows b1 = c1 + beta and
    b1 + tau - beta = c1 + tau are formed from the kernel's c1 = c(1), never
    from a rounded tau - beta, so the lower row stays >= tau >= POLE_GUARD
    and coincides with the upper one at tau = beta. The constant is
    computed by special.log_gamma (SciPy), not by the kernel.
    """
    g1 = p.gamma + 1.0
    c1 = (1.0 + p.gamma * (1.0 - p.beta)) / g1  # the kernel's c at m = 1
    b1, b1_low = c1 + p.beta, c1 + p.tau
    spec = FoxWrightSpec(upper=((1.0, 1.0), (b1, 1.0 / g1)), lower=((b1_low, 1.0 / g1),))
    return math.exp(log_gamma(b1_low) - log_gamma(b1)), spec


def theta_hadamard(p: OperatorParams, f: PowerSeries) -> PowerSeries:
    """Theta image computed through the Fox-Wright Hadamard kernel.

    Independent route used to cross-check theta_normalize: coefficient
    kappa of the image is constant * kernel(kappa-1) * a_kappa, with the
    kernel read from spec.log_coefficients, not from log_gamma_ratio.
    """
    if abs(f.coeffs[0]) > 1e-12:
        raise DomainError("Theta needs a series with zero constant term")
    constant, spec = theta_fox_wright_spec(p)
    coeffs = f.coeffs.copy()
    coeffs[0] = 0.0
    coeffs[1:] = coeffs[1:] * constant * np.exp(spec.log_coefficients(np.arange(coeffs.size - 1)))
    return PowerSeries(coeffs)


# ---------------------------------------------------------------------------
# Closed-form images of the stock inputs
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormImage:
    """Closed-form operator image constant * z^power * sum_k (c_k / c_0) (k + a)^-s z^k.

    c_k are the coefficients of the Fox-Wright block fox_wright: unit-weight
    rows from the stock input, then the operator's Gamma pair (b1, 1/g1),
    (b1 + tau - beta, 1/g1). constant is the image coefficient of z^power.
    s and a are the stock input's, read from series.stock_rows(kind, **params).
    """

    kind: str
    params: dict
    constant: float
    power: float
    fox_wright: FoxWrightSpec

    def inner_sum(self, z) -> EvalOutcome:
        """Sum the normalized series at z through the one summation driver.

        At most MAX_TERMS_DEFAULT terms are summed. The unit-weight rows
        advance by their ratio recurrence, z in each step, so no log-Gamma
        of size k log k and no Gamma of a stock parameter enters; the Gamma
        pair is one log-Gamma difference.
        """
        (*upper, (b, w)), (*lower, (b_low, _)) = self.fox_wright.upper, self.fox_wright.lower
        _, _, s, a = stock_rows(self.kind, **self.params)
        from scipy.special import loggamma

        z = complex(z)
        pair_0 = loggamma(b) - loggamma(b_low)

        def block(k):
            k = k if z else k[:1]  # z = 0: the exact one-term sum
            j = np.arange(k[-1])
            with np.errstate(over="ignore", invalid="ignore"):  # the driver stops at an overflow
                step = z / (j + 1.0)
                for x, _ in upper:
                    step *= x + j
                for x, _ in lower:
                    step /= x + j
                h = np.cumprod(np.concatenate(([1.0], step)))[k.astype(np.intp)]
                pair = loggamma(b + k * w) - loggamma(b_low + k * w) - pair_0
                return h * np.exp(pair - s * np.log(k + a))

        return _sum_terms(block, MAX_TERMS_DEFAULT, abs(z) / self.fox_wright.radius)

    def evaluate(self, z) -> complex:
        """Value at z; raises DomainError unless the inner sum is CONVERGED."""
        z = complex(z)
        out = self.inner_sum(z)
        if out.status is not EvalStatus.CONVERGED:
            raise DomainError(
                f"closed-form series for {self.kind!r} did not converge at z={z} "
                f"(status {out.status.value})"
            )
        if z == 0:  # power = shift + 1 >= 1
            return 0j
        return self.constant * cmath.exp(self.power * cmath.log(z)) * out.value


def closed_form_spec(p: OperatorParams, kind: str, **params) -> ClosedFormImage:
    """Closed-form image of a stock input under the operator.

    kind and params are those of series.make_builtin and are checked by
    the same series.stock_rows. Each input is
    z sum_k prod (upper)_k / (prod (lower)_k k!) (k + a)^-s z^k. The
    operator scales coefficient k by
    Gamma(1 + tau - beta) B(x_k, 1 + tau - beta) (x_k + tau - beta)
    = Gamma(1 + tau - beta) Gamma(x_k) / Gamma(x_k + tau - beta), with
    x_k = b1 + k/g1, so the image is the block [(upper, 1), (b1, 1/g1);
    (lower, 1), (b1 + tau - beta, 1/g1)], the Gamma pair read from
    theta_fox_wright_spec, normalized to its k = 0 term, times the image
    coefficient of z. An upper parameter at a non-positive integer makes
    the input a polynomial, which the sum ends exactly.
    """
    upper, lower, _, _ = stock_rows(kind, **params)
    _, kernel = theta_fox_wright_spec(p)
    spec = FoxWrightSpec(
        upper=tuple((x, 1.0) for x in upper) + kernel.upper[1:],
        lower=tuple((x, 1.0) for x in lower) + kernel.lower,
    )
    names, _ = STOCK_INPUTS[kind]
    return ClosedFormImage(kind, {name: float(params[name]) for name in names},
                           monomial_transform(p, 1.0).coefficient, p.shift + 1.0, spec)
