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
univalence criteria in geometry read the same R. Only the Fox-Wright
Hadamard route to Theta keeps its own Gamma arithmetic, so that the two
Theta routes stay independent.

At tau == beta the operator degenerates to multiplication by z^gamma with
exactly unchanged coefficients, in floating point too: the kernel builds
its two Gamma arguments as c + beta and c + tau from one c, and
expressions of the form 1 - beta + tau are evaluated as 1 + (tau - beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .errors import DomainError, PoleHitError
from .series import PowerSeries
from .special import (
    POLE_GUARD,
    EvalOutcome,
    EvalStatus,
    FoxWrightSpec,
    MAX_TERMS_DEFAULT,
    _sum_terms,
    is_near_pole,
    log_gamma,
)


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
    indices; the result has the same shape. Both arguments are formed as
    c + beta and c + tau from c = (m + gamma (1 - beta))/(gamma + 1) >= 0,
    a sum of non-negative terms: no cancellation, even where
    X_m - beta + tau is as small as tau, and at tau = beta the two
    arguments coincide, so R is exactly 0.

    Raises PoleHitError naming the smallest argument if it lies below
    POLE_GUARD.
    """
    c = (np.asarray(m, dtype=np.float64) + p.gamma * (1.0 - p.beta)) / (p.gamma + 1.0)
    x, x_low = c + p.beta, c + p.tau
    if x_low.size and np.min(x_low) < POLE_GUARD:
        raise PoleHitError(float(np.min(x_low)))
    return loggamma(x) - loggamma(x_low)


def _front_times_exp(p: OperatorParams, s):
    """(gamma+1)^{beta-tau} Gamma(tau)/Gamma(beta) * exp(s), s scalar or array."""
    return (p.gamma + 1.0) ** (-p.diff) * np.exp(s + (log_gamma(p.tau) - log_gamma(p.beta)))


def monomial_transform(p: OperatorParams, upsilon: float) -> MonomialImage:
    """Closed-form image of the monomial z^upsilon.

    Returns coefficient (gamma+1)^{beta-tau} Gamma(X) Gamma(tau) /
    (Gamma(X - beta + tau) Gamma(beta)) with X = (upsilon+beta-1)/(gamma+1) + 1,
    and exponent (1 - beta + tau) * gamma + upsilon. Negative or non-finite
    upsilon, or one whose coefficient is not finite in float64, is
    rejected; non-integer upsilon >= 0 is allowed (the formula extends).
    """
    upsilon = float(upsilon)
    if not 0.0 <= upsilon < math.inf:
        raise DomainError(f"monomial power must be finite and >= 0, got {upsilon}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        coeff = float(_front_times_exp(p, log_gamma_ratio(p, upsilon)))
    if not math.isfinite(coeff):
        raise DomainError(f"monomial power {upsilon} gives a non-finite coefficient")
    return MonomialImage(coefficient=coeff, exponent=p.shift + upsilon)


@dataclass
class OperatorImage:
    """Operator image z^prefactor_power * series(z)."""

    prefactor_power: float
    series: PowerSeries

    def evaluate(self, z) -> complex:
        z = complex(z)
        if z == 0:
            # z^p -> 0 for p > 0; the p == 0 case degenerates to the series value.
            if self.prefactor_power == 0.0:
                return self.series.evaluate(z)
            return 0.0 + 0.0j
        return cmath.exp(self.prefactor_power * cmath.log(z)) * self.series.evaluate(z)

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
    Phi(1) at exactly 1.0.
    """
    g1 = p.gamma + 1.0
    b1 = p.beta / g1 + 1.0
    spec = FoxWrightSpec(
        upper=((1.0, 1.0), (b1, 1.0 / g1)),
        lower=((b1 + p.diff, 1.0 / g1),),
    )
    return math.exp(log_gamma(b1 + p.diff) - log_gamma(b1)), spec


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
    Only the Lerch-type input has s and a in params; the others sum with s = 0.
    """

    kind: str
    params: dict
    constant: float
    power: float
    fox_wright: FoxWrightSpec

    def inner_sum(self, z, max_terms: int = MAX_TERMS_DEFAULT) -> EvalOutcome:
        """Sum the normalized series at z through the one summation driver.

        The unit-weight rows advance by their ratio recurrence, z in each
        step, so no log-Gamma of size k log k and no Gamma of a stock
        parameter enters; the Gamma pair is one log-Gamma difference.
        """
        (*upper, (b, w)), (*lower, (b_low, _)) = self.fox_wright.upper, self.fox_wright.lower
        s, a = self.params.get("s", 0.0), self.params.get("a", 1.0)
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

        return _sum_terms(block, max_terms, abs(z) / self.fox_wright.radius)

    def evaluate(self, z, max_terms: int = MAX_TERMS_DEFAULT) -> complex:
        """Value at z; raises DomainError unless the inner sum is CONVERGED."""
        z = complex(z)
        out = self.inner_sum(z, max_terms)
        if out.status is not EvalStatus.CONVERGED:
            raise DomainError(
                f"closed-form series for {self.kind!r} did not converge at z={z} "
                f"(status {out.status.value})"
            )
        if z == 0:  # power = shift + 1 >= 1
            return 0j
        return self.constant * cmath.exp(self.power * cmath.log(z)) * out.value

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "constant": self.constant,
            "power": self.power,
            "fox_wright": self.fox_wright.to_json_dict(),
        }


def closed_form_spec(p: OperatorParams, kind: str, alpha: float | None = None,
                     lam: float | None = None, rho: float | None = None,
                     s: float | None = None, a: float | None = None) -> ClosedFormImage:
    """Closed-form image of a stock input under the operator.

    Supported kinds: 'koebe' (needs alpha >= 1), 'exp_times_z',
    'kummer' (alpha, lam), 'hurwitz_lerch' (alpha, lam, rho, s, a with
    a > 0, s > 0). Each input is z sum_k (upper)_k / ((lower)_k k!) z^k,
    times (k + a)^-s for the Lerch type: upper is (alpha) or (alpha, lam),
    lower is (lam) or (rho). The operator scales coefficient k by
    Gamma(1 + tau - beta) B(x_k, 1 + tau - beta) (x_k + tau - beta)
    = Gamma(1 + tau - beta) Gamma(x_k) / Gamma(x_k + tau - beta), with
    x_k = b1 + k/g1, so the image is the block [(upper, 1), (b1, 1/g1);
    (lower, 1), (b1 + tau - beta, 1/g1)] normalized to its k = 0 term,
    times the image coefficient of z. An upper parameter at a non-positive
    integer makes the input a polynomial, which the sum ends exactly; a
    lower one on a Gamma pole raises DomainError.
    """
    g1 = p.gamma + 1.0
    b1 = p.beta / g1 + 1.0

    def image(params, upper, lower):
        for x in lower:
            if is_near_pole(x):
                raise DomainError(f"{kind} denominator parameter {x} sits on a Gamma pole")
        spec = FoxWrightSpec(
            upper=tuple((x, 1.0) for x in upper) + ((b1, 1.0 / g1),),
            lower=tuple((x, 1.0) for x in lower) + ((b1 + p.diff, 1.0 / g1),),
        )
        return ClosedFormImage(kind, params, monomial_transform(p, 1.0).coefficient, p.shift + 1.0, spec)

    if kind == "koebe":
        if alpha is None or alpha < 1:
            raise DomainError("koebe closed form needs alpha >= 1")
        return image({"alpha": float(alpha)}, (float(alpha),), ())

    if kind == "exp_times_z":
        return image({}, (), ())

    if kind == "kummer":
        if alpha is None or lam is None:
            raise DomainError("kummer closed form needs alpha and lam")
        return image({"alpha": float(alpha), "lam": float(lam)}, (float(alpha),), (float(lam),))

    if kind == "hurwitz_lerch":
        if None in (alpha, lam, rho, s, a):
            raise DomainError("hurwitz_lerch closed form needs alpha, lam, rho, s, a")
        if not (0.0 < a < math.inf and 0.0 < s < math.inf):
            raise DomainError("hurwitz_lerch needs a finite shift a > 0 and exponent s > 0")
        params = {"alpha": float(alpha), "lam": float(lam), "rho": float(rho), "s": float(s), "a": float(a)}
        return image(params, (float(alpha), float(lam)), (float(rho),))

    raise DomainError(
        f"unknown closed form kind {kind!r}; choices: koebe, exp_times_z, kummer, hurwitz_lerch"
    )
