"""Independent quadrature evaluation of the operator from its integral form.

The operator value at z is recovered without any coefficient formula:
the defining singular integral is reduced (by the substitution
w = (zeta/z)^{gamma+1}) to

    G(z) = z^P / (gamma+1) * I(z),
    I(z) = int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw,

with P = gamma + beta + (gamma+1)(tau - beta), alpha' = tau - beta and
beta' = (beta-1)/(gamma+1), followed by the outer z^{1-tau} d/dz and the
Gamma-function front constant. Both endpoint exponents are known, so the
integral is a natural fit for Gauss-Jacobi quadrature.

Internally I(z) is pushed through one more substitution u = w^{1/(gamma+1)}:

    I(z) = (gamma+1) int_0^1 u^{beta+gamma-1} (1-u)^{alpha'} q(u)^{alpha'} f(z u) du,
    q(u) = (1 - u^{gamma+1}) / (1 - u),

which keeps the integrand factor q^{alpha'} smooth uniformly in gamma
(the plain w-form converges slowly for non-integer gamma because
f(z w^{1/(gamma+1)}) has a branch point at w = 0). The Jacobi weight pair
actually used is therefore (alpha', beta + gamma - 1); it is derived from
the parameters on every call, so QuadratureConfig carries only the node
count and the doubling tolerance. The outer derivative is taken under the
integral sign, from the companion integral of f'.

Gauss-Jacobi nodes are cached per (exponent pair, node count) in a
bounded LRU cache of NODE_CACHE_SIZE entries.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import ConvergenceError, DomainError
from .fracdiff import OperatorParams, monomial_transform
from .series import PowerSeries
from .special import log_gamma

SMALL_Z_CUTOFF = 1e-6

# Bound on cached node sets. A fresh-seed run_suites() adds about 100 keys,
# plus 20 fixture-suite keys that every call reuses.
NODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=NODE_CACHE_SIZE)
def jacobi_nodes(a: float, b: float, n: int):
    """Cached Gauss-Jacobi nodes/weights for weight (1-x)^a (1+x)^b on [-1, 1].

    Every caller shares the returned arrays, so they are read-only.
    """
    x, w = roots_jacobi(int(n), float(a), float(b))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature settings for the integral route.

    tolerance gates the node-doubling self-check |result(2n) - result(n)|.
    The 1e-8 default matches the accuracy the route is asked to certify;
    in rough corners (gamma slightly off an integer leaves an unmatched
    algebraic endpoint correction) the 64-node doubling residual can
    reach a few 1e-9 even though the doubled value itself is much closer
    to the truth than that.
    """

    node_count: int = 64
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.node_count < 8:
            raise DomainError(f"node_count must be >= 8, got {self.node_count}")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")


def inner_integral(p: OperatorParams, f: PowerSeries, z, cfg: QuadratureConfig,
                   with_derivative: bool = False):
    """int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw by Gauss-Jacobi.

    With f identically 1 this is beta_fn(beta' + 1, alpha' + 1) exactly
    (the Beta-function reduction behind the monomial closed form). When
    with_derivative is set, also returns the companion integral with
    integrand factor w^{1/(gamma+1)} f'(z w^{1/(gamma+1)}), as needed for
    differentiating under the integral sign.
    """
    g1 = p.gamma + 1.0
    a = p.diff                      # alpha' = tau - beta
    b_sub = p.beta + p.gamma - 1.0  # exponent after the u-substitution
    x, wts = jacobi_nodes(a, b_sub, cfg.node_count)
    u = (x + 1.0) / 2.0
    scale = 0.5 ** (a + b_sub + 1.0) * g1
    log_u = np.log(u)
    if a == 0.0:
        q_pow = np.ones_like(u)
    else:
        q = np.expm1(g1 * log_u) / np.expm1(log_u)
        q_pow = q**a
    zu = complex(z) * u
    base = wts * q_pow
    j0 = scale * np.sum(base * f.evaluate(zu))
    if not with_derivative:
        return complex(j0)
    j1 = scale * np.sum(base * u * f.derivative().evaluate(zu))
    return complex(j0), complex(j1)


def _front_constant(p: OperatorParams) -> float:
    """(gamma+1)^{beta-tau} Gamma(tau) / (Gamma(beta) Gamma(1-beta+tau))."""
    s = log_gamma(p.tau) - log_gamma(p.beta) - log_gamma(1.0 + p.diff)
    return (p.gamma + 1.0) ** (-p.diff) * math.exp(s)


def _eval_once(p: OperatorParams, f: PowerSeries, z: complex, cfg: QuadratureConfig) -> complex:
    g1 = p.gamma + 1.0
    big_p = p.gamma + p.beta + g1 * p.diff
    j0, j1 = inner_integral(p, f, z, cfg, with_derivative=True)
    g_prime = (
        big_p * cmath.exp((big_p - 1.0) * cmath.log(z)) * j0
        + cmath.exp(big_p * cmath.log(z)) * j1
    ) / g1
    return _front_constant(p) * cmath.exp((1.0 - p.tau) * cmath.log(z)) * g_prime


def oracle_eval(p: OperatorParams, f: PowerSeries, z, cfg: QuadratureConfig | None = None) -> complex:
    """Operator value at z straight from the integral definition.

    Evaluates at cfg.node_count and at twice that; if the two results
    differ by more than cfg.tolerance a ConvergenceError is raised,
    otherwise the doubled-node value is returned. For |z| below
    SMALL_Z_CUTOFF the quadrature is skipped in favour of the leading
    series term (the outer z-powers amplify roundoff there).
    """
    if cfg is None:
        cfg = QuadratureConfig()
    z = complex(z)
    if z == 0:
        raise DomainError("the integral route is undefined at z = 0")
    if abs(z) >= 1.0:
        raise DomainError("the integral route is only used inside the unit disk (|z| < 1)")

    if abs(z) < SMALL_Z_CUTOFF:
        nz = np.nonzero(np.abs(f.coeffs) > 0)[0]
        if nz.size == 0:
            return 0.0 + 0.0j
        m = int(nz[0])
        return complex(f.coeffs[m]) * monomial_transform(p, m).evaluate(z)

    r1 = _eval_once(p, f, z, cfg)
    r2 = _eval_once(p, f, z, dataclasses.replace(cfg, node_count=2 * cfg.node_count))
    if abs(r2 - r1) > cfg.tolerance:
        raise ConvergenceError(
            f"node doubling {cfg.node_count} -> {2 * cfg.node_count} moved the result "
            f"by {abs(r2 - r1):.3e} (> tolerance {cfg.tolerance:.1e})",
            last=r2,
            previous=r1,
        )
    return r2
