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
the parameters on every call. The outer derivative is taken under the
integral sign, from the companion integral of f'. The rule is fixed:
NODE_COUNT nodes and its doubling, with f and f' evaluated at the nodes
of both in one Horner pass. No node count is read from outside this
module, so a new rule edits this module only.

Gauss-Jacobi nodes are cached per (exponent pair, node count) in a
bounded LRU cache of NODE_CACHE_SIZE entries.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .fracdiff import OperatorParams, monomial_transform
from .series import PowerSeries, evaluate_many
from .special import log_gamma

SMALL_Z_CUTOFF = 1e-6

# oracle_eval evaluates at NODE_COUNT and 2 * NODE_COUNT nodes and raises if the
# two results differ by more than TOLERANCE. 1e-8 is the accuracy the route is
# asked to certify; in rough corners (gamma slightly off an integer leaves an
# unmatched algebraic endpoint correction) the 64-node doubling residual can
# reach a few 1e-9 even though the doubled value itself is much closer to the
# truth than that.
NODE_COUNT = 64
TOLERANCE = 1e-8

# Bound on cached node sets. A fresh-seed run_suites() adds about 100 keys,
# plus 20 fixture-suite keys that every call reuses.
NODE_CACHE_SIZE = 256


def roots_jacobi(n: int, a: float, b: float):
    """scipy.special.roots_jacobi, imported on the first call so that only the oracle loads SciPy.

    Each jacobi_nodes cache miss is one call here.
    """
    import scipy.special as sc

    return sc.roots_jacobi(n, a, b)


@functools.lru_cache(maxsize=NODE_CACHE_SIZE)
def jacobi_nodes(a: float, b: float, n: int):
    """Cached Gauss-Jacobi nodes/weights for weight (1-x)^a (1+x)^b on [-1, 1].

    Every caller shares the returned arrays, so they are read-only.
    """
    x, w = roots_jacobi(int(n), float(a), float(b))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _rule(p: OperatorParams, n: int):
    """Nodes u in (0, 1), weights and scale of inner_integral's rule on n nodes."""
    g1 = p.gamma + 1.0
    a = p.diff                      # alpha' = tau - beta
    b_sub = p.beta + p.gamma - 1.0  # exponent after the u-substitution
    x, wts = jacobi_nodes(a, b_sub, n)
    u = (x + 1.0) / 2.0
    scale = 0.5 ** (a + b_sub + 1.0) * g1
    log_u = np.log(u)
    if a == 0.0:
        q_pow = np.ones_like(u)
    else:
        q = np.expm1(g1 * log_u) / np.expm1(log_u)
        q_pow = q**a
    return u, wts * q_pow, scale


def _inner_integrals(p: OperatorParams, f: PowerSeries, z) -> list:
    """(inner_integral, its f' companion) on NODE_COUNT and on 2 * NODE_COUNT nodes.

    The companion has integrand factor w^{1/(gamma+1)} f'(z w^{1/(gamma+1)}),
    as needed for differentiating under the integral sign. f and f' are
    evaluated at the nodes of both rules, joined, in one evaluate_many pass.
    """
    rules = [_rule(p, n) for n in (NODE_COUNT, 2 * NODE_COUNT)]
    vals = evaluate_many([f, f.derivative()], complex(z) * np.concatenate([u for u, _, _ in rules]))
    return [(complex(scale * np.sum(base * v)), complex(scale * np.sum(base * u * dv)))
            for (u, base, scale), (v, dv) in zip(rules, np.split(vals, [NODE_COUNT], axis=1))]


def inner_integral(p: OperatorParams, f: PowerSeries, z) -> complex:
    """int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw by Gauss-Jacobi on NODE_COUNT nodes.

    With f identically 1 this is beta_fn(beta' + 1, alpha' + 1) exactly
    (the Beta-function reduction behind the monomial closed form).
    """
    return _inner_integrals(p, f, z)[0][0]


def _disk_point(z) -> complex:
    """z as a complex number, if it lies in the punctured unit disk where the integral route is used.

    z = 0 and |z| >= 1, or a non-finite z, raise DomainError.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("the integral route is undefined at z = 0")
    if not abs(z) < 1.0:
        raise DomainError(f"the integral route is only used inside the unit disk (|z| < 1), got z = {z}")
    return z


def _front_constant(p: OperatorParams) -> float:
    """(gamma+1)^{beta-tau} Gamma(tau) / (Gamma(beta) Gamma(1-beta+tau))."""
    s = log_gamma(p.tau) - log_gamma(p.beta) - log_gamma(1.0 + p.diff)
    return (p.gamma + 1.0) ** (-p.diff) * math.exp(s)


def _eval_doubling(p: OperatorParams, f: PowerSeries, z: complex) -> tuple:
    """The operator value at z on NODE_COUNT and on 2 * NODE_COUNT nodes."""
    g1 = p.gamma + 1.0
    big_p = p.gamma + p.beta + g1 * p.diff
    front = _front_constant(p)
    out = []
    for j0, j1 in _inner_integrals(p, f, z):
        g_prime = (
            big_p * cmath.exp((big_p - 1.0) * cmath.log(z)) * j0
            + cmath.exp(big_p * cmath.log(z)) * j1
        ) / g1
        out.append(front * cmath.exp((1.0 - p.tau) * cmath.log(z)) * g_prime)
    return tuple(out)


def oracle_eval(p: OperatorParams, f: PowerSeries, z) -> complex:
    """Operator value at z straight from the integral definition.

    Evaluates at NODE_COUNT and at twice that; if the two results
    differ by more than TOLERANCE a ConvergenceError is raised,
    otherwise the doubled-node value is returned. For |z| below
    SMALL_Z_CUTOFF the quadrature is skipped in favour of the leading
    series term (the outer z-powers amplify roundoff there).
    """
    z = _disk_point(z)
    if abs(z) < SMALL_Z_CUTOFF:
        nz = np.nonzero(np.abs(f.coeffs) > 0)[0]
        if nz.size == 0:
            return 0.0 + 0.0j
        m = int(nz[0])
        return complex(f.coeffs[m]) * monomial_transform(p, m).evaluate(z)

    r1, r2 = _eval_doubling(p, f, z)
    if not abs(r2 - r1) <= TOLERANCE:  # a nan residual fails too
        raise ConvergenceError(
            f"node doubling {NODE_COUNT} -> {2 * NODE_COUNT} moved the result "
            f"by {abs(r2 - r1):.3e} (> tolerance {TOLERANCE:.1e})",
            last=r2,
            previous=r1,
        )
    return r2
