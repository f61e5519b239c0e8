"""Independent quadrature evaluation of the operator from its integral form.

The operator value at z is recovered without any coefficient formula:
the defining singular integral is reduced (by the substitution
w = (zeta/z)^{gamma+1}) to

    G(z) = z^P / (gamma+1) * I(z),
    I(z) = int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw,

with P = gamma (1 - beta) + (gamma+1) tau, alpha' = tau - beta and
beta' = (beta-1)/(gamma+1), followed by the outer z^{1-tau} d/dz and the
Gamma-function front constant. The derivative is taken under the integral
sign, from the companion integral I' of f', and since P - tau = shift =
gamma (1 - beta + tau),

    z^{1-tau} d/dz [z^P I(z)] = z^shift (P I(z) + z I'(z)).

Internally I(z) is pushed through one more substitution u = w^{1/(gamma+1)}:

    I(z) = (gamma+1) int_0^1 (1-u)^{a1-1} u^{b1-1} q(u)^{alpha'} f(z u) du,
    q(u) = (1 - u^{gamma+1}) / (1 - u),

with the exponent pair plus one (a1, b1) = ((1 - beta) + tau, beta + gamma).
This keeps the integrand factor q^{alpha'} smooth uniformly in gamma (the
plain w-form converges slowly for non-integer gamma because
f(z w^{1/(gamma+1)}) has a branch point at w = 0). The pair is derived
from the parameters on every call, each sum formed so that it is exact at
beta = 1 and tau near 0. The rule is fixed: NODE_COUNT nodes and its
doubling. No node count is read from outside this module, so a new rule
edits this module only.

f is a polynomial, so each rule's sum is reordered exactly into the rule's
moments M_k = sum_j w_j u_j^k (the weights w_j carrying (gamma+1) q^{alpha'}):

    sum_j w_j f(z u_j)        = sum_k c_k z^k M_k,
    sum_j w_j u_j f'(z u_j)   = sum_k k c_k z^(k-1) M_k,

the f' sum reading the same moments shifted by one. The moments come a
chunk of indices at a time from two small tables of node powers, so a
rule costs a fixed number of NumPy calls per chunk, with no loop over
the coefficients and no table that grows as nodes x order.

The Gauss-Jacobi rule lives on [0, 1] itself: its nodes are the
eigenvalues of the Jacobi matrix of the weight (1-u)^{a1-1} u^{b1-1}, and
its weights are B(a1, b1) times the squared first components of the
eigenvectors (Golub & Welsch, Math. Comp. 23, 1969), through
scipy.linalg.eigh_tridiagonal. No power of 2 maps it from [-1, 1], so it
stays finite for gamma in the thousands and accurate as an exponent nears
-1. Outside this module SciPy is imported only for a complex or
non-positive Gamma argument. The nodes are cached per (exponent pair,
node count) in a bounded LRU cache of NODE_CACHE_SIZE entries.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .fracdiff import OperatorParams, monomial_transform
from .series import PowerSeries
from .special import beta_fn, log_gamma

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

# _moments forms u^k as u^(16a) u^b with b < _POWER_ROWS and takes _MOMENT_CHUNK
# indices k (64 values of a) at a time, so its power tables hold at most
# 64 x 2 * NODE_COUNT float64 (64 KiB), never a nodes x order table.
_POWER_ROWS = 16
_MOMENT_CHUNK = 1024


def roots_jacobi(n: int, a1: float, b1: float):
    """Gauss-Jacobi nodes (ascending) in (0, 1) and weights for the weight (1-u)^(a1-1) u^(b1-1), a1, b1 > 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi recurrence with a = a1 - 1, b = b1 - 1,
    carried from [-1, 1] to [0, 1] by u = (1 + x)/2, and node i has weight
    B(a1, b1) v_0i^2, with v_i its unit eigenvector. scipy.linalg is
    imported here, so that only the oracle loads it. Each jacobi_nodes
    cache miss is one call here.
    """
    from scipy.linalg import eigh_tridiagonal

    k = np.arange(1.0, n)
    ab = (a1 + b1) - 2.0
    s = 2.0 * k + ab
    diag = np.append((b1 - a1) / (a1 + b1), (b1 - a1) * ab / (s * (s + 2.0)))
    # (k + a + b) / (s - 1) is 1 at k = 1, set by hand: at a + b = -1 it would be 0/0
    ratio = np.ones_like(k)
    ratio[1:] = (k[1:] + ab) / (s[1:] - 1.0)
    # k + a and k + b as (k - 1) + a1 and (k - 1) + b1: exact at k = 1 however small a1 or b1
    off_sq = 4.0 * k * ((k - 1.0) + a1) * ((k - 1.0) + b1) * ratio / (s * s * (s + 1.0))
    u, v = eigh_tridiagonal(0.5 + 0.5 * diag, 0.5 * np.sqrt(off_sq))
    return u, beta_fn(a1, b1) * v[0] ** 2


@functools.lru_cache(maxsize=NODE_CACHE_SIZE)
def jacobi_nodes(a1: float, b1: float, n: int):
    """Cached Gauss-Jacobi nodes/weights for weight (1-u)^(a1-1) u^(b1-1) on [0, 1].

    Every caller shares the returned arrays, so they are read-only.
    """
    u, w = roots_jacobi(int(n), float(a1), float(b1))
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _rule(p: OperatorParams, n: int):
    """Nodes u in (0, 1) and weights of inner_integral's rule on n nodes, (gamma+1) q(u)^{alpha'} folded in."""
    g1 = p.gamma + 1.0
    u, wts = jacobi_nodes((1.0 - p.beta) + p.tau, p.beta + p.gamma, n)
    if p.tau == p.beta:  # q^0 = 1; q itself is 0/0 at a node that rounds to u = 1
        return u, g1 * wts
    log_u = np.log(u)
    q = np.expm1(g1 * log_u) / np.expm1(log_u)
    return u, g1 * wts * q**p.diff


def _moments(u, wts, order: int) -> np.ndarray:
    """The rule's moments M_k = sum_j wts_j u_j^k for k = 0..order.

    Each u^k is u^(16a) u^b with b < _POWER_ROWS, both factors exp(k log u),
    so a block of moments is one einsum over the nodes of two small power
    tables, _MOMENT_CHUNK indices at a time. einsum without optimize sums
    in NumPy's own loops, never BLAS, so the bits do not depend on the BLAS
    build or its thread count.
    """
    log_u = np.log(u)
    low = np.exp(np.arange(_POWER_ROWS)[:, None] * log_u)
    out = np.empty(order + _POWER_ROWS)
    for start in range(0, order + 1, _MOMENT_CHUNK):
        k = np.arange(start, min(start + _MOMENT_CHUNK, order + 1), _POWER_ROWS)
        block = np.einsum("aj,bj->ab", wts * np.exp(k[:, None] * log_u), low)
        out[start:start + block.size] = block.reshape(-1)
    return out[:order + 1]


def _moment_sums(p: OperatorParams, n: int, terms: np.ndarray) -> np.ndarray:
    """sum_k M_k terms[k] for each complex column of terms, with M the moments of _rule(p, n)."""
    m = _moments(*_rule(p, n), terms.shape[0] - 1)
    return np.einsum("k,kc->c", m, terms.view(np.float64)).view(np.complex128)


def _z_powers(z: complex, order: int) -> np.ndarray:
    """z^0 .. z^order as one running product."""
    zk = np.full(order + 1, z, dtype=np.complex128)
    zk[0] = 1.0
    return np.multiply.accumulate(zk, out=zk)


def _inner_integrals(p: OperatorParams, f: PowerSeries, z) -> list:
    """(inner_integral, its f' companion) on NODE_COUNT and on 2 * NODE_COUNT nodes.

    The companion has integrand factor w^{1/(gamma+1)} f'(z w^{1/(gamma+1)}),
    as needed for differentiating under the integral sign. Both come from
    the rule's moments M_k: sum_j wts_j f(z u_j) = sum_k c_k z^k M_k and
    sum_j wts_j u_j f'(z u_j) = sum_k k c_k z^(k-1) M_k, one einsum per rule
    for the pair.
    """
    c = f.coeffs
    zk = _z_powers(complex(z), f.order)
    terms = np.zeros((c.size, 2), dtype=np.complex128)
    np.multiply(c, zk, out=terms[:, 0])
    terms[1:, 1] = np.arange(1, c.size) * c[1:] * zk[:-1]
    return [tuple(complex(s) for s in _moment_sums(p, n, terms)) for n in (NODE_COUNT, 2 * NODE_COUNT)]


def inner_integral(p: OperatorParams, f: PowerSeries, z) -> complex:
    """int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw by Gauss-Jacobi on NODE_COUNT nodes.

    With f identically 1 this is beta_fn(beta' + 1, alpha' + 1) exactly
    (the Beta-function reduction behind the monomial closed form).
    """
    terms = f.coeffs * _z_powers(complex(z), f.order)
    return complex(_moment_sums(p, NODE_COUNT, terms[:, None])[0])


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
    s = log_gamma(p.tau) - log_gamma(p.beta) - log_gamma((1.0 - p.beta) + p.tau)
    return (p.gamma + 1.0) ** (-p.diff) * math.exp(s)


def _eval_doubling(p: OperatorParams, f: PowerSeries, z: complex) -> tuple:
    """The operator value z^shift front/(gamma+1) (P I + z I') on NODE_COUNT and on 2 * NODE_COUNT nodes."""
    big_p = p.gamma * (1.0 - p.beta) + (p.gamma + 1.0) * p.tau
    outer = _front_constant(p) / (p.gamma + 1.0) * cmath.exp(p.shift * cmath.log(z))
    return tuple(outer * (big_p * j0 + z * j1) for j0, j1 in _inner_integrals(p, f, z))


def oracle_eval(p: OperatorParams, f: PowerSeries, z) -> complex:
    """Operator value at z straight from the integral definition.

    Evaluates at NODE_COUNT and at twice that, each integral summed from
    its rule's moments and f's coefficients; if the two results
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
