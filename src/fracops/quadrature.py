"""Independent quadrature evaluation of the operator from its integral form.

The operator value at z is recovered without any coefficient formula:
the defining singular integral is reduced (by the substitution
w = (zeta/z)^{gamma+1}) to

    G(z) = z^P / (gamma+1) * I(z),
    I(z) = int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw,

with P = gamma (1 - beta) + (gamma+1) tau, alpha' = tau - beta and
beta' = (beta-1)/(gamma+1), both exponents in (-1, 0], followed by the
outer z^{1-tau} d/dz and the Gamma-function front constant. The
derivative is taken under the integral sign, from the companion integral
I' of f', and since P - tau = shift = gamma (1 - beta + tau),

    z^{1-tau} d/dz [z^P I(z)] = z^shift (P I(z) + z I'(z)).

I(z) is taken in this w-form by a compound rule on a mesh of [0, 1]
graded toward both endpoint singularities (Davis & Rabinowitz, Methods
of Numerical Integration, 1984, ch. 2):

- a bottom panel [0, s], s = SIGMA^GEOMETRIC / 2, by Gauss-Jacobi for
  the weight w^{beta'};
- GEOMETRIC panels [s_{i+1}, s_i], s_i = SIGMA^i / 2, up to 1/2, then
  panels [1 - 2^-j, 1 - 2^-(j+1)] that halve their distance to 1 up to
  1 - 2^-HALVING, all by Gauss-Legendre;
- a top panel [1 - 2^-HALVING, 1], by Gauss-Jacobi for the weight
  (1-w)^{alpha'}.

Each panel's other endpoint factor is evaluated at its nodes. The
geometric panels resolve the branch point of f(z w^{1/(gamma+1)}) at
w = 0 for every gamma, and the halving panels the steep w^{k/(gamma+1)}
of high-order inputs near w = 1. The mesh and NODE_COUNT, the nodes per
panel, are fixed, and the rule is checked against its doubling; nothing
outside this module reads them, so a new rule edits this module only.
The rule is handed on in u = w^{1/(gamma+1)}: nodes u_j and weights W_j
with I(z) = sum_j W_j f(z u_j).

f is a polynomial, so each rule's sum is reordered exactly into the rule's
moments M_k = sum_j W_j u_j^k:

    sum_j W_j f(z u_j)        = sum_k c_k z^k M_k,
    sum_j W_j u_j f'(z u_j)   = sum_k k c_k z^(k-1) M_k,

the f' sum reading the same moments shifted by one. The moments come a
chunk of indices at a time from two small tables of node powers, so a
rule costs a fixed number of NumPy calls per chunk, with no loop over
the coefficients and no table that grows as nodes x order.

Each panel's Gauss rule lives on [0, 1] itself: its nodes are the
eigenvalues of the Jacobi matrix of the weight (1-x)^{a1-1} x^{b1-1}, and
its weights are B(a1, b1) times the squared first components of the
eigenvectors (Golub & Welsch, Math. Comp. 23, 1969), through
numpy.linalg.eigh. No power of 2 maps it from [-1, 1]. The end panels'
exponents plus one are formed so that they are exact at beta = 1 and
tau near 0: a1 = (1 - beta) + tau on top and b1 = (beta + gamma) /
(gamma + 1) at the bottom. Panel rules are cached per (exponent pair,
node count) in a bounded LRU cache of NODE_CACHE_SIZE entries, and the
assembled rules per (parameters, node count) in one of RULE_CACHE_SIZE;
the Legendre panels are built on first use. The oracle imports no SciPy.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError
from .fracdiff import OperatorParams, monomial_transform
from .series import PowerSeries
from .special import beta_fn, log_gamma

SMALL_Z_CUTOFF = 1e-6

# oracle_eval evaluates on NODE_COUNT and 2 * NODE_COUNT nodes per panel and
# raises if the two results differ by more than TOLERANCE plus the roundoff
# allowance ROUNDOFF_ULPS eps S, with S = |outer| sum_k |c_k z^k| (P + k) M_k
# the size of the terms the refined value sums. 1e-8 is the accuracy the
# route is asked to certify; the allowance takes over once S passes about
# 1e6, as at tau = 1e-9, where values near 1e9 round by more than 1e-8. At
# those corners the residual is up to 4.5 eps S.
NODE_COUNT = 16
TOLERANCE = 1e-8
ROUNDOFF_ULPS = 64

# The mesh: SIGMA, GEOMETRIC and HALVING as in the module docstring, so
# GEOMETRIC + HALVING + 1 = 20 panels (320 nodes, 640 doubled).
SIGMA = 0.15
GEOMETRIC = 14
HALVING = 5

# Bound on cached panel rules: a fresh parameter triple adds four (two end
# panels at two node counts), the Legendre panels two in all.
NODE_CACHE_SIZE = 256
# Bound on assembled rules (at most 640 nodes, 10 KiB each). A fresh-seed
# run_suites() adds about 100 keys, plus 20 fixture-suite keys that every
# call reuses.
RULE_CACHE_SIZE = 256

# _moments forms u^k as u^(16a) u^b with b < _POWER_ROWS and takes _MOMENT_CHUNK
# indices k (64 values of a) at a time, so its power tables hold at most
# 64 + 16 rows of 2 * NODE_COUNT * 20 float64 (400 KiB), never a nodes x
# order table; below order 15 they hold order + 2 rows.
_POWER_ROWS = 16
_MOMENT_CHUNK = 1024


def roots_jacobi(n: int, a1: float, b1: float):
    """Gauss-Jacobi nodes (ascending) in (0, 1) and weights for the weight (1-u)^(a1-1) u^(b1-1), a1, b1 > 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi recurrence with a = a1 - 1, b = b1 - 1,
    carried from [-1, 1] to [0, 1] by u = (1 + x)/2, and node i has weight
    B(a1, b1) v_0i^2, with v_i its unit eigenvector. numpy.linalg.eigh
    solves the dense matrix (its lower triangle); at the panel rules' 16
    and 32 nodes that is as fast as a tridiagonal solver. Each
    jacobi_nodes cache miss is one call here.
    """
    k = np.arange(1.0, n)
    ab = (a1 + b1) - 2.0
    s = 2.0 * k + ab
    diag = np.append((b1 - a1) / (a1 + b1), (b1 - a1) * ab / (s * (s + 2.0)))
    # (k + a + b) / (s - 1) is 1 at k = 1, set by hand: at a + b = -1 it would be 0/0
    ratio = np.ones_like(k)
    ratio[1:] = (k[1:] + ab) / (s[1:] - 1.0)
    # k + a and k + b as (k - 1) + a1 and (k - 1) + b1: exact at k = 1 however small a1 or b1
    off_sq = 4.0 * k * ((k - 1.0) + a1) * ((k - 1.0) + b1) * ratio / (s * s * (s + 1.0))
    jac = np.diag(0.5 + 0.5 * diag)
    jac.flat[n::n + 1] = 0.5 * np.sqrt(off_sq)  # the subdiagonal
    u, v = np.linalg.eigh(jac)
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


@functools.cache
def _legendre_panels(n: int):
    """w, 1 - w and the Gauss-Legendre weights of the panels between the end panels, n nodes each."""
    x, wx = jacobi_nodes(1.0, 1.0, n)
    edges = np.concatenate([0.5 * SIGMA ** np.arange(GEOMETRIC, 0, -1.0), 1.0 - 0.5 ** np.arange(1.0, HALVING + 1)])
    width = np.diff(edges)[:, None]
    # 1 - w from 1 - edges, exact on the halving panels, so (1 - w)^alpha' keeps its digits near w = 1
    return ((edges[:-1, None] + width * x).reshape(-1), ((1.0 - edges[:-1, None]) - width * x).reshape(-1),
            (width * wx).reshape(-1))


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _rule(p: OperatorParams, n: int):
    """Nodes u = w^{1/(gamma+1)} in (0, 1] and weights W of inner_integral's rule on n nodes per panel.

    Every caller shares the returned arrays, so they are read-only.
    """
    a_p, b_p = p.jacobi_exponents
    a1, b1 = (1.0 - p.beta) + p.tau, (p.beta + p.gamma) / (p.gamma + 1.0)
    bottom = 0.5 * SIGMA**GEOMETRIC
    top = 0.5**HALVING
    x_lo, wx_lo = jacobi_nodes(1.0, b1, n)
    x_hi, wx_hi = jacobi_nodes(a1, 1.0, n)
    w_mid, v_mid, wts_mid = _legendre_panels(n)
    w_lo = bottom * x_lo
    w_hi = (1.0 - top) + top * x_hi
    w = np.concatenate([w_lo, w_mid, w_hi])
    wts = np.concatenate([bottom**b1 * wx_lo * (1.0 - w_lo) ** a_p,
                          wts_mid * w_mid**b_p * v_mid**a_p,
                          top**a1 * wx_hi * w_hi**b_p])
    u = w ** (1.0 / (p.gamma + 1.0))
    u.flags.writeable = False
    wts.flags.writeable = False
    return u, wts


def _moments(u, wts, order: int) -> np.ndarray:
    """The rule's moments M_k = sum_j wts_j u_j^k for k = 0..order.

    Each u^k is u^(16a) u^b with b < _POWER_ROWS, both factors exp(k log u),
    so a block of moments is one einsum over the nodes of two small power
    tables, _MOMENT_CHUNK indices at a time. einsum without optimize sums
    in NumPy's own loops, never BLAS, so the bits do not depend on the BLAS
    build or its thread count.
    """
    log_u = np.log(u)
    low = np.exp(np.arange(min(_POWER_ROWS, order + 1))[:, None] * log_u)
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
    """(inner_integral, its f' companion) on NODE_COUNT and on 2 * NODE_COUNT nodes per panel.

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
    """int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw by the graded rule on NODE_COUNT nodes per panel.

    With f identically 1 this is beta_fn(beta' + 1, alpha' + 1) (the
    Beta-function reduction behind the monomial closed form), exact up to
    the end panels' smooth factors.
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


def _outer(p: OperatorParams, z: complex) -> tuple:
    """P and the factor front/(gamma+1) z^shift that make the operator value outer (P I + z I')."""
    big_p = p.gamma * (1.0 - p.beta) + (p.gamma + 1.0) * p.tau
    return big_p, _front_constant(p) / (p.gamma + 1.0) * cmath.exp(p.shift * cmath.log(z))


def _eval_doubling(p: OperatorParams, f: PowerSeries, z: complex) -> tuple:
    """The operator value z^shift front/(gamma+1) (P I + z I') on NODE_COUNT and on 2 * NODE_COUNT nodes per panel."""
    big_p, outer = _outer(p, z)
    return tuple(outer * (big_p * j0 + z * j1) for j0, j1 in _inner_integrals(p, f, z))


def _roundoff_scale(p: OperatorParams, f: PowerSeries, z: complex) -> float:
    """S = |outer| sum_k |c_k z^k| (P + k) M_k on the refined rule: the terms' size, which scales the value's rounding."""
    big_p, outer = _outer(p, z)
    size = np.abs(f.coeffs * _z_powers(z, f.order)) * (big_p + np.arange(f.coeffs.size))
    m = _moments(*_rule(p, 2 * NODE_COUNT), f.order)
    return abs(outer) * float(np.einsum("k,k->", m, size))


def oracle_eval(p: OperatorParams, f: PowerSeries, z) -> complex:
    """Operator value at z straight from the integral definition.

    Evaluates on NODE_COUNT nodes per panel and on twice that, each
    integral summed from its rule's moments and f's coefficients; if the
    two results differ by more than TOLERANCE + ROUNDOFF_ULPS eps S, with
    S the size of the refined value's terms (formed only when the residual
    exceeds TOLERANCE), a ConvergenceError is raised, otherwise the
    doubled-node value is returned. For |z| below SMALL_Z_CUTOFF the
    quadrature is skipped in favour of the leading series term (the outer
    z-powers amplify roundoff there).
    """
    z = _disk_point(z)
    if abs(z) < SMALL_Z_CUTOFF:
        nz = np.nonzero(np.abs(f.coeffs) > 0)[0]
        if nz.size == 0:
            return 0.0 + 0.0j
        m = int(nz[0])
        return complex(f.coeffs[m]) * monomial_transform(p, m).evaluate(z)

    r1, r2 = _eval_doubling(p, f, z)
    residual = abs(r2 - r1)
    if residual <= TOLERANCE:
        return r2
    bound = TOLERANCE + ROUNDOFF_ULPS * sys.float_info.epsilon * _roundoff_scale(p, f, z)
    if not residual <= bound:  # a nan residual or scale fails too
        raise ConvergenceError(
            f"node doubling {NODE_COUNT} -> {2 * NODE_COUNT} nodes per panel moved the result "
            f"by {residual:.3e} (> tolerance {bound:.1e})",
            last=r2,
            previous=r1,
        )
    return r2
