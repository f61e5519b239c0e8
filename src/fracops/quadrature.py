"""Independent quadrature evaluation of the operator from its integral form.

The operator value at z is recovered without any coefficient formula:
the defining singular integral is reduced (by the substitution
w = (zeta/z)^{gamma+1}) to

    G(z) = z^P / (gamma+1) * I(z),
    I(z) = int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw,

with P = gamma (1 - beta) + (gamma+1) tau, alpha' = tau - beta and
beta' = (beta-1)/(gamma+1), both exponents in (-1, 0], followed by the
outer z^{1-tau} d/dz and the Gamma-function front constant. Since
P - tau = shift = gamma (1 - beta + tau),

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
moments M_k = sum_j W_j u_j^k, and the derivative is taken term by term:

    I(z)             = sum_k c_k z^k M_k,
    P I(z) + z I'(z) = sum_k (P + k) c_k z^k M_k.

So a rule's operator value is one sum over the weighted terms
t_k = (P + k) c_k z^k, the same at every z in the punctured disk, and
the size S = sum_k M_k |t_k| of those terms, which scales the value's
rounding, reads the same moments. The moments come a chunk of indices at
a time from two small tables of node powers, so a rule costs a fixed
number of NumPy calls per chunk, with no loop over the coefficients and
no table that grows as nodes x order. oracle_eval takes one draw, and
its two rules share those tables: one _moments call reads their nodes
side by side. The moments depend on neither z nor f, so below order
_MOMENT_CHUNK they are kept with the draw's rules and grown on demand,
and a later call on the same draw sums them at once.

Each panel's Gauss rule lives on [0, 1] itself: its nodes are the
eigenvalues of the Jacobi matrix of the weight (1-x)^{a1-1} x^{b1-1}, and
its weights are B(a1, b1) times the squared first components of the
eigenvectors (Golub & Welsch, Math. Comp. 23, 1969), through
numpy.linalg.eigh. No power of 2 maps it from [-1, 1]. The end panels'
exponents plus one are formed so that they are exact at beta = 1 and
tau near 0: a1 = (1 - beta) + tau on top and b1 = (beta + gamma) /
(gamma + 1) at the bottom, and a rule's two end panels are one stacked
eigh call. The one cache, _rules, is a bounded LRU of RULE_CACHE_SIZE
draws: an entry holds both rules of one parameter triple side by side,
read-only (about 15 KiB of nodes and weights), and their kept moments
(at most 16 KiB). The Legendre panels are built once per node count.
The oracle imports no SciPy.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, check_count
from .fracdiff import OperatorParams, _kept_row
from .series import PowerSeries
from .special import _log_gamma_real, beta_fn

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

# Bound on _rules' draws. An entry holds one triple's two rules side by side
# (960 nodes and weights, 15 KiB) and their kept moments (2 x 1024 at most,
# 16 KiB). A fresh-seed run_suites() adds about 50 draws, plus 10
# fixture-suite triples that every call reuses.
RULE_CACHE_SIZE = 128

# _moments forms u^k as u^(16a) u^b with b < _POWER_ROWS and takes _MOMENT_CHUNK
# indices k (64 values of a) at a time, so for one draw's two rules, side by
# side, its power tables hold at most 64 + 16 rows of 3 * NODE_COUNT * 20
# float64 (600 KiB), never a nodes x order table; below order 15 they hold
# order + 2 rows.
_POWER_ROWS = 16
_MOMENT_CHUNK = 1024


def roots_jacobi(n: int, a1, b1):
    """Gauss-Jacobi nodes (ascending) in (0, 1) and weights for the weight (1-u)^(a1-1) u^(b1-1), a1, b1 > 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi recurrence with a = a1 - 1, b = b1 - 1,
    carried from [-1, 1] to [0, 1] by u = (1 + x)/2, and node i has weight
    B(a1, b1) v_0i^2, with v_i its unit eigenvector. numpy.linalg.eigh
    solves the dense matrix (its lower triangle); at the panel rules' 16
    and 32 nodes that is as fast as a tridiagonal solver.

    a1 and b1 are floats, for one rule of n nodes and n weights, or
    equal-length sequences, for a (panels, n) row of each: their matrices
    go to one stacked eigh call, which runs LAPACK on each matrix alone, so
    every row has the bits of its own scalar call. An n that is not an
    integer >= 1, or an a1 or b1 that is not finite and > 0, raises
    DomainError.
    """
    check_count(n, "n", 1)
    a1, b1 = np.asarray(a1, dtype=np.float64), np.asarray(b1, dtype=np.float64)
    firsts, seconds = a1.ravel().tolist(), b1.ravel().tolist()
    if a1.ndim > 1 or a1.shape != b1.shape or not all(0.0 < x < math.inf for x in firsts + seconds):
        raise DomainError(f"a1 and b1 must be finite and > 0, floats or equal-length sequences, got {a1!r}, {b1!r}")
    betas = np.array([beta_fn(x, y) for x, y in zip(firsts, seconds)])
    a1, b1 = a1[..., None], b1[..., None]  # a column of the panels' exponents, or a 1-element row for floats
    k = np.arange(1.0, n)
    ab = (a1 + b1) - 2.0
    s = 2.0 * k + ab
    diag = np.concatenate([(b1 - a1) / (a1 + b1), (b1 - a1) * ab / (s * (s + 2.0))], axis=-1)
    # (k + a + b) / (s - 1) is 1 at k = 1, set by hand: at a + b = -1 it would be 0/0
    ratio = np.ones_like(s)
    ratio[..., 1:] = (k[1:] + ab) / (s[..., 1:] - 1.0)
    # k + a and k + b as (k - 1) + a1 and (k - 1) + b1: exact at k = 1 however small a1 or b1
    off_sq = 4.0 * k * ((k - 1.0) + a1) * ((k - 1.0) + b1) * ratio / (s * s * (s + 1.0))
    jac = np.zeros(a1.shape[:-1] + (n * n,))  # each matrix flat
    jac[..., ::n + 1] = 0.5 + 0.5 * diag
    jac[..., n::n + 1] = 0.5 * np.sqrt(off_sq)  # the subdiagonal
    u, v = np.linalg.eigh(jac.reshape(a1.shape[:-1] + (n, n)))
    return u, betas.reshape(a1.shape) * v[..., 0, :] ** 2


def jacobi_nodes(a1, b1, n: int):
    """Gauss-Jacobi nodes/weights for weight (1-u)^(a1-1) u^(b1-1) on [0, 1], n of each; a row per panel for sequences."""
    return roots_jacobi(n, a1, b1)


@functools.cache
def _legendre_panels(n: int):
    """w, 1 - w and the Gauss-Legendre weights of the panels between the end panels, n nodes each."""
    x, wx = jacobi_nodes(1.0, 1.0, n)
    edges = np.concatenate([0.5 * SIGMA ** np.arange(GEOMETRIC, 0, -1.0), 1.0 - 0.5 ** np.arange(1.0, HALVING + 1)])
    width = np.diff(edges)[:, None]
    # 1 - w from 1 - edges, exact on the halving panels, so (1 - w)^alpha' keeps its digits near w = 1
    return ((edges[:-1, None] + width * x).reshape(-1), ((1.0 - edges[:-1, None]) - width * x).reshape(-1),
            (width * wx).reshape(-1))


def _rule(p: OperatorParams, n: int):
    """Nodes u = w^{1/(gamma+1)} in (0, 1] and weights W of inner_integral's rule on n nodes per panel.

    Both end panels come from one stacked jacobi_nodes call. Not cached:
    _rules keeps each draw's two rules.
    """
    a_p, b_p = p.jacobi_exponents
    a1, b1 = (1.0 - p.beta) + p.tau, (p.beta + p.gamma) / (p.gamma + 1.0)
    bottom = 0.5 * SIGMA**GEOMETRIC
    top = 0.5**HALVING
    (x_lo, x_hi), (wx_lo, wx_hi) = jacobi_nodes([1.0, a1], [b1, 1.0], n)
    w_mid, v_mid, wts_mid = _legendre_panels(n)
    w_lo = bottom * x_lo
    w_hi = (1.0 - top) + top * x_hi
    w = np.concatenate([w_lo, w_mid, w_hi])
    wts = np.concatenate([bottom**b1 * wx_lo * (1.0 - w_lo) ** a_p,
                          wts_mid * w_mid**b_p * v_mid**a_p,
                          top**a1 * wx_hi * w_hi**b_p])
    return w ** (1.0 / (p.gamma + 1.0)), wts


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _rules(p: OperatorParams):
    """One draw's entry: its rules on NODE_COUNT and 2 * NODE_COUNT nodes per panel, side by side, and their moments.

    (u, wts, edges, kept): both rules' nodes and weights in one read-only
    array each, the coarse rule's first, with the offsets edges = (0, J_1,
    J_1 + J_2); and kept, the store of their read-only (2, n) row of
    moments, which _rule_moments grows.
    """
    (u1, w1), (u2, w2) = _rule(p, NODE_COUNT), _rule(p, 2 * NODE_COUNT)
    u, wts = np.concatenate([u1, u2]), np.concatenate([w1, w2])
    u.flags.writeable = False
    wts.flags.writeable = False
    return u, wts, (0, u1.size, u.size), [None, np.empty((2, 0))]


def _moments(u, wts, edges: list, order: int) -> np.ndarray:
    """The moments M_k = sum_j wts_j u_j^k, k = 0..order, of rules whose nodes and weights lie side by side.

    edges are the R rules' node offsets [0, J_1, J_1 + J_2, ...] in u and
    wts; the result is (R, order + 1), a row per rule. Each u^k is
    u^(16a) u^b with b < _POWER_ROWS, both factors exp(k log u), so a block
    of moments is one einsum over the nodes of two small power tables,
    _MOMENT_CHUNK indices at a time. The rules share the tables' elementwise
    NumPy calls, and each rule's einsum reads its own columns. einsum
    without optimize sums in NumPy's own loops, never BLAS, so the bits do
    not depend on the BLAS build or its thread count.
    """
    log_u = np.log(u)
    low = np.exp(np.arange(float(min(_POWER_ROWS, order + 1)))[:, None] * log_u)
    # exp(k log u) is taken only where wts u^(k+15) stays a normal float, and is 0 elsewhere: exp
    # and the einsum run many times slower on subnormals, and the terms left out lie far below
    # the last bit of every moment (a test holds the moments to the full tables bit for bit)
    least = math.log(sys.float_info.min) - np.log(wts) - (_POWER_ROWS - 1) * log_u
    out = np.empty((len(edges) - 1, order + _POWER_ROWS))
    for start in range(0, order + 1, _MOMENT_CHUNK):
        k = np.arange(float(start), min(start + _MOMENT_CHUNK, order + 1), _POWER_ROWS)
        k_log_u = k[:, None] * log_u
        high = np.exp(k_log_u, out=np.zeros_like(k_log_u), where=k_log_u > least)
        high *= wts
        for r, (lo, hi) in enumerate(zip(edges, edges[1:])):
            block = np.einsum("aj,bj->ab", high[:, lo:hi], low[:, lo:hi])
            out[r, start:start + block.size] = block.reshape(-1)
    return out[:, :order + 1]


def _rule_moments(rules: tuple, order: int) -> np.ndarray:
    """The (2, order + 1) moments of a _rules entry's two rules, a row per rule.

    Below order _MOMENT_CHUNK they are the entry's kept row, grown by
    _kept_row to max(order + 1, _POWER_ROWS) indices, each grown row a fresh
    _moments call; each einsum element is its own dot over the nodes, so
    every moment has the bits of a call at any order. From _MOMENT_CHUNK up
    they are computed per call and not kept, so an entry holds at most
    2 x 1024 moments.
    """
    u, wts, edges, kept = rules
    if order >= _MOMENT_CHUNK:
        return _moments(u, wts, edges, order)

    def fill(k, out):
        np.copyto(out, _moments(u, wts, edges, int(k[-1]))[:, int(k[0]):])

    return _kept_row(kept, None, max(order + 1, _POWER_ROWS), fill)[:, :order + 1]


def _moment_sums(m: np.ndarray, t: np.ndarray) -> list:
    """sum_k m_rk t_k for each row r of real moments m and complex t, in NumPy's own loops (einsum), not BLAS."""
    sums = np.einsum("rk,kc->rc", m, t.view(np.float64).reshape(-1, 2))
    return [complex(real, imag) for real, imag in sums.tolist()]


def _z_powers(z: complex, order: int) -> np.ndarray:
    """z^0 .. z^order as one running product."""
    zk = np.full(order + 1, z, dtype=np.complex128)
    zk[0] = 1.0
    return np.multiply.accumulate(zk, out=zk)


def _rule_sums(p: OperatorParams, f: PowerSeries, z: complex) -> tuple:
    """sum_k M_k t_k on NODE_COUNT and on 2 * NODE_COUNT nodes per panel, and sum_k M_k |t_k| on the latter.

    t_k = (P + k) c_k z^k, so a rule's sum is P I + z I' with I its inner
    integral and I' that integral's z-derivative, both in the rule's
    reading: sum_j W_j (P f(z u_j) + z u_j f'(z u_j)). Both rules' moments
    are the draw's _rules entry's, kept there for the next call.
    """
    t = _z_powers(z, f.order)
    t *= f.coeffs
    t *= (p.gamma * (1.0 - p.beta) + (p.gamma + 1.0) * p.tau) + np.arange(f.order + 1)
    m = _rule_moments(_rules(p), f.order)
    coarse, refined = _moment_sums(m, t)
    return coarse, refined, float(np.einsum("k,k->", m[1], np.abs(t)))


def inner_integral(p: OperatorParams, f: PowerSeries, z) -> complex:
    """int_0^1 w^{beta'} (1-w)^{alpha'} f(z w^{1/(gamma+1)}) dw by the graded rule on NODE_COUNT nodes per panel.

    This is sum_k c_k z^k M_k over the rule's moments. With f identically
    1 it is beta_fn(beta' + 1, alpha' + 1) (the Beta-function reduction
    behind the monomial closed form), exact up to the end panels' smooth
    factors.
    """
    # c_k times z^k, in this order: NumPy's complex product may fuse a multiply-add, so it is not commutative
    (value,) = _moment_sums(_rule_moments(_rules(p), f.order)[:1], f.coeffs * _z_powers(complex(z), f.order))
    return value


def _disk_point(z) -> complex:
    """z as a complex number, if it lies in the punctured unit disk where the integral route is used.

    z = 0 and |z| >= 1, or a non-finite z, raise DomainError.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("the integral route is undefined at z = 0")
    if not math.hypot(z.real, z.imag) < 1.0:  # abs(z) would raise OverflowError where |z| overflows
        raise DomainError(f"the integral route is only used inside the unit disk (|z| < 1), got z = {z}")
    return z


def _front_constant(p: OperatorParams) -> float:
    """(gamma+1)^{beta-tau} Gamma(tau) / (Gamma(beta) Gamma(1-beta+tau)).

    Its three log Gammas are scalar calls, with log_gamma's bits.
    OperatorParams keeps every argument at least tau >= POLE_GUARD from the
    pole at 0, so no pole check is made.
    """
    s = _log_gamma_real(p.tau) - _log_gamma_real(p.beta) - _log_gamma_real((1.0 - p.beta) + p.tau)
    return (p.gamma + 1.0) ** (-p.diff) * math.exp(s)


def _eval_doubling(p: OperatorParams, f: PowerSeries, z: complex) -> tuple:
    """The operator value outer sum_k M_k t_k on NODE_COUNT and on 2 * NODE_COUNT nodes per panel, and S.

    outer = front/(gamma+1) z^shift, with _front_constant's front;
    t_k = (P + k) c_k z^k and the sums as in _rule_sums, and
    S = |outer| sum_k M_k |t_k| on the refined rule: the size of the terms
    the refined value sums, which scales its rounding. z is a point of the
    punctured disk (_disk_point).
    """
    s1, s2, size = _rule_sums(p, f, z)
    outer = _front_constant(p) / (p.gamma + 1.0) * cmath.exp(p.shift * cmath.log(z))
    return outer * s1, outer * s2, abs(outer) * size


def oracle_eval(p: OperatorParams, f: PowerSeries, z) -> complex:
    """Operator value at z straight from the integral definition.

    Evaluates on NODE_COUNT nodes per panel and on twice that, each value
    summed from its rule's moments and f's coefficients; if the two
    results differ by more than TOLERANCE + ROUNDOFF_ULPS eps S, with S the
    size of the refined value's terms, a ConvergenceError is raised,
    otherwise the doubled-node value is returned. The same sums serve
    every z in the punctured disk.
    """
    r1, r2, size = _eval_doubling(p, f, _disk_point(z))
    residual = abs(r2 - r1)
    bound = TOLERANCE + ROUNDOFF_ULPS * sys.float_info.epsilon * size
    if not residual <= bound:  # a nan residual or scale fails too
        raise ConvergenceError(
            f"node doubling {NODE_COUNT} -> {2 * NODE_COUNT} nodes per panel moved the result "
            f"by {residual:.3e} (> tolerance {bound:.1e})",
            last=r2,
            previous=r1,
        )
    return r2
