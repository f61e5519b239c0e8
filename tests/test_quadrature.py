"""Independent Gauss-Jacobi route for the operator: nodes, kernel, oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops import quadrature
from fracops.errors import ConvergenceError, DomainError
from fracops.fracdiff import OperatorParams, apply_operator, monomial_transform
from fracops.quadrature import (
    NODE_CACHE_SIZE,
    inner_integral,
    jacobi_nodes,
    oracle_eval,
)
from fracops.series import PowerSeries, koebe_series, monomial_series
from fracops.special import beta_fn


def _params(beta=0.65, tau=0.3, gamma=1.7):
    return OperatorParams(beta, tau, gamma)


# ---------------------------------------------------------------------------
# nodes


def test_jacobi_nodes_cached_and_sane():
    u1, w1 = jacobi_nodes(0.7, 1.4, 32)
    u2, w2 = jacobi_nodes(0.7, 1.4, 32)
    assert u1 is u2 and w1 is w2  # cache returns the same arrays
    assert np.all((0.0 < u1) & (u1 < 1.0))
    assert np.all(w1 > 0.0)


def test_jacobi_node_cache_is_bounded():
    """300 distinct keys leave at most NODE_CACHE_SIZE entries; hits still share arrays."""
    for i in range(300):
        jacobi_nodes(0.5 + i * 1e-3, 1.25, 8)
    assert jacobi_nodes.cache_info().currsize <= NODE_CACHE_SIZE == 256
    u1, w1 = jacobi_nodes(0.8, 1.1, 16)
    u2, w2 = jacobi_nodes(0.8, 1.1, 16)
    assert u1 is u2 and w1 is w2
    with pytest.raises(ValueError):
        u1[0] = 0.0  # shared cache entries are read-only


# Jacobi exponent pairs (a, b), passed as (a1, b1) = (a + 1, b + 1) under ids that keep the exponents
_EXPONENT_PAIRS = [(-0.9998, -0.9999), (-0.9998, -0.0001), (-0.3, 0.4), (-0.5, 30.0), (-0.3, -0.7)]


@pytest.mark.parametrize("a1,b1", [pytest.param(a + 1.0, b + 1.0, id=f"{a}-{b}") for a, b in _EXPONENT_PAIRS]
                         + [(1e-9, 1.0), (0.65, 1200.65)])
@pytest.mark.parametrize("n", [64, 128])
def test_jacobi_nodes_integrate_moments_near_the_exponent_corner(a1, b1, n):
    """sum w_i u_i^m = B(a1, b1 + m), also as an exponent nears 0, at a1 + b1 = 1 and for b1 in the thousands."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    u, w = jacobi_nodes(a1, b1, n)
    for m in (0, 1, 5, 20, 2 * n - 1):
        want = mpmath.beta(a1, b1 + m)
        got = float(np.sum(w * u**m))
        assert abs(got - want) <= 1e-10 * want, (m, got, float(want))


@pytest.mark.parametrize("z", [0.5, 0.8j])
@pytest.mark.parametrize("power", [2, 3, 4, 6])
def test_oracle_passes_where_beta_minus_tau_nears_one(power, z):
    """At (0.9999, 0.0001, 0) the Jacobi exponent tau - beta is -0.9998: node doubling still converges."""
    p = OperatorParams(0.9999, 0.0001, 0.0)
    want = monomial_transform(p, power).evaluate(z)
    assert abs(oracle_eval(p, monomial_series(power), z) - want) <= 1e-8


@pytest.mark.parametrize("power", [0, 2])
def test_oracle_at_gamma_in_the_thousands(power):
    """At gamma = 1200 the rule's weights stay finite: no power of 2 overflows on the way to [0, 1]."""
    p = OperatorParams(0.65, 0.3, 1200.0)
    want = monomial_transform(p, power).evaluate(0.5)
    assert abs(oracle_eval(p, monomial_series(power), 0.5) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("z", [0.5, 0.3j])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_oracle_constant_input_at_beta_one_tau_at_the_guard(gamma, z):
    """At (1, 1e-9, gamma) the exponent (1 - beta) + tau = 1e-9 is formed exactly: no spurious pole."""
    p = OperatorParams(1.0, 1e-9, gamma)
    want = monomial_transform(p, 0).evaluate(z)
    assert abs(oracle_eval(p, PowerSeries([1.0]), z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", [0.5, 0.3j])
@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_oracle_monomials_at_beta_one_tau_at_the_guard_never_hit_a_pole(gamma, power, z):
    """The images are 1.8e8-5e8, so rounding alone moves them by more than TOLERANCE.

    The doubling check adds ROUNDOFF_ULPS eps S to its floor, so each call
    returns its value, never a pole and no ConvergenceError.
    """
    p = OperatorParams(1.0, 1e-9, gamma)
    want = monomial_transform(p, power).evaluate(z)
    assert abs(oracle_eval(p, monomial_series(power), z) - want) <= 1e-14 * abs(want)


# w-form moments B(beta' + 1 + k/(gamma+1), alpha' + 1): the seed-51 oracle_closed_form draw (small gamma),
# exponents near -1 and 0, gamma in the hundreds and thousands
_MOMENT_POINTS = [(0.12, 0.072, 0.09), (0.5, 0.3, 0.0), (0.9999, 1e-4, 0.0), (1.0, 1e-9, 0.5),
                  (0.65, 0.3, 1.4), (0.5, 0.3, 400.0), (0.65, 0.3, 1200.0)]


@pytest.mark.parametrize("beta,tau,gamma", _MOMENT_POINTS)
def test_refined_rule_moments_match_the_beta_function(beta, tau, gamma):
    """The doubled rule's M_k is B(beta' + 1 + k/(gamma+1), alpha' + 1) to 1e-13 at 40 digits, up to k = 1000."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    p = OperatorParams(beta, tau, gamma)
    m = quadrature._moments(*quadrature._rule(p, 2 * quadrature.NODE_COUNT), 1000)
    b, t, g = (mpmath.mpf(v) for v in (beta, tau, gamma))
    for k in (0, 1, 2, 10, 200, 1000):
        want = mpmath.beta((b + g + k) / (g + 1), (1 - b) + t)
        assert abs(m[k] - want) <= 1e-13 * want, (k, m[k], float(want))


# ---------------------------------------------------------------------------
# inner integral


@pytest.mark.parametrize("beta,tau,gamma", [(0.65, 0.3, 1.7), (0.9, 0.85, 0.0), (0.3, 0.1, 3.0)])
def test_constant_input_reproduces_beta_function(beta, tau, gamma):
    """With f == 1 the weighted integral is an exact Beta value."""
    p = OperatorParams(beta, tau, gamma)
    got = inner_integral(p, PowerSeries([1.0]), 0.3)
    want = beta_fn((beta - 1.0) / (gamma + 1.0) + 1.0, 1.0 - beta + tau)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_inner_integral_with_derivative_pair():
    p = _params()
    f = koebe_series(1.0, 80)
    (val, dval), (val2, dval2) = quadrature._inner_integrals(p, f, 0.25)
    assert_allclose((val2, dval2), (val, dval), rtol=1e-12)  # the doubled rule agrees
    # derivative integrand u f'(zu): cross-check by a central difference in z
    h = 1e-6
    fd = (inner_integral(p, f, 0.25 + h) - inner_integral(p, f, 0.25 - h)) / (2 * h)
    assert_allclose(dval, fd, rtol=1e-8)


def _horner_at_the_nodes(p, f, z):
    """sum w_j f(z u_j) and sum w_j u_j f'(z u_j) on both rules, each f value by Horner."""
    fp = f.derivative()
    out = []
    for n in (quadrature.NODE_COUNT, 2 * quadrature.NODE_COUNT):
        u, w = quadrature._rule(p, n)
        out.append((np.sum(w * f.evaluate(z * u)), np.sum(w * u * fp.evaluate(z * u))))
    return out


@pytest.mark.parametrize("order", [1, 8, 200, 4096])
@pytest.mark.parametrize("beta,tau,gamma", [(0.65, 0.3, 1.7), (0.65, 0.3, 1200.0), (1.0, 1e-9, 0.0),
                                            (1.0, 1e-9, 0.5)])
def test_moment_sums_match_horner_at_the_nodes(beta, tau, gamma, order):
    """The moment form of both integrals agrees with Horner at the nodes to 1e-13.

    The error is taken relative to the same sums over |c_k| |z u_j|^k, the
    scale of either side's rounding: at z = -0.99 Koebe's terms cancel by a
    factor of about 4e4, so plain relative error would measure the rounding
    of the reference as well.
    """
    p = OperatorParams(beta, tau, gamma)
    rng = np.random.default_rng(order)
    noise = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
    for f in (koebe_series(2.0, order), noise):
        majorant = PowerSeries(np.abs(f.coeffs))
        for z in (0.99, -0.99, 0.99 * np.exp(2.2j), 0.3j):
            scales = _horner_at_the_nodes(p, majorant, abs(z))
            pairs = zip(quadrature._inner_integrals(p, f, z), _horner_at_the_nodes(p, f, z), scales)
            for got, want, scale in pairs:
                for g, h, s in zip(got, want, scale):
                    assert abs(g - h) <= 1e-13 * s.real, (z, g, h, s)


def test_oracle_memory_at_order_2_18_stays_bounded():
    """The moments are built a chunk of indices at a time.

    One call peaks near 18 MB, mostly the coefficient terms. Power tables
    for all indices at once would add about 170 MB, and a nodes x order
    table 1.3 GB.
    """
    f = koebe_series(2.0, 2**18)
    p = _params()
    oracle_eval(p, koebe_series(2.0, 8), 0.5)  # the rules' first build is not an order-2^18 call's memory
    tracemalloc.start()
    try:
        oracle_eval(p, f, 0.9j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


# ---------------------------------------------------------------------------
# oracle


def test_oracle_matches_monomial_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        beta = rng.uniform(0.1, 1.0)
        tau = rng.uniform(max(0.05, beta - 0.9), beta)
        gamma = rng.uniform(0.0, 3.0)
        u = int(rng.integers(0, 7))
        p = OperatorParams(beta, tau, gamma)
        r = rng.uniform(0.05, 0.9)
        th = rng.uniform(0, 2 * math.pi)
        z = r * complex(math.cos(th), math.sin(th))
        want = monomial_transform(p, u).evaluate(z)
        got = oracle_eval(p, monomial_series(u), z)
        assert abs(got - want) <= 1e-8 * max(1e-30, abs(want))


def test_oracle_matches_series_image():
    p = _params(0.8, 0.25, 0.9)
    f = koebe_series(1.0, 120)
    image = apply_operator(p, f)
    for z in (0.3, -0.42, 0.2 - 0.35j):
        assert_allclose(oracle_eval(p, f, z), image.evaluate(z), rtol=1e-9)


def test_oracle_identity_reduction_points():
    # gamma = 0, tau = beta: the operator is the identity on series
    p = OperatorParams(0.5, 0.5, 0.0)
    f = koebe_series(1.0, 150)
    z = 0.3
    assert_allclose(oracle_eval(p, f, z), f.evaluate(z), rtol=1e-10)
    # gamma > 0, tau = beta: multiplication by z^gamma
    q = OperatorParams(0.5, 0.5, 2.2)
    assert_allclose(oracle_eval(q, f, z), z**2.2 * f.evaluate(z), rtol=1e-10)


def test_oracle_domain_checks():
    p = _params()
    f = PowerSeries([0.0, 1.0])
    with pytest.raises(DomainError):
        oracle_eval(p, f, 0.0)
    with pytest.raises(DomainError):
        oracle_eval(p, f, 1.0)
    for z in (-1.2, complex("nan"), complex(0.1, math.inf)):
        with pytest.raises(DomainError):
            oracle_eval(p, f, z)


def test_oracle_small_z_leading_term():
    p = _params(0.7, 0.4, 1.1)
    f = PowerSeries([0.0, 2.0, -1.0])
    z = 3e-8
    want = 2.0 * monomial_transform(p, 1).coefficient * z ** (p.shift + 1.0)
    assert_allclose(oracle_eval(p, f, z), want, rtol=1e-9)


def test_oracle_node_doubling_guard_raises(monkeypatch):
    # a negative tolerance, which no residual meets (not even an exact 0), keeps the
    # guard covered whatever the node rule
    monkeypatch.setattr(quadrature, "TOLERANCE", -1.0)
    p = OperatorParams(0.15, 0.1, 2.3)
    with pytest.raises(ConvergenceError) as err:
        oracle_eval(p, koebe_series(1.0, 200), -0.62)
    assert "node doubling" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_oracle_nan_doubling_residual_raises():
    """The moment sums overflow to inf, and k c_k already does in the f' column, so the residual is nan: it fails the guard."""
    with pytest.raises(ConvergenceError, match="moved the result by nan"):
        oracle_eval(_params(), PowerSeries(np.full(40, 1e308)), 0.9)


def test_oracle_accepts_array_free_types():
    p = _params()
    out = oracle_eval(p, koebe_series(1.0, 60), complex(0.1, 0.2))
    assert isinstance(out, complex)


def test_oracle_is_linear_in_f():
    p = _params(0.7, 0.3, 1.2)
    f = koebe_series(1.0, 60)
    g = PowerSeries(np.linspace(0.5, -0.5, 61))
    z = 0.28 - 0.11j
    combined = oracle_eval(p, PowerSeries(f.coeffs + 2.0 * g.coeffs), z)
    split = oracle_eval(p, f, z) + 2.0 * oracle_eval(p, g, z)
    assert abs(combined - split) <= 1e-9 * max(1.0, abs(split))
