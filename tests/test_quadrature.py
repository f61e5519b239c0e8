"""Independent Gauss-Jacobi route for the operator: nodes, kernel, oracle."""

import math

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
    x1, w1 = jacobi_nodes(-0.3, 0.4, 32)
    x2, w2 = jacobi_nodes(-0.3, 0.4, 32)
    assert x1 is x2 and w1 is w2  # cache returns the same arrays
    assert np.all((-1.0 < x1) & (x1 < 1.0))
    assert np.all(w1 > 0.0)


def test_jacobi_node_cache_is_bounded():
    """300 distinct keys leave at most NODE_CACHE_SIZE entries; hits still share arrays."""
    for i in range(300):
        jacobi_nodes(-0.5 + i * 1e-3, 0.25, 8)
    assert jacobi_nodes.cache_info().currsize <= NODE_CACHE_SIZE == 256
    x1, w1 = jacobi_nodes(-0.2, 0.1, 16)
    x2, w2 = jacobi_nodes(-0.2, 0.1, 16)
    assert x1 is x2 and w1 is w2
    with pytest.raises(ValueError):
        x1[0] = 0.0  # shared cache entries are read-only


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
    # a tolerance no rule meets keeps the guard covered whatever the node rule
    monkeypatch.setattr(quadrature, "TOLERANCE", 1e-30)
    p = OperatorParams(0.15, 0.1, 2.3)
    with pytest.raises(ConvergenceError) as err:
        oracle_eval(p, koebe_series(1.0, 200), -0.62)
    assert "node doubling" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_oracle_nan_doubling_residual_raises():
    """Horner overflows to inf at every node, so the residual is nan: it fails the guard."""
    with pytest.raises(ConvergenceError, match="moved the result by nan"):
        oracle_eval(_params(), PowerSeries(np.full(40, 1e306)), 0.9)


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
