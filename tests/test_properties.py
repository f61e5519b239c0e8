"""Property tests over the whole admissible parameter window."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sc

from fracops.fracdiff import (
    OperatorParams,
    apply_operator,
    closed_form_spec,
    monomial_transform,
    phi_multiplier,
    theta_hadamard,
    theta_normalize,
)
from fracops.series import make_builtin
from fracops.special import POLE_GUARD, log_gamma
from fracops.verify import random_normalized_series

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@st.composite
def window_params(draw):
    """(beta, tau, gamma) with 0 < beta <= 1, POLE_GUARD <= tau <= beta, 0 <= gamma <= 50.

    tau <= beta and tau >= POLE_GUARD > 0 give 0 <= beta - tau < 1.
    """
    beta = draw(st.floats(POLE_GUARD, 1.0))
    tau = draw(st.floats(POLE_GUARD, beta))
    return beta, tau, draw(st.floats(0.0, 50.0))


# (kind, a point u of the unit cube -> stock parameters, truncation order of
# the termwise image at |z| <= 0.5); alpha runs over (0, 3] and the Lerch s
# over [-2, 2], including Koebe alpha < 1 and Lerch s <= 0.
_STOCK = (
    ("koebe", lambda u: {"alpha": 3.0 * (1.0 - u[0])}, 120),
    ("exp_times_z", lambda u: {}, 60),
    ("kummer", lambda u: {"alpha": 6.0 * u[0] - 3.0, "lam": 0.1 + 2.9 * u[1]}, 60),
    ("hurwitz_lerch", lambda u: {"alpha": 3.0 * (1.0 - u[0]), "lam": 3.0 * (1.0 - u[1]),
                                 "rho": 0.5 + 2.5 * u[2], "s": 4.0 * u[3] - 2.0,
                                 "a": 0.5 + 1.5 * u[4]}, 120),
)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_LOW, _HIGH = (0.0,) * 5, (0.999,) * 5


@pytest.mark.parametrize("kind,stock,order", _STOCK, ids=[case[0] for case in _STOCK])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(params=window_params(), r=st.floats(0.0, 0.5), angle=st.floats(-math.pi, math.pi),
       u=st.tuples(*[_UNIT] * 5))
@example(params=(1.0, 1e-9, 0.0), r=0.5, angle=0.0, u=_LOW)  # beta - tau at its largest
@example(params=(1.0, 1e-9, 50.0), r=0.5, angle=2.1, u=_HIGH)
@example(params=(1.0, 1.0, 0.0), r=0.5, angle=math.pi, u=_LOW)  # tau = beta = 1
@example(params=(1.0, 1.0, 50.0), r=0.5, angle=-2.5, u=_HIGH)
@example(params=(1e-9, 1e-9, 0.0), r=0.5, angle=1.0, u=_LOW)  # the smallest beta and tau
@example(params=(1e-9, 1e-9, 50.0), r=0.5, angle=-1.0, u=_HIGH)
@example(params=(0.5, 1e-9, 25.0), r=0.5, angle=math.pi, u=_LOW)
@example(params=(1.0, 0.5, 50.0), r=0.5, angle=0.3, u=_HIGH)
def test_closed_forms_match_the_termwise_image(kind, stock, order, params, r, angle, u):
    """Each closed form agrees with apply_operator on its truncated stock input to 1e-10."""
    p = OperatorParams(*params)
    kw = stock(u)
    z = r * cmath.exp(1j * angle)
    got = closed_form_spec(p, kind, **kw).evaluate(z)
    want = apply_operator(p, make_builtin(kind, order, **kw)).evaluate(z)
    assert abs(got - want) <= 1e-10 * abs(want) + 1e-300, (kw, got, want)


# The laws below are the seeded suites' checks (verify.suite_identity_law,
# suite_reduction_law, suite_theta_equivalence) at the same tolerances, over
# the whole window instead of draw_params' narrower box.
_LAW_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@_LAW_SETTINGS
@given(beta=st.floats(POLE_GUARD, 1.0), gamma=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
@example(beta=1e-9, gamma=0.0, seed=0)
@example(beta=1.0, gamma=50.0, seed=1)
def test_identity_law_is_bit_exact(beta, gamma, seed):
    """tau = beta: both Gamma arguments coincide, so every coefficient passes through unchanged."""
    p = OperatorParams(beta, beta, gamma)
    f = random_normalized_series(np.random.default_rng(seed), 12)
    assert np.array_equal(apply_operator(p, f).series.coeffs, f.coeffs)
    assert np.array_equal(theta_normalize(p, f).coeffs, f.coeffs)


@_LAW_SETTINGS
@given(params=window_params(), upsilon=st.floats(0.0, 6.0))
@example(params=(1.0, 1e-9, 0.0), upsilon=0.0)
@example(params=(1.0, 1e-9, 0.0), upsilon=6.0)
@example(params=(1e-9, 1e-9, 0.0), upsilon=3.0)
def test_gamma_zero_reduces_to_the_two_parameter_ratio(params, upsilon):
    """gamma = 0: the coefficient is Gamma(u+beta) Gamma(tau) / (Gamma(u+tau) Gamma(beta)) to 1e-12."""
    p = OperatorParams(params[0], params[1], 0.0)
    got = monomial_transform(p, upsilon)
    want = math.exp(log_gamma(upsilon + p.beta) + log_gamma(p.tau)
                    - log_gamma(upsilon + p.tau) - log_gamma(p.beta))
    assert abs(got.coefficient - want) <= 1e-12 * abs(want), (got.coefficient, want)
    assert got.exponent == upsilon


@_LAW_SETTINGS
@given(params=window_params())
def test_phi_of_one_is_exactly_one(params):
    p = OperatorParams(*params)
    assert phi_multiplier(p, 1) == 1.0
    f = random_normalized_series(np.random.default_rng(0), 4)
    assert theta_normalize(p, f).coeffs[1] == 1.0


def _log_gamma_conditioning(p, kappa):
    """Relative error of Phi(kappa) carried by its four log-Gamma values.

    Phi(kappa) = exp(R(kappa) - R(1)) with R(m) = log Gamma(x_m) - log Gamma(x_m - beta + tau):
    one ulp on each value x and on its argument moves the exponent by
    eps (|log Gamma(x)| + |x psi(x)|).
    """
    c = (np.array([1.0, *kappa]) + p.gamma * (1.0 - p.beta)) / (p.gamma + 1.0)
    x = np.stack([c + p.beta, c + p.tau])
    per_value = np.sum(np.abs(sc.loggamma(x)) + np.abs(x * sc.digamma(x)), axis=0)
    return np.finfo(np.float64).eps * (per_value[1:] + per_value[0])


@_LAW_SETTINGS
@given(params=window_params(), seed=st.integers(0, 2**32 - 1))
@example(params=(1.0, 1e-9, 0.0), seed=0)
@example(params=(1.0, 1e-9, 50.0), seed=1)
@example(params=(1.0, 1.0, 50.0), seed=2)
@example(params=(1e-9, 1e-9, 0.0), seed=3)
@example(params=(1e-9, 1e-9, 50.0), seed=4)
@example(params=(0.5, 1e-9, 25.0), seed=5)
def test_theta_routes_agree(params, seed):
    """The multiplier and Fox-Wright Hadamard routes to Theta agree coefficientwise.

    The bound is the theta_equivalence suite's 1e-12 (relative to max(1, |c|)),
    or twice the log-Gamma conditioning of Phi(kappa) where that is wider.
    """
    p = OperatorParams(*params)
    f = random_normalized_series(np.random.default_rng(seed), 64)
    t1, t2 = theta_normalize(p, f).coeffs, theta_hadamard(p, f).coeffs
    dev = np.abs(t1 - t2) / np.maximum(1.0, np.abs(t1))
    bound = np.maximum(1e-12, 2.0 * _log_gamma_conditioning(p, np.arange(1.0, t1.size)))
    assert np.all(dev[1:] <= bound), (float(np.max(dev[1:] / bound)), params)
    assert dev[0] == 0.0
