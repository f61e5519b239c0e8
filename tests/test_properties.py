"""Property tests over the whole admissible parameter window."""

import cmath
import math
import re

import numpy as np
import pytest
import scipy.special as sc

from fracops import fracdiff
from fracops.errors import DomainError
from fracops.fracdiff import (
    OperatorParams,
    apply_operator,
    closed_form_spec,
    log_gamma_ratio,
    log_gamma_ratios,
    monomial_transform,
    monomial_transforms,
    phi_multiplier,
    theta_hadamard,
    theta_normalize,
)
from fracops.series import PowerSeries, make_builtin
from fracops.special import POLE_GUARD, log_gamma
from fracops.verify import random_normalized_coeffs

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
    f = PowerSeries(random_normalized_coeffs(np.random.default_rng(seed), 12))
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
    f = PowerSeries(random_normalized_coeffs(np.random.default_rng(0), 4))
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
    f = PowerSeries(random_normalized_coeffs(np.random.default_rng(seed), 64))
    t1, t2 = theta_normalize(p, f).coeffs, theta_hadamard(p, f).coeffs
    dev = np.abs(t1 - t2) / np.maximum(1.0, np.abs(t1))
    bound = np.maximum(1e-12, 2.0 * _log_gamma_conditioning(p, np.arange(1.0, t1.size)))
    assert np.all(dev[1:] <= bound), (float(np.max(dev[1:] / bound)), params)
    assert dev[0] == 0.0


@st.composite
def kernel_triples(draw, count):
    """count triples over the kernel's whole window: beta >= 1e-3, tau >= POLE_GUARD, beta - tau <= 0.999, gamma <= 1e5."""
    triples = []
    for _ in range(count):
        beta = draw(st.floats(1e-3, 1.0))
        tau = draw(st.floats(max(POLE_GUARD, beta - (1.0 - 1e-3)), beta))
        triples.append(OperatorParams(beta, tau, draw(st.floats(0.0, 1e5))))
    return triples


# c = (m + gamma (1 - beta)) / (gamma + 1) crosses 16 below m = 16 (gamma + 1) <= 1.6e6 + 16:
# these indices fall on both sides of it for every gamma in the window
_BOTH_SIDES = np.unique(np.r_[np.arange(18.0), np.round(np.geomspace(18.0, 4e6, 24))])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), count=st.sampled_from([1, 2, 7, 200]))
def test_kernel_batch_rows_have_the_bits_of_single_calls(data, count):
    """log_gamma_ratios over T triples gives each row the bits of log_gamma_ratio on its own triple.

    Shared indices (n,) on both sides of c = 16, and one index per triple
    (T, 1); the front factor and Theta's multipliers taken over the rows
    give each row the bits of their single-triple calls too.
    """
    ps = data.draw(kernel_triples(count))
    extra = data.draw(st.lists(st.floats(0.0, 4e6), max_size=5))
    m = np.r_[_BOTH_SIDES, extra]
    rows = log_gamma_ratios(ps, m)
    assert rows.shape == (count, m.size)
    for p, row in zip(ps, rows):
        assert row.tobytes() == log_gamma_ratio(p, m).tobytes(), p
    with np.errstate(over="ignore", under="ignore"):
        fronts = fracdiff._front_times_exp(ps, rows[:, :20])
        for p, row, front in zip(ps, rows, fronts):
            assert front.tobytes() == fracdiff._front_times_exp(p, row[:20]).tobytes(), p
    coeffs = np.ones((count, 20), dtype=np.complex128)
    for p, row, theta in zip(ps, rows, fracdiff._times_phi(coeffs, rows[:, :20])):
        assert theta.tobytes() == fracdiff._times_phi(coeffs[0], row[:20]).tobytes(), p
    own = data.draw(st.lists(st.floats(0.0, 4e6), min_size=count, max_size=count))
    for p, x, got in zip(ps, own, log_gamma_ratios(ps, np.array(own)[:, None])):
        assert got.tobytes() == log_gamma_ratio(p, [x]).tobytes(), (p, x)
    try:
        images = [monomial_transform(p, x) for p, x in zip(ps, own)]
    except DomainError as exc:  # a coefficient or exponent beyond float64
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            monomial_transforms(ps, own)
    else:
        assert monomial_transforms(ps, own) == images
