"""Gamma-family primitives and the Fox-Wright evaluator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops.errors import DomainError, PoleHitError
from fracops.special import (
    MAX_TERMS_DEFAULT,
    EvalStatus,
    FoxWrightSpec,
    _sum_terms,
    beta_fn,
    fox_wright_eval,
    is_near_pole,
    log_gamma,
)

mpmath = pytest.importorskip("mpmath")


# ---------------------------------------------------------------------------
# log_gamma


def test_log_gamma_matches_mpmath_on_complex_grid():
    """Cross-check against arbitrary precision over a wide complex grid."""
    mpmath.mp.dps = 30
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-20, 50), rng.uniform(-50, 50))
        if round(z.real) <= 0 and abs(z - round(z.real)) < 1e-3:
            continue  # too close to a pole for a relative comparison
        got = log_gamma(z)
        want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-13


def test_log_gamma_real_positive_returns_float():
    out = log_gamma(3.5)
    assert isinstance(out, float)
    assert_allclose(out, math.lgamma(3.5), rtol=1e-15)


def test_log_gamma_negative_real_promotes_to_complex():
    out = log_gamma(-2.5)
    assert isinstance(out, complex)
    # |Gamma(-2.5)| through the reflection formula
    want = math.pi / (abs(math.sin(math.pi * -2.5)) * math.gamma(3.5))
    assert_allclose(math.exp(out.real), want, rtol=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, 0.0 + 0j, -3.0 + 1e-12j, 5e-10])
def test_log_gamma_pole_guard(z):
    with pytest.raises(PoleHitError):
        log_gamma(z)


@pytest.mark.parametrize("x", [1e-10, -1e-10])
def test_pole_guard_holds_on_both_sides_of_zero_for_scalars_and_arrays(x):
    with pytest.raises(PoleHitError):
        log_gamma(x)
    with pytest.raises(PoleHitError):
        log_gamma(np.array([x, 2.0]))
    out = fox_wright_eval(FoxWrightSpec(upper=((x, 1.0),), lower=()), 0.3)
    assert out.status is EvalStatus.POLE_HIT


@pytest.mark.parametrize("call", [
    lambda: log_gamma(math.nan),
    lambda: log_gamma(-math.inf),
    lambda: beta_fn(math.nan, 1.0),
    lambda: is_near_pole(complex(1.0, math.inf)),
], ids=["log_gamma nan", "log_gamma -inf", "beta_fn nan", "is_near_pole inf"])
def test_non_finite_gamma_argument_is_a_domain_error(call):
    with pytest.raises(DomainError, match="finite"):
        call()


def test_pole_guard_radius():
    assert is_near_pole(-4.0 + 1e-10j)
    assert not is_near_pole(-4.0 + 1e-8j)
    assert not is_near_pole(12.0)


# ---------------------------------------------------------------------------
# beta


def test_beta_symmetry_and_value():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u, v = rng.uniform(0.05, 6.0, size=2)
        assert abs(beta_fn(u, v) - beta_fn(v, u)) <= 1e-13 * abs(beta_fn(u, v))
    assert beta_fn(1.0, 1.0) == 1.0
    import scipy.special as sc

    assert_allclose(beta_fn(0.3, 2.6), sc.beta(0.3, 2.6), rtol=1e-13)


def test_beta_pole_handling():
    # pole in u + v only: reciprocal Gamma kills the value
    assert beta_fn(0.5, -0.5) == 0.0
    with pytest.raises(PoleHitError):
        beta_fn(-1.0, 0.5)


# ---------------------------------------------------------------------------
# Fox-Wright spec + coefficients


def test_spec_rejects_nonpositive_weights():
    with pytest.raises(DomainError):
        FoxWrightSpec(upper=((1.0, 0.0),), lower=())
    with pytest.raises(DomainError):
        FoxWrightSpec(upper=(), lower=((1.0, -2.0),))
    for pair in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            FoxWrightSpec(upper=(pair,), lower=())
        with pytest.raises(DomainError):
            FoxWrightSpec(upper=(), lower=(pair,))


def test_spec_delta():
    spec = FoxWrightSpec(upper=((1.0, 1.0), (2.0, 0.5)), lower=((3.0, 0.25),))
    assert_allclose(spec.delta, 1.0 + 0.25 - 1.5)


def test_coefficient_zero_index():
    spec = FoxWrightSpec(upper=((2.0, 1.0),), lower=((3.0, 1.0),))
    # Gamma(2)/Gamma(3)/0! = 1/2
    assert_allclose(np.exp(spec.log_coefficients([0])), [0.5], rtol=1e-15)


def test_coefficient_pole_raises():
    spec = FoxWrightSpec(upper=((-3.0, 1.0),), lower=())
    with pytest.raises(PoleHitError):
        spec.log_coefficients(np.arange(4))
    with pytest.raises(PoleHitError):
        spec.log_coefficients(3)  # a scalar index on the pole


def test_log_coefficients_match_mpmath_on_both_branches():
    """Positive arguments give real logs; a negative one the principal complex branch."""
    mpmath.mp.dps = 30
    spec = FoxWrightSpec(upper=((1.7, 0.8), (-2.3, 0.5)), lower=((0.4, 1.3),))
    k = np.arange(0, 40, 3)
    got = spec.log_coefficients(k)
    for kappa, s in zip(k.tolist(), got):
        c = (mpmath.gamma(1.7 + 0.8 * kappa) * mpmath.gamma(-2.3 + 0.5 * kappa)
             / (mpmath.gamma(0.4 + 1.3 * kappa) * mpmath.factorial(kappa)))
        assert abs(complex(np.exp(s)) - complex(c)) <= 1e-12 * abs(complex(c))
    assert FoxWrightSpec(upper=((1.7, 0.8),), lower=()).log_coefficients(k).dtype == np.float64


def _zero_delta_spec(rng, n_upper, n_lower):
    """Seeded spec with non-unit weights and Delta = 0: the upper weights share 1 + sum B."""
    lower = [(rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.5)) for _ in range(n_lower)]
    share = rng.uniform(0.2, 1.0, size=n_upper)
    weights = share / share.sum() * (1.0 + sum(w for _, w in lower))
    upper = tuple((rng.uniform(0.3, 3.0), w) for w in weights)
    return FoxWrightSpec(upper=upper, lower=tuple(lower))


def test_radius_from_delta():
    assert FoxWrightSpec(upper=(), lower=()).radius == math.inf  # exp: Delta = 1
    assert FoxWrightSpec(upper=((1.0, 1.0), (1.0, 1.0)), lower=()).radius == 0.0  # Delta = -1
    spec = FoxWrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),))  # Delta = 0
    assert_allclose(spec.radius, 1.0 / 4.0, rtol=1e-15)


def test_radius_matches_coefficient_ratio_at_large_index():
    """c_{k+1}/c_k -> 1/radius for Delta = 0 specs with non-unit weights."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = _zero_delta_spec(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        assert spec.radius not in (0.0, math.inf)
        log_c = spec.log_coefficients([1e6, 1e6 + 1])
        assert_allclose(math.exp(log_c[0] - log_c[1]), spec.radius, rtol=1e-4)


# ---------------------------------------------------------------------------
# evaluator


def test_eval_geometric_series():
    """1Psi0 with (1,1) on top is sum Gamma(k+1)/k! z^k = 1/(1-z)."""
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=())
    out = fox_wright_eval(spec, 0.5)
    assert out.status is EvalStatus.CONVERGED
    assert_allclose(out.value, 2.0, rtol=1e-14)
    assert out.tail_bound <= 1e-14


def test_eval_exponential_series():
    spec = FoxWrightSpec(upper=(), lower=())
    out = fox_wright_eval(spec, 1.0)
    assert out.status is EvalStatus.CONVERGED
    assert_allclose(out.value, math.e, rtol=1e-14)


def test_eval_at_zero_returns_leading_coefficient():
    spec = FoxWrightSpec(upper=((2.0, 1.0),), lower=((3.0, 1.0),))
    out = fox_wright_eval(spec, 0.0)
    assert out.value == 0.5
    assert out.terms_used == 1
    assert out.status is EvalStatus.CONVERGED


def test_eval_divergent_series_flagged():
    """2Psi0 with two (1,1) rows has k! coefficients: diverges for z != 0."""
    spec = FoxWrightSpec(upper=((1.0, 1.0), (1.0, 1.0)), lower=())
    out = fox_wright_eval(spec, 0.5)
    assert out.status is EvalStatus.DIVERGENT
    assert math.isinf(out.tail_bound)


def test_eval_pole_in_lower_row():
    # b + k B hits -2 + k: pole already at kappa = 0
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((-2.0, 1.0),))
    for z in (0.3, 0.0):  # z = 0 is a one-term sum, and that term is on the pole
        out = fox_wright_eval(spec, z)
        assert out.status is EvalStatus.POLE_HIT
        assert out.terms_used == 0


def test_eval_pole_inside_a_block_keeps_the_earlier_terms():
    # -4.3 + 0.1 k reaches the pole -4 at kappa = 3: terms 0, 1, 2 are summed
    spec = FoxWrightSpec(upper=((-4.3, 0.1),), lower=())
    z = 0.4 + 0.1j
    out = fox_wright_eval(spec, z)
    assert out.status is EvalStatus.POLE_HIT
    assert out.terms_used == 3
    zm = mpmath.mpc(z)
    want = sum(mpmath.gamma(-4.3 + 0.1 * k) / mpmath.factorial(k) * zm**k for k in range(3))
    assert_allclose(out.value, complex(want), rtol=1e-13)


def test_eval_budget_exhaustion_reports_slow():
    # 1/(1 - z) at z = 0.9999: the tail falls below roundoff only after ~3.7e5 terms
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=())
    out = fox_wright_eval(spec, 0.9999)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert out.terms_used == MAX_TERMS_DEFAULT


def test_eval_complex_argument_against_mpmath():
    """1Psi1 cross-checked with mpmath's hyper via the unit-weight identity."""
    mpmath.mp.dps = 30
    spec = FoxWrightSpec(upper=((1.7, 1.0),), lower=((2.3, 1.0),))
    z = 0.35 - 0.2j
    out = fox_wright_eval(spec, z)
    assert out.status is EvalStatus.CONVERGED
    delta = mpmath.gamma(2.3) / mpmath.gamma(1.7)
    want = complex(mpmath.hyper([1.7], [2.3], mpmath.mpc(z.real, z.imag)) / delta)
    assert_allclose(out.value, want, rtol=1e-13)


def listed(terms):
    """A block function over a fixed list of terms: the series ends where the list does."""
    return lambda k: np.asarray(terms[int(k[0]):int(k[-1]) + 1])


def test_monitor_tail_bound_needs_full_window():
    terms = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    out = _sum_terms(listed(terms), max_terms=2, limit=1.0)
    assert out.tail_bound == math.inf  # only one ratio seen
    out = _sum_terms(listed(terms), max_terms=6, limit=1.0)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert_allclose(out.tail_bound, 0.03125 * 0.5 / 0.5, rtol=1e-15)


def test_sum_terms_tail_ratio_is_at_least_the_limit():
    """Inside the radius the tail ratio is max(window ratio, |z|/radius)."""
    terms = [0.5**k for k in range(6)]
    out = _sum_terms(listed(terms), max_terms=6, limit=0.9)
    assert_allclose(out.tail_bound, 0.03125 * 0.9 / 0.1, rtol=1e-14)
    below = _sum_terms(listed(terms), max_terms=6, limit=0.25)  # window ratio 0.5 is larger
    assert_allclose(below.tail_bound, 0.03125 * 0.5 / 0.5, rtol=1e-15)


def test_sum_terms_inside_the_radius_flags_cancellation():
    """Inside the radius a cancelled sum is not CONVERGED; on the circle the old rules hold."""
    terms = [1e12, -1e12] + [0.5**k for k in range(60)]
    out = _sum_terms(listed(terms), max_terms=100, limit=0.5)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert out.tail_bound <= 1e-16 * abs(out.value)
    assert _sum_terms(listed(terms), max_terms=100, limit=1.0).status is EvalStatus.CONVERGED


def test_entire_series_rising_terms_converge_unless_they_cancel():
    """exp at z = 30 rises for 30 terms and converges; at z = -30 the terms cancel to e^-30."""
    spec = FoxWrightSpec(upper=(), lower=())
    out = fox_wright_eval(spec, 30.0)
    assert out.status is EvalStatus.CONVERGED
    assert_allclose(out.value, math.exp(30.0), rtol=1e-14)
    out = fox_wright_eval(spec, -30.0)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert abs(out.value - math.exp(-30.0)) > 1e-10 * math.exp(-30.0)  # what float64 could not resolve


def test_zero_delta_unit_weights_converge_near_the_circle():
    """Delta = 0 with unit weights is a (q+1)F_q: Converged at 0.9 <= |z| < 0.99, against mpmath."""
    mpmath.mp.dps = 30
    rng = np.random.default_rng(31)
    for _ in range(12):
        q = int(rng.integers(1, 3))
        upper = [rng.uniform(0.3, 2.0) for _ in range(q + 1)]  # terms rise where sum a > 1 + sum b
        lower = [rng.uniform(0.8, 2.5) for _ in range(q)]
        spec = FoxWrightSpec(upper=tuple((a, 1.0) for a in upper),
                             lower=tuple((b, 1.0) for b in lower))
        assert spec.radius == 1.0
        z = rng.uniform(0.9, 0.99) * complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        out = fox_wright_eval(spec, z)
        assert out.status is EvalStatus.CONVERGED, (upper, lower, z)
        delta = (mpmath.fprod(mpmath.gamma(b) for b in lower)
                 / mpmath.fprod(mpmath.gamma(a) for a in upper))
        want = complex(mpmath.hyper(upper, lower, mpmath.mpc(z.real, z.imag)) / delta)
        assert abs(out.value - want) <= 1e-10 * abs(want), (upper, lower, z)


@pytest.mark.parametrize("spec,z", [
    (FoxWrightSpec(upper=((1.0, 1.0), (0.5, 1.0)), lower=((1.5, 1.0),)), 1.01),  # |z| > radius 1
    (FoxWrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),)), 0.3j),  # |z| > radius 1/4
    (FoxWrightSpec(upper=((1.0, 1.0), (1.0, 0.5)), lower=()), 1e-3),  # Delta < 0
])
def test_outside_the_radius_is_divergent_before_summing(spec, z):
    out = fox_wright_eval(spec, z)
    assert out.status is EvalStatus.DIVERGENT
    assert out.tail_bound == math.inf and out.terms_used == 0

