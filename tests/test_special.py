"""Gamma-family primitives and the Fox-Wright evaluator."""

import cmath
import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops.errors import DomainError, PoleHitError
from fracops.special import (
    _FIRST_BLOCK,
    _LAST_BLOCK,
    _MAX_CANCELLATION,
    _STOP_RTOL,
    MAX_TERMS_DEFAULT,
    POLE_GUARD,
    RATIO_WINDOW,
    EvalOutcome,
    EvalStatus,
    FoxWrightSpec,
    _sum_rows,
    _sum_terms,
    beta_fn,
    fox_wright_eval,
    is_near_pole,
    log_gamma,
)

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


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


def test_log_gamma_of_positive_reals_within_four_ulps_of_mpmath():
    """The real log Gamma (Stirling from 16 up, math.gamma below) against 40 digits over (POLE_GUARD, 1e6]."""
    mpmath.mp.dps = 40
    rng = np.random.default_rng(23)
    x = np.concatenate([np.exp(rng.uniform(math.log(POLE_GUARD), math.log(1e6), 1500)),
                        rng.uniform(0.95, 1.05, 100), rng.uniform(1.95, 2.05, 100),
                        np.arange(1.0, 41.0), [1e6]])
    got = log_gamma(x)
    assert got.dtype == np.float64
    worst = 0.0
    for xi, gi in zip(x.tolist(), got.tolist()):
        want = mpmath.loggamma(mpmath.mpf(xi))
        worst = max(worst, float(abs(gi - want) / max(1, abs(want))))
    assert worst <= 4 * 2.0**-52


@pytest.mark.parametrize("x", [POLE_GUARD, 0.3, 1.0, 2.0, 15.999999, 16.0, 16.5, 123.4, 1e6,
                               -POLE_GUARD - 1e-12, -0.3, -2.5, -15.7, -16.5, -123.4, -1e6 + 0.25])
def test_log_gamma_scalar_and_one_element_array_give_the_same_bits(x):
    """Also inside a mixed array: a real element's bits do not depend on its neighbours."""
    want = np.complex128(log_gamma(x)).tobytes()
    assert np.complex128(log_gamma(np.array([x]))[0]).tobytes() == want
    assert log_gamma(np.array([2.5, x, -7.3, 40.0, -0.5]))[1].tobytes() == want


def test_log_gamma_array_with_a_non_positive_element_is_complex():
    import scipy.special as sc

    x = np.array([2.5, -2.5, 0.5, -0.3, 20.0])
    got = log_gamma(x)
    assert got.dtype == np.complex128
    assert_allclose(got, sc.loggamma(x.astype(np.complex128)), rtol=1e-14)
    assert [v.tobytes() for v in got] == [np.complex128(log_gamma(v)).tobytes() for v in x.tolist()]


def _worst_log_gamma_error(zs):
    """Largest |log_gamma(z) - mpmath's| / max(1, |log Gamma(z)|) over zs, at 40 digits."""
    mpmath.mp.dps = 40
    worst = 0.0
    for z in zs:
        want = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        worst = max(worst, float(abs(mpmath.mpc(log_gamma(z)) - want) / max(1, abs(want))))
    return worst


def test_log_gamma_of_negative_reals_down_to_minus_1e6_matches_mpmath():
    """Reflection on the real axis, from next to the pole guard to -1e6."""
    rng = np.random.default_rng(29)
    x = -np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 300))
    x = np.concatenate([x, -np.arange(30) - 10.0 ** rng.uniform(-8.9, -2, 30), [-0.5, -2.5, -1e6 + 0.5]])
    assert _worst_log_gamma_error([complex(v) for v in x.tolist()]) < 1e-13


def test_log_gamma_over_a_wide_complex_region_matches_mpmath():
    """Re z in [-1e4, 1e3] and |Im z| <= 1e3: both halves and the reflection at large |Im z|."""
    rng = np.random.default_rng(31)
    zs = [complex(rng.uniform(-1e4, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(300)]
    zs += [complex(rng.uniform(-20.0, 0.5), s * 10.0 ** rng.uniform(-8, 2)) for s in (-1, 1) for _ in range(100)]
    assert _worst_log_gamma_error(zs) < 1e-13


def test_log_gamma_on_both_sides_of_the_cut():
    """On the negative axis the sign of a zero Im z picks the side, as for scipy.special.loggamma."""
    assert log_gamma(complex(-2.5, 0.0)).imag == pytest.approx(-3.0 * math.pi, rel=1e-15)
    assert log_gamma(complex(-2.5, -0.0)).imag == pytest.approx(3.0 * math.pi, rel=1e-15)
    assert log_gamma(complex(-2.5, 0.0)).real == log_gamma(complex(-2.5, -0.0)).real


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


@pytest.mark.parametrize("u, v", [(-0.5, 2.0), (-1.5, 0.7), (-2.5, -0.7), (-3.2, 1.1), (0.7, -4.6)])
def test_beta_of_real_arguments_is_a_real_float(u, v):
    """Im of the log-Gamma sum is k pi: the value is real, of sign (-1)^k, with no stray imaginary part."""
    mpmath.mp.dps = 30
    got = beta_fn(u, v)
    assert type(got) is float
    assert_allclose(got, float(mpmath.beta(u, v)), rtol=1e-13)
    assert isinstance(beta_fn(complex(u), v), complex)


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
    # weight sums 1e-10 apart are no rounding of Delta = 0: the series diverges
    near = FoxWrightSpec(upper=((1.0, 1.0), (1.0, 0.5 + 1e-10)), lower=((1.0, 0.5),))
    assert -1.1e-10 < near.delta < -0.9e-10 and near.radius == 0.0


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


@pytest.mark.parametrize("a,z", [(-2.5, 0.3), (1.3, -0.3), (1.3, 0.3)])
def test_eval_at_a_real_point_is_real(a, z):
    """At a real z every term is real: the value's imaginary part is exactly 0, as mpmath's sum is real.

    A negative upper parameter or a negative z puts k pi into the log of
    term k, and exp of it once left a stray imaginary part of about 1e-16.
    """
    mpmath.mp.dps = 30
    spec = FoxWrightSpec(upper=((a, 1.0),), lower=((1.5, 1.0),))
    out = fox_wright_eval(spec, z)
    assert out.status is EvalStatus.CONVERGED
    assert type(out.value) is complex and out.value.imag == 0.0
    want = float(mpmath.hyper([a], [1.5], z) * mpmath.gamma(a) / mpmath.gamma(1.5))
    assert abs(out.value.real - want) <= 2e-15 * abs(want), (out.value, want)


def listed(terms):
    """A block function over a fixed list of terms: the series ends where the list does."""
    return lambda k: np.asarray(terms[int(k[0]):int(k[-1]) + 1])


def test_monitor_tail_bound_needs_full_window():
    terms = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    out = _sum_terms(listed(terms), max_terms=2, limit=0.0)
    assert out.tail_bound == math.inf  # only one ratio seen
    out = _sum_terms(listed(terms), max_terms=6, limit=0.0)
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
    """A cancelled sum is not CONVERGED at a tail or zero-term stop, inside the radius or on the circle.

    On the circle no tail bound stops the sum: these terms run to the end of
    the list, an exact finite sum, unless a zero term stops them first.
    """
    terms = [1e12, -1e12] + [0.5**k for k in range(60)]
    out = _sum_terms(listed(terms), max_terms=100, limit=0.5)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert out.tail_bound <= 1e-16 * abs(out.value)
    out = _sum_terms(listed(terms), max_terms=100, limit=1.0)
    assert (out.status, out.terms_used, out.tail_bound) == (EvalStatus.CONVERGED, len(terms), 0.0)
    out = _sum_terms(listed(terms + [0.0, 1.0]), max_terms=100, limit=1.0)
    assert (out.status, out.terms_used, out.tail_bound) == (EvalStatus.SLOW_CONVERGENCE, len(terms) + 1, 0.0)


def test_sum_terms_stops_only_on_a_full_window_of_ratios():
    """Four tiny ratios are fewer than RATIO_WINDOW = 5: the sum runs on into the 0.5^k terms.

    A window of 3 or 4 would stop it after 4 or 5 terms at 1.000001000001.
    """
    terms = [1e-6**k for k in range(5)] + [0.5**k for k in range(5, 200)]
    out = _sum_terms(listed(terms), max_terms=100, limit=0.5)
    assert out.status is EvalStatus.CONVERGED
    assert (out.value, out.terms_used) == (1.0625010000009998, 55)


@pytest.mark.parametrize("lower,value", [((3.0, 1.0), None), ((1.0, 1.0), 10000.0)])
def test_fox_wright_sum_on_its_circle_takes_no_tail_bound(lower, value):
    """2Psi1 at z = 1, radius 1: terms 1/((k+1)(k+2)) or all 1, slow at the budget with tail inf.

    The terms' ratios rise to 1, so no geometric bound on the tail exists;
    neither sum is Converged, and the constant one is not Divergent either.
    """
    spec = FoxWrightSpec(upper=((1.0, 1.0), (1.0, 1.0)), lower=(lower,))
    assert spec.radius == 1.0
    out = fox_wright_eval(spec, 1.0)
    assert out.status is EvalStatus.SLOW_CONVERGENCE
    assert out.terms_used == MAX_TERMS_DEFAULT and out.tail_bound == math.inf
    if value is not None:
        assert out.value == value
    else:  # sum 1/((k+1)(k+2)) over k < n is 1 - 1/(n+1)
        assert_allclose(out.value, 1.0 - 1.0 / (MAX_TERMS_DEFAULT + 1), rtol=1e-12)


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


@pytest.mark.parametrize("at", [1, 200])  # in the first scanned block and in a later one
def test_a_term_whose_modulus_overflows_is_divergent_and_added(at):
    huge = complex(1.5e308, 1.5e308)  # finite parts, abs() raises OverflowError
    terms = [1.0 / (k + 1) for k in range(at)] + [huge, 1.0]
    out = _sum_terms(listed(np.array(terms)), max_terms=MAX_TERMS_DEFAULT, limit=1.0)
    assert out.status is EvalStatus.DIVERGENT
    assert out.terms_used == at + 1 and out.tail_bound == math.inf
    assert out.value == sum(terms[:at]) + huge


@pytest.mark.parametrize("spec,z", [
    (FoxWrightSpec(upper=((1.0, 1.0), (0.5, 1.0)), lower=((1.5, 1.0),)), 1.01),  # |z| > radius 1
    (FoxWrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),)), 0.3j),  # |z| > radius 1/4
    (FoxWrightSpec(upper=((1.0, 1.0), (1.0, 0.5)), lower=()), 1e-3),  # Delta < 0
])
def test_outside_the_radius_is_divergent_before_summing(spec, z):
    out = fox_wright_eval(spec, z)
    assert out.status is EvalStatus.DIVERGENT
    assert out.tail_bound == math.inf and out.terms_used == 0


# ---------------------------------------------------------------------------
# The summation driver against the per-term loop its NumPy scan replaced: the
# driver scans every block, from index 0, at every limit.
# _reference_pull and _reference_sum_terms are that loop, kept as it was but
# for its size of a complex term whose modulus overflows: inf, as hypot gives;
# and on the circle, where it has no rising-run rule, takes its tail ratio as
# at least limit and checks for cancellation as it does inside the radius.
# It pulls the old schedule's blocks (32 doubling to 1024) at every limit.


def _reference_pull(block, kappa) -> tuple:
    """(terms at the indices kappa as a list, True if a Gamma pole cut them short)."""
    try:
        return block(kappa).tolist(), False
    except PoleHitError:  # redo one index at a time: the terms before the pole, then stop
        terms = []
        for i in range(kappa.size):
            try:
                terms += block(kappa[i:i + 1]).tolist()
            except PoleHitError:
                return terms, True
        return terms, False


def _reference_sum_terms(block, max_terms: int, limit: float) -> EvalOutcome:
    """Sum the terms of a series at the indices 0, 1, ..., at most max_terms of them.

    The driver pulls the indices itself, as float64 arrays whose length
    doubles from _FIRST_BLOCK to _LAST_BLOCK, so short sums stay cheap and
    long ones make few numpy calls. block(kappa) returns the terms at the
    indices kappa as an ndarray; a shorter array ends the series there (an
    exact finite sum). A block that raises PoleHitError is redone one index
    at a time, so the terms before the pole are summed first.

    limit is |z| over the radius of convergence. Once RATIO_WINDOW
    consecutive ratios |t_k|/|t_{k-1}| are known, let r be the largest of
    them and limit; if r < 1 the tail is bounded by |t_k| r / (1 - r)
    (geometric comparison). Stops with status
      DIVERGENT before any term when limit > 1 (value 0, tail inf);
      POLE_HIT at the index whose term raised PoleHitError (value is the
        sum so far, NaN if no term was summed);
      DIVERGENT on a non-finite term (not added) or on a term magnitude
        near float64 overflow (term added);
      CONVERGED when a term past index 0 is exactly zero or the tail bound
        drops below roundoff (tail 0 or the bound), or when the series ends
        (an exact finite sum, tail 0);
      SLOW_CONVERGENCE when the budget runs out first, or at a CONVERGED
        stop where sum |t_k| > _MAX_CANCELLATION * |total|.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be at least 1")
    if limit > 1.0:
        return EvalOutcome(0.0, EvalStatus.DIVERGENT, 0, math.inf)
    ratios = collections.deque(maxlen=RATIO_WINDOW)
    total, mass, prev, tail = 0.0, 0.0, 0.0, math.inf
    k, width = 0, _FIRST_BLOCK
    while k < max_terms:
        kappa = np.arange(k, min(k + width, max_terms), dtype=np.float64)
        width = min(2 * width, _LAST_BLOCK)
        terms, pole = _reference_pull(block, kappa)
        for term in terms:
            if not cmath.isfinite(term):
                return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
            try:
                size = abs(term)
            except OverflowError:
                size = math.inf
            total += term
            mass += size
            if prev > 0.0:
                ratios.append(size / prev)
            if size > 1e290:
                return EvalOutcome(total, EvalStatus.DIVERGENT, k + 1, math.inf)
            prev = size
            if k and size == 0.0:
                tail = 0.0
            elif len(ratios) == RATIO_WINDOW:
                r = max(limit, *ratios)
                tail = size * r / (1.0 - r) if r < 1.0 else math.inf
            k += 1
            if tail <= _STOP_RTOL * max(1.0, abs(total)):
                lost = mass > _MAX_CANCELLATION * abs(total)
                return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE if lost else EvalStatus.CONVERGED,
                                   k, tail)
        if pole:
            return EvalOutcome(total if k else complex("nan"), EvalStatus.POLE_HIT, k, math.inf)
        if len(terms) < kappa.size:
            return EvalOutcome(total, EvalStatus.CONVERGED, k, 0.0)
    return EvalOutcome(total, EvalStatus.SLOW_CONVERGENCE, max_terms, tail)


# The first indices of the blocks past the first. The reference's start at 32, 96,
# 224, 480 and 992 at every limit, and so do the driver's at limit 0 and 1; the
# driver's first block holds the expected length, so its blocks start at 64, 192,
# 448 and 960 at limit 0.5, at 128, 384 and 896 at 0.6 and 0.7, at 512 at 0.9 and
# at 1024 from 0.95 up.
_SEAMS = (32, 64, 96, 128, 192, 224, 384, 448, 480, 512, 896, 960, 992, 1024)
_NEAR_A_SEAM = st.sampled_from(_SEAMS).flatmap(lambda s: st.integers(s - 3, s + 2))


@st.composite
def _term_lists(draw):
    """(seed, length, ratio, noise, complex?, events, limit, max_terms) for _case_block."""
    events = st.tuples(st.sampled_from(("zero", "nan", "inf", "pole", "big", "huge", "rise", "cancel", "-0j")),
                       st.one_of(_NEAR_A_SEAM, st.integers(0, 1300)))
    return (draw(st.integers(0, 2**32 - 1)), draw(st.one_of(_NEAR_A_SEAM, st.integers(1, 1300), st.just(1300))),
            draw(st.one_of(st.floats(0.5, 1.03), st.floats(0.97, 1.0))),
            draw(st.sampled_from((0.0, 1e-3, 0.3))), draw(st.booleans()),
            draw(st.lists(events, max_size=3)),
            draw(st.sampled_from((0.0, 0.5, 0.6, 0.7, 0.9, 0.95, 0.99, 0.999, 1.0, 1.2))),
            draw(st.one_of(st.just(MAX_TERMS_DEFAULT), _NEAR_A_SEAM, st.integers(1, 1300))))


def _case_block(seed, n, q, noise, complex_terms, events):
    """A block function over n terms of magnitude q^k times log-normal noise, with events put in.

    An event (kind, index) sets the term at the index to 0, NaN, inf or
    1e300; "huge" sets it to 1.5e308 + 1.5e308j, whose modulus overflows
    (1.5e308 in a real list); "-0j" sets a complex term's imaginary part to -0.0;
    "rise" makes every magnitude from there on 1% above the last,
    "cancel" puts 1e12 and -1e12 there, and "pole" makes every block that
    holds the index raise PoleHitError.
    """
    rng = np.random.default_rng(seed)
    terms = np.exp(np.arange(n) * math.log(q) + noise * rng.standard_normal(n)) * rng.choice((-1.0, 1.0), n)
    if complex_terms:
        terms = terms * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    pole = -1
    for kind, at in sorted(events, key=lambda e: e[0] != "rise"):
        at = min(at, n - 1)
        if kind == "rise":
            terms[at:] *= abs(terms[at]) * 1.01 ** np.arange(n - at) / abs(terms[at:])
        elif kind == "cancel":
            terms[at:at + 2] = (1e12, -1e12)[:n - at]
        elif kind == "pole":
            pole = at
        elif kind == "-0j":
            if complex_terms:
                terms[at] = complex(terms[at].real, -0.0)
        else:
            huge = complex(1.5e308, 1.5e308) if complex_terms else 1.5e308
            terms[at] = {"zero": 0.0, "nan": math.nan, "inf": math.inf, "big": 1e300, "huge": huge}[kind]

    def block(kappa):
        lo, hi = int(kappa[0]), int(kappa[-1]) + 1
        if lo <= pole < hi:
            raise PoleHitError(float(pole))
        return terms[lo:hi]

    return block


def _bits(out):
    value = complex(out.value)
    return (type(out.value), value.real.hex(), value.imag.hex(), out.status, out.terms_used,
            out.tail_bound.hex())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_term_lists())
@example(case=(1, 1300, 0.95, 1e-3, False, [("zero", 0)], 0.9, MAX_TERMS_DEFAULT))  # zero first term
@example(case=(2, 1300, 0.99, 0.0, True, [("zero", 300)], 0.99, MAX_TERMS_DEFAULT))  # zero later term
@example(case=(3, 1300, 0.99, 1e-3, True, [("nan", 150)], 0.99, MAX_TERMS_DEFAULT))  # non-finite terms
@example(case=(4, 1300, 0.995, 1e-3, False, [("inf", 500)], 1.0, MAX_TERMS_DEFAULT))
@example(case=(5, 1300, 0.99, 1e-3, True, [("pole", 230)], 0.999, MAX_TERMS_DEFAULT))  # Gamma poles
@example(case=(6, 1300, 0.9, 0.3, False, [("pole", 5)], 0.9, MAX_TERMS_DEFAULT))
@example(case=(7, 1300, 0.9, 0.0, True, [], 1.2, MAX_TERMS_DEFAULT))  # outside the radius
@example(case=(8, 1300, 1.0, 1e-3, True, [], 1.0, 300))  # the budget ends mid-block
@example(case=(9, 1300, 0.99, 0.0, False, [("rise", 210)], 1.0, MAX_TERMS_DEFAULT))  # rising on the circle
@example(case=(10, 1300, 0.999, 1e-3, True, [("big", 481)], 1.0, MAX_TERMS_DEFAULT))  # |t| above 1e290
@example(case=(15, 1300, 0.99, 1e-3, True, [("huge", 1)], 0.9, MAX_TERMS_DEFAULT))  # |t| overflows
@example(case=(16, 1300, 0.999, 1e-3, True, [("huge", 200)], 1.0, MAX_TERMS_DEFAULT))
@example(case=(11, 1300, 0.9, 0.0, False, [("cancel", 0)], 0.5, MAX_TERMS_DEFAULT))  # a cancelling sum
@example(case=(12, 1300, 0.9, 0.0, True, [("cancel", 100)], 1.0, MAX_TERMS_DEFAULT))
@example(case=(13, 96, 0.999, 1e-3, False, [], 0.9, MAX_TERMS_DEFAULT))  # the series ends at a seam
@example(case=(14, 481, 0.999, 1e-3, True, [], 0.9, MAX_TERMS_DEFAULT))
# scanned from index 0 in a block sized to the limit
@example(case=(17, 1300, 0.99, 1e-3, True, [("-0j", 0)], 0.95, MAX_TERMS_DEFAULT))  # imaginary part -0.0
@example(case=(18, 1300, 0.95, 1e-3, True, [("zero", 0)], 0.7, MAX_TERMS_DEFAULT))  # zero first term
@example(case=(19, 1300, 0.95, 0.0, False, [("zero", 0), ("zero", 1)], 0.9, MAX_TERMS_DEFAULT))
@example(case=(20, 1300, 0.99, 1e-3, True, [("pole", 300)], 0.95, MAX_TERMS_DEFAULT))  # a pole in it
@example(case=(21, 1300, 0.9, 0.3, False, [("pole", 0)], 0.99, MAX_TERMS_DEFAULT))
@example(case=(22, 700, 0.999, 1e-3, True, [], 0.95, MAX_TERMS_DEFAULT))  # the series ends in it
@example(case=(23, 1300, 0.999, 1e-3, False, [], 0.9, 200))  # the budget ends before it
@example(case=(24, 1300, 0.9, 0.0, True, [("nan", 3)], 0.99, 3))
@example(case=(25, 1300, 0.99, 1e-3, True, [("big", 2)], 0.7, MAX_TERMS_DEFAULT))  # the window not yet full
@example(case=(26, 1300, 0.999, 1e-3, False, [("cancel", 0)], 0.999, MAX_TERMS_DEFAULT))
# index 0 in the scan: on the circle, in an entire series, a short sum
@example(case=(27, 1300, 1.0, 0.0, False, [("zero", 0)], 1.0, MAX_TERMS_DEFAULT))  # zero first term
@example(case=(28, 1300, 0.99, 1e-3, True, [("rise", 0)], 1.0, MAX_TERMS_DEFAULT))  # rising from index 0
@example(case=(29, 1300, 0.5, 1e-3, False, [("zero", 0)], 0.0, MAX_TERMS_DEFAULT))  # an entire series
@example(case=(30, 15, 0.1, 1e-3, True, [("nan", 2)], 0.1, MAX_TERMS_DEFAULT))  # a NaN in a short sum
def test_sum_terms_matches_the_per_term_reference_bit_for_bit(case):
    """Value and its type, status, terms used and tail bound: the same bits as the per-term loop.

    The reference is the loop the driver's scan replaced at every index, and
    it pulls the old schedule's blocks, 32 indices first, at every limit.
    """
    *terms, limit, max_terms = case
    want = _reference_sum_terms(_case_block(*terms), max_terms, limit)
    assert _bits(_sum_terms(_case_block(*terms), max_terms, limit)) == _bits(want), want


_EVENTS_BUT_POLES = st.tuples(st.sampled_from(("zero", "nan", "inf", "big", "huge", "rise", "cancel", "-0j")),
                              st.one_of(_NEAR_A_SEAM, st.integers(0, 1300)))


@st.composite
def _row_stacks(draw):
    """(length, complex?, pole, max_terms, rows) for _row_blocks: 2-6 rows of (seed, ratio, noise, events, limit).

    The rows share their length, their dtype and their pole index, as the
    points of one closed form do; each has its own terms, events and limit.
    """
    row = st.tuples(st.integers(0, 2**32 - 1), st.one_of(st.floats(0.5, 1.03), st.floats(0.97, 1.0)),
                    st.sampled_from((0.0, 1e-3, 0.3)), st.lists(_EVENTS_BUT_POLES, max_size=2),
                    st.sampled_from((0.0, 0.5, 0.6, 0.7, 0.9, 0.95, 0.99, 0.999, 1.0, 1.2)))
    return (draw(st.one_of(_NEAR_A_SEAM, st.integers(1, 1300), st.just(1300))), draw(st.booleans()),
            draw(st.one_of(st.none(), _NEAR_A_SEAM, st.integers(0, 1300))),
            draw(st.one_of(st.just(MAX_TERMS_DEFAULT), _NEAR_A_SEAM, st.integers(1, 1300))),
            draw(st.lists(row, min_size=2, max_size=6)))


def _row_blocks(n, complex_terms, pole, rows):
    """One _case_block per row, each with the shared length, dtype and pole."""
    poles = [] if pole is None else [("pole", pole)]
    return [_case_block(seed, n, q, noise, complex_terms, events + poles) for seed, q, noise, events, _ in rows]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_row_stacks())
@example(case=(1300, True, None, MAX_TERMS_DEFAULT,  # rows that stop in different blocks
               [(1, 0.5, 1e-3, [], 0.5), (2, 0.9, 1e-3, [], 0.5), (3, 0.99, 0.0, [], 0.5)]))
@example(case=(1300, False, None, MAX_TERMS_DEFAULT,  # a row beyond its radius
               [(4, 0.9, 1e-3, [], 0.9), (5, 1.02, 1e-3, [], 1.2), (6, 0.5, 0.3, [], 0.0)]))
@example(case=(1300, True, None, 300,  # the budget ends mid-block
               [(7, 1.0, 1e-3, [], 1.0), (8, 0.999, 0.0, [], 0.999), (9, 0.7, 1e-3, [], 0.7)]))
@example(case=(1300, True, None, MAX_TERMS_DEFAULT,  # a NaN in one row only
               [(10, 0.9, 1e-3, [("nan", 40)], 0.9), (11, 0.9, 1e-3, [], 0.9)]))
@example(case=(700, False, 300, MAX_TERMS_DEFAULT,  # a pole shared by every row
               [(12, 0.99, 1e-3, [], 0.99), (13, 0.5, 0.0, [], 0.5), (14, 0.999, 1e-3, [("zero", 0)], 1.0)]))
@example(case=(481, True, None, MAX_TERMS_DEFAULT,  # the series end while rows still run
               [(15, 0.999, 1e-3, [], 0.9), (16, 0.95, 1e-3, [("rise", 100)], 1.0)]))
def test_sum_rows_match_each_row_summed_alone_bit_for_bit(case):
    """Every row of one driver pass gets the bits of the per-term reference on that row alone.

    The first block is sized from the largest limit of the rows still running,
    so a row reads other blocks than it would alone; retired rows keep being
    computed by the block while the others run.
    """
    n, complex_terms, pole, max_terms, rows = case
    blocks = _row_blocks(n, complex_terms, pole, rows)
    got = _sum_rows(lambda kappa: np.stack([block(kappa) for block in blocks]), max_terms,
                    [limit for *_, limit in rows])
    assert len(got) == len(rows)
    for out, block, (*_, limit) in zip(got, _row_blocks(n, complex_terms, pole, rows), rows):
        want = _reference_sum_terms(block, max_terms, limit)
        assert _bits(out) == _bits(want), (limit, want)


def _reference_rows(block, max_terms, limits):
    """_reference_sum_terms on a one-row sum, called as _sum_rows is."""
    (limit,) = limits
    return [_reference_sum_terms(lambda kappa: block(kappa)[0], max_terms, limit)]


_REAL_CLOSED_FORMS = [("koebe", {"alpha": 0.5}), ("koebe", {"alpha": 1.0}), ("koebe", {"alpha": 2.0}),
                      ("kummer", {"alpha": 1.3, "lam": 2.1}),
                      ("hurwitz_lerch", {"alpha": 3.0, "lam": 2.0, "rho": 1.0, "s": 0.5, "a": 1.0}),
                      ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0})]


@pytest.mark.parametrize("kind,params", _REAL_CLOSED_FORMS)
def test_closed_form_sums_match_the_per_term_reference_bit_for_bit(kind, params, monkeypatch):
    """Real blocks, not synthetic ones: a term whose bits depended on where blocks split would show here.

    Each closed form is summed at all 20 points in one pass of the driver's
    scan, at each point alone, and by the per-term loop it replaced, which
    pulls the old 32-index start at every limit, so the three read different
    blocks; each sums a fresh image, so no kept factor is shared.
    """
    from fracops import fracdiff
    from fracops.fracdiff import OperatorParams, closed_form_spec

    for p in (OperatorParams(0.65, 0.3, 1.4), OperatorParams(0.9, 0.2, 0.0)):
        points = [radius * cmath.exp(1j * angle) for radius in (0.5, 0.7, 0.9, 0.95, 0.99)
                  for angle in (0.0, 0.3, 2.0, -2.5)]
        rows = closed_form_spec(p, kind, **params).inner_sum(np.array(points))
        for z, row in zip(points, rows):
            got = closed_form_spec(p, kind, **params).inner_sum(z)
            with monkeypatch.context() as m:
                m.setattr(fracdiff, "_sum_rows", _reference_rows)
                want = closed_form_spec(p, kind, **params).inner_sum(z)
            assert _bits(got) == _bits(want), (p, z, want)
            assert _bits(row) == _bits(want), (p, z, want)
