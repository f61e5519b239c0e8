"""Independent Gauss-Jacobi route for the operator: nodes, kernel, oracle."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops import quadrature
from fracops.errors import ConvergenceError, DomainError
from fracops.fracdiff import OperatorParams, apply_operator, monomial_transform
from fracops.quadrature import (
    RULE_CACHE_SIZE,
    inner_integral,
    jacobi_nodes,
    oracle_eval,
)
from fracops.series import PowerSeries, koebe_series, monomial_series
from fracops.special import POLE_GUARD, beta_fn


def _params(beta=0.65, tau=0.3, gamma=1.7):
    return OperatorParams(beta, tau, gamma)


# ---------------------------------------------------------------------------
# nodes


def test_jacobi_nodes_sane():
    u, w = jacobi_nodes(0.7, 1.4, 32)
    assert np.all((0.0 < u) & (u < 1.0))
    assert np.all(w > 0.0)


@pytest.mark.parametrize("a1,b1,n", [(0.7, 1.4, 0), (-0.5, 1.0, 16), (math.nan, 1.0, 16), (0.7, 1.4, 2.5),
                                      (1.0, math.inf, 16), ([1.0, 0.0], [1.4, 1.0], 16), ([1.0, 0.7], [1.4], 16),
                                      (math.exp(-21), 1.0, 16), (1.0, 5e-10, 16)])
def test_jacobi_nodes_refuses_input_that_has_no_rule(a1, b1, n):
    """n < 1 or not an integer, a1 or b1 not finite or below POLE_GUARD, or unequal-length sequences raise DomainError.

    Below the guard B(a1, b1) would meet log_gamma's pole guard, so the refusal names the guard.
    """
    with pytest.raises(DomainError) as err:
        jacobi_nodes(a1, b1, n)
    if isinstance(a1, float) and 0.0 < min(a1, b1) < POLE_GUARD:
        assert "POLE_GUARD" in str(err.value)


def test_stacked_jacobi_nodes_rows_equal_scalar_calls_bit_for_bit():
    """Each row of a stacked call has the bits of its own scalar call: random (a1, b1), the end panels' corners included."""
    rng = np.random.default_rng(46)
    corners = [(1.0, 1.0), (1e-9, 1.0), (1.0, 1e-3), (0.0002, 0.0001 + 1.0), (1.0, 1200.65), (2.0, 1.0)]
    a1, b1 = (np.concatenate([c, np.exp(rng.uniform(math.log(2e-9), 7.0, 40))]) for c in zip(*corners))
    for n in (1, 2, 16, 32):
        u, w = jacobi_nodes(a1.tolist(), b1.tolist(), n)
        assert u.shape == w.shape == (a1.size, n)
        for row, (x, y) in enumerate(zip(a1.tolist(), b1.tolist())):
            for got, want in zip((u[row], w[row]), jacobi_nodes(x, y, n)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, x, y)


def _reference_rule(p, n):
    """Nodes u = w^{1/(gamma+1)} and weights W of the graded rule on n nodes per panel, one rule alone.

    Each panel's Gauss rule comes from jacobi_nodes: the end panels' from one
    stacked call, the Legendre panels' from (1, 1). The rule's arithmetic is
    written out panel by panel, for one rule alone: the reference that
    _rules' side-by-side build of both rules matches bit for bit.
    """
    a_p, b_p = p.jacobi_exponents
    a1, b1 = (1.0 - p.beta) + p.tau, (p.beta + p.gamma) / (p.gamma + 1.0)
    bottom = 0.5 * quadrature.SIGMA**quadrature.GEOMETRIC
    top = 0.5**quadrature.HALVING
    (x_lo, x_hi), (wx_lo, wx_hi) = jacobi_nodes([1.0, a1], [b1, 1.0], n)
    x, wx = jacobi_nodes(1.0, 1.0, n)
    edges = np.concatenate([0.5 * quadrature.SIGMA ** np.arange(quadrature.GEOMETRIC, 0, -1.0),
                            1.0 - 0.5 ** np.arange(1.0, quadrature.HALVING + 1)])
    width = np.diff(edges)[:, None]
    w_mid = (edges[:-1, None] + width * x).reshape(-1)
    v_mid = ((1.0 - edges[:-1, None]) - width * x).reshape(-1)
    wts_mid = (width * wx).reshape(-1)
    w_lo = bottom * x_lo
    w_hi = (1.0 - top) + top * x_hi
    w = np.concatenate([w_lo, w_mid, w_hi])
    wts = np.concatenate([bottom**b1 * wx_lo * (1.0 - w_lo) ** a_p,
                          wts_mid * w_mid**b_p * v_mid**a_p,
                          top**a1 * wx_hi * w_hi**b_p])
    return w ** (1.0 / (p.gamma + 1.0)), wts


def _entry_rules(entry):
    """A _rules entry's two rules, (u, W) each, the coarse rule's first."""
    u, w, edges, _ = entry
    return [(u[lo:hi], w[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rules_equal_rules_built_one_at_a_time_bit_for_bit():
    """_rules(p) builds both rules in one pass; each has the bits of its own reference build.

    About 200 seeded triples, with the window's corners: beta down to 1e-3,
    tau down to 1e-9, beta - tau up to 0.999 and gamma up to 1000.
    """
    rng = np.random.default_rng(47)
    triples = [(1.0, 1e-9, 0.0), (1.0, 1e-9, 1000.0), (1e-3, 1e-9, 0.0), (1e-3, 1e-3, 1000.0), (1.0, 1e-3, 0.0),
               (0.9999, 1e-4, 3.0), (1.0, 1.0, 0.0), (0.5, 0.5, 1.0), (0.12, 0.072, 0.09)]
    while len(triples) < 200:
        beta = math.exp(rng.uniform(math.log(1e-3), 0.0))
        tau = (beta, max(beta - rng.uniform(0.0, min(beta, 0.999)), 1e-9),
               min(beta, math.exp(rng.uniform(math.log(1e-9), math.log(1e-6)))))[rng.integers(3)]
        gamma = (0.0, 1.0, rng.uniform(0.0, 5.0), rng.uniform(5.0, 1000.0))[rng.integers(4)]
        triples.append((beta, tau, gamma))
    quadrature._rules.cache_clear()
    for triple in triples:
        p = OperatorParams(*triple)
        entry = quadrature._rules(p)
        want = [_reference_rule(p, n) for n in (quadrature.NODE_COUNT, 2 * quadrature.NODE_COUNT)]
        assert entry[2] == (0, want[0][0].size, want[0][0].size + want[1][0].size), triple
        for (got_u, got_w), (want_u, want_w) in zip(_entry_rules(entry), want):
            assert _same_bits(got_u, want_u) and _same_bits(got_w, want_w), triple


def test_rule_cache_is_bounded():
    """300 distinct triples leave at most RULE_CACHE_SIZE draws; a repeated triple shares its read-only entry."""
    for i in range(300):
        quadrature._rules(_params(tau=0.3 + i * 1e-4))
    assert quadrature._rules.cache_info().currsize <= RULE_CACHE_SIZE == 128
    entry = quadrature._rules(_params())
    assert quadrature._rules(_params()) is entry
    quadrature._rule_moments(entry, 40)
    for a in (entry[0], entry[1], entry[3][1]):
        with pytest.raises(ValueError):
            a[..., 0] = 0.0  # shared cache entries are read-only


def test_cold_oracle_eval_builds_its_draw_once(monkeypatch):
    """A fresh triple's oracle_eval forms 1 recurrence, makes 2 eigh passes and 1 _moments call; the next calls none.

    The recurrence covers both end panels on 2 * NODE_COUNT nodes, with one
    eigh pass per node count, and no jacobi_nodes call is made. The Legendre
    panels, built once per process, are built first.
    """
    oracle_eval(_params(), koebe_series(1.0, 40), 0.5)
    calls = {"_jacobi_matrices": 0, "_golub_welsch": 0, "jacobi_nodes": 0, "_moments": 0}
    for name in calls:
        def counted(*args, _fn=getattr(quadrature, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quadrature, name, counted)
    p = _params(0.61, 0.27, 1.31)
    quadrature._rules.cache_clear()
    first = oracle_eval(p, koebe_series(1.0, 200), 0.4j)
    built = {"_jacobi_matrices": 1, "_golub_welsch": 2, "jacobi_nodes": 0, "_moments": 1}
    assert calls == built
    assert oracle_eval(p, koebe_series(1.0, 200), 0.4j) == first
    oracle_eval(p, koebe_series(1.0, 150), -0.3)
    assert calls == built


def test_kept_moments_grow_with_the_bits_of_a_fresh_call():
    """Orders 6 -> 200 -> 1023 grow the draw's kept row, and every prefix equals a fresh _moments call bit for bit.

    An order-1024 call computes its moments apart and leaves the kept row's length unchanged.
    """
    quadrature._rules.cache_clear()
    entry = quadrature._rules(_params(0.12, 0.072, 0.09))
    u, w, edges, kept = entry
    for order, length in ((6, quadrature._POWER_ROWS), (200, 201), (3, 201), (1023, 1024), (1024, 1024)):
        got = quadrature._rule_moments(entry, order)
        want = quadrature._moments(u, w, edges, order)
        assert got.shape == (2, order + 1) and np.array_equal(got.view(np.int64), want.view(np.int64)), order
        assert kept[1].shape == (2, length), order


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


def test_doubling_allowance_is_64_eps_of_the_term_size(monkeypatch):
    """At S = 1e9 a residual of TOLERANCE + 100 eps S raises with both values; one of 32 eps S returns the refined value.

    At S = 1 the allowance is the oracle's 1e-8: a residual of 2e-8 raises and one of 5e-9 returns.
    """
    eps = np.finfo(float).eps
    cases = ((1e9, quadrature.TOLERANCE + 100 * eps * 1e9, True), (1e9, 32 * eps * 1e9, False),
             (1.0, 2e-8, True), (1.0, 5e-9, False))
    for size, residual, raises in cases:
        refined = complex(residual)
        monkeypatch.setattr(quadrature, "_eval_doubling", lambda p, f, z: (0j, refined, size))
        if raises:
            with pytest.raises(ConvergenceError) as err:
                oracle_eval(_params(), PowerSeries([1.0]), 0.5)
            assert (err.value.last, err.value.previous) == (refined, 0j)
        else:
            assert oracle_eval(_params(), PowerSeries([1.0]), 0.5) == refined


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
    u, w, edges, _ = quadrature._rules(p)
    m = quadrature._moments(u, w, list(edges), 1000)[1]
    b, t, g = (mpmath.mpf(v) for v in (beta, tau, gamma))
    for k in (0, 1, 2, 10, 200, 1000):
        want = mpmath.beta((b + g + k) / (g + 1), (1 - b) + t)
        assert abs(m[k] - want) <= 1e-13 * want, (k, m[k], float(want))


def _plain_moments(u, wts, order):
    """The rule's moments from power tables that keep every u^k, subnormal ones included."""
    log_u = np.log(u)
    low = np.exp(np.arange(min(quadrature._POWER_ROWS, order + 1))[:, None] * log_u)
    out = np.empty(order + quadrature._POWER_ROWS)
    for start in range(0, order + 1, quadrature._MOMENT_CHUNK):
        k = np.arange(start, min(start + quadrature._MOMENT_CHUNK, order + 1), quadrature._POWER_ROWS)
        block = np.einsum("aj,bj->ab", wts * np.exp(k[:, None] * log_u), low)
        out[start:start + block.size] = block.reshape(-1)
    return out[:order + 1]


def test_moments_skip_subnormal_powers_without_changing_a_bit():
    """_moments zeroes the powers whose products would be subnormal; the moments keep every bit.

    Random triples with beta down to 1e-3 and gamma up to 1200, both node
    counts, orders 6, 200 and 4096; each rule alone, and both side by side
    in one call, as the oracle takes them.
    """
    rng = np.random.default_rng(52)
    for _ in range(40):
        beta = math.exp(rng.uniform(math.log(1e-3), 0.0))
        tau = max(beta - rng.uniform(0.0, min(beta, 0.999)), 1e-9) if rng.random() < 0.8 else beta
        gamma = (0.0, rng.uniform(0.0, 5.0), rng.uniform(5.0, 1200.0))[rng.integers(3)]
        p = OperatorParams(beta, tau, gamma)
        entry = quadrature._rules(p)
        u, w, edges, _ = entry
        rules = _entry_rules(entry)
        for order in (6, 200, 4096):
            for rule in rules:
                (got,), want = quadrature._moments(*rule, [0, rule[0].size], order), _plain_moments(*rule, order)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (p, rule[0].size, order)
            side_by_side = quadrature._moments(u, w, list(edges), order)  # the oracle's layout
            for got, rule in zip(side_by_side, rules):
                assert np.array_equal(got.view(np.int64), _plain_moments(*rule, order).view(np.int64)), (p, order)


# ---------------------------------------------------------------------------
# inner integral


@pytest.mark.parametrize("beta,tau,gamma", [(0.65, 0.3, 1.7), (0.9, 0.85, 0.0), (0.3, 0.1, 3.0)])
def test_constant_input_reproduces_beta_function(beta, tau, gamma):
    """With f == 1 the weighted integral is an exact Beta value."""
    p = OperatorParams(beta, tau, gamma)
    got = inner_integral(p, PowerSeries([1.0]), 0.3)
    want = beta_fn((beta - 1.0) / (gamma + 1.0) + 1.0, 1.0 - beta + tau)
    assert abs(got - want) <= 1e-12 * abs(want)


def _big_p(p):
    """P = gamma (1 - beta) + (gamma + 1) tau, the power of z in front of the inner integral."""
    return p.gamma * (1.0 - p.beta) + (p.gamma + 1.0) * p.tau


def test_inner_integral_with_derivative_pair():
    """A rule's moment sum is P I + z I', with I' a central difference of inner_integral in z."""
    p = _params()
    f = koebe_series(1.0, 80)
    z = 0.25
    coarse, refined, _ = quadrature._rule_sums(p, f, z)
    assert_allclose(refined, coarse, rtol=1e-12)  # the doubled rule agrees
    h = 1e-6
    fd = (inner_integral(p, f, z + h) - inner_integral(p, f, z - h)) / (2 * h)
    assert_allclose(coarse, _big_p(p) * inner_integral(p, f, z) + z * fd, rtol=1e-8)


def _horner_at_the_nodes(p, f, z):
    """sum_j W_j (P f(z u_j) + z u_j f'(z u_j)) on both rules, each f and f' value by Horner."""
    fp = f.derivative()
    out = []
    for u, w in _entry_rules(quadrature._rules(p)):
        out.append(np.sum(w * (_big_p(p) * f.evaluate(z * u) + z * u * fp.evaluate(z * u))))
    return out


@pytest.mark.parametrize("order", [1, 8, 200, 4096])
@pytest.mark.parametrize("beta,tau,gamma", [(0.65, 0.3, 1.7), (0.65, 0.3, 1200.0), (1.0, 1e-9, 0.0),
                                            (1.0, 1e-9, 0.5)])
def test_moment_sums_match_horner_at_the_nodes(beta, tau, gamma, order):
    """Each rule's moment sum agrees with Horner at the nodes to 1e-13, and so does the size S sums.

    The error is taken relative to the same sum over |c_k| |z u_j|^k, the
    scale of either side's rounding: at z = -0.99 Koebe's terms cancel by a
    factor of about 4e4, so plain relative error would measure the rounding
    of the reference as well. On the refined rule that scale is the
    sum_k M_k |t_k| the oracle's roundoff allowance reads.
    """
    p = OperatorParams(beta, tau, gamma)
    rng = np.random.default_rng(order)
    noise = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
    for f in (koebe_series(2.0, order), noise):
        majorant = PowerSeries(np.abs(f.coeffs))
        for z in (0.99, -0.99, 0.99 * np.exp(2.2j), 0.3j):
            scales = [s.real for s in _horner_at_the_nodes(p, majorant, abs(z))]
            *got, size = quadrature._rule_sums(p, f, z)
            for g, h, s in zip(got, _horner_at_the_nodes(p, f, z), scales):
                assert abs(g - h) <= 1e-13 * s, (z, g, h, s)
            assert abs(size - scales[1]) <= 1e-13 * scales[1], (z, size, scales[1])


def _with_peak(p, f, z):
    """oracle_eval(p, f, z) and the peak of the memory traced during the call."""
    tracemalloc.start()
    try:
        return oracle_eval(p, f, z), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_at_order_2_18_stays_bounded():
    """The moments are built a chunk of indices at a time.

    One call peaks near 18 MB, mostly the coefficient terms. Power tables
    for all indices at once would add about 170 MB, and a nodes x order
    table 1.3 GB.
    """
    f = koebe_series(2.0, 2**18)
    p = _params()
    oracle_eval(p, koebe_series(2.0, 8), 0.5)  # the rules' first build is not an order-2^18 call's memory
    peak = _with_peak(p, f, 0.9j)[1]
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
    for z in (-1.2, complex("nan"), complex(0.1, math.inf), 1.7e308 + 1.7e308j):  # abs() overflows on the last
        with pytest.raises(DomainError):
            oracle_eval(p, f, z)


def test_oracle_small_z_matches_the_termwise_image():
    """Below |z| = 1e-6 the oracle sums every term of f, as at any other z in the disk.

    A leading-term shortcut there would be 1.2e-4 off at z = 9.9e-7 for the
    quartic, whose 100 z^2 term is 1e-4 of its z term, and 2.4e-7 off for
    Koebe at z = 1e-7. Koebe at order 65536 matches at 1e-7 and 5e-7i and at
    four points of the 0.95 ring, and each of those calls peaks under 8 MiB
    (near 3 MB): its moments are built a chunk of indices at a time.
    """
    p = _params(0.7, 0.4, 1.1)
    f = PowerSeries([0.0, 1.0, 100.0, -3.0, 0.5])
    image = apply_operator(p, f)
    for z in (9.9e-7, 3e-7j, 1e-9 * np.exp(2j), 1e-30):
        assert_allclose(oracle_eval(p, f, z), image.evaluate(z), rtol=1e-12, err_msg=str(z))
    p, f = _params(0.65, 0.3, 1.4), koebe_series(2.0, 65536)
    image = apply_operator(p, f)
    oracle_eval(p, koebe_series(2.0, 8), 0.5)  # the rules' first build is not an order-65536 call's memory
    ring = [0.95 * cmath.exp(1j * angle) for angle in (0.0, 1.0, 2.0, -2.5)]
    for z, rtol in [(1e-7, 1e-12), (5e-7j, 1e-12)] + [(z, 1e-10) for z in ring]:
        got, peak = _with_peak(p, f, z)
        assert_allclose(got, image.evaluate(z), rtol=rtol, err_msg=str(z))
        assert peak < 8 * 2**20, (z, peak)


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
    """The terms (P + k) c_k z^k overflow to inf, so both moment sums do and the residual is nan: it fails the guard."""
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

