"""The fractional operator, its normalized companion, and closed forms."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops import fracdiff
from fracops.errors import DomainError, PoleHitError
from fracops.fracdiff import (
    OperatorParams,
    apply_operator,
    closed_form_spec,
    log_gamma_ratio,
    log_gamma_ratios,
    monomial_transform,
    phi_multiplier,
    theta_fox_wright_spec,
    theta_hadamard,
    theta_multiplier_apply,
    theta_normalize,
)
from fracops.series import (
    MAX_ORDER,
    STOCK_INPUTS,
    PowerSeries,
    exp_times_z_series,
    koebe_series,
    kummer_series,
    load_series_fixture,
    make_builtin,
)
from fracops.special import EvalStatus, log_gamma
from fracops.verify import _CLOSED_FORM_CASES, _CLOSED_FORM_PARAMS, SERIES_FIXTURE_NAMES, fixture_dir

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# parameter window


@pytest.mark.parametrize(
    "beta,tau,gamma,fragment",
    [
        (0.0, 0.5, 0.0, "0 < beta <= 1"),
        (1.5, 0.5, 0.0, "0 < beta <= 1"),
        (0.5, 0.0, 0.0, "0 < tau <= 1"),
        (1.0, 1e-10, 0.0, "tau >= POLE_GUARD = 1e-09"),
        (0.2, 0.9, 0.0, "0 <= beta - tau"),
        (0.5, 0.5, -1.0, "gamma >= 0"),
    ],
)
def test_window_violations_name_the_inequality(beta, tau, gamma, fragment):
    with pytest.raises(DomainError, match=fragment.replace("<", "<")) as err:
        OperatorParams(beta, tau, gamma)
    assert fragment in str(err.value)


def test_window_edges_admitted():
    OperatorParams(1.0, 1.0, 0.0)
    OperatorParams(1.0, 0.001, 5.0)  # beta - tau = 0.999 < 1
    p = OperatorParams(0.75, 0.25, 3.0)
    assert p.diff == -0.5
    assert_allclose(p.shift, 0.5 * 3.0)
    a, b = p.jacobi_exponents
    assert a == -0.5
    assert_allclose(b, -0.0625)
    assert -1.0 < a <= 0.0 and -1.0 < b <= 0.0


# ---------------------------------------------------------------------------
# monomial images


def test_monomial_image_worked_example():
    img = monomial_transform(OperatorParams(1.0, 0.5, 0.0), 1.0)
    assert abs(img.coefficient - 2.0) < 1e-12
    assert img.exponent == 1.0


def test_monomial_gamma_zero_reduction():
    """At gamma = 0 the coefficient is Gamma(u+beta)Gamma(tau)/(Gamma(u+tau)Gamma(beta))."""
    rng = np.random.default_rng(21)
    for _ in range(60):
        beta = rng.uniform(0.1, 1.0)
        tau = rng.uniform(max(0.05, beta - 0.9), beta)
        u = rng.uniform(0.0, 6.0)
        p = OperatorParams(beta, tau, 0.0)
        img = monomial_transform(p, u)
        want = math.exp(
            log_gamma(u + beta) + log_gamma(tau) - log_gamma(u + tau) - log_gamma(beta)
        )
        assert_allclose(img.coefficient, want, rtol=1e-12)
        assert img.exponent == u  # shift vanishes with gamma


def test_monomial_tau_equals_beta_is_exact_unity():
    """No rounding at all: the log-Gamma differences cancel bit-for-bit."""
    for beta, gamma in [(0.3, 0.0), (0.55, 1.7), (1.0, 4.2)]:
        p = OperatorParams(beta, beta, gamma)
        for u in range(8):
            img = monomial_transform(p, float(u))
            assert img.coefficient == 1.0
            assert img.exponent == gamma + u


def test_monomial_rejects_negative_power():
    with pytest.raises(DomainError):
        monomial_transform(OperatorParams(0.5, 0.3, 1.0), -0.5)


def test_apply_operator_consistent_with_monomials():
    p = OperatorParams(0.8, 0.35, 2.1)
    f = PowerSeries([0.5, 1.0, -0.25 + 0.1j, 0.0, 2.0])
    image = apply_operator(p, f)
    assert image.prefactor_power == p.shift
    for u in range(5):
        want = f.coeffs[u] * monomial_transform(p, u).coefficient
        assert_allclose(image.series.coeffs[u], want, rtol=1e-15)


def test_operator_image_evaluate():
    p = OperatorParams(0.8, 0.35, 2.1)
    f = koebe_series(1.0, 30)
    image = apply_operator(p, f)
    z = 0.2 - 0.3j
    direct = sum(
        f.coeffs[u] * monomial_transform(p, u).coefficient * z ** (p.shift + u)
        for u in range(f.order + 1)
    )
    assert_allclose(image.evaluate(z), direct, rtol=1e-13)
    assert image.evaluate(0.0) == 0.0
    for points in (np.array([z, 0.5j]), [z], np.empty(0), np.array([[z]])):  # an image takes one point
        with pytest.raises(DomainError, match="one complex point"):
            image.evaluate(points)


# ---------------------------------------------------------------------------
# the Gamma-ratio kernel at the corners of the window

# (beta, tau): smallest beta, tau/beta -> 0 down to tau = POLE_GUARD, beta - tau = 0.999, tau = beta,
# and two middle pairs: near beta - tau = 0 or 1 the expansion's Bernoulli polynomials B(1/2 + sigma)
# nearly vanish, so only beta - tau near 1/2 shows a truncation of the expansion.
_CORNERS = [(1e-3, 1e-9), (1e-3, 1e-8), (1e-3, 1e-3), (1.0, 1e-9), (1.0, 1e-8), (1.0, 1e-3), (1.0, 1.0),
            (0.852, 0.361), (0.7, 0.2)]
_CORNER_INDICES = (0, 1, 2, 7, 64, 1000, 8192)


def _lgamma_rtol(*args):
    """Relative error of exp(+-lgamma sums) in float64: each lgamma is off by ~eps |lgamma|."""
    return 8.0 * EPS * (4.0 + sum(abs(math.lgamma(float(a))) for a in args))


@pytest.mark.parametrize("gamma", [0.0, 50.0])
@pytest.mark.parametrize("beta,tau", _CORNERS)
def test_kernel_matches_mpmath_at_window_corners(beta, tau, gamma):
    """Monomial coefficients C(m) and multipliers Phi(k) up to index 8192, against 50 digits."""
    p = OperatorParams(beta, tau, gamma)
    n = _CORNER_INDICES[-1]
    c = apply_operator(p, PowerSeries(np.ones(n + 1))).series.coeffs.real
    phi = theta_normalize(p, PowerSeries(np.r_[0.0, np.ones(n)])).coeffs.real
    with mpmath.workdps(50):
        b, t, g1 = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(gamma) + 1

        def ratio(m):
            x = (m + b - 1) / g1 + 1
            return mpmath.exp(mpmath.loggamma(x) - mpmath.loggamma(x + t - b)), x

        r1, b1 = ratio(1)
        for m in _CORNER_INDICES:
            r, x = ratio(m)
            want = g1 ** (b - t) * r * mpmath.gamma(t) / mpmath.gamma(b)
            tol = _lgamma_rtol(x, x + t - b, t, b)
            assert abs(c[m] - float(want)) <= tol * float(want), (m, c[m], want)
            if m >= 1:
                tol = _lgamma_rtol(x, x + t - b, b1, b1 + t - b)
                assert abs(phi[m] - float(r / r1)) <= tol * float(r / r1), (m, phi[m])


@pytest.mark.parametrize("gamma", [0.0, 2.94, 50.0, 1e5])
@pytest.mark.parametrize("beta,tau", _CORNERS)
def test_kernel_error_is_flat_up_to_max_order(beta, tau, gamma):
    """R(m) within 8 eps max(1, |R|) of 50 digits at every index where c < 17, and up to MAX_ORDER.

    At gamma = 1e5, where c < 17 holds up to index 1.7e6, at the first 4096
    indices and up to c = 21, past MAX_ORDER. The bound does not grow with
    m: no Gamma argument of size c log c enters R, and below c = 16 no Gamma
    value at all. Each index gets the same bits from a call of its own and
    from calls of 13, 32, 33, 4096 and 8192 indices.
    """
    p = OperatorParams(beta, tau, gamma)
    g1 = gamma + 1.0
    low = min(17.0 * g1, 4096.0)
    m = np.unique(np.r_[np.arange(low), np.round(np.geomspace(low, max(MAX_ORDER, 21.0 * g1), 60))])
    assert m[-1] >= 16.0 * g1  # both sides of c = 16
    r = log_gamma_ratio(p, m)
    with mpmath.workdps(50):
        b, t, g = mpmath.mpf(beta), mpmath.mpf(tau), mpmath.mpf(gamma)
        for k, got in zip(m, r):
            c = (mpmath.mpf(k) + g * (1 - b)) / (g + 1)
            want = float(mpmath.loggamma(c + b) - mpmath.loggamma(c + t))
            assert abs(got - want) <= 8 * EPS * max(1.0, abs(want)), (k, got, want)
    assert all(log_gamma_ratio(p, k).tobytes() == got.tobytes() for k, got in zip(m, r))
    for n in (13, 32, 33, 4096, 8192):
        for i in range(0, m.size, n):
            # np.resize repeats a short last piece, so every call has exactly n indices
            got = log_gamma_ratio(p, np.resize(m[i:i + n], n))
            assert got.tobytes() == np.resize(r[i:i + n], n).tobytes(), (n, i)


def test_kernel_batch_refuses_what_it_cannot_broadcast_and_names_the_smallest_pole():
    p, q = OperatorParams(0.65, 0.3, 1.4), OperatorParams(0.9, 0.35, 0.0)
    with pytest.raises(DomainError, match="at least one"):
        log_gamma_ratios([], np.arange(4.0))
    for m in (np.zeros((3, 4)), np.zeros((2, 2, 2))):
        with pytest.raises(DomainError, match="do not broadcast against 2 triples"):
            log_gamma_ratios([p, q], m)
    assert log_gamma_ratios([p, q], np.zeros((1, 4))).shape == (2, 4)
    assert log_gamma_ratios([p, q], 3.0).tobytes() == np.array([[log_gamma_ratio(p, 3.0)],
                                                                [log_gamma_ratio(q, 3.0)]]).tobytes()
    # c + tau = -1.0 + 0.35 for q at m = -1, the smallest argument over both triples
    with pytest.raises(PoleHitError) as err:
        log_gamma_ratios([p, q], np.array([[0.0, 1.0], [-1.0, 2.0]]))
    with pytest.raises(PoleHitError) as one:
        log_gamma_ratio(q, [-1.0, 2.0])
    assert str(err.value) == str(one.value) and "-0.65" in str(err.value)


def test_tau_equals_beta_is_bit_exact_on_packaged_fixtures():
    for name in SERIES_FIXTURE_NAMES:
        f = load_series_fixture(fixture_dir() / name)
        for beta, gamma in [(1e-3, 50.0), (0.45, 1.7), (1.0, 0.0)]:
            p = OperatorParams(beta, beta, gamma)
            assert np.array_equal(apply_operator(p, f).series.coeffs, f.coeffs), name
            assert np.array_equal(theta_normalize(p, f).coeffs, f.coeffs), name


@pytest.mark.parametrize("beta,tau", _CORNERS + [(0.7, 0.4)])
def test_phi_one_is_exact_at_order_8192(beta, tau):
    f = PowerSeries(np.r_[0.0, 1.0, np.full(8191, 0.5)])
    for gamma in (0.0, 1.3, 50.0):
        assert theta_normalize(OperatorParams(beta, tau, gamma), f).coeffs[1] == 1.0


# ---------------------------------------------------------------------------
# normalized companion


def test_phi_multiplier_pinned_at_one():
    for beta, tau, gamma in [(0.5, 0.25, 0.0), (0.9, 0.2, 3.3), (1.0, 1.0, 2.0)]:
        assert phi_multiplier(OperatorParams(beta, tau, gamma), 1) == 1.0


def test_phi_multiplier_tau_equals_beta_identity():
    p = OperatorParams(0.6, 0.6, 2.5)
    for k in range(1, 40):
        assert phi_multiplier(p, k) == 1.0


def test_theta_normalize_requires_normalized_input():
    """c_0 and c_1 - 1 may be off by 1e-12; 1e-10 off is refused, by theta_normalize and, for c_0, by both routes."""
    p = OperatorParams(0.5, 0.3, 0.0)
    with pytest.raises(DomainError):
        theta_normalize(p, PowerSeries([0.0, 2.0]))
    with pytest.raises(DomainError):
        theta_multiplier_apply(p, PowerSeries([1.0, 1.0]))
    for c in ([0.0, 1.0 + 1e-10, 0.5], [1e-10, 1.0, 0.5]):
        with pytest.raises(DomainError, match="requires a normalized series"):
            theta_normalize(p, PowerSeries(c))
    for route in (theta_multiplier_apply, theta_hadamard):
        with pytest.raises(DomainError, match="zero constant term"):
            route(p, PowerSeries([1e-10, 1.0, 0.5]))
    for route in (theta_normalize, theta_multiplier_apply, theta_hadamard):
        assert route(p, PowerSeries([5e-13, 1.0 + 5e-13, 0.5])).order == 2


def test_theta_multiplier_apply_is_linear():
    p = OperatorParams(0.7, 0.2, 1.4)
    # disjoint supports make the linearity check exact in floating point
    f = PowerSeries([0.0, 1.0, 0.5, 0.0])
    g = PowerSeries([0.0, 0.0, 0.0, 3.0 - 1.0j])
    lhs = theta_multiplier_apply(p, PowerSeries(f.coeffs + g.coeffs))
    rhs = theta_multiplier_apply(p, f).coeffs + theta_multiplier_apply(p, g).coeffs
    assert np.array_equal(lhs.coeffs, rhs)
    # overlapping supports distribute only up to roundoff
    h = PowerSeries([0.0, 0.25j, -2.0, 1.0])
    assert_allclose(
        theta_multiplier_apply(p, PowerSeries(f.coeffs + h.coeffs)).coeffs,
        theta_multiplier_apply(p, f).coeffs + theta_multiplier_apply(p, h).coeffs,
        rtol=1e-15, atol=1e-15,
    )


def test_theta_hadamard_matches_multiplier_route():
    """Kernel coefficient times front constant reproduces Phi(kappa)."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        beta = rng.uniform(0.1, 1.0)
        tau = rng.uniform(max(0.05, beta - 0.9), beta)
        gamma = rng.uniform(0.0, 3.0)
        p = OperatorParams(beta, tau, gamma)
        c = np.zeros(33, dtype=np.complex128)
        c[1] = 1.0
        c[2:] = (rng.normal(size=31) + 1j * rng.normal(size=31)) / np.arange(2, 33)
        f = PowerSeries(c)
        a = theta_normalize(p, f)
        b = theta_hadamard(p, f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e3, 1e20])
def test_theta_hadamard_at_the_smallest_tau(gamma):
    """At tau = POLE_GUARD the Hadamard route's lower Gamma row stays >= tau, for any gamma."""
    p = OperatorParams(1.0, 1e-9, gamma)
    f = koebe_series(1.0, 8)
    assert_allclose(theta_hadamard(p, f).coeffs, theta_normalize(p, f).coeffs, rtol=1e-12)


def test_theta_hadamard_reads_its_kernel_in_blocks_with_the_same_bits():
    """At order 5000 the kernel is read in blocks; each coefficient matches a one-index read."""
    p = OperatorParams(0.65, 0.3, 1.4)
    f = koebe_series(2.0, 5000)
    constant, spec = theta_fox_wright_spec(p)
    kernel = np.array([spec.log_coefficients(k)[0] for k in range(f.coeffs.size - 1)])
    want = f.coeffs[1:] * constant * np.exp(kernel)
    got = theta_hadamard(p, f).coeffs
    assert got[0] == 0.0 and np.array_equal(got[1:].view(np.float64), want.view(np.float64))


def test_theta_kernel_spec_shape():
    p = OperatorParams(0.65, 0.3, 1.6)
    constant, spec = theta_fox_wright_spec(p)
    assert len(spec.upper) == 2 and len(spec.lower) == 1
    # (constant * kernel at kappa-1) is Phi(kappa)
    for k in (1, 2, 7):
        assert_allclose(
            constant * np.exp(spec.log_coefficients(k - 1)),
            phi_multiplier(p, k),
            rtol=1e-13,
        )


_TRIPLE_A, _TRIPLE_B = OperatorParams(0.65, 0.3, 1.4), OperatorParams(0.9, 0.35, 7.0)


@pytest.mark.parametrize("steps", [
    [(_TRIPLE_A, 1024), (_TRIPLE_A, 8192), (_TRIPLE_A, 1024)],
    [(_TRIPLE_A, 1024), (_TRIPLE_B, 1024), (_TRIPLE_A, 1024), (_TRIPLE_B, 8192), (_TRIPLE_A, 8192)],
    [(OperatorParams(0.55, 0.55, 2.0), 1024), (OperatorParams(0.55, 0.55, 2.0), 8192), (_TRIPLE_A, 1024)],
    [(_TRIPLE_A, 20), (_TRIPLE_A, 32), (_TRIPLE_A, 1024), (_TRIPLE_A, 31), (_TRIPLE_B, 4)],
    [(OperatorParams(0.8, 0.4, 0.0), 1024), (OperatorParams(0.8, 0.4, -0.0), 1024),
     (OperatorParams(0.8, 0.4, -0.0), 16), (OperatorParams(0.8, 0.4, 0.0), 16)],
], ids=["orders", "two-triples", "tau-equals-beta", "plain-floats", "signed-zero-gamma"])
def test_shared_kernel_rows_give_the_bits_of_a_fresh_row(steps):
    """apply_operator and both Theta entries read one kept row; each output has the bits of a row made afresh."""
    rng = np.random.default_rng(5)
    for p, order in steps:
        n = order + 1
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c[:2] = 0.0, 1.0
        f, g = PowerSeries(c), PowerSeries(np.concatenate(([0.0], 1.0 / np.arange(1.0, n))))
        want = f.coeffs * fracdiff._front_times_exp(p, log_gamma_ratio(p, np.arange(n)))
        r = log_gamma_ratio(p, np.arange(1, n))
        phi = np.exp(r - r[0])
        for got, expected in ((apply_operator(p, f).series.coeffs, want),
                              (theta_normalize(p, f).coeffs, np.concatenate(([0.0], c[1:] * phi))),
                              (theta_multiplier_apply(p, g).coeffs, np.concatenate(([0.0], g.coeffs[1:] * phi)))):
            assert got.tobytes() == expected.tobytes(), (p, order)


def _empty_row_store(monkeypatch):
    """Start the module's kept rows afresh for this test, as in a new interpreter."""
    for kind in ("kernel", "pair"):
        monkeypatch.setitem(fracdiff._row_store, kind, [None, np.empty(0)])


def test_kernel_row_is_read_only_and_kept_alone(monkeypatch):
    """The kernel row is read-only, kept for the last triple only, and grown or cut with the bits of a fresh row."""
    _empty_row_store(monkeypatch)
    row = fracdiff._kernel_row(_TRIPLE_A, 64)
    grown = fracdiff._kernel_row(_TRIPLE_A, 3000)
    for view in (row, grown, grown[1:], fracdiff._kernel_row(_TRIPLE_A, 8)):
        with pytest.raises(ValueError):
            view[0] = 1.0
    want = log_gamma_ratio(_TRIPLE_A, np.arange(3000))
    assert grown.tobytes() == want.tobytes() and row.tobytes() == want[:64].tobytes()
    assert fracdiff._kernel_row(_TRIPLE_A, 31).tobytes() == want[:31].tobytes()
    assert fracdiff._row_store["kernel"][0] == _TRIPLE_A and fracdiff._row_store["kernel"][1].size == 3000
    fracdiff._kernel_row(_TRIPLE_B, 16)
    assert fracdiff._row_store["kernel"][0] == _TRIPLE_B and fracdiff._row_store["kernel"][1].size == 16
    assert fracdiff._kernel_row(_TRIPLE_A, 8).tobytes() == want[:8].tobytes()
    assert fracdiff._row_store["kernel"][1].size == 8  # made again for the triple asked last


def test_hadamard_route_and_closed_forms_never_read_the_kernel_row(monkeypatch):
    """The two Theta routes stay apart: with the multiplier route's row gone, only that route fails.

    A closed form takes its constant, R(1), from the kernel row when it is
    built, so it is built first; its sum never reads the row.
    """
    f = koebe_series(2.0, 64)
    want = theta_normalize(_TRIPLE_A, f).coeffs
    form = closed_form_spec(_TRIPLE_A, "koebe", alpha=2.0)

    def no_row(p, n):
        raise RuntimeError("the kernel row was read")

    monkeypatch.setattr(fracdiff, "_kernel_row", no_row)
    assert_allclose(theta_hadamard(_TRIPLE_A, f).coeffs, want, rtol=1e-12)
    assert math.isfinite(abs(form.evaluate(0.5j)))
    with pytest.raises(RuntimeError, match="kernel row"):
        theta_normalize(_TRIPLE_A, f)
    with pytest.raises(RuntimeError, match="kernel row"):
        apply_operator(_TRIPLE_A, f)


_PAIR_FORMS = (("koebe", {"alpha": 2.0}), ("kummer", {"alpha": 1.3, "lam": 0.9}),
               ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}))


def _pair_row_outputs(p, order):
    """theta_hadamard at the order and three closed forms at |z| = 0.5 and 0.95, as bytes."""
    f = koebe_series(2.0, order)
    out = [theta_hadamard(p, f).coeffs.tobytes()]
    for kind, kw in _PAIR_FORMS:
        form = closed_form_spec(p, kind, **kw)
        out += [np.complex128(form.evaluate(z)).tobytes() for z in (0.5j, 0.95 * cmath.exp(2.0j))]
    return out


def test_shared_pair_rows_give_the_bits_of_a_fresh_row(monkeypatch):
    """The closed forms read one kept Gamma-pair row, the Hadamard route rows of its own; each output has fresh bits."""
    steps = [(p, order) for order in (64, 1024, 5000, 64) for p in (_TRIPLE_A, _TRIPLE_B)]
    together = [_pair_row_outputs(p, order) for p, order in steps]
    for (p, order), got in zip(steps, together):
        _empty_row_store(monkeypatch)
        assert got == _pair_row_outputs(p, order), (p, order)


def test_pair_row_is_read_only_grown_and_kept_alone(monkeypatch):
    _empty_row_store(monkeypatch)
    upper, lower = fracdiff._theta_gamma_pair(_TRIPLE_A)
    short = fracdiff._pair_row(upper, lower, 64)
    row = fracdiff._pair_row(upper, lower, 3000)
    for view in (short, row, row[1:], fracdiff._pair_row(upper, lower, 8)):
        with pytest.raises(ValueError):
            view[0] = 1.0
    k = np.arange(3000.0)
    want = log_gamma(upper[0] + k * upper[1]) - log_gamma(lower[0] + k * lower[1])
    assert row.tobytes() == want.tobytes() and short.tobytes() == want[:64].tobytes()
    assert fracdiff._row_store["pair"][0] == (upper, lower) and fracdiff._row_store["pair"][1].size == 3000
    other = fracdiff._theta_gamma_pair(_TRIPLE_B)
    fracdiff._pair_row(*other, 8)
    assert fracdiff._row_store["pair"][0] == other and fracdiff._row_store["pair"][1].size == 8
    assert fracdiff._pair_row(upper, lower, 8).tobytes() == want[:8].tobytes()
    assert fracdiff._row_store["pair"][0] == (upper, lower) and fracdiff._row_store["pair"][1].size == 8


def test_rows_of_no_index_need_no_kept_row(monkeypatch):
    """n = 0 with nothing kept gives an empty row, and theta_hadamard of the zero series its one zero coefficient."""
    _empty_row_store(monkeypatch)
    assert fracdiff._pair_row(*fracdiff._theta_gamma_pair(_TRIPLE_A), 0).shape == (0,)
    assert fracdiff._kernel_row(_TRIPLE_A, 0).shape == (0,)
    got = theta_hadamard(_TRIPLE_A, PowerSeries([0.0])).coeffs
    assert got.tolist() == [0j] and got.dtype == np.complex128
    assert fracdiff._row_store["pair"][0] is None and fracdiff._row_store["kernel"][0] is None


def test_two_closed_forms_of_one_triple_keep_their_own_rows(monkeypatch):
    """Two images of a triple evaluated in turn keep their rows apart: each value has the bits of a fresh image."""
    p, koebe = _TRIPLE_A, {"alpha": 2.0}
    lerch = {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}
    forms = [closed_form_spec(p, "koebe", **koebe), closed_form_spec(p, "hurwitz_lerch", **lerch)]
    for r in (0.5, 0.9, 0.99, 0.5):
        z = r * cmath.exp(2.0j)
        for form, (kind, kw) in zip(forms, (("koebe", koebe), ("hurwitz_lerch", lerch))):
            got = form.evaluate(z)
            _empty_row_store(monkeypatch)
            assert _value_bits(got) == _value_bits(closed_form_spec(p, kind, **kw).evaluate(z)), (kind, r)
    fills, fill = [], fracdiff.ClosedFormImage._fill_rows
    monkeypatch.setattr(fracdiff.ClosedFormImage, "_fill_rows",
                        lambda self, k, out: fills.append(self.kind) or fill(self, k, out))
    for form in forms:
        form.evaluate(0.9 * cmath.exp(2.0j))
    assert fills == []  # each image still holds the rows it grew at 0.99: neither made them again


def test_closed_forms_read_no_stock_rows_once_built(monkeypatch):
    """An image sums from the (s, a) closed_form_spec handed over: growing its rows asks stock_rows for nothing."""
    lerch = closed_form_spec(_TRIPLE_A, "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1, a=1.0)
    koebe = closed_form_spec(_TRIPLE_B, "koebe", alpha=2.0)

    def no_rows(kind, **params):
        raise RuntimeError("stock_rows was called")

    monkeypatch.setattr(fracdiff, "stock_rows", no_rows)
    assert all(math.isfinite(abs(lerch.evaluate(r * cmath.exp(2.0j)))) for r in (0.95, 0.99))
    assert lerch._rows[1].shape == (2, 4096)  # built at 0.95 (1024 indices), then grown past them at 0.99
    assert all(math.isfinite(abs(koebe.evaluate(z))) for z in (0.5j, -0.9))


def test_operator_and_multiplier_route_never_read_the_pair_row(monkeypatch):
    """The two Theta routes stay apart: with the pair rows' fill gone, the Hadamard route and the closed forms fail."""
    f = koebe_series(2.0, 64)
    want = theta_hadamard(_TRIPLE_A, f).coeffs

    def no_row(upper, lower, k, out):
        raise RuntimeError("the pair row was read")

    _empty_row_store(monkeypatch)  # so the closed form below fills its pair row afresh
    monkeypatch.setattr(fracdiff, "_fill_pair_row", no_row)
    assert_allclose(theta_normalize(_TRIPLE_A, f).coeffs, want, rtol=1e-12)
    assert np.all(np.isfinite(apply_operator(_TRIPLE_A, f).series.coeffs))
    with pytest.raises(RuntimeError, match="pair row"):
        theta_hadamard(_TRIPLE_A, f)
    with pytest.raises(RuntimeError, match="pair row"):
        closed_form_spec(_TRIPLE_A, "koebe", alpha=2.0).evaluate(0.5j)


def test_theta_hadamard_builds_its_row_in_bounded_blocks(monkeypatch):
    """At order 2^18 the pair row is built 2048 indices at a time: the peak stays near the output and the row."""
    f = koebe_series(2.0, 2**18)
    _empty_row_store(monkeypatch)
    tracemalloc.start()
    try:
        theta_hadamard(_TRIPLE_B, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak  # 4 MB of output, the 2 MB row and its 2 MB exp


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_requires_known_kind_and_params():
    p = OperatorParams(0.5, 0.25, 1.0)
    with pytest.raises(DomainError):
        closed_form_spec(p, "mystery")
    with pytest.raises(DomainError):
        closed_form_spec(p, "koebe", alpha=0.0)  # needs alpha > 0
    with pytest.raises(DomainError):
        closed_form_spec(p, "kummer", alpha=1.0)  # lam missing
    with pytest.raises(DomainError):
        closed_form_spec(p, "hurwitz_lerch", alpha=1.0, lam=1.0, rho=1.0, s=1.0, a=0.0)


_GOOD_STOCK_PARAMS = {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}
# values outside the stock table's rules beyond "present and finite"
_BAD_STOCK_VALUES = {
    "koebe": {"alpha": (0.0, -1.5)},
    "kummer": {"lam": (0.0, -2.0)},
    "hurwitz_lerch": {"rho": (-1.0,), "a": (0.0, -0.5)},
}


@pytest.mark.parametrize("kind", STOCK_INPUTS)
def test_series_and_closed_form_reject_the_same_stock_parameters(kind):
    """make_builtin and closed_form_spec read one table, so they refuse the same inputs."""
    p = OperatorParams(0.65, 0.3, 1.4)
    names, _ = STOCK_INPUTS[kind]
    good = {name: _GOOD_STOCK_PARAMS[name] for name in names}
    bad = [{k: v for k, v in good.items() if k != name} for name in names]  # one missing
    bad += [{**good, name: x} for name in names for x in (math.nan, math.inf, -math.inf)]
    bad += [{**good, name: x} for name, xs in _BAD_STOCK_VALUES.get(kind, {}).items() for x in xs]
    assert make_builtin(kind, 8, **good).order == 8
    closed_form_spec(p, kind, **good)
    for kw in bad:
        with pytest.raises(DomainError):
            make_builtin(kind, 8, **kw)
        with pytest.raises(DomainError):
            closed_form_spec(p, kind, **kw)


@pytest.mark.parametrize("kind,kw,match", [
    ("kummer", {"alpha": 1.3, "lam": -2.0}, "denominator"),
    ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": -1.0, "s": 1.1, "a": 1.0}, "denominator"),
    ("koebe", {"alpha": math.nan}, "finite"),
    ("kummer", {"alpha": 1.3, "lam": math.inf}, "finite"),
])
def test_closed_form_rejects_pole_and_non_finite_parameters(kind, kw, match):
    with pytest.raises(DomainError, match=match):
        closed_form_spec(OperatorParams(0.65, 0.3, 1.4), kind, **kw)


@pytest.mark.parametrize("kind,kw", [
    ("kummer", {"alpha": -2.5, "lam": 0.7}),
    ("hurwitz_lerch", {"alpha": -2.5, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}),
])
def test_closed_form_negative_non_integer_alpha(kind, kw):
    """The first factors alpha + j of the ratio recurrence are negative; the constant stays a real float."""
    p = OperatorParams(0.65, 0.3, 1.4)
    form = closed_form_spec(p, kind, **kw)
    assert isinstance(form.constant, float)
    image = apply_operator(p, make_builtin(kind, 200, **kw))
    for z in (0.4 + 0.2j, -0.5):
        assert_allclose(form.evaluate(z), image.evaluate(z), rtol=1e-12)


@pytest.mark.parametrize("kind,kw,terms", [
    ("kummer", {"alpha": -2.0, "lam": 0.9}, 4),
    ("hurwitz_lerch", {"alpha": 0.0, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}, 2),
    ("hurwitz_lerch", {"alpha": 1.2, "lam": -3.0, "rho": 1.5, "s": 1.1, "a": 1.0}, 5),
])
def test_closed_form_polynomial_inputs(kind, kw, terms):
    """An upper parameter at a non-positive integer ends the input, and the sum at its first zero term."""
    p = OperatorParams(0.65, 0.3, 1.4)
    form = closed_form_spec(p, kind, **kw)
    z = 0.7 + 0.3j
    out = form.inner_sum(z)
    assert out.status is EvalStatus.CONVERGED and out.terms_used == terms
    assert_allclose(form.evaluate(z), apply_operator(p, make_builtin(kind, 10, **kw)).evaluate(z), rtol=1e-13)


@pytest.mark.parametrize("kind,kw,z", [
    ("kummer", {"alpha": 1.3, "lam": 200.0}, 0.5),
    ("kummer", {"alpha": 200.0, "lam": 1.3}, 0.05),
    ("kummer", {"alpha": 200.0, "lam": 200.0}, -0.8 + 0.5j),
    ("koebe", {"alpha": 200.0}, 0.001),
    ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 200.0, "s": 1.1, "a": 1.0}, 0.9),
    ("hurwitz_lerch", {"alpha": 200.0, "lam": 0.8, "rho": 200.0, "s": 1.1, "a": 1.0}, -0.5),
])
def test_closed_form_parameters_past_the_gamma_overflow(kind, kw, z):
    """Gamma(200) overflows float64; the closed form never forms Gamma of a stock parameter."""
    p = OperatorParams(0.65, 0.3, 1.4)
    form = closed_form_spec(p, kind, **kw)
    assert form.inner_sum(z).status is EvalStatus.CONVERGED
    image = apply_operator(p, make_builtin(kind, 400, **kw))
    assert_allclose(form.evaluate(z), image.evaluate(z), rtol=1e-13)


def test_closed_form_koebe_matches_termwise_image():
    p = OperatorParams(0.7, 0.45, 1.3)
    form = closed_form_spec(p, "koebe", alpha=2.0)
    image = apply_operator(p, koebe_series(2.0, 400))
    for z in (0.3, -0.25, 0.1 + 0.4j):
        assert_allclose(form.evaluate(z), image.evaluate(z), rtol=1e-10)


def test_closed_form_kummer_degenerates_to_exp():
    p = OperatorParams(0.8, 0.15, 0.4)
    k = closed_form_spec(p, "kummer", alpha=1.3, lam=1.3)
    e = closed_form_spec(p, "exp_times_z")
    for z in (0.45, -0.2 + 0.2j):
        assert_allclose(k.evaluate(z), e.evaluate(z), rtol=1e-10)


def test_closed_form_inner_sum_reports_status():
    p = OperatorParams(0.7, 0.45, 1.3)
    form = closed_form_spec(p, "exp_times_z")
    out = form.inner_sum(0.2)
    assert out.status is EvalStatus.CONVERGED
    with pytest.raises(DomainError, match="SlowConvergence"):
        # the terms rise to ~1e11 and cancel: float64 cannot resolve the sum
        form.evaluate(-30.0)
    lerch = closed_form_spec(OperatorParams(0.65, 0.3, 1.4), "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1,
                             a=1.0)
    bad = 1.05 * cmath.exp(2.0j)  # past the radius 1
    assert lerch.inner_sum(bad).status is lerch.inner_sum(-1.2).status is EvalStatus.DIVERGENT
    with pytest.raises(DomainError, match="Divergent") as err:
        lerch.evaluate(bad)
    assert f"z={bad}" in str(err.value)
    with pytest.raises(DomainError, match="SlowConvergence"):  # on the circle
        lerch.evaluate(1.0)
    for points in (np.array([0.1, 0.2j]), [0.1], np.empty(0)):  # a closed form takes one point
        with pytest.raises(DomainError, match="one complex point"):
            lerch.inner_sum(points)
        with pytest.raises(DomainError, match="one complex point"):
            lerch.evaluate(points)


def _outcome_bits(out):
    value = complex(out.value)
    return (type(out.value), value.real.hex(), value.imag.hex(), out.status, out.terms_used,
            float(out.tail_bound).hex())


def _value_bits(x):
    return complex(x).real.hex(), complex(x).imag.hex()


@pytest.mark.parametrize("source", [*_CLOSED_FORM_PARAMS, *range(6), None],
                         ids=lambda s: "-".join(map(str, s)) if isinstance(s, tuple) else None)
def test_multi_image_sum_rows_equal_one_image_calls_bit_for_bit(source):
    """Each row of one _closed_form_rows pass has the bits of its image's own inner_sum at its point.

    The closed_forms suite's rows: the five stock kinds and the Kummer
    degeneracy, with exp_times_z, each image's points in one pass; the
    reference is a fresh image of the same kind, summed alone. A source
    triple takes the suite's nine points. A seed draws the triple and the
    angles of points at |z| = 0.05, 0.95, 0.5 and 0.3, so one pass sums
    rows that stop after a few and after hundreds of terms; seed None is
    (0.65, 0.3, 1.4) on the ray at angle 0.7. A pass at z = 0 alone gives
    every row its exact first term.
    """
    from fracops.verify import _nine_points, draw_params

    if isinstance(source, tuple):
        p, points = OperatorParams(*source), _nine_points()
    else:
        if source is None:
            p, turns = _TRIPLE_A, [cmath.exp(0.7j)] * 4
        else:
            rng = np.random.default_rng(source)
            p = draw_params(rng)
            turns = [cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(4)]
        points = [r * turn for r, turn in zip((0.05, 0.95, 0.5, 0.3), turns)]
    cases = [(kind, kw) for kind, kw, _ in _CLOSED_FORM_CASES]
    cases += [("exp_times_z", {}), ("kummer", {"alpha": 1.3, "lam": 1.3})]
    n = len(points)
    rows = fracdiff._closed_form_rows([closed_form_spec(p, kind, **kw) for kind, kw in cases], points)
    at_zero = fracdiff._closed_form_rows([closed_form_spec(p, kind, **kw) for kind, kw in cases], [0j, 0j])
    assert len(rows) == n * len(cases) and len(at_zero) == 2 * len(cases)
    for i, (kind, kw) in enumerate(cases):
        alone = closed_form_spec(p, kind, **kw)
        for z, row in zip(points + [0j, 0j], rows[i * n:(i + 1) * n] + at_zero[2 * i:2 * i + 2]):
            assert row.status is EvalStatus.CONVERGED
            assert _outcome_bits(row) == _outcome_bits(alone.inner_sum(z)), (p, kind, z)
        assert at_zero[2 * i].terms_used == 1 and alone.evaluate(0j) == 0j


_ONE_IMAGE_FORMS = [("koebe", {"alpha": 1.0}), ("koebe", {"alpha": 2.0}), ("exp_times_z", {}),
                    ("kummer", {"alpha": 1.3, "lam": 0.9}), ("kummer", {"alpha": 1.3, "lam": 1.3}),
                    ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0})]


@pytest.mark.parametrize("seed", [*range(6), None])
@pytest.mark.parametrize("kind,kw", _ONE_IMAGE_FORMS)
def test_one_image_rows_at_many_points_equal_one_point_calls_bit_for_bit(seed, kind, kw):
    """One image's rows in one _closed_form_rows pass have the bits of its one-point calls.

    A lone image takes its own branch of the pass: one row of q_k and of
    the Gamma pair, broadcast over the points. |z| = 0.05 sits next to
    |z| = 0.95, so one driver pass sums rows that stop after a few and
    after hundreds of terms. Seeds draw the triple and the angles; seed
    None is (0.65, 0.3, 1.4) on the ray at angle 0.7. z = 0 takes a pass
    of its own, as the pass's points are all 0 or none, and ends at the
    exact first term. Each form also refuses the points as one array.
    """
    from fracops.verify import draw_params

    if seed is None:
        p, turns = _TRIPLE_A, [cmath.exp(0.7j)] * 4
    else:
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        turns = [cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(4)]
    points = [r * turn for r, turn in zip((0.05, 0.95, 0.5, 0.3), turns)]
    rows = fracdiff._closed_form_rows([closed_form_spec(p, kind, **kw)], points)
    at_zero = fracdiff._closed_form_rows([closed_form_spec(p, kind, **kw)], [0j, 0j])
    assert len(rows) == len(points) and len(at_zero) == 2
    form = closed_form_spec(p, kind, **kw)
    for z, row in zip(points + [0j, 0j], rows + at_zero):
        assert row.status is EvalStatus.CONVERGED
        assert _outcome_bits(row) == _outcome_bits(form.inner_sum(z)), (p, z)
    assert at_zero[0].terms_used == 1 and form.evaluate(0j) == 0j
    with pytest.raises(DomainError, match="one complex point"):
        form.evaluate(np.array(points))


def test_multi_image_sum_rows_stop_on_their_own_terms():
    """A polynomial Lerch row stops on its zero term, and rows past their radius are Divergent, while the others run on.

    Every row has the bits of its image's own inner_sum at its point.
    """
    p = _TRIPLE_A
    lerch = {"alpha": -2.0, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}
    cases = [("hurwitz_lerch", lerch), ("koebe", {"alpha": 2.0}), ("exp_times_z", {}),
             ("kummer", {"alpha": 1.3, "lam": 0.9})]
    points = [0.95 * cmath.exp(2.0j), -0.9, 1.2j]
    rows = fracdiff._closed_form_rows([closed_form_spec(p, kind, **kw) for kind, kw in cases], points)
    for (kind, kw), start in zip(cases, range(0, len(rows), len(points))):
        alone = closed_form_spec(p, kind, **kw)
        for z, row in zip(points, rows[start:start + len(points)]):
            assert _outcome_bits(row) == _outcome_bits(alone.inner_sum(z)), (kind, z)
    lerch_rows, koebe_rows = rows[:3], rows[3:6]
    assert [(row.status, row.terms_used) for row in lerch_rows[:2]] == [(EvalStatus.CONVERGED, 4)] * 2
    assert [row.status for row in koebe_rows[:2]] == [EvalStatus.CONVERGED] * 2
    assert min(row.terms_used for row in koebe_rows[:2]) > 100
    for row in (lerch_rows[2], koebe_rows[2]):  # |z| = 1.2 is past their radius 1
        assert (row.status, row.terms_used) == (EvalStatus.DIVERGENT, 0)
    assert all(row.status is EvalStatus.CONVERGED for row in rows[6:])  # exp_times_z and Kummer are entire


def test_closed_form_rows_take_pythons_abs_over_the_radius(monkeypatch):
    """Each point's limit is abs(z) / radius with Python's abs, hypot(re, im), as a scalar call takes it.

    np.abs of a complex array differs from it in the last bit at about a
    third of the points, which moves a Lerch tail bound by an ulp.
    """
    limits, driver = [], fracdiff._sum_rows
    monkeypatch.setattr(fracdiff, "_sum_rows", lambda block, max_terms, rows: limits.append(list(rows))
                        or driver(block, max_terms, rows))
    form = closed_form_spec(OperatorParams(0.65, 0.3, 1.4), "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1, a=1.0)
    rng = np.random.default_rng(3)
    points = [r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for r in rng.uniform(0.05, 0.95, 24)]
    fracdiff._closed_form_rows([form], points)
    form.evaluate(points[0])
    radius = form.fox_wright.radius
    assert limits == [[abs(z) / radius for z in points], [abs(points[0]) / radius]]


def test_closed_form_tau_equals_beta_recovers_input():
    """At tau = beta the image is z^gamma f(z); check through the series."""
    p = OperatorParams(0.5, 0.5, 2.0)
    form = closed_form_spec(p, "kummer", alpha=1.2, lam=0.8)
    f = kummer_series(1.2, 0.8, 60)
    for z in (0.3, -0.4):
        assert_allclose(form.evaluate(z), z**p.gamma * f.evaluate(z), rtol=1e-12)


def mp_image(p, upper, lower, n, s=0.0, a=1.0):
    """Coefficients k < n of z^(shift + k + 1) in the image of z sum_k (upper)_k / ((lower)_k k!) (k + a)^-s z^k.

    Each is the input coefficient times the operator's Gamma ratio at
    m = k + 1, at the working precision of mpmath and with no Fox-Wright
    arithmetic.
    """
    b, t, g1 = mpmath.mpf(p.beta), mpmath.mpf(p.tau), mpmath.mpf(p.gamma) + 1
    front = g1 ** (b - t) * mpmath.gamma(t) / mpmath.gamma(b)
    h, image = mpmath.mpf(1), []
    for k in range(n):
        x = (k + b) / g1 + 1
        ratio = mpmath.exp(mpmath.loggamma(x) - mpmath.loggamma(x + t - b))
        image.append(h / mpmath.mpf(k + a) ** s * front * ratio)
        h *= mpmath.fprod(u + k for u in upper) / (mpmath.fprod(v + k for v in lower) * (k + 1))
    return image


def mp_image_value(p, image, z) -> complex:
    zm = mpmath.mpc(z)
    return complex(mpmath.power(zm, p.shift + 1) * mpmath.polyval(image[::-1], zm))


def test_hurwitz_lerch_closed_form_near_the_unit_circle():
    """|z| = 0.9 and 0.95 need ~1000 terms; the coefficients must not overflow on the way."""
    p = OperatorParams(0.65, 0.3, 1.4)
    kw = {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}
    form = closed_form_spec(p, "hurwitz_lerch", **kw)
    points = (0.9, 0.9 * cmath.exp(2.1j), 0.95, -0.95, 0.95 * cmath.exp(-1.0j))
    with mpmath.workdps(50):
        image = mp_image(p, (1.2, 0.8), (1.5,), 1500, s=1.1, a=1.0)  # 0.95^1500 < 1e-33
        for z in points:
            want = mp_image_value(p, image, z)
            got = form.evaluate(z)
            assert abs(got - want) <= 1e-12 * abs(want), (z, got, want)


def test_closed_forms_converge_where_terms_rise_before_they_fall():
    """Lerch at |z| = 0.9 (radius 1) and the entire Kummer at z = 20 converge; at z = -10 Kummer cancels."""
    p = OperatorParams(0.65, 0.3, 1.4)
    lerch = closed_form_spec(p, "hurwitz_lerch", alpha=3.0, lam=2.0, rho=1.0, s=0.5, a=1.0)
    kummer = closed_form_spec(p, "kummer", alpha=3.0, lam=0.5)
    with mpmath.workdps(30):
        cases = ((lerch, mp_image(p, (3, 2), (1,), 1000, s=0.5), 0.9),  # 0.9^1000 1000^2.5 < 1e-38
                 (kummer, mp_image(p, (3,), (0.5,), 150), 20.0))  # 20^150 / 150! < 1e-67
        for form, image, z in cases:
            assert form.inner_sum(z).status is EvalStatus.CONVERGED
            want = mp_image_value(p, image, z)
            assert abs(form.evaluate(z) - want) <= 1e-12 * abs(want), (form.kind, z)
    assert kummer.inner_sum(-10.0).status is not EvalStatus.CONVERGED  # cancels past float64


@pytest.fixture(scope="module")
def koebe_image_coefficients():
    """30-digit coefficients of the Koebe images at (0.65, 0.3, 1.4), by alpha: (alpha)_k / k! inputs."""
    p = OperatorParams(0.65, 0.3, 1.4)
    with mpmath.workdps(30):
        # 2500^2 0.95^2500, 0.99^9000 < 1e-36
        return p, {alpha: mp_image(p, (alpha,), (), n) for alpha, n in ((2.0, 2500), (1.0, 9000))}


@pytest.mark.parametrize("alpha,r,angle,tol", [
    (2.0, 0.95, 0.3, 1e-12),
    (2.0, 0.95, 1.0, 1e-10),
    (2.0, 0.95, 2.0, 1e-10),
    (2.0, 0.95, -2.5, 1e-10),
    (1.0, 0.99, 0.3, 1e-10),
    (1.0, 0.99, 2.0, 1e-10),
    (1.0, 0.99, -2.5, 1e-10),
])
def test_koebe_closed_form_near_the_unit_circle(koebe_image_coefficients, alpha, r, angle, tol):
    """The Koebe sums rise for hundreds of terms before they fall; inside radius 1 they converge.

    Near angles +-2 the terms cancel (sum |t_k| / |f| is 3800-5000 for
    alpha = 2, against 65 at angle 0.3), so 1e-12 holds only at angle 0.3.
    """
    p, images = koebe_image_coefficients
    form = closed_form_spec(p, "koebe", alpha=alpha)
    z = r * cmath.exp(1j * angle)
    assert form.inner_sum(z).status is EvalStatus.CONVERGED
    with mpmath.workdps(30):
        zm = mpmath.mpc(z)
        want = complex(mpmath.power(zm, p.shift + 1) * mpmath.polyval(images[alpha][::-1], zm))
    got = form.evaluate(z)
    assert abs(got - want) <= tol * abs(want), (got, want)


def test_koebe_sum_that_cancels_past_the_guard_is_slow():
    """Koebe alpha = 2 at z = -0.993: sum |t_k| passes 4.5e5 |sum t_k|, so the sum is not CONVERGED."""
    out = closed_form_spec(OperatorParams(0.65, 0.3, 1.4), "koebe", alpha=2.0).inner_sum(-0.993)
    assert (out.status, out.terms_used) == (EvalStatus.SLOW_CONVERGENCE, 7652)


def test_closed_form_exp_series_agreement():
    p = OperatorParams(0.9, 0.6, 0.0)
    form = closed_form_spec(p, "exp_times_z")
    image = apply_operator(p, exp_times_z_series(40))
    z = -0.35 + 0.1j
    assert_allclose(form.evaluate(z), image.evaluate(z), rtol=1e-11)


def test_hadamard_rows_have_the_bits_of_the_fox_wright_spec():
    """Each row of _theta_hadamard_rows is a_k times constant times exp(spec.log_coefficients(k - 1)), bit for bit.

    constant and spec are theta_fox_wright_spec's, products taken in that
    order. spec's rows log Gamma(1 + k) and log k! cancel exactly, so its
    log coefficients are the Gamma pair's difference. Random triples,
    tau = beta and gamma in the hundreds among them, at orders 1, 64 and
    3000 (past one 2048-index log Gamma block); theta_hadamard, the one-row
    call, is held to the same reference.
    """
    rng = np.random.default_rng(44)
    ps = [OperatorParams(0.65, 0.3, 1.4), OperatorParams(0.5, 0.5, 0.0), OperatorParams(0.9, 0.2, 400.0),
          OperatorParams(1.0, 1e-9, 0.5)]
    for _ in range(8):
        beta = rng.uniform(0.05, 1.0)
        ps.append(OperatorParams(beta, rng.uniform(max(1e-9, beta - 0.99), beta), rng.uniform(0.0, 3.0)))
    for order in (1, 64, 3000):
        coeffs = rng.normal(size=(len(ps), order + 1)) + 1j * rng.normal(size=(len(ps), order + 1))
        coeffs[:, 0] = 0.0
        rows = fracdiff._theta_hadamard_rows(ps, coeffs)
        for p, c, row in zip(ps, coeffs, rows):
            constant, spec = theta_fox_wright_spec(p)
            want = np.concatenate(([0j], c[1:] * constant * np.exp(spec.log_coefficients(np.arange(order)))))
            assert row.tobytes() == want.tobytes(), (p, order)
            assert theta_hadamard(p, PowerSeries(c)).coeffs.tobytes() == want.tobytes(), (p, order)


@pytest.mark.parametrize("kind,params", [(kind, kw) for kind, kw, _ in _CLOSED_FORM_CASES])
def test_closed_form_constant_keeps_the_bits_of_the_monomial_image(kind, params):
    """closed_form_spec reads its constant from the kept kernel row: monomial_transform(p, 1)'s coefficient's bits.

    For every stock kind, on a fresh row (another triple kept) and on the
    row apply_operator kept at order 320 for the same triple.
    """
    rng = np.random.default_rng(63)
    triples = [OperatorParams(*t) for t in _CLOSED_FORM_PARAMS] + [OperatorParams(1.0, 1e-9, 0.5)]
    for _ in range(6):
        beta = rng.uniform(0.05, 1.0)
        triples.append(OperatorParams(beta, rng.uniform(max(1e-9, beta - 0.99), beta), rng.uniform(0.0, 3.0)))
    f = koebe_series(2.0, 320)
    for p in triples:
        want = monomial_transform(p, 1.0).coefficient
        apply_operator(OperatorParams(0.5, 0.25, 0.75), f)
        assert closed_form_spec(p, kind, **params).constant.hex() == want.hex(), (p, "fresh row")
        apply_operator(p, f)
        assert closed_form_spec(p, kind, **params).constant.hex() == want.hex(), (p, "kept row")
