"""Truncated power series container, arithmetic, fixtures, stock inputs."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops.bloch import default_bloch_grid
from fracops.errors import DomainError
from fracops.series import (
    BUILTIN_SERIES,
    MAX_ORDER,
    PowerSeries,
    exp_times_z_series,
    hurwitz_lerch_series,
    identity_series,
    koebe_series,
    kummer_series,
    load_series_fixture,
    make_builtin,
    monomial_series,
    save_series_fixture,
)

mpmath = pytest.importorskip("mpmath")
rf = mpmath.rf  # rising factorial (Pochhammer symbol)


def test_coefficients_are_copied_complex128():
    raw = np.array([1.0, 2.0])
    ps = PowerSeries(raw)
    raw[0] = 99.0
    assert ps.coeffs.dtype == np.complex128
    assert ps.coeffs[0] == 1.0
    assert ps.order == 1


def test_nonfinite_coefficients_rejected():
    with pytest.raises(DomainError):
        PowerSeries([1.0, math.inf])
    with pytest.raises(DomainError):
        PowerSeries([complex("nan")])


def test_evaluate_matches_polyval():
    rng = np.random.default_rng(3)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    ps = PowerSeries(c)
    z = 0.3 - 0.44j
    assert_allclose(ps.evaluate(z), np.polyval(c[::-1], z), rtol=1e-14)
    zs = np.array([0.1, 0.2 + 0.5j, -0.7j])
    assert_allclose(ps.evaluate(zs), [ps.evaluate(w) for w in zs], rtol=1e-14)


def test_in_place_horner_is_bit_equal_to_two_temporary_horner():
    f = koebe_series(2.0, 2500)
    z = default_bloch_grid().points()
    want = np.zeros_like(z)
    for c in f.coeffs[::-1]:
        want = want * z + c
    assert np.array_equal(f.evaluate(z), want)


def test_derivative_coefficients():
    ps = PowerSeries([5.0, 1.0, 2.0, 3.0])
    d = ps.derivative()
    assert_allclose(d.coeffs, [1.0, 4.0, 9.0])
    assert identity_series(1).derivative().coeffs.tolist() == [1.0 + 0j]


def test_linear_algebra_ops():
    a = PowerSeries([1.0, 2.0])
    b = PowerSeries([0.5, -1.0, 4.0])
    assert_allclose((a + b).coeffs, [1.5, 1.0, 4.0])
    assert_allclose((2.0 * a).coeffs, [2.0, 4.0])


def test_is_normalized():
    assert identity_series(4).is_normalized()
    assert koebe_series(2.0, 8).is_normalized()
    assert not PowerSeries([0.1, 1.0]).is_normalized()
    assert not PowerSeries([0.0, 1.0 + 1e-6]).is_normalized()


# ---------------------------------------------------------------------------
# fixture files


def test_fixture_round_trip(tmp_path):
    ps = PowerSeries([0.0, 1.0, 2.5 - 1.25j, 0.125])
    path = tmp_path / "series.json"
    save_series_fixture(ps, path)
    back = load_series_fixture(path)
    assert np.array_equal(back.coeffs, ps.coeffs)


def test_fixture_order_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"order": 7, "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError):
        load_series_fixture(path)


# ---------------------------------------------------------------------------
# stock inputs


def test_koebe_alpha2_coefficients_are_exact_integers():
    for order in (40, 8192):
        ps = koebe_series(2.0, order)
        assert_allclose(ps.coeffs[1:].real, np.arange(1, order + 1), rtol=0)
        assert np.all(ps.coeffs[1:].imag == 0.0)


def test_koebe_alpha1_all_ones():
    ps = koebe_series(1.0, 12)
    assert np.all(ps.coeffs[1:] == 1.0)


def test_koebe_general_alpha_matches_pochhammer():
    """c_k = (alpha)_{k-1} / (k-1)!."""
    alpha = 1.63
    ps = koebe_series(alpha, 10)
    for k in range(1, 11):
        want = float(rf(alpha, k - 1)) / math.factorial(k - 1)
        assert_allclose(ps.coeffs[k].real, want, rtol=1e-14)


def test_exp_times_z_inverse_factorials():
    ps = exp_times_z_series(10)
    for k in range(1, 11):
        assert_allclose(ps.coeffs[k].real, 1.0 / math.factorial(k - 1), rtol=1e-15)


def test_kummer_coefficients():
    alpha, lam = 1.3, 0.9
    ps = kummer_series(alpha, lam, 8)
    for k in range(1, 9):
        want = float(rf(alpha, k - 1) / (rf(lam, k - 1) * math.factorial(k - 1)))
        assert_allclose(ps.coeffs[k].real, want, rtol=1e-13)


def test_kummer_alpha_equal_lam_degenerates_to_exp():
    a = kummer_series(1.3, 1.3, 16)
    b = exp_times_z_series(16)
    assert_allclose(a.coeffs, b.coeffs, rtol=1e-14)


def test_hurwitz_lerch_coefficients():
    """c_{k+1} = (alpha)_k (lam)_k / ((rho)_k k! (k+a)^s)."""
    alpha, lam, rho, s, a = 0.8, 1.1, 1.4, 1.5, 0.7
    ps = hurwitz_lerch_series(alpha, lam, rho, s, a, 8)
    assert_allclose(ps.coeffs[1].real, a ** (-s), rtol=1e-15)
    for k in range(0, 8):
        want = (
            float(rf(alpha, k) * rf(lam, k) / (rf(rho, k) * math.factorial(k)))
            / (k + a) ** s
        )
        assert_allclose(ps.coeffs[k + 1].real, want, rtol=1e-13)


def test_hurwitz_lerch_guards():
    with pytest.raises(DomainError):
        hurwitz_lerch_series(0.8, 1.1, -2.0, 1.5, 0.7, 8)  # rho on a pole
    with pytest.raises(DomainError):
        hurwitz_lerch_series(0.8, 1.1, 1.4, 1.5, -0.1, 8)  # a <= 0


def test_monomial_series():
    ps = monomial_series(3)
    assert ps.order == 3
    assert ps.coeffs[3] == 1.0 and np.count_nonzero(ps.coeffs) == 1


def test_make_builtin_dispatch_and_errors():
    f = make_builtin("koebe", 6, alpha=2.0)
    assert f.order == 6
    with pytest.raises(DomainError):
        make_builtin("koebe", 6)  # alpha missing
    with pytest.raises(DomainError):
        make_builtin("nope", 6)


_VALID_PARAMS = {"alpha": 1.5, "lam": 0.9, "rho": 1.5, "s": 1.1, "a": 1.0}


@pytest.mark.parametrize("kind", BUILTIN_SERIES)
def test_make_builtin_checks_the_order_of_every_kind(kind):
    assert make_builtin(kind, 3, **_VALID_PARAMS).order == 3
    for order in (0, MAX_ORDER + 1):
        with pytest.raises(DomainError, match="order must lie in"):
            make_builtin(kind, order, **_VALID_PARAMS)
