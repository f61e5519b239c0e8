"""Truncated power series container, fixtures, stock inputs."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops.bloch import default_bloch_grid
from fracops.errors import DomainError
from fracops.series import (
    BUILTIN_SERIES,
    MAX_ORDER,
    PowerSeries,
    _last_nonzero,
    evaluate_many,
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


def _plain_horner(f, z):
    """The Horner loop evaluate_many must match: on a NumPy scalar for a 0-d z."""
    out = np.zeros_like(z)[()]
    for c in f.coeffs[::-1]:
        out *= z
        out += c
    return out


def test_evaluate_many_is_bit_equal_to_plain_horner():
    """Mixed orders at one shared point set give each series its own Horner value.

    Orders from 1 to 3000 leave the lower ones padded with zeros. A set of
    several points is checked against the loop on that set, a single point
    against the loop on a NumPy scalar, which rounds like the longer arrays
    (an in-place product on a length-1 array does not).
    """
    rng = np.random.default_rng(11)
    line = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1024)) * rng.uniform(0.0, 0.999, 1024)
    for size in (0, 1, 1, 1, 1, 2, 3, 64, 256):
        start = int(rng.integers(0, line.size - size))
        z = line[start:start + size]
        for count in (1, 2, 5):
            series = []
            for order in rng.integers(1, 3001, count):
                series.append(PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)))
            if count > 1:
                series.append(series[0])  # one series given twice
            got = evaluate_many(series, z)
            assert got.shape == (len(series), size)
            for f, values in zip(series, got):
                if size == 1:
                    assert values[0] == _plain_horner(f, np.asarray(z[0]))
                    assert f.evaluate(z[0]) == values[0] and f.evaluate(z)[0] == values[0]
                elif size:
                    assert np.array_equal(values, _plain_horner(f, z))
                    assert np.array_equal(f.evaluate(z), values)
                    assert values[-1] == _plain_horner(f, np.asarray(z[-1]))
    assert evaluate_many([], line[:3]).shape == (0, 3)
    with pytest.raises(DomainError):
        evaluate_many([identity_series(2)], np.zeros((2, 2)))


def _zero_tailed(rng, kept, order, top=None):
    """c_0..c_kept random, +0.0+0.0j above up to c_order; c_kept replaced by top if given."""
    c = np.zeros(order + 1, dtype=np.complex128)
    c[:kept + 1] = rng.normal(size=kept + 1) + 1j * rng.normal(size=kept + 1)
    if top is not None:
        c[kept] = top
    return PowerSeries(c)


def test_last_nonzero_stops_at_the_first_set_bit_from_the_top():
    """Only +0.0+0.0j counts as zero: a -0.0 part ends the run."""
    c = np.zeros(9, dtype=np.complex128)
    assert _last_nonzero(c) == 0
    c[0] = 1.0
    assert _last_nonzero(c) == 0
    for index, value in ((3, complex(-0.0, 0.0)), (5, complex(0.0, -0.0)), (6, 1e-320j), (8, 2.0)):
        c[index] = value
        assert _last_nonzero(c) == index
    assert _last_nonzero(exp_times_z_series(2500).coeffs) == 178  # 1/178! > 5e-324 > 1/179!
    assert _last_nonzero(koebe_series(2.0, 2500).coeffs) == 2500


def test_horner_skips_a_zero_tail_bit_for_bit():
    """evaluate_many and evaluate against the Horner loop over every coefficient, by bytes.

    np.array_equal counts -0.0 and +0.0 as equal, so values are compared
    with tobytes(). Zero runs: none, a few, most of the series, everything
    above c_0, everything; a -0.0 part right below the run; points on the
    real axis, of either sign, among them.
    """
    rng = np.random.default_rng(20)
    ring = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    points = np.concatenate([ring, [0.5, -0.7, complex(-0.3, -0.0), complex(0.0, 0.4)]])
    series = [PowerSeries(np.zeros(7)), PowerSeries(np.zeros(1)), PowerSeries([complex(-0.0, -0.0), 0.0])]
    for kept, order in ((40, 40), (37, 40), (12, 300), (0, 300), (5, 5000)):
        series.append(_zero_tailed(rng, kept, order))
    for top in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(1.5, -0.0)):
        series.append(_zero_tailed(rng, 9, 60, top))
    for kept in (1, 4, 12):  # zeros of either sign below the run: only their bits end it
        parts = np.where(rng.integers(2, size=2 * kept + 2), -0.0, 0.0)
        parts[2 * kept] = -0.0
        series.append(PowerSeries(np.concatenate([parts.view(np.complex128), np.zeros(30)])))
    series += [exp_times_z_series(400), kummer_series(1.3, 0.9, 400).derivative()]
    for f in series:
        want = _plain_horner(f, points)
        assert f.evaluate(points).tobytes() == want.tobytes()
        assert evaluate_many([f], points).tobytes() == want.tobytes()
        for z in points[[0, 4, 16, 17, 18, 19]]:  # one point: the NumPy-scalar path
            one = _plain_horner(f, np.asarray(z))
            assert np.complex128(f.evaluate(z)).tobytes() == one.tobytes()
            assert evaluate_many([f], np.array([z])).tobytes() == one.tobytes()
    for count in (2, 3, 6):  # several series of different lengths and zero runs
        picked = [series[int(i)] for i in rng.choice(len(series), count, replace=False)]
        for z in (points, points[16:18]):
            got = evaluate_many(picked, z)
            for f, values in zip(picked, got):
                assert values.tobytes() == _plain_horner(f, z).tobytes()


def test_evaluate_many_memory_stays_bounded():
    """f and f' at 64 + 128 shared nodes, order 2^18: coefficients come in chunks, not a table.

    A dense order x points table would hold 2^18 * 192 complex values (0.8 GB).
    """
    f = PowerSeries(np.full(2**18 + 1, 1.0 / 2**18))
    fp = f.derivative()
    z = np.concatenate([0.5 * np.exp(1j * np.linspace(0.0, 6.0, 64)),
                        0.7 * np.exp(1j * np.linspace(0.0, 6.0, 128))])
    tracemalloc.start()
    try:
        got = evaluate_many([f, fp], z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert np.all(np.isfinite(got))


def test_derivative_coefficients():
    ps = PowerSeries([5.0, 1.0, 2.0, 3.0])
    d = ps.derivative()
    assert_allclose(d.coeffs, [1.0, 4.0, 9.0])
    assert identity_series(1).derivative().coeffs.tolist() == [1.0 + 0j]


def test_derivative_refuses_overflowing_coefficients():
    """2 * 1e308 overflows: a DomainError naming the derivative, and no RuntimeWarning."""
    with pytest.raises(DomainError, match="derivative's coefficients overflow"):
        PowerSeries([0.0, 1.0, 1e308]).derivative()


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
    with pytest.raises(DomainError, match="disagrees"):
        load_series_fixture(path)


@pytest.mark.parametrize("order", ["1", None, True, 1.0, -1])
def test_fixture_order_that_is_not_a_count_rejected(tmp_path, order):
    """An order that is not an integer, or is negative, is refused as malformed, not added to."""
    path = tmp_path / "bad.json"
    doc = {"order": order, "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError, match="malformed series fixture"):
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
    assert monomial_series(3, MAX_ORDER).order == MAX_ORDER
    with pytest.raises(DomainError, match=r"order must be an integer in \[0, "):
        monomial_series(3, MAX_ORDER + 1)  # refused before any allocation
    for order in (3.5, 4.0, True, np.True_):
        with pytest.raises(DomainError, match="must be an integer"):
            monomial_series(3, order)
    for power in (True, np.True_):  # not z^1
        with pytest.raises(DomainError, match="monomial power must be a nonnegative integer"):
            monomial_series(power)


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
        with pytest.raises(DomainError, match=r"order must be an integer in \[1, "):
            make_builtin(kind, order, **_VALID_PARAMS)
    for order in (3.5, 3.0, True, np.True_):  # refused, not rounded, truncated or read as 1
        with pytest.raises(DomainError, match="be an integer"):
            make_builtin(kind, order, **_VALID_PARAMS)
