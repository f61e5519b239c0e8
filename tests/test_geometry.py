"""Disk grids, order screens, coefficient bounds, criterion sums."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops import geometry, series
from fracops.bloch import default_bloch_grid
from fracops.errors import DomainError
from fracops.fracdiff import OperatorParams, theta_normalize
from fracops.geometry import (
    CRITERION_MODES,
    MAX_GRID_POINTS,
    _BLOCK_POINTS,
    DiskGrid,
    bieberbach_screen,
    convex_order,
    criterion_term,
    criterion_threshold,
    starlike_order,
    univalence_criterion,
)
from fracops.series import (
    PowerSeries,
    _last_nonzero,
    exp_times_z_series,
    identity_series,
    koebe_series,
    kummer_series,
    monomial_series,
)
from fracops.special import POLE_GUARD, EvalStatus


# ---------------------------------------------------------------------------
# grid


def test_grid_validation():
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5, 0.3), angles_per_radius=16)  # not increasing
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.0, 0.5), angles_per_radius=16)  # 0 excluded
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5, 0.9999), angles_per_radius=16)  # past the cap
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5,), angles_per_radius=0)
    for count in (2.5, 4.0):  # evaluate would raise an untyped TypeError
        with pytest.raises(DomainError, match="positive integer"):
            DiskGrid(radii=(0.5,), angles_per_radius=count)


def test_default_grid_shape():
    g = DiskGrid.default()
    assert g.radii == tuple(k / 10 for k in range(1, 10)) + (0.99,)
    assert g.angles_per_radius == 256


def test_refine_keeps_old_radii_and_doubles_angles():
    g = DiskGrid.default()
    r = g.refine()
    assert set(g.radii) <= set(r.radii)
    assert r.angles_per_radius == 2 * g.angles_per_radius
    # midpoints appear (up to float rounding of (a+b)/2)
    assert any(math.isclose(x, 0.15) for x in r.radii)
    assert any(math.isclose(x, 0.945) for x in r.radii)


def test_ring_points():
    g = DiskGrid(radii=(0.5,), angles_per_radius=8)
    z = g.points()[0]
    assert z.shape == (8,)
    assert_allclose(np.abs(z), 0.5, rtol=1e-15)
    assert z[0] == 0.5 + 0.0j  # angle zero first


def test_grid_point_limit():
    radii = tuple(k / 1000 for k in range(1, 1000))  # 999 radii
    DiskGrid(radii=radii, angles_per_radius=MAX_GRID_POINTS // 999)
    with pytest.raises(DomainError, match="exceeds"):
        DiskGrid(radii=radii, angles_per_radius=MAX_GRID_POINTS // 999 + 1)
    g = default_bloch_grid()
    for _ in range(4):
        g = g.refine()
    assert (len(g.radii), g.angles_per_radius) == (1521, 2048)
    with pytest.raises(DomainError, match="exceeds"):
        g.refine()


def _sample_angles(m):
    """Both ends, the quarters and the angles around pi: every angle index for m <= 8."""
    return sorted({j % m for j in (0, 1, m // 4, m // 2 - 1, m // 2, m // 2 + 1, 3 * m // 4, m - 1)})


# Bound C on |evaluate - exact| in units of eps * sum_k |c_k| r^k, for the grid values
# that the screens and Bloch norms reduce. The worst case measured for the inputs and
# radii below, over every angle for M <= 128 and the sampled ones for M = 2048, is 61:
# M = 7, r = 0.999, angle 0, Theta(Koebe)', where the fold runs Horner over 358 rows
# of positive terms.
_EVAL_ERROR_UNITS = 128


def test_evaluate_matches_mpmath_within_the_coefficient_sum_bound():
    """The folded DFT is accurate to a small multiple of eps * sum_k |c_k| r^k.

    A grid of several blocks comes back in points() order. The reference is
    30-digit mpmath at the exact grid points r e^{2 pi i j/M}; for the Koebe
    input and z^64/64 it is the closed form of the truncation.
    """
    mpmath = pytest.importorskip("mpmath")
    n = 2500
    koebe = koebe_series(2.0, n)
    g = default_bloch_grid().refine()
    assert len(g.radii) * g.angles_per_radius > 2 * _BLOCK_POINTS  # several blocks
    vals = g.evaluate(koebe)
    assert vals.shape == (len(g.radii), g.angles_per_radius)
    assert np.all(np.isfinite(vals))
    theta = 2.0 * np.pi * np.arange(g.angles_per_radius) / g.angles_per_radius
    for i, r in enumerate(g.radii):
        assert np.array_equal(g.points()[i], r * np.exp(1j * theta))

    rng = np.random.default_rng(7)
    p = OperatorParams(0.5606394622302311, 0.5353442707612333, 0.4324788381589012)
    cases = (
        # sum_{k<=n} k z^k
        (koebe, lambda z: z * (1 - (n + 1) * z**n + n * z ** (n + 1)) / (1 - z) ** 2),
        (theta_normalize(p, koebe).derivative(), None),
        (PowerSeries(rng.normal(size=301) + 1j * rng.normal(size=301)), None),
        (PowerSeries(monomial_series(64).coeffs / 64), lambda z: z**64 / 64),
    )
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(30):
        for f, exact in cases:
            if exact is None:
                coeffs = [mpmath.mpc(complex(c)) for c in f.coeffs[::-1]]
                exact = lambda z, coeffs=coeffs: mpmath.polyval(coeffs, z)  # noqa: E731
            for m in (1, 7, 128, 2048):
                g = DiskGrid((0.05, 0.5, 0.99, 0.999), m)
                vals = g.evaluate(f)
                for i, r in enumerate(g.radii):
                    bound = _EVAL_ERROR_UNITS * eps * np.sum(np.abs(f.coeffs) * r ** np.arange(f.coeffs.size))
                    for j in _sample_angles(m):
                        want = exact(mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / m))
                        assert abs(vals[i, j] - complex(want)) <= bound, (f.order, m, r, j)


def _full_fold(g, f):
    """DiskGrid.evaluate's fold over every stored coefficient, zero tail included, in one block."""
    m, c = g.angles_per_radius, f.coeffs
    table = np.zeros(-(-c.size // m) * m, dtype=np.complex128)
    table[:c.size] = c
    table = table.reshape(-1, m)[:, :min(c.size, m)]
    r = np.array(g.radii)[:, None]
    acc = np.repeat(table[-1:], r.shape[0], axis=0)
    r_m = r**m
    for row in table[-2::-1]:
        acc *= r_m
        acc += row
    acc *= r**np.arange(table.shape[1])
    return np.fft.ifft(acc, n=m, axis=1, norm="forward")


def _signed_zeros(rng, kept, order):
    """c_0..c_kept zeros of random signs, c_kept not +0.0+0.0j; +0.0+0.0j above up to c_order."""
    c = np.zeros(order + 1, dtype=np.complex128)
    parts = c.view(np.float64)
    parts[:2 * kept + 2] = np.where(rng.integers(2, size=2 * kept + 2), -0.0, 0.0)
    parts[2 * kept] = -0.0
    return PowerSeries(c)


def test_fold_skips_a_zero_tail_bit_for_bit():
    """DiskGrid.evaluate against the fold over every coefficient, compared by bytes.

    With 8 angles a row holds 8 coefficients. Zero runs: none, part of the
    top row, whole rows, everything above c_0, everything; -0.0 parts in
    the top kept coefficient and in the first kept row, which the full
    fold turns into +0.0 when it adds that row to (+0) r^M. 1e-50^8
    underflows to 0, and angle 0 gives real points.
    """
    rng = np.random.default_rng(21)
    series = [PowerSeries(np.zeros(40)), PowerSeries(np.zeros(1))]
    for kept in (39, 36, 20, 16, 7, 0):
        c = np.zeros(40, dtype=np.complex128)
        c[:kept + 1] = rng.normal(size=kept + 1) + 1j * rng.normal(size=kept + 1)
        series.append(PowerSeries(c))
        c = c.copy()
        c[kept] = complex(-0.0, 0.0) if kept % 2 else complex(0.0, -0.0)
        series.append(PowerSeries(c))
        c = c.copy()
        c[kept - kept % 8:kept] = complex(-0.0, -0.0)  # the rest of the first kept row
        c[kept - kept % 8] = complex(1.5, -0.0)
        series.append(PowerSeries(c))
    for kept in (20, 16, 3, 0):
        series += [_signed_zeros(rng, kept, 39) for _ in range(4)]
    series += [exp_times_z_series(400), kummer_series(1.3, 0.9, 400).derivative()]
    for g in (DiskGrid((1e-50, 0.3, 0.999), 8), DiskGrid((1e-50, 0.5), 1),
              DiskGrid((1e-300, 0.1, 0.9), 16), DiskGrid((0.2, 0.99), 256)):
        for f in series:
            assert g.evaluate(f).tobytes() == _full_fold(g, f).tobytes(), (f.coeffs, g)


# ---------------------------------------------------------------------------
# order screens


def test_koebe2_is_starlike_but_not_convex():
    f = koebe_series(2.0, 2500)
    ok = starlike_order(f, 0.0)
    assert ok.passed
    assert ok.witness is None

    bad = convex_order(f, 0.0)
    assert not bad.passed
    # the sharpest failure sits on the negative real axis
    assert bad.witness.real < 0
    assert abs(bad.witness.imag) < 1e-12
    assert bad.witness_value < 0.0


def test_convex_witness_matches_closed_form():
    """For z/(1-z)^2 the convexity quantity is (1+4z+z^2)/(1-z^2)."""
    f = koebe_series(2.0, 2500)
    res = convex_order(f, 0.0)
    z = res.witness
    want = (1 + 4 * z + z * z) / (1 - z * z)
    assert_allclose(res.witness_value, want.real, rtol=1e-6)


def test_starlike_order_witness_on_smallest_failing_radius():
    """Koebe map vs lam = 0.6: Re(z f'/f) = Re((1+z)/(1-z)) dips under 0.6
    once (1-r)/(1+r) < 0.6, i.e. past r = 0.25 — the 0.3 ring reports first."""
    f = koebe_series(2.0, 2500)
    res = starlike_order(f, 0.6)
    assert not res.passed
    assert_allclose(res.witness, -0.3 + 0.0j, atol=1e-12)
    assert_allclose(res.witness_value, 0.7 / 1.3, rtol=1e-9)


def test_failing_screen_reports_its_witness_from_horner():
    """The grid decides the ring; the witness value is Horner's minimum on it.

    Near lam the screened quotient is ill-conditioned, and at z = -0.99 the
    folded DFT is about 30 times less accurate than Horner, so its value
    would miss the 40-digit reference by far more than 2e-9.
    """
    mpmath = pytest.importorskip("mpmath")
    p = OperatorParams(0.5606394622302311, 0.5353442707612333, 0.4324788381589012)
    f = theta_normalize(p, koebe_series(2.0, 2500))
    res = starlike_order(f, 0.0)
    assert not res.passed
    g = DiskGrid.default()
    assert res.points_checked == len(g.radii) * g.angles_per_radius  # the 0.99 ring decides
    assert_allclose(res.witness, -0.99 + 0.0j, atol=1e-12)
    ring = g.points()[-1]
    fp = f.derivative()
    horner = np.real(ring * fp.evaluate(ring) / f.evaluate(ring))
    assert res.witness_value == horner.min()
    assert res.witness == ring[np.argmin(horner)]
    with mpmath.workdps(40):
        z = mpmath.mpc(res.witness)
        want = mpmath.re(z * mpmath.polyval([mpmath.mpc(complex(c)) for c in fp.coeffs[::-1]], z)
                         / mpmath.polyval([mpmath.mpc(complex(c)) for c in f.coeffs[::-1]], z))
    assert abs(res.witness_value - float(want)) <= 2e-9 * abs(float(want))


def _horner_all(f, z):
    """Horner over every stored coefficient, zero tail included."""
    out = np.zeros_like(z)
    for c in f.coeffs[::-1]:
        out *= z
        out += c
    return out


def _screened(f, kind):
    """(numerator, denominator, shift) of the starlike or convex screen of f."""
    if kind == "starlike":
        return f.derivative(), f, 0.0
    return f.derivative().derivative(), f.derivative(), 1.0


def _full_ring_witness(f, lam, kind):
    """The witness from Horner on every angle of the deciding ring: first argmin.

    Also returns Horner's and the grid's screened values on that ring.
    """
    num, den, shift = _screened(f, kind)
    g = DiskGrid.default()
    z = g.points()
    vals = np.real(z * g.evaluate(num) / g.evaluate(den)) + shift
    i = int(np.argmax(~np.all(vals > lam, axis=1)))
    h = np.real(z[i] * _horner_all(num, z[i]) / _horner_all(den, z[i]))
    if shift:
        h = h + shift
    j = int(np.argmin(h))
    return complex(z[i, j]), float(h[j]), (i + 1) * g.angles_per_radius, h, vals[i]


def test_witness_on_a_conjugate_pair_tie_is_the_full_ring_argmin():
    """z/(1 - z^2) has Re(z f'/f) = Re((1 + z^2)/(1 - z^2)), smallest at z = +-ir.

    The coefficients are real, so angles j = 64 and M - j = 192 tie in exact
    arithmetic; rounding alone orders them, and the screen must still pick
    Horner's first argmin over the whole ring.
    """
    c = np.zeros(1201)
    c[1::2] = 1.0
    f = PowerSeries(c)
    res = starlike_order(f, 0.5)
    witness, value, checked, h, _ = _full_ring_witness(f, 0.5, "starlike")
    assert abs(h[64] - h[192]) <= 1e-14 and min(h[64], h[192]) == value  # a near-tie
    assert (res.witness, res.witness_value, res.points_checked) == (witness, value, checked)
    assert abs(abs(witness.imag) - 0.6) < 1e-12  # first ring with (1 - r^2)/(1 + r^2) <= 1/2


@pytest.mark.parametrize("lam", [0.0, 0.25])
def test_witness_that_needs_the_mirror_angle_is_the_full_ring_argmin(lam):
    """Koebe alpha = 1.5 at order 300: the grid's first argmin on the deciding ring
    can fall on the conjugate of Horner's first argmin (0.4011... - 0.9050...i
    against + 0.9050...i), since rounding alone orders the two; only the mirror
    angle then reaches Horner's witness.
    """
    f = koebe_series(1.5, 300)
    res = starlike_order(f, lam)
    assert (res.witness, res.witness_value, res.points_checked) == _full_ring_witness(f, lam, "starlike")[:3]


def _seeded_failing_screens(count):
    """The first count failing screens of random normalized series, seeded: (f, lam, kind, result)."""
    rng = np.random.default_rng(2024)
    seen = 0
    while seen < count:
        order = int(rng.integers(4, 400))
        k = np.arange(2, order + 1)
        c = np.zeros(order + 1, dtype=np.complex128)
        c[1] = 1.0
        c[2:] = rng.normal(size=k.size) / k ** rng.uniform(0.5, 2.5)
        if rng.integers(2):  # complex coefficients; real ones give conjugate-pair ties
            c[2:] += 1j * rng.normal(size=k.size) / k ** rng.uniform(0.5, 2.5)
        f, lam = PowerSeries(c), float(rng.uniform(0.0, 0.95))
        kind = "starlike" if rng.integers(2) else "convex"
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                res = (starlike_order if kind == "starlike" else convex_order)(f, lam)
        except DomainError:
            continue
        if res.passed:
            continue
        yield f, lam, kind, res
        seen += 1


def test_failing_screens_match_the_full_ring_witness():
    """200 seeded failing screens: the witness, its value and the point count, bit for bit.

    The witness is also the grid's first argmin on the deciding ring or its mirror angle.
    """
    for f, lam, kind, res in _seeded_failing_screens(200):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = _full_ring_witness(f, lam, kind)
        assert (res.witness, res.witness_value, res.points_checked) == want[:3], (f.order, lam, kind)
        ring, j = DiskGrid.default().points()[want[2] // 256 - 1], int(np.argmin(want[4]))
        assert res.witness in (ring[j], ring[(256 - j) % 256]), (f.order, lam, kind)


def test_real_axis_witnesses_take_python_horner_with_numpy_bits(monkeypatch):
    """Theta(Koebe) at 30 seeded triples, each also turned by e^{0.3i}.

    Every failing screen matches NumPy's Horner over the whole deciding ring,
    bit for bit. A witness on the real axis, where the coefficients are real,
    makes no evaluate_many call; the same series turned by e^{0.3i} keeps
    Re(z f'/f) but has complex coefficients, so it calls evaluate_many.
    """
    calls = []
    monkeypatch.setattr(geometry, "evaluate_many", lambda *args: calls.append(1) or series.evaluate_many(*args))
    rng = np.random.default_rng(7)
    on_axis = 0
    for _ in range(30):
        beta = rng.uniform(0.1, 1.0)
        p = OperatorParams(beta, rng.uniform(max(0.05, beta - 0.9), beta), rng.uniform(0.0, 3.0))
        f = theta_normalize(p, koebe_series(2.0, 2500))
        for turn in (1.0, np.exp(0.3j)):
            g = PowerSeries(turn * f.coeffs)
            calls.clear()
            res = starlike_order(g, 0.0)
            if res.passed:
                continue
            assert (res.witness, res.witness_value, res.points_checked) == _full_ring_witness(g, 0.0, "starlike")[:3]
            real_axis = abs(res.witness.imag) < 1e-15
            assert bool(calls) == (turn != 1.0 or not real_axis), (p, turn, res)
            on_axis += real_axis and turn == 1.0
    assert on_axis >= 10


def test_failing_screen_witness_values_match_mpmath():
    """60 seeded failing screens: each witness value within 1e-12 relative of 40-digit mpmath.

    The reference is the screened quantity at the witness point, with the
    stored coefficients taken exactly.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for f, lam, kind, res in _seeded_failing_screens(60):
            num, den, shift = _screened(f, kind)
            z = mpmath.mpc(res.witness)
            n, d = (mpmath.polyval([mpmath.mpc(c) for c in g.coeffs[::-1].tolist()], z) for g in (num, den))
            want = float(mpmath.re(z * n / d) + shift)
            assert abs(res.witness_value - want) <= 1e-12 * abs(want), (f.order, lam, kind, res, want)


def test_zero_tailed_screens_match_the_full_ring_witness():
    """z e^z, Kummer and their Theta images, whose coefficients underflow to +0 past c_178.

    The witness, its value and the point count match Horner over every
    coefficient on the whole deciding ring, bit for bit.
    """
    p = OperatorParams(0.5606394622302311, 0.5353442707612333, 0.4324788381589012)
    inputs = [exp_times_z_series(400), kummer_series(1.3, 0.9, 2500), kummer_series(0.5, 2.5, 600)]
    inputs += [theta_normalize(p, f) for f in inputs]
    seen = 0
    for f in inputs:
        assert _last_nonzero(f.coeffs) < 180 < f.order
        for kind in ("starlike", "convex"):
            for lam in (0.0, 0.3, 0.6, 0.9):
                res = (starlike_order if kind == "starlike" else convex_order)(f, lam)
                if res.passed:
                    continue
                witness, value, checked, _, _ = _full_ring_witness(f, lam, kind)
                assert (res.witness, res.witness_value, res.points_checked) == (witness, value, checked)
                seen += 1
    assert seen >= 30


def test_real_axis_screens_make_no_numpy_horner_call(monkeypatch):
    """Theta(Koebe) at -0.99, Koebe at -0.4 and Theta(z e^z)'s convex screen on the real axis: no NumPy Horner."""
    def refuse(*args, **kwargs):
        raise AssertionError("NumPy Horner called")

    p = OperatorParams(0.5606394622302311, 0.5353442707612333, 0.4324788381589012)
    inputs = [(starlike_order, theta_normalize(p, koebe_series(2.0, 2500)), 0.0),
              (starlike_order, koebe_series(2.0, 2500), 0.5),
              (convex_order, theta_normalize(p, exp_times_z_series(2500)), 0.0)]
    monkeypatch.setattr(series, "evaluate_many", refuse)
    monkeypatch.setattr(geometry, "evaluate_many", refuse)  # the from-import's own name
    monkeypatch.setattr(PowerSeries, "evaluate", refuse)
    for screen, f, lam in inputs:
        res = screen(f, lam)
        assert not res.passed and abs(res.witness.imag) < 1e-15


def test_zero_witness_denominator_is_a_domain_error(monkeypatch):
    """den(w) == 0j at a witness point raises the screen's DomainError, not ZeroDivisionError."""
    f = koebe_series(2.0, 2500)
    horner = geometry._horner
    monkeypatch.setattr(geometry, "_horner", lambda g, w: 0j if g is f else horner(g, w))
    with pytest.raises(DomainError, match="not finite"):
        starlike_order(f, 0.5)


def test_starlike_half_plane_map_witness():
    """For z/(1-z) the quantity is Re(1/(1-z)), minimal at z = -r, so the
    0.6 screen first fails at r = 0.7."""
    f = koebe_series(1.0, 1500)
    res = starlike_order(f, 0.6)
    assert not res.passed
    assert_allclose(res.witness, -0.7 + 0.0j, atol=1e-12)
    assert_allclose(res.witness_value, 1.0 / 1.7, rtol=1e-9)


def test_identity_passes_both_screens():
    f = identity_series(4)
    assert starlike_order(f, 0.0).passed
    assert convex_order(f, 0.0).passed


def test_screen_stops_at_first_violating_ring_before_a_later_zero():
    """f = z^2 - z/2 vanishes at the grid point 0.5, but Re(z f'/f) already
    fails on the 0.3 ring, so the screen reports that witness."""
    res = starlike_order(PowerSeries([0.0, -0.5, 1.0]), 0.0)
    assert not res.passed
    assert res.witness == 0.3 + 0j
    assert res.points_checked == 768  # three rings of 256 angles


def test_screen_rejects_vanishing_derivative():
    # f' = 1 - 10z vanishes at z = 0.1, the very first default-grid ring,
    # so the guard fires before any violation can be reported
    f = PowerSeries([0.0, 1.0, -5.0])
    with pytest.raises(DomainError, match="derivative vanishes"):
        convex_order(f, 0.0)


def test_screen_rejects_non_finite_quotient():
    """Horner overflows float64 on the deciding ring: a typed error, not a nan witness."""
    c = np.full(500, 1e305 + 0j)
    c[0] = 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="not finite"):
        starlike_order(PowerSeries(c), 0.0)


def test_screen_lambda_window():
    f = identity_series(2)
    with pytest.raises(DomainError):
        starlike_order(f, 1.0)
    with pytest.raises(DomainError):
        starlike_order(f, -0.1)


# ---------------------------------------------------------------------------
# coefficient bounds


def test_bieberbach_equality_for_koebe2():
    res = bieberbach_screen(koebe_series(2.0, 64), "starlike_bound")
    assert res.passed


def test_bieberbach_violation_index_reported():
    c = np.zeros(5, dtype=complex)
    c[1] = 1.0
    c[2] = 2.5  # > 2
    res = bieberbach_screen(PowerSeries(c), "starlike_bound")
    assert not res.passed
    assert res.first_violation_index == 2


def _bieberbach_loop(f, mode):
    """The screen one coefficient at a time: the first index over the bound, or None."""
    for k in range(2, f.order + 1):
        bound = float(k) if mode == "starlike_bound" else 1.0
        if abs(f.coeffs[k]) > bound * (1.0 + 1e-12) + 1e-12:
            return k
    return None


def test_bieberbach_screen_matches_the_coefficient_loop():
    """Verdict and first index against the loop, with coefficients on, just over and just under the bound."""
    rng = np.random.default_rng(22)
    cases = [koebe_series(2.0, 2**16), koebe_series(2.0, 1), exp_times_z_series(500), identity_series(40)]
    for _ in range(60):
        order = int(rng.integers(2, 300))
        k = np.arange(2.0, order + 1)
        c = np.zeros(order + 1, dtype=np.complex128)
        c[1] = 1.0
        scale = k if rng.integers(2) else np.ones_like(k)
        limit = scale * (1.0 + 1e-12) + 1e-12
        angle = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k.size)) if rng.integers(2) else 1.0
        c[2:] = angle * limit * rng.choice([1.0, 1.0 - 1e-16, 1.0 + 1e-15, 0.5], size=k.size, p=[0.5, 0.2, 0.05, 0.25])
        cases.append(PowerSeries(c))
    violations = 0
    for f in cases:
        for mode in ("starlike_bound", "convex_bound"):
            want = _bieberbach_loop(f, mode)
            res = bieberbach_screen(f, mode)
            assert (res.passed, res.first_violation_index) == (want is None, want)
            violations += want is not None
    assert 10 < violations < 2 * len(cases) - 10


def test_bieberbach_requires_normalized():
    with pytest.raises(DomainError):
        bieberbach_screen(PowerSeries([0.0, 3.0]), "convex_bound")


# ---------------------------------------------------------------------------
# criterion sums


def test_threshold_is_two_at_tau_equals_beta():
    assert criterion_threshold(OperatorParams(0.5, 0.5, 0.0)) == 2.0
    assert criterion_threshold(OperatorParams(0.8, 0.8, 2.4)) == 2.0


def test_terms_at_tau_equals_beta_are_polynomial():
    """Gamma ratios collapse, leaving (k+1) resp. (k+1)(k+3)."""
    p = OperatorParams(0.6, 0.6, 1.1)
    for k in range(12):
        assert criterion_term(p, "theorem6_K", k) == pytest.approx(k + 1.0, rel=1e-15)
        assert criterion_term(p, "theorem5_S", k) == pytest.approx(
            (k + 1.0) * (k + 3.0), rel=1e-15
        )


def test_term_growth_rate():
    """Terms grow ~ k^{1+beta-tau} (single sum) so divergence is structural."""
    p = OperatorParams(0.9, 0.3, 0.7)
    big, bigger = criterion_term(p, "theorem6_K", 200), criterion_term(p, "theorem6_K", 400)
    measured = math.log(bigger / big) / math.log(2.0)
    assert abs(measured - (1.0 + p.beta - p.tau)) < 0.05


def test_criterion_reports_divergence_never_satisfied():
    rng = np.random.default_rng(31)
    for _ in range(12):
        beta = rng.uniform(0.1, 1.0)
        tau = rng.uniform(max(0.05, beta - 0.9), beta)
        gamma = rng.uniform(0.0, 3.0)
        p = OperatorParams(beta, tau, gamma)
        for mode in CRITERION_MODES:
            rep = univalence_criterion(p, mode)
            assert rep.series_status is EvalStatus.DIVERGENT
            assert rep.verdict == "Inconclusive-Divergent"
            assert rep.partial_sums[-1] > rep.rhs_threshold  # sums blow through it


def test_criterion_budget_only_bounds_the_terms_read():
    """Only the report's partial sums are formed: a huge budget changes nothing past them."""
    p = OperatorParams(0.7, 0.4, 0.0)
    for mode in CRITERION_MODES:
        small = univalence_criterion(p, mode, max_terms=512).to_json_dict()
        assert univalence_criterion(p, mode, max_terms=10_000_000).to_json_dict() == small
        terms = [criterion_term(p, mode, k) for k in range(len(small["partial_sums"]))]
        assert_allclose(small["partial_sums"], np.cumsum(terms), rtol=1e-14)


def test_criterion_divergence_is_proved_at_the_window_corners():
    """min(budget, 21) rising partial sums and no verdict at the window's corners.

    beta down to 1e-3, tau down to POLE_GUARD, beta - tau up to 1 - 1e-3 and
    gamma at 0, 1e16 and 1e200, which the draws of the other criterion tests
    do not reach. The lemma the report rests on holds at each point:
    theorem 5's first term and theorem 6's first two terms reach 1.5 times
    the threshold.
    """
    rng = np.random.default_rng(26)
    pairs = [(1e-3, 1e-3), (1e-3, POLE_GUARD), (1.0, 1e-3), (1.0, 1.0)]
    for _ in range(12):
        beta = 10.0 ** rng.uniform(-3.0, 0.0)
        tau = 10.0 ** rng.uniform(math.log10(max(POLE_GUARD, beta - 1.0 + 1e-3)), math.log10(beta))
        pairs.append((beta, min(tau, beta)))
    for beta, tau in pairs:
        for gamma in (0.0, 1e16, 1e200):
            p = OperatorParams(beta, tau, gamma)
            for mode in CRITERION_MODES:
                lemma = 0 if mode == "theorem5_S" else 1
                for budget in (1, 20, 21, 22, 512):
                    rep = univalence_criterion(p, mode, max_terms=budget)
                    sums = rep.partial_sums
                    assert len(sums) == min(budget, 21), (p, mode, budget)
                    assert all(b > a for a, b in zip(sums, sums[1:])), (p, mode, sums)
                    assert sums == np.cumsum(criterion_term(p, mode, np.arange(len(sums)))).tolist()
                    want = EvalStatus.DIVERGENT if budget >= 21 else EvalStatus.SLOW_CONVERGENCE
                    assert rep.series_status is want, (p, mode, budget)
                    doc = rep.to_json_dict()
                    assert doc["verdict"] == "Inconclusive-Divergent" and doc["tail_bound"] is None
                    if len(sums) > lemma:
                        assert sums[lemma] >= 1.5 * rep.rhs_threshold * (1.0 - 1e-15), (p, mode)


def test_criterion_report_serializes():
    rep = univalence_criterion(OperatorParams(0.5, 0.5, 0.0), "theorem5_S")
    doc = rep.to_json_dict()
    text = json.dumps(doc, sort_keys=True, allow_nan=False)  # must not raise
    assert '"tail_bound": null' in text
    assert doc["rhs_threshold"] == 2.0


def test_criterion_rejects_unknown_mode():
    with pytest.raises(DomainError):
        univalence_criterion(OperatorParams(0.5, 0.4, 0.0), "theorem7")
