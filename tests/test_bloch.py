"""Weighted Bloch-norm estimation and the operator boundedness checks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracops.bloch import (
    MAX_FAMILY_INDEX,
    BlochEstimate,
    WeightSpec,
    bloch_norm_classical,
    bloch_norm_weighted,
    boundedness_equivalence_check,
    compactness_decay_check,
    default_bloch_grid,
    grid_values,
)
from fracops.errors import DomainError
from fracops.fracdiff import OperatorParams, phi_multiplier, theta_multiplier_apply
from fracops.geometry import DiskGrid
from fracops.series import PowerSeries, identity_series, koebe_series, monomial_series


# ---------------------------------------------------------------------------
# weights


def test_weight_kinds_and_values():
    assert WeightSpec("constant_one").evaluate(0.3) == 1.0
    assert_allclose(WeightSpec("power", alpha_w=0.5).evaluate(0.25), 0.5)
    assert_allclose(WeightSpec("log_weight").evaluate(math.exp(-2)), 3.0)
    table = WeightSpec("table", table=((0.1, 1.0), (0.9, 5.0)))
    assert_allclose(table.evaluate(0.5), 3.0)  # linear interpolation


def test_weight_validation():
    with pytest.raises(DomainError):
        WeightSpec("bogus")
    with pytest.raises(DomainError):
        WeightSpec("table", table=((0.5, 1.0),))  # too few points
    with pytest.raises(DomainError):
        WeightSpec("table", table=((0.5, 1.0), (0.4, 2.0)))  # not increasing
    with pytest.raises(DomainError):
        WeightSpec("table", table=((0.2, 1.0), (0.5, -1.0)))  # nonpositive value
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="table weight values"):
            WeightSpec("table", table=((0.1, bad), (1.0, 1.0)))  # evaluate would return nan or inf


@pytest.mark.parametrize("table", [
    ((0.1,), (1.0,)),  # a one-column CSV
    ((0.1, 1.0, 2.0), (1.0, 1.0, 2.0)),  # a three-column CSV
    ((0.1, None), (1.0, 1.0)),
    ((0.1, "w"), (1.0, 1.0)),
    (0.1, 1.0),
])
def test_weight_table_points_must_be_pairs_of_numbers(table):
    with pytest.raises(DomainError, match=r"table weight points must be \(t, w\) pairs of numbers"):
        WeightSpec("table", table=table)


def test_weight_domain_is_half_open_unit_interval():
    w = WeightSpec("constant_one")
    with pytest.raises(DomainError):
        w.evaluate(0.0)
    with pytest.raises(DomainError):
        w.evaluate(1.5)
    assert w.evaluate(1.0) == 1.0


def test_weight_vector_evaluation():
    w = WeightSpec("power", alpha_w=2.0)
    t = np.array([0.5, 0.25])
    assert_allclose(w.evaluate(t), [0.25, 0.0625])


def test_weight_refuses_an_overflowing_power():
    """t^-1e300 overflows for t < 1: the weight is named, not reported as an underflow of |f'|."""
    w = WeightSpec("power", alpha_w=-1e300)
    assert w.evaluate(1.0) == 1.0
    with pytest.raises(DomainError, match="weight 'power' evaluated non-finite"):
        w.evaluate(np.array([0.5, 1.0]))
    with pytest.raises(DomainError, match="weight 'power' evaluated non-finite"):
        bloch_norm_weighted(identity_series(4), 1.0, w)


# ---------------------------------------------------------------------------
# norms


def test_classical_norm_of_identity():
    """sup (1 - r^2) |1| on the grid is attained at the innermost radius."""
    est = bloch_norm_classical(identity_series(4))
    assert_allclose(est.norm_estimate, 1.0 - 0.05**2, rtol=1e-15)
    assert est.argmax_point == complex(0.05)
    assert not est.truncation_warning


def test_classical_norm_of_square_near_analytic_value():
    """For f = z^2 the true Bloch norm is 4/(3 sqrt 3), at r = 1/sqrt 3."""
    est = bloch_norm_classical(monomial_series(2), default_bloch_grid().refine())
    assert abs(est.norm_estimate - 4.0 / (3.0 * math.sqrt(3.0))) < 1e-3
    assert_allclose(abs(est.argmax_point), 1.0 / math.sqrt(3.0), atol=5e-3)


def test_weighted_norm_of_identity():
    est = bloch_norm_weighted(identity_series(4), 1.0, WeightSpec("constant_one"))
    assert_allclose(est.norm_estimate, 0.95, rtol=1e-15)  # sup (1 - r) at r = 0.05


def test_weighted_norm_square_grid_exact():
    """sup 2r(1 - r) = 1/2, attained on the r = 0.5 ring (any angle: the
    quantity is rotation invariant for a monomial, up to 1-ulp |z| noise)."""
    est = bloch_norm_weighted(monomial_series(2), 1.0, WeightSpec("constant_one"))
    assert_allclose(est.norm_estimate, 0.5, rtol=1e-14)
    assert_allclose(abs(est.argmax_point), 0.5, rtol=1e-14)


def test_weighted_norm_rejects_nonpositive_mu():
    with pytest.raises(DomainError):
        bloch_norm_weighted(identity_series(2), 0.0, WeightSpec("constant_one"))


def test_norm_monotone_under_refinement():
    f = koebe_series(2.0, 128)
    g = default_bloch_grid()
    coarse = bloch_norm_classical(f, g).norm_estimate
    fine = bloch_norm_classical(f, g.refine()).norm_estimate
    assert fine >= coarse  # refinement only adds sample points


def test_truncation_warning_for_slowly_decaying_tail():
    # the half-plane map has unit coefficients forever; order 64 is far too
    # short to trust the 0.999 ring and the heuristic must say so
    est = bloch_norm_classical(koebe_series(1.0, 64))
    assert est.truncation_warning
    # identity padded with zero coefficients is exact: no warning
    assert not bloch_norm_classical(identity_series(8)).truncation_warning


def test_norm_rejects_overflow_on_the_grid():
    """|f'| overflows float64 on the outer rings: a typed error, not a partial maximum."""
    c = np.full(500, 1e305 + 0j)
    c[0] = 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="overflows"):
        bloch_norm_classical(PowerSeries(c))


def test_estimate_serializes():
    est = bloch_norm_classical(identity_series(4))
    doc = est.to_json_dict()
    assert doc["argmax_point"] == [0.05, 0.0]
    assert isinstance(doc["grid"], dict)


def test_little_bloch_decay_vanishes_at_boundary():
    grid = DiskGrid(radii=(0.2, 0.5, 0.9, 0.99), angles_per_radius=128)
    vals = grid_values(monomial_series(3), grid).max(axis=1)
    assert vals[-1] < vals[1]
    assert_allclose(vals[1], 3.0 * 0.25 * 0.75, rtol=1e-12)  # 3 r^2 (1 - r^2)


# ---------------------------------------------------------------------------
# operator checks


def test_equivalence_ratio_is_one_at_tau_equals_beta():
    p = OperatorParams(0.7, 0.7, 1.3)
    rep = boundedness_equivalence_check(
        p, koebe_series(2.0, 64), 1.0, WeightSpec("constant_one")
    )
    assert rep.ratio == 1.0  # multipliers are exactly 1


def test_equivalence_ratio_tracks_multiplier_scale():
    p = OperatorParams(0.8, 0.2, 0.5)
    rep = boundedness_equivalence_check(
        p, identity_series(4), 1.0, WeightSpec("constant_one")
    )
    # f = z has only the kappa = 1 coefficient and Phi(1) = 1
    assert_allclose(rep.ratio, 1.0, rtol=1e-15)
    assert rep.norm_f.norm_estimate > 0


def test_compactness_family_decays():
    p = OperatorParams(0.5, 0.5, 0.0)
    norms = compactness_decay_check(p, 16, 1.0, WeightSpec("constant_one"))
    assert len(norms) == 15
    # theta is the identity here, so the first value is sup r (1 - r) = 1/4
    assert_allclose(norms[0], 0.25, rtol=1e-12)
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_compactness_scales_with_multiplier_for_general_params():
    p = OperatorParams(0.9, 0.4, 1.1)
    norms = compactness_decay_check(p, 6, 1.0, WeightSpec("constant_one"))
    # each member is Phi(n)/n * sup of the monomial derivative quantity,
    # so dividing it out must recover the tau = beta sequence
    base = compactness_decay_check(OperatorParams(0.9, 0.9, 1.1), 6, 1.0,
                                   WeightSpec("constant_one"))
    for n, (got, want) in enumerate(zip(norms, base), start=2):
        assert_allclose(got / phi_multiplier(p, n), want, rtol=1e-13)


@pytest.mark.parametrize("w,mu", [
    (WeightSpec("constant_one"), 1.0),
    (WeightSpec("power", alpha_w=0.5), 2.5),
    (WeightSpec("log_weight"), 0.3),
    (WeightSpec("table", table=((0.01, 2.0), (0.5, 1.0), (1.0, 3.0))), 1.7),
])
def test_compactness_matches_the_grid_norm_of_each_member(w, mu):
    """Phi(n) max_r r^(n-1) factor(r) is the grid norm of Theta(z^n/n), member by member."""
    p = OperatorParams(0.8, 0.35, 2.2)
    grid = default_bloch_grid().refine()
    norms = compactness_decay_check(p, 24, mu, w, grid)
    for n, got in enumerate(norms, start=2):
        f_n = PowerSeries(monomial_series(n).coeffs / n)
        want = bloch_norm_weighted(theta_multiplier_apply(p, f_n), mu, w, grid).norm_estimate
        assert_allclose(got, want, rtol=1e-13)


def test_compactness_requires_at_least_two():
    with pytest.raises(DomainError):
        compactness_decay_check(OperatorParams(0.5, 0.5, 0.0), 1, 1.0,
                                WeightSpec("constant_one"))


@pytest.mark.parametrize("nmax", [4.5, 4.0, "4", None])
def test_compactness_family_index_must_be_an_integer(nmax):
    """4.5 once gave the norms of n = 2..5; a float or a string is refused, not rounded."""
    with pytest.raises(DomainError, match="integer"):
        compactness_decay_check(OperatorParams(0.5, 0.5, 0.0), nmax, 1.2, WeightSpec())


def test_compactness_takes_a_numpy_integer():
    p, w = OperatorParams(0.65, 0.3, 1.4), WeightSpec()
    assert compactness_decay_check(p, np.int64(5), 1.2, w) == compactness_decay_check(p, 5, 1.2, w)


def test_compactness_family_index_is_capped():
    assert MAX_FAMILY_INDEX == 1024
    with pytest.raises(DomainError, match="1024"):
        compactness_decay_check(OperatorParams(0.5, 0.5, 0.0), MAX_FAMILY_INDEX + 1, 1.0,
                                WeightSpec("constant_one"))
