"""Count arguments share one rule, errors.check_count; integral indices refuse non-finite values, bools and, for Phi, indices past 2**53."""

import math

import numpy as np
import pytest

from fracops.bloch import WeightSpec, compactness_decay_check
from fracops.errors import DomainError
from fracops.fracdiff import MAX_MULTIPLIER_INDEX, OperatorParams, phi_multiplier
from fracops.geometry import DiskGrid, univalence_criterion
from fracops.series import PowerSeries, make_builtin, monomial_series
from fracops.verify import run_suites

_P = OperatorParams(0.65, 0.3, 1.4)

# Each entry calls the function with the named count argument set to n.
COUNT_ARGUMENTS = {
    "make_builtin order": lambda n: make_builtin("koebe", n, alpha=2.0),
    "monomial_series order": lambda n: monomial_series(1, n),
    "DiskGrid angles_per_radius": lambda n: DiskGrid(radii=(0.5,), angles_per_radius=n),
    "compactness_decay_check family_index_max": lambda n: compactness_decay_check(_P, n, 1.2, WeightSpec()),
    "run_suites seed": lambda n: run_suites(names=["reduction_law"], seed=n, draws=2),
    "run_suites draws": lambda n: run_suites(names=["reduction_law"], draws=n),
    "univalence_criterion max_terms": lambda n: univalence_criterion(_P, "theorem5_S", max_terms=n),
}


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_argument_takes_only_an_integer(name):
    """A float, NaN or bool is refused with a DomainError, not rounded, truncated or read as 0 or 1."""
    call, argument = COUNT_ARGUMENTS[name], name.split()[-1]
    for bad in (2.5, 3.0, math.nan, True, np.True_):
        with pytest.raises(DomainError, match=f"{argument} must be an integer"):
            call(bad)
    got, want = call(np.int64(3)), call(3)
    if isinstance(want, PowerSeries):
        got, want = got.coeffs.tolist(), want.coeffs.tolist()
    assert got == want


# Each entry calls the function with its integral index set to x; an integral float is taken too.
INDEX_ARGUMENTS = {
    "monomial_series power": lambda x: monomial_series(x, 8).coeffs.tolist(),
    "phi_multiplier kappa": lambda x: phi_multiplier(_P, x),
}


@pytest.mark.parametrize("name", INDEX_ARGUMENTS)
def test_index_argument_refuses_non_finite_values_and_bools(name):
    """NaN, +-inf, True and np.True_ raise DomainError, not ValueError or OverflowError, nor read as 1."""
    call = INDEX_ARGUMENTS[name]
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.inf), True, np.True_):
        with pytest.raises(DomainError):
            call(bad)
    assert call(2.0) == call(np.int64(2)) == call(2)


@pytest.mark.filterwarnings("error")
def test_multiplier_index_past_float64_integers_is_refused():
    """Above 2**53 an index is a DomainError, not a bare OverflowError or an overflow warning."""
    p = OperatorParams(0.5, 0.4, 0.0)
    assert MAX_MULTIPLIER_INDEX == 2**53
    assert math.isfinite(phi_multiplier(p, MAX_MULTIPLIER_INDEX))
    assert phi_multiplier(p, float(MAX_MULTIPLIER_INDEX)) == phi_multiplier(p, MAX_MULTIPLIER_INDEX)
    for bad in (MAX_MULTIPLIER_INDEX + 1, 2.0**54, 1e300, 10**300, 10**400, np.float64(1e300)):
        with pytest.raises(DomainError, match="multiplier index must be an integer"):
            phi_multiplier(p, bad)
