"""Count arguments: one rule, errors.check_count, for every one of them."""

import math

import numpy as np
import pytest

from fracops.bloch import WeightSpec, compactness_decay_check
from fracops.errors import DomainError
from fracops.fracdiff import OperatorParams
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
