"""fracops: a three-parameter fractional differential operator on power series.

Public surface: special-function primitives (log_gamma, beta_fn,
Fox-Wright evaluation with parameter-derived convergence), truncated
power series with stock inputs, the operator and its normalized companion with closed forms, an
independent Gauss-Jacobi quadrature route, geometric function theory
screens, and weighted Bloch-norm estimation.
"""

from .errors import ConvergenceError, DomainError, FracopsError, PoleHitError
from .special import (
    EvalOutcome,
    EvalStatus,
    FoxWrightSpec,
    beta_fn,
    fox_wright_eval,
    log_gamma,
)
from .series import (
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
from .fracdiff import (
    ClosedFormImage,
    MonomialImage,
    OperatorImage,
    OperatorParams,
    apply_operator,
    closed_form_spec,
    monomial_transform,
    phi_multiplier,
    theta_fox_wright_spec,
    theta_hadamard,
    theta_multiplier_apply,
    theta_normalize,
)
from .quadrature import inner_integral, oracle_eval
from .geometry import (
    CriterionReport,
    DiskGrid,
    ScreenResult,
    bieberbach_screen,
    convex_order,
    starlike_order,
    univalence_criterion,
)
from .bloch import (
    BlochEstimate,
    WeightSpec,
    bloch_norm_classical,
    bloch_norm_weighted,
    boundedness_equivalence_check,
    compactness_decay_check,
    grid_values,
)
from .verify import run_suites

__version__ = "0.1.0"
