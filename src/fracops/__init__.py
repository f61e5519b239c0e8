"""fracops: a three-parameter fractional differential operator on power series.

Public surface: special-function primitives (log_gamma, beta_fn,
Fox-Wright evaluation with parameter-derived convergence), truncated
power series with stock inputs, the operator and its normalized companion with closed forms, an
independent Gauss-Jacobi quadrature route, geometric function theory
screens, and weighted Bloch-norm estimation.

`import fracops` loads no submodule. The first lookup of a public name or a
submodule name on the package imports all of them, so `fracops.X` and
`from fracops import *` give what an eager import gave; `from fracops.x
import y` loads only x and what it imports.
"""

import importlib

_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError", "FracopsError", "PoleHitError"),
    "special": ("EvalOutcome", "EvalStatus", "FoxWrightSpec", "beta_fn", "fox_wright_eval", "log_gamma"),
    "series": ("PowerSeries", "exp_times_z_series", "hurwitz_lerch_series", "identity_series",
               "koebe_series", "kummer_series", "load_series_fixture", "make_builtin",
               "monomial_series", "save_series_fixture"),
    "fracdiff": ("ClosedFormImage", "MonomialImage", "OperatorImage", "OperatorParams",
                 "apply_operator", "closed_form_spec", "monomial_transform", "phi_multiplier",
                 "theta_fox_wright_spec", "theta_hadamard", "theta_multiplier_apply", "theta_normalize"),
    "quadrature": ("inner_integral", "oracle_eval"),
    "geometry": ("CriterionReport", "DiskGrid", "ScreenResult", "bieberbach_screen", "convex_order",
                 "starlike_order", "univalence_criterion"),
    "bloch": ("BlochEstimate", "WeightSpec", "bloch_norm_classical", "bloch_norm_weighted",
              "boundedness_equivalence_check", "compactness_decay_check", "grid_values"),
    "verify": ("run_suites",),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f".{module}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]
