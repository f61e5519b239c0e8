"""The package runs on NumPy alone, and each entry point loads only what it needs.

transform, criteria, bloch and verify (with the quadrature oracle), the
closed forms, the Hadamard route, and log Gamma, the Beta function and
Fox-Wright sums at complex and negative arguments run without SciPy. Each
check runs in a fresh interpreter with SciPy blocked: sys.modules["scipy"]
is set to None, so any import of it raises. RuntimeWarnings are errors in
every fresh interpreter, as in the test session.

`import fracops` loads no submodule, the first public or submodule name
loads them all, and each subcommand loads its own set of modules; these
checks run in a fresh interpreter with SciPy importable.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fracops.verify import fixture_dir

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

BLOCK_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

PROBE = BLOCK_SCIPY + """
import contextlib, io, json
from fracops.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code}))
"""


API_PROBE = BLOCK_SCIPY + """
import json
import numpy as np
from fracops.fracdiff import OperatorParams, closed_form_spec, theta_hadamard
from fracops.series import koebe_series
from fracops.special import EvalStatus, FoxWrightSpec, beta_fn, fox_wright_eval, log_gamma
p = OperatorParams(0.65, 0.3, 1.4)
closed_form_spec(p, "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1, a=1.0).evaluate(0.3 - 0.2j)
closed_form_spec(p, "koebe", alpha=2.0).evaluate(0.5j)
theta_hadamard(p, koebe_series(2.0, 64))
fox_wright_eval(FoxWrightSpec(upper=((1.7, 0.8),), lower=((0.4, 1.3),)), 0.9)
assert isinstance(log_gamma(3 + 4j), complex)
assert log_gamma(np.array([2.5, -2.5])).dtype == np.complex128
assert type(beta_fn(-0.5, 2.0)) is float
out = fox_wright_eval(FoxWrightSpec(upper=((-2.5, 1.0),), lower=((1.5, 1.0),)), 0.3)
assert out.status is EvalStatus.CONVERGED, out
print(json.dumps({"code": 0}))
"""


def run_fresh(*argv, probe=PROBE) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", probe, *argv], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


COMMANDS = {
    "transform-normalize": ("transform", "--beta", "0.6", "--tau", "0.3", "--gamma", "1.2",
                            "--builtin", "koebe", "--alpha", "2", "--order", "64", "--normalize"),
    "transform-monomial": ("transform", "--beta", "0.6", "--tau", "0.3", "--gamma", "1.2",
                           "--monomial", "2.5"),
    "transform-series": ("transform", "--beta", "0.6", "--tau", "0.3", "--series",
                         str(fixture_dir() / "series_koebe_alpha2.json")),
    "criteria-5": ("criteria", "--theorem", "5", "--beta", "0.5", "--tau", "0.3", "--gamma", "1"),
    "criteria-6": ("criteria", "--theorem", "6", "--beta", "0.5", "--tau", "0.3", "--gamma", "1"),
    "bloch-norm": ("bloch", "--f", "koebe", "--alpha", "2", "--order", "64"),
    "bloch-compactness": ("bloch", "--compactness", "--beta", "0.5", "--tau", "0.3", "--nmax", "8"),
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_never_loads_scipy(argv):
    assert run_fresh(*argv) == {"code": 0}


def test_closed_forms_hadamard_and_fox_wright_never_load_scipy():
    assert run_fresh(probe=API_PROBE) == {"code": 0}


def test_verify_never_loads_scipy():
    assert run_fresh("verify") == {"code": 0}


LOADED = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("fracops", "scipy") or m == "numpy.random")))
"""

LOAD_PROBE = """
import contextlib, io, json, sys
from fracops.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
""" + LOADED

SUBMODULES = ("errors", "special", "series", "fracdiff", "quadrature", "geometry", "bloch", "verify")
# What `from fracops import *` bound when fracops/__init__ imported every submodule.
EAGER_NAMES = sorted(SUBMODULES + tuple("""
    ConvergenceError DomainError FracopsError PoleHitError EvalOutcome EvalStatus FoxWrightSpec beta_fn
    fox_wright_eval log_gamma PowerSeries exp_times_z_series hurwitz_lerch_series identity_series
    koebe_series kummer_series load_series_fixture make_builtin monomial_series save_series_fixture
    ClosedFormImage MonomialImage OperatorImage OperatorParams apply_operator closed_form_spec
    monomial_transform phi_multiplier theta_fox_wright_spec theta_hadamard theta_multiplier_apply
    theta_normalize inner_integral oracle_eval CriterionReport DiskGrid ScreenResult bieberbach_screen
    convex_order starlike_order univalence_criterion BlochEstimate WeightSpec bloch_norm_classical
    bloch_norm_weighted boundedness_equivalence_check compactness_decay_check grid_values run_suites
""".split()))


def loaded(*names) -> list:
    return sorted(["fracops", *(f"fracops.{name}" for name in names)])


BASE = ("cli", "errors", "special", "series", "fracdiff")
SUBCOMMAND_LOADS = {
    "transform": loaded(*BASE),
    "criteria": loaded(*BASE, "geometry"),
    "bloch": loaded(*BASE, "geometry", "bloch"),
    "verify": loaded(*BASE, "quadrature", "verify") + ["numpy.random"],
}


def test_import_fracops_loads_no_submodule():
    assert run_fresh(probe="import json, sys\nimport fracops\n" + LOADED) == ["fracops"]


@pytest.mark.parametrize("lookup", ["fracops.log_gamma", "fracops.verify", "from fracops import fracdiff"])
def test_first_package_lookup_loads_every_submodule(lookup):
    probe = f"import json, sys\nimport fracops\n{lookup}\n" + LOADED
    assert run_fresh(probe=probe) == loaded(*SUBMODULES)


def test_star_import_binds_the_eager_names():
    probe = ("import json\nns = {}\nexec('from fracops import *', ns)\n"
             "print(json.dumps(sorted(k for k in ns if not k.startswith('_'))))\n")
    assert run_fresh(probe=probe) == EAGER_NAMES


@pytest.mark.parametrize("argv", [*COMMANDS.values(), ("verify",)],
                         ids=[*COMMANDS.keys(), "verify"])
def test_subcommand_loads_only_its_modules(argv):
    """No subcommand loads SciPy, and only verify, which seeds generators, loads numpy.random."""
    assert run_fresh(*argv, probe=LOAD_PROBE) == SUBCOMMAND_LOADS[argv[0]]
