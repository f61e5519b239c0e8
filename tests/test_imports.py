"""SciPy stays inside complex or non-positive Gamma arguments.

transform, criteria, bloch and verify (with the quadrature oracle), and the
closed forms, the Hadamard route and Fox-Wright sums on positive
parameters, run on NumPy alone. Each check runs in a fresh interpreter,
which then reports every loaded scipy module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fracops.verify import fixture_dir

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
from fracops.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


API_PROBE = """
import json, sys
from fracops.fracdiff import OperatorParams, closed_form_spec, theta_hadamard
from fracops.series import koebe_series
from fracops.special import FoxWrightSpec, fox_wright_eval
p = OperatorParams(0.65, 0.3, 1.4)
closed_form_spec(p, "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1, a=1.0).evaluate(0.3 - 0.2j)
closed_form_spec(p, "koebe", alpha=2.0).evaluate(0.5j)
theta_hadamard(p, koebe_series(2.0, 64))
fox_wright_eval(FoxWrightSpec(upper=((1.7, 0.8),), lower=((0.4, 1.3),)), 0.9)
print(json.dumps({"code": 0, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(*argv, probe=PROBE) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
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
    doc = run_fresh(*argv)
    assert doc == {"code": 0, "scipy": []}


def test_closed_forms_hadamard_and_fox_wright_never_load_scipy():
    assert run_fresh(probe=API_PROBE) == {"code": 0, "scipy": []}


def test_verify_never_loads_scipy():
    assert run_fresh("verify") == {"code": 0, "scipy": []}
