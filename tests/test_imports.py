"""transform, criteria and bloch run on NumPy alone: SciPy stays off their import path.

Each command runs cli.main in a fresh interpreter, which then reports the
exit code and every loaded scipy module.
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


def run_fresh(*argv) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
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


def test_verify_still_loads_scipy_and_passes():
    doc = run_fresh("verify", "--suite", "closed_forms")
    assert doc["code"] == 0
    assert "scipy.special" in doc["scipy"]
