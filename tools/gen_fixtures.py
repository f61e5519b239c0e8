#!/usr/bin/env python3
"""Regenerate the packaged JSON fixtures under src/fracops/fixtures/.

Series fixtures pin the stock inputs used by the identity suite; the
quadrature goldens pin integral-route values (node-doubled) over a gamma
ladder where the graded rule is well inside its fast-convergence regime.
Run from the repository root:

    python3 tools/gen_fixtures.py [OUTPUT_DIR]

OUTPUT_DIR defaults to src/fracops/fixtures/.
"""

import json
import pathlib
import sys

from fracops.fracdiff import OperatorParams
from fracops.quadrature import oracle_eval
from fracops.series import make_builtin, save_series_fixture
from fracops.verify import GOLDEN_FIXTURE_NAME, SERIES_FIXTURE_RECIPES, _rebuild_golden_input

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "fracops" / "fixtures"

GOLDEN_GAMMAS = (0.0, 1.0, 1.7, 2.5, 3.0)
GOLDEN_BETA_TAU = ((0.65, 0.30), (0.9, 0.85))
GOLDEN_INPUTS = (
    {"kind": "koebe", "params": {"alpha": 1.0}, "order": 200, "z": (0.2, -0.35)},
    {"kind": "monomial", "power": 3, "order": 8, "z": (-0.4, 0.1)},
)


def main(out=OUT):
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (kind, order, params) in SERIES_FIXTURE_RECIPES.items():
        save_series_fixture(make_builtin(kind, order, **params), out / name)
        print("wrote", name)

    entries = []
    for gamma in GOLDEN_GAMMAS:
        for beta, tau in GOLDEN_BETA_TAU:
            p = OperatorParams(beta, tau, gamma)
            for spec in GOLDEN_INPUTS:
                f = _rebuild_golden_input(spec)
                z = complex(*spec["z"])
                val = oracle_eval(p, f, z)
                entry = {
                    "params": p.to_json_dict(),
                    "input": {k: v for k, v in spec.items() if k != "z"},
                    "z": [z.real, z.imag],
                    "value": [val.real, val.imag],
                }
                entries.append(entry)
    doc = {"entries": entries}
    with open(out / GOLDEN_FIXTURE_NAME, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_FIXTURE_NAME} ({len(entries)} entries)")


if __name__ == "__main__":
    main(*sys.argv[1:])
