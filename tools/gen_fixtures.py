#!/usr/bin/env python3
"""Regenerate the packaged JSON fixtures under src/fracops/fixtures/.

Series fixtures pin the stock inputs used by the identity suite; the
quadrature goldens pin integral-route values (node-doubled) over a gamma
ladder where the Gauss-Jacobi rule is well inside its fast-convergence
regime. Run from the repository root:

    python3 tools/gen_fixtures.py
"""

import json
import pathlib

from fracops.fracdiff import OperatorParams
from fracops.quadrature import QuadratureConfig, oracle_eval
from fracops.series import make_builtin, save_series_fixture
from fracops.verify import GOLDEN_FIXTURE_NAME, SERIES_FIXTURE_RECIPES, _rebuild_golden_input

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "fracops" / "fixtures"

GOLDEN_GAMMAS = (0.0, 1.0, 1.7, 2.5, 3.0)
GOLDEN_BETA_TAU = ((0.65, 0.30), (0.9, 0.85))
GOLDEN_INPUTS = (
    {"kind": "koebe", "params": {"alpha": 1.0}, "order": 200, "z": (0.2, -0.35)},
    {"kind": "monomial", "power": 3, "order": 8, "z": (-0.4, 0.1)},
)
NODE_COUNT = 64


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, (kind, order, params) in SERIES_FIXTURE_RECIPES.items():
        save_series_fixture(make_builtin(kind, order, **params), OUT / name)
        print("wrote", name)

    entries = []
    for gamma in GOLDEN_GAMMAS:
        for beta, tau in GOLDEN_BETA_TAU:
            p = OperatorParams(beta, tau, gamma)
            cfg = QuadratureConfig(node_count=NODE_COUNT)
            for spec in GOLDEN_INPUTS:
                f = _rebuild_golden_input(spec)
                z = complex(*spec["z"])
                val = oracle_eval(p, f, z, cfg)
                entry = {
                    "params": p.to_json_dict(),
                    "input": {k: v for k, v in spec.items() if k != "z"},
                    "z": [z.real, z.imag],
                    "node_count": NODE_COUNT,
                    "value": [val.real, val.imag],
                }
                entries.append(entry)
    doc = {"entries": entries}
    with open(OUT / GOLDEN_FIXTURE_NAME, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_FIXTURE_NAME} ({len(entries)} entries)")


if __name__ == "__main__":
    main()
