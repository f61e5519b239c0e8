"""Batch command-line front end.

Four subcommands cover the library surface:

  transform   apply the operator (or its normalized form) to a monomial,
              a stock series, or a series fixture file
  verify      run the seeded self-check suites and report pass/fail
  criteria    evaluate a coefficient-sum univalence criterion
  bloch       estimate classical/weighted Bloch norms, or run the
              compactness decay witness

Exit codes are a stable contract: 0 on success, 1 when a verification or
numerical routine fails, 2 on usage, parameter-window or file errors.  JSON is
the canonical output (keys sorted, so identical configs give byte-identical
documents); CSV is available where a per-term or per-radius trace is the
useful artifact.  A transform's coefficient table is written by json's C
encoder without indent and then laid out as indent=2, so its bytes are the
ones json.dumps(doc, sort_keys=True, indent=2) gives, at a fraction of the
cost on large orders.  The FRACOPS_FIXTURES environment variable points the
verifier at an alternate fixture directory.  Each subcommand imports only the
modules it runs: transform needs errors, special, series and fracdiff;
criteria adds geometry, bloch adds geometry and bloch, and verify adds
quadrature and verify.  So the help text lists no suite names and no --refine
or --nmax cap: a value past them exits 2 with a line naming the choices or
the bound.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

import numpy as np

from .errors import DomainError, FracopsError
from .fracdiff import OperatorParams, apply_operator, monomial_transform, theta_normalize
from .series import BUILTIN_SERIES, load_series_fixture, make_builtin

_THEOREM_MODES = {"5": "theorem5_S", "6": "theorem6_K"}
_WEIGHT_CHOICES = {"one": "constant_one", "power": "power", "log": "log_weight", "table": "table"}
# argparse takes an argument for a negative number, not an option, only in the forms -N and
# -N.N; this pattern adds the exponent form float() reads, such as -1e-3.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _canonical_json(doc) -> str:
    """Sorted-key JSON with a trailing newline; floats use repr formatting."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _table_json(doc: dict, coeffs: np.ndarray) -> str:
    """_canonical_json of doc plus "coefficients": coeffs as [re, im] pairs, byte for byte.

    json runs its C encoder only without indent, so the pairs are encoded
    flat and their separators moved to the indent=2 layout: a table of float
    reprs holds ", " and "], [" nowhere else. coeffs is a PowerSeries'
    coefficient array: complex128 and never empty. A tolist() result holds
    no cycle, so the encoder skips its cycle check.
    """
    flat = json.dumps(coeffs.view(np.float64).reshape(-1, 2).tolist(), allow_nan=False, check_circular=False)
    rows = flat[2:-2].replace("], [", "\n    ],\n    [\n      ").replace(", ", ",\n      ")
    text = _canonical_json({**doc, "coefficients": []})
    return text.replace('"coefficients": []', f'"coefficients": [\n    [\n      {rows}\n    ]\n  ]', 1)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(rows, header) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _params_from_args(args) -> OperatorParams:
    return OperatorParams(beta=args.beta, tau=args.tau, gamma=args.gamma)


def _series_from_args(args):
    """Resolve --series / --builtin into a PowerSeries (transform and bloch)."""
    if getattr(args, "series", None) is not None:
        return load_series_fixture(args.series)
    kind = args.builtin
    return make_builtin(kind, order=args.order, alpha=args.alpha, lam=args.lam,
                        rho=args.rho, s=args.s, a=args.a)


def _weight_from_args(args):
    from .bloch import WeightSpec

    kind = _WEIGHT_CHOICES[args.w]
    if kind == "power":
        return WeightSpec(kind="power", alpha_w=args.alpha_w)
    if kind == "table":
        if args.table_file is None:
            raise DomainError("--w table requires --table-file with t,w rows")
        try:
            data = np.loadtxt(args.table_file, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"--table-file is not a CSV of numeric t,w rows: {exc}") from exc
        return WeightSpec(kind="table", table=tuple(map(tuple, data)))
    return WeightSpec(kind=kind)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    p = _params_from_args(args)
    if args.monomial is not None:
        image = monomial_transform(p, args.monomial)
        _emit(_canonical_json({"coefficient": image.coefficient, "exponent": image.exponent}), args.output)
        return 0
    f = _series_from_args(args)
    if args.normalize:
        g, doc = theta_normalize(p, f), {}
    else:
        image = apply_operator(p, f)
        g, doc = image.series, {"prefactor_power": image.prefactor_power}
    _emit(_table_json({**doc, "order": g.order}, g.coeffs), args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites

    names = args.suite if args.suite else None
    results = run_suites(names=names, seed=args.seed, draws=args.draws)
    doc = {
        "seed": args.seed,
        "draws": args.draws,
        "suites": [r.to_json_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(_canonical_json(doc), args.output)
    return 0 if doc["all_passed"] else 1


def cmd_criteria(args) -> int:
    from .geometry import univalence_criterion

    p = _params_from_args(args)
    report = univalence_criterion(p, _THEOREM_MODES[args.theorem], max_terms=args.max_terms)
    if args.format == "csv":
        rows = enumerate(zip(report.terms, report.partial_sums))
        _emit(_csv([(k, t, s) for k, (t, s) in rows], header=("index", "term", "partial_sum")), args.output)
    else:
        _emit(_canonical_json(report.to_json_dict()), args.output)
    return 0


def cmd_bloch(args) -> int:
    from .bloch import (bloch_norm_classical, bloch_norm_weighted, compactness_decay_check,
                        default_bloch_grid, grid_values)

    grid, done = default_bloch_grid(), 0
    while args.refine < 0 or done < args.refine:
        try:
            grid = grid.refine()
        except DomainError:  # the next grid would pass MAX_GRID_POINTS
            raise DomainError(f"--refine must lie in [0, {done}], got {args.refine}") from None
        done += 1

    if args.compactness:
        if args.beta is None or args.tau is None:
            raise DomainError("--compactness requires --beta and --tau (and optionally --gamma)")
        p = OperatorParams(beta=args.beta, tau=args.tau, gamma=args.gamma)
        w = _weight_from_args(args)
        mu = 1.0 if args.mu is None else args.mu
        norms = compactness_decay_check(p, args.nmax, mu, w, grid)
        if args.format == "csv":
            rows = [(n, v) for n, v in zip(range(2, args.nmax + 1), norms)]
            _emit(_csv(rows, header=("n", "norm")), args.output)
            return 0
        tail_start = len(norms) - 1
        while tail_start > 0 and norms[tail_start - 1] >= norms[tail_start]:
            tail_start -= 1
        doc = {
            "params": p.to_json_dict(),
            "mu": mu,
            "weight": w.to_json_dict(),
            "family_index_max": args.nmax,
            "norms": norms,
            "last_over_first": norms[-1] / norms[0],
            "nonincreasing_tail_start": tail_start,
        }
        _emit(_canonical_json(doc), args.output)
        return 0

    f = _series_from_args(args)
    w = None if args.mu is None else _weight_from_args(args)
    if args.format == "csv":
        trace = grid_values(f, grid, args.mu, w).max(axis=1).tolist()
        _emit(_csv(zip(grid.radii, trace), header=("radius", "max_value")), args.output)
        return 0
    if args.mu is None:
        estimate = bloch_norm_classical(f, grid)
    else:
        estimate = bloch_norm_weighted(f, args.mu, w, grid)
    _emit(_canonical_json(estimate.to_json_dict()), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_param_flags(sub, required=True):
    sub.add_argument("--beta", type=float, required=required, help="order beta in (0, 1]")
    sub.add_argument("--tau", type=float, required=required, help="type tau in (0, 1]")
    sub.add_argument("--gamma", type=float, default=0.0, help="index gamma >= 0 (default 0)")


def _add_series_flags(sub, flag="--builtin"):
    src = sub.add_mutually_exclusive_group()
    src.add_argument(flag, choices=sorted(BUILTIN_SERIES), dest="builtin",
                     help="stock series by name")
    src.add_argument("--series", metavar="PATH", help="series fixture JSON file")
    sub.add_argument("--order", type=int, default=32, help="truncation order for builtins")
    sub.add_argument("--alpha", type=float, default=None, help="builtin parameter alpha")
    sub.add_argument("--lam", type=float, default=None, help="builtin parameter lambda")
    sub.add_argument("--rho", type=float, default=None, help="builtin parameter rho")
    sub.add_argument("--s", type=float, default=None, help="builtin parameter s")
    sub.add_argument("--a", type=float, default=None, help="builtin parameter a")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracops",
        description="Fractional differential operator on truncated power series: "
                    "transforms, self-verification, univalence criteria, Bloch norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="apply the operator to a monomial or series")
    _add_param_flags(t)
    t.add_argument("--monomial", type=float, default=None, metavar="POWER",
                   help="transform the single monomial z^POWER instead of a series")
    _add_series_flags(t)
    t.add_argument("--normalize", action="store_true",
                   help="apply the normalized (series-to-series) form; input must "
                        "have zero constant term and unit linear coefficient")
    t.add_argument("--output", default=None, help="write the JSON document here instead of stdout")
    t.set_defaults(func=cmd_transform)

    v = sub.add_parser("verify", help="run seeded self-check suites (exit 1 on any failure)")
    v.add_argument("--seed", type=int, default=0, help="seed for randomized draws (default 0)")
    v.add_argument("--draws", type=int, default=None,
                   help="override the per-suite draw count for randomized suites")
    v.add_argument("--suite", action="append",
                   help="run only this suite (repeatable; default: all)")
    v.add_argument("--output", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("criteria", help="evaluate a coefficient-sum univalence criterion")
    c.add_argument("--theorem", choices=sorted(_THEOREM_MODES), required=True,
                   help="5: starlike-type sum; 6: convex-type sum")
    _add_param_flags(c)
    c.add_argument("--max-terms", type=int, default=512, dest="max_terms")
    c.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits an index,term,partial_sum trace")
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_criteria)

    b = sub.add_parser("bloch", help="Bloch-norm estimates and compactness decay witness")
    _add_series_flags(b, flag="--f")
    b.add_argument("--mu", type=float, default=None,
                   help="weighted-norm exponent; omit for the classical (1-r^2) norm")
    b.add_argument("--w", choices=sorted(_WEIGHT_CHOICES), default="one",
                   help="weight: one, power (needs --alpha-w), log, table (needs --table-file)")
    b.add_argument("--alpha-w", type=float, default=0.0, dest="alpha_w")
    b.add_argument("--table-file", default=None, help="CSV of t,w(t) rows for --w table")
    b.add_argument("--refine", type=int, default=0,
                   help="halve the grid spacing this many times; the grid's point count is capped")
    b.add_argument("--compactness", action="store_true",
                   help="norms of the normalized operator on z^n/n for n = 2..nmax")
    b.add_argument("--nmax", type=int, default=64,
                   help="largest family index for --compactness, from 2")
    _add_param_flags(b, required=False)
    b.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits a per-radius (or per-n) trace")
    b.add_argument("--output", default=None)
    b.set_defaults(func=cmd_bloch)

    for p in (parser, t, v, c, b):  # each parser keeps its own pattern
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "transform" and args.monomial is None \
            and args.series is None and args.builtin is None:
        parser.error("transform needs one of --monomial, --builtin, --series")
    if args.command == "bloch" and not args.compactness \
            and args.series is None and args.builtin is None:
        parser.error("bloch needs one of --f, --series, --compactness")
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"fracops: error: {exc}", file=sys.stderr)
        return 2
    except FracopsError as exc:
        print(f"fracops: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
