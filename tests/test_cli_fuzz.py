"""CLI argv fuzz: any flag soup ends in exit 0, 1 or 2, never a traceback."""

import argparse
import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from fracops.cli import build_parser, main
from fracops.verify import fixture_dir

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_JUNK = ("nan", "-1", "1e308", "", "inf", "--bogus")
# Files the drawn --series and --table-file values name, written once: malformed series, a good table, bad tables.
_FILES = tempfile.TemporaryDirectory()
_WRITTEN = {
    "order_text.json": json.dumps({"coeffs": [[0, 0], [1, 0]], "order": "1"}),
    "order_null.json": json.dumps({"coeffs": [[0, 0], [1, 0]], "order": None}),
    "order_true.json": json.dumps({"coeffs": [[0, 0], [1, 0]], "order": True}),
    "table.csv": "0.01,1.0\n1.0,2.0\n",
    "one_column.csv": "0.1\n1.0\n",
    "three_columns.csv": "0.1,1.0,2.0\n1.0,1.0,2.0\n",
}
for _name, _text in _WRITTEN.items():
    (pathlib.Path(_FILES.name) / _name).write_text(_text)


def _written(suffix):
    return tuple(str(pathlib.Path(_FILES.name) / name) for name in _WRITTEN if name.endswith(suffix))


# --order and --refine are capped so one call stays well under a second
_VALUES = {
    int: ("0", "1", "2", "3", "16"),
    float: ("0.5", "1", "0.25", "2", "1e-10", "0", "-1e-3"),
    "--series": (str(fixture_dir() / "series_koebe_alpha2.json"), "/nonexistent.json", *_written(".json")),
    "--table-file": ("/nonexistent.csv", *_written(".csv")),
    "--refine": ("0", "1", "5"),
    "--suite": ("reduction_law", "identity_law", "no_such_suite"),  # the parser lists no suite names
}
_SKIP = {"-h", "--help", "--output"}  # help text and files are not stdout documents


def _subcommand_flags():
    """{subcommand: [(flag, value pool or None for a switch)]} read from the real parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, parser in sub.choices.items():
        pairs = []
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag is None or flag in _SKIP:
                continue
            if action.nargs == 0:
                pairs.append((flag, None))
                continue
            pool = action.choices or _VALUES.get(flag) or _VALUES[action.type or str]
            pairs.append((flag, tuple(pool)))
        flags[name] = pairs
    return flags


_FLAGS = _subcommand_flags()


# Valid calls per subcommand that the drawn flags then extend or override
# (argparse keeps the last value), so junk lands in runs that would succeed.
# A file flag's value is drawn from its pool, so the files are read.
_BASES = {
    "transform": (("--beta", "0.5", "--tau", "0.25", "--monomial", "2"),
                  ("--beta", "0.5", "--tau", "0.25", "--builtin", "koebe", "--alpha", "2", "--order", "16"),
                  ("--beta", "0.5", "--tau", "0.25", "--builtin", "hurwitz_lerch", "--alpha", "1",
                   "--lam", "1", "--rho", "1", "--s", "1", "--a", "1", "--order", "16"),
                  ("--beta", "0.5", "--tau", "0.25", "--series", _VALUES["--series"])),
    "verify": (("--suite", "reduction_law", "--draws", "4"),),
    "criteria": (("--theorem", "6", "--beta", "0.5", "--tau", "0.25"),),
    "bloch": (("--f", "koebe", "--alpha", "2", "--order", "16"),
              ("--f", "koebe", "--alpha", "2", "--order", "16", "--mu", "1", "--w", "table",
               "--table-file", _VALUES["--table-file"]),
              ("--compactness", "--beta", "0.5", "--tau", "0.25", "--nmax", "8")),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    base = draw(st.sampled_from(_BASES[command]))
    argv = [command, *(draw(st.sampled_from(a)) if isinstance(a, tuple) else a for a in base)]
    for flag, pool in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=6)):
        argv.append(flag)
        if pool is not None:  # one value in four is junk
            argv.append(draw(st.sampled_from(_JUNK if draw(st.integers(0, 3)) == 0 else pool)))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=cli_argv())
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0 and getattr(build_parser().parse_args(argv), "format", "json") != "csv":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
