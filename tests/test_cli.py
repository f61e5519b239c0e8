"""Command-line front end: documents, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from fracops.bloch import default_bloch_grid
from fracops.cli import _table_json, main
from fracops.fracdiff import OperatorParams, log_gamma_ratio
from fracops.geometry import MAX_GRID_POINTS
from fracops.series import PowerSeries, koebe_series
from fracops.verify import fixture_dir

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# transform


def test_transform_monomial_worked_example(capsys):
    doc = run_json(capsys, "transform", "--beta", "1", "--tau", "0.5",
                   "--gamma", "0", "--monomial", "1")
    assert set(doc) == {"coefficient", "exponent"}
    assert abs(doc["coefficient"] - 2.0) < 1e-12
    assert doc["exponent"] == 1.0


def test_transform_builtin_tau_equals_beta_returns_input(capsys):
    doc = run_json(capsys, "transform", "--beta", "0.5", "--tau", "0.5",
                   "--gamma", "3", "--builtin", "koebe", "--alpha", "1", "--order", "8")
    assert doc["prefactor_power"] == 3.0
    want = koebe_series(1.0, 8)
    got = np.array([complex(re, im) for re, im in doc["coefficients"]])
    assert np.array_equal(got, want.coeffs)


def test_transform_monomial_1e308_at_tau_equals_beta(capsys):
    """At tau = beta every monomial is unchanged, however large its power."""
    doc = run_json(capsys, "transform", "--beta", "0.5", "--tau", "0.5", "--monomial", "1e308")
    assert doc["coefficient"] == 1.0
    assert doc["exponent"] == 1e308


def test_transform_window_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "transform", "--beta", "0.2", "--tau", "0.9",
                             "--gamma", "0", "--monomial", "1")
    assert code == 2
    assert "0 <= beta - tau" in err


def test_transform_normalize_document(capsys):
    doc = run_json(capsys, "transform", "--beta", "0.6", "--tau", "0.25",
                   "--gamma", "1.0", "--builtin", "koebe", "--alpha", "2",
                   "--order", "4", "--normalize")
    coeffs = doc["coefficients"]
    assert coeffs[0] == [0.0, 0.0]
    assert coeffs[1] == [1.0, 0.0]  # the multiplier is pinned at 1


def test_transform_normalize_rejects_unnormalized_input(capsys):
    code, _, err = run_cli(capsys, "transform", "--beta", "0.6", "--tau", "0.25",
                           "--gamma", "1.0", "--builtin", "hurwitz_lerch",
                           "--alpha", "1.0", "--lam", "1.0", "--rho", "1.0",
                           "--s", "2.0", "--a", "2.0", "--normalize")
    assert code == 2
    assert "normalized" in err


def test_transform_needs_an_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--beta", "0.5", "--tau", "0.5"])
    assert exc.value.code == 2


def test_transform_series_fixture_input(capsys):
    path = str(fixture_dir() / "series_identity.json")
    doc = run_json(capsys, "transform", "--beta", "0.5", "--tau", "0.5",
                   "--gamma", "0", "--series", path)
    got = np.array([complex(re, im) for re, im in doc["coefficients"]])
    assert got[1] == 1.0 and np.count_nonzero(got) == 1


def test_transform_output_file(tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "transform", "--beta", "1", "--tau", "0.5",
                           "--gamma", "0", "--monomial", "2", "--output", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    # Gamma(3)Gamma(0.5)/(Gamma(2.5)Gamma(1)) = 2/(1.5 * 0.5) = 8/3
    assert abs(doc["coefficient"] - 8.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# the transform document's bytes


def _reference_json(doc) -> str:
    """json's indented encoder on the whole document: the bytes a transform document must have."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _rendered(render):
    """render()'s text, or ValueError and its message up to the offending value."""
    try:
        return render()
    except ValueError as exc:
        return ValueError, str(exc).split(":")[0]


_TABLE_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e300, 1.0, -3.0)),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-2**60, 2**60).map(float))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.lists(_TABLE_FLOATS, min_size=2, max_size=2), min_size=1, max_size=300),
       order=st.integers(0, 2**20), prefactor=st.one_of(st.none(), _TABLE_FLOATS),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 599), st.sampled_from((math.nan, math.inf, -math.inf)))))
def test_table_json_matches_the_indented_encoder(pairs, order, prefactor, bad):
    """The table writer gives json's indented bytes, and its ValueError on NaN and inf."""
    if bad is not None:
        at, value = bad
        pairs[at // 2 % len(pairs)][at % 2] = value
    coeffs = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    doc = {"order": order} if prefactor is None else {"order": order, "prefactor_power": prefactor}
    want = _rendered(lambda: _reference_json({**doc, "coefficients": pairs}))
    assert _rendered(lambda: _table_json(doc, coeffs)) == want
    assert (bad is None) == isinstance(want, str)


@pytest.mark.parametrize("order", [1, 2, 64, 4096])
@pytest.mark.parametrize("normalize", [False, True])
def test_transform_document_is_the_indented_encoding_of_itself(tmp_path, capsys, order, normalize):
    """Both transform branches, to stdout and to --output: the same bytes json's indented encoder gives."""
    argv = ["transform", "--beta", "0.7", "--tau", "0.4", "--gamma", "1.3", "--builtin", "koebe",
            "--alpha", "2", "--order", str(order)] + ["--normalize"] * normalize
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["coefficients"]) == order + 1 and ("prefactor_power" in doc) != normalize
    assert out == _reference_json(doc)
    path = tmp_path / "image.json"
    assert run_cli(capsys, *argv, "--output", str(path))[:2] == (0, "")
    assert path.read_text(encoding="utf-8") == out


# ---------------------------------------------------------------------------
# verify


def test_verify_all_suites_pass(capsys):
    doc = run_json(capsys, "verify")
    assert doc["all_passed"] is True
    assert len(doc["suites"]) == 7
    oracle = next(s for s in doc["suites"] if s["name"] == "oracle_closed_form")
    assert oracle["max_error"] < 1e-8


def test_verify_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--draws", "50",
                         "--suite", "identity_law")
    _, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--draws", "50",
                         "--suite", "identity_law")
    assert out1 == out2


def test_verify_corrupted_fixture_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    src = fixture_dir()
    for name in src.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    doc = json.loads((tmp_path / "series_kummer.json").read_text())
    doc["coeffs"][3][0] *= 1.01
    (tmp_path / "series_kummer.json").write_text(json.dumps(doc))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures")
    assert code == 1
    report = json.loads(out)
    failures = report["suites"][0]["failures"]
    assert any("series_kummer.json" in f for f in failures)


def test_verify_unknown_suite_exits_2_with_one_line(capsys):
    """The parser lists no suite names; run_suites refuses an unknown one as a usage error."""
    code, out, err = run_cli(capsys, "verify", "--suite", "no_such_suite")
    assert (code, out) == (2, "")
    assert err.startswith("fracops: error: unknown suite 'no_such_suite'") and err.count("\n") == 1


def _verify_with_golden_0_changed(tmp_path, capsys, monkeypatch, **change) -> list:
    """The failures of `verify --suite fixtures` with golden entry 0 changed, after checking the contract."""
    src = fixture_dir()
    for name in src.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    doc = json.loads((tmp_path / "quad_goldens.json").read_text())
    doc["entries"][0].update(change)
    (tmp_path / "quad_goldens.json").write_text(json.dumps(doc))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    code, out, err = run_cli(capsys, "verify", "--suite", "fixtures")
    assert code == 1 and not err
    report = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON constant {c}"))
    failures = report["suites"][0]["failures"]
    assert failures and all(f.startswith("quad_goldens.json[0]: ") for f in failures)
    return failures


def test_verify_golden_at_z_zero_exits_1_with_strict_json(tmp_path, capsys, monkeypatch):
    failures = _verify_with_golden_0_changed(tmp_path, capsys, monkeypatch, z=[0, 0])
    assert "z = 0" in failures[0]


@pytest.mark.parametrize("change", [
    {"value": [float("nan"), 0.0]},
    {"z": [float("nan"), 0.0]},
    {"input": {"kind": "monomial", "power": 3, "order": 2**20}},
    {"input": {"kind": "monomial", "power": float("inf"), "order": 8}},  # written as Infinity
])
def test_verify_malformed_golden_exits_1_with_strict_json(tmp_path, capsys, monkeypatch, change):
    failures = _verify_with_golden_0_changed(tmp_path, capsys, monkeypatch, **change)
    assert "malformed entry" in failures[0]


# ---------------------------------------------------------------------------
# criteria


def test_criteria_divergent_verdict(capsys):
    doc = run_json(capsys, "criteria", "--theorem", "5", "--beta", "0.5",
                   "--tau", "0.5", "--gamma", "0")
    assert doc["verdict"] == "Inconclusive-Divergent"
    assert doc["series_status"] == "Divergent"
    assert doc["rhs_threshold"] == 2.0
    assert doc["tail_bound"] is None


def test_criteria_csv_trace(capsys):
    code, out, _ = run_cli(capsys, "criteria", "--theorem", "6", "--beta", "0.8",
                           "--tau", "0.5", "--gamma", "1.0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,term,partial_sum"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == float(first[2])
    # partial sums must be cumulative
    k, term, partial = lines[3].split(",")
    _, _, prev = lines[2].split(",")
    assert abs(float(prev) + float(term) - float(partial)) < 1e-12


@pytest.mark.parametrize("theorem", ["5", "6"])
@pytest.mark.parametrize("beta, tau, gamma", [(0.65, 0.3, 1.4), (0.9, 0.2, 0.0), (1.0, 1e-9, 3.0)])
def test_criteria_csv_prints_the_report_terms(capsys, theorem, beta, tau, gamma):
    """The term column is each proof term as formed, not a difference of two partial sums."""
    argv = ("criteria", "--theorem", theorem, "--beta", repr(beta), "--tau", repr(tau), "--gamma", repr(gamma))
    doc = run_json(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    r = log_gamma_ratio(OperatorParams(beta, tau, gamma), np.arange(1.0, 23.0))
    k = np.arange(1.0, 22.0)
    terms = k * np.exp(r[:-1])
    if theorem == "5":
        terms = terms + k * (k + 1.0) * np.exp(r[1:])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows] == [repr(t) for t in terms.tolist()]
    assert [row[2] for row in rows] == [repr(s) for s in doc["partial_sums"]]


def test_criteria_budget_below_the_report_is_slow(capsys):
    doc = run_json(capsys, "criteria", "--theorem", "5", "--beta", "0.65",
                   "--tau", "0.3", "--gamma", "1.4", "--max-terms", "5")
    assert len(doc["partial_sums"]) == 5
    assert doc["series_status"] == "SlowConvergence"
    assert doc["verdict"] == "Inconclusive-Divergent"
    assert doc["tail_bound"] is None


def test_criteria_rejects_a_zero_budget(capsys):
    code, out, err = run_cli(capsys, "criteria", "--theorem", "6", "--beta", "0.65",
                             "--tau", "0.3", "--gamma", "1.4", "--max-terms", "0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "max_terms" in err and "Traceback" not in err


def test_criteria_rejects_bad_window(capsys):
    code, _, err = run_cli(capsys, "criteria", "--theorem", "5", "--beta", "0.3",
                           "--tau", "0.8", "--gamma", "0")
    assert code == 2 and "beta - tau" in err


# ---------------------------------------------------------------------------
# bloch


def test_bloch_identity_norm_close_to_one(capsys):
    doc = run_json(capsys, "bloch", "--f", "identity", "--mu", "1", "--w", "one")
    # sup over the grid of (1 - r): within one radial step of the true 1
    assert abs(doc["norm_estimate"] - 1.0) <= 0.05 + 1e-12


def test_bloch_classical_csv_trace(capsys):
    code, out, _ = run_cli(capsys, "bloch", "--f", "koebe", "--alpha", "2",
                           "--order", "64", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,max_value"
    assert len(lines) == 97  # 95 radii + the 0.999 ring + header


def test_bloch_compactness_document(capsys):
    doc = run_json(capsys, "bloch", "--compactness", "--nmax", "16",
                   "--beta", "0.5", "--tau", "0.5")
    norms = doc["norms"]
    assert len(norms) == 15
    assert doc["nonincreasing_tail_start"] == 0
    assert norms[-1] < norms[0]
    assert doc["last_over_first"] == norms[-1] / norms[0]


def test_bloch_compactness_requires_params(capsys):
    code, _, err = run_cli(capsys, "bloch", "--compactness", "--nmax", "8")
    assert code == 2
    assert "--beta" in err


def test_bloch_table_weight_from_file(tmp_path, capsys):
    table = tmp_path / "w.csv"
    table.write_text("0.01,1.0\n1.0,2.0\n")
    doc = run_json(capsys, "bloch", "--f", "identity", "--mu", "1",
                   "--w", "table", "--table-file", str(table))
    assert doc["norm_estimate"] > 0


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bloch_table_weight_refuses_non_finite_values(tmp_path, capsys, value):
    """A NaN or inf weight is refused as the table's fault, not reported as an overflow of |f'|."""
    table = tmp_path / "t.csv"
    table.write_text(f"0.001,{value}\n1.0,1.0\n")
    code, out, err = run_cli(capsys, "bloch", "--f", "koebe", "--alpha", "2", "--order", "64", "--mu", "1",
                             "--w", "table", "--table-file", str(table))
    assert code == 2 and out == ""
    assert err == "fracops: error: table weight values must be positive and finite\n"


@pytest.mark.parametrize("weighted", [True, False])
def test_bloch_overflowing_input_exits_2_with_one_line(tmp_path, capsys, weighted):
    """An overflowing weight or derivative is one typed error line, with no RuntimeWarning before it."""
    if weighted:
        argv = ("--f", "identity", "--mu", "1", "--w", "power", "--alpha-w=-1e300")
        message = "weight 'power' evaluated non-finite"
    else:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(PowerSeries([0.0, 1.0, 1e308]).to_fixture_dict()))
        argv = ("--series", str(path))
        message = "the derivative's coefficients overflow float64"
    code, out, err = run_cli(capsys, "bloch", *argv)
    assert code == 2 and out == ""
    assert err == f"fracops: error: {message}\n"


def test_bloch_reads_a_negative_float_in_exponent_form(capsys):
    """argparse alone takes -1e-3 for an option; the CLI reads it as --alpha-w=-1e-3 does."""
    argv = ("bloch", "--f", "identity", "--mu", "1", "--w", "power")
    code, out, err = run_cli(capsys, *argv, "--alpha-w", "-1e-3")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, "--alpha-w=-1e-3")[1]


def test_bloch_refine_flag(capsys):
    base = run_json(capsys, "bloch", "--f", "koebe", "--alpha", "2", "--order", "32")
    fine = run_json(capsys, "bloch", "--f", "koebe", "--alpha", "2", "--order", "32",
                    "--refine", "1")
    assert fine["norm_estimate"] >= base["norm_estimate"]
    assert len(fine["grid"]["radii"]) > len(base["grid"]["radii"])
    grid = default_bloch_grid()
    n, m, top = len(grid.radii), grid.angles_per_radius, 0
    while (2 * n - 1) * 2 * m <= MAX_GRID_POINTS:  # a refinement: midpoint radii, twice the angles
        n, m, top = 2 * n - 1, 2 * m, top + 1
    assert (top, n, m) == (4, 1521, 2048)
    for refine in ("-1", str(top + 1), "1000000000"):  # the flag's name, not the grid's size
        code, out, err = run_cli(capsys, "bloch", "--f", "identity", "--refine", refine)
        assert (code, out) == (2, "")
        assert err == f"fracops: error: --refine must lie in [0, {top}], got {refine}\n"


def test_bloch_series_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bloch", "--f", "koebe", "--alpha", "2", "--series", "x.json"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# non-finite or out-of-range numeric flags and unusable files


@pytest.mark.parametrize("argv", [
    ("transform", "--beta", "0.5", "--tau", "0.5", "--gamma", "nan", "--monomial", "1"),
    ("transform", "--beta", "0.5", "--tau", "0.5", "--gamma", "inf", "--monomial", "1"),
    ("transform", "--beta", "0.5", "--tau", "0.5", "--monomial", "nan"),
    ("transform", "--beta", "0.5", "--tau", "0.5", "--monomial", "inf"),
    ("criteria", "--theorem", "5", "--beta", "0.5", "--tau", "0.5", "--gamma", "nan"),
    ("bloch", "--f", "koebe", "--alpha", "2", "--mu", "nan"),
    ("bloch", "--f", "koebe", "--alpha", "2", "--mu", "1", "--w", "power", "--alpha-w", "nan"),
    ("bloch", "--f", "identity", "--refine", "-1"),
    ("bloch", "--f", "identity", "--refine", "5"),  # past MAX_GRID_POINTS
    ("transform", "--beta", "0.5", "--tau", "0.5", "--series", "/nonexistent.json"),
    ("transform", "--beta", "0.5", "--tau", "0.5", "--series", "{tmp}"),
    ("transform", "--beta", "0.5", "--tau", "0.5", "--monomial", "1", "--output",
     "/nonexistent/dir/x"),
    ("bloch", "--series", "/nonexistent.json"),
    ("bloch", "--series", "{tmp}/latin1.json"),
    ("bloch", "--f", "identity", "--mu", "1", "--w", "table", "--table-file",
     "/nonexistent.csv"),
    ("bloch", "--f", "identity", "--mu", "1", "--w", "table", "--table-file", "{tmp}/w.csv"),
    ("transform", "--beta", "1", "--tau", "1e-10", "--monomial", "1"),  # tau below POLE_GUARD
    ("bloch", "--compactness", "--beta", "0.5", "--tau", "0.5", "--nmax", "100000000"),
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "kummer", "--alpha", "1", "--lam", "nan",
     "--order", "8"),
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "kummer", "--alpha", "1", "--lam", "inf",
     "--order", "8"),
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "hurwitz_lerch", "--alpha", "1", "--lam", "1",
     "--rho", "nan", "--s", "1", "--a", "1", "--order", "8"),
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "hurwitz_lerch", "--alpha", "1", "--lam", "1",
     "--rho", "inf", "--s", "1", "--a", "1", "--order", "8"),
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "hurwitz_lerch", "--alpha", "1", "--lam", "1",
     "--rho", "1", "--s", "1e308", "--a", "0.5", "--order", "8"),  # a^-s overflows
    ("transform", "--beta", ".5", "--tau", ".4", "--builtin", "koebe", "--alpha", "1e308", "--order", "8"),
    ("transform", "--beta", ".25", "--tau", ".25", "--gamma", "1e308", "--monomial", "1e308"),
    ("verify", "--seed", "-1", "--suite", "reduction_law"),
    ("verify", "--draws", "0", "--suite", "reduction_law"),
    ("bloch", "--compactness", "--beta", ".5", "--tau", ".4", "--mu", "1e308", "--nmax", "4"),
    ("bloch", "--f", "koebe", "--alpha", "2", "--mu", "1e308"),  # (1 - r)^mu underflows
    ("transform", "--beta", "0.5", "--tau", "0.4", "--builtin", "identity", "--order", "1000000000"),
    ("transform", "--beta", "0.5", "--tau", "0.4", "--builtin", "identity", "--order", "0"),
    ("transform", "--beta", "0.5", "--tau", "0.4", "--builtin", "identity", "--order", "-3"),
    ("transform", "--beta", "0.5", "--tau", "0.4", "--builtin", "koebe", "--alpha", "2",
     "--order", "1000000000"),  # above series.MAX_ORDER
], ids=lambda argv: " ".join(argv))
def test_non_finite_flags_exit_2(capsys, tmp_path, argv):
    (tmp_path / "w.csv").write_text("t,w\nsmall,large\n")
    (tmp_path / "latin1.json").write_bytes(b'{"coeffs": "\xe9"}')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("fracops: error:")
