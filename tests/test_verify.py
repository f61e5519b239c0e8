"""Self-check suite runner plumbing: registry, seeding, fixture override."""

import cmath
import inspect
import json
import math
import pathlib
import runpy
import time
import tracemalloc

import pytest

from fracops import quadrature
from fracops.errors import ConvergenceError, DomainError, FracopsError
from fracops.fracdiff import (
    OperatorParams,
    apply_operator,
    closed_form_spec,
    monomial_transform,
    theta_hadamard,
    theta_multiplier_apply,
    theta_normalize,
)
from fracops.quadrature import _disk_point, inner_integral, oracle_eval
from fracops.series import MAX_ORDER, PowerSeries, load_series_fixture, make_builtin, monomial_series
from fracops.special import FoxWrightSpec, beta_fn, fox_wright_eval, log_gamma
from fracops.verify import (
    _CLOSED_FORM_CASES,
    _CLOSED_FORM_PARAMS,
    _GOLDEN_MAX_ORDER,
    _PQ_SHAPES,
    GOLDEN_FIXTURE_NAME,
    SERIES_FIXTURE_NAMES,
    SERIES_FIXTURE_RECIPES,
    SUITES,
    SuiteResult,
    _draw_z,
    _nine_points,
    _rebuild_golden_input,
    direct_hypergeometric,
    draw_params,
    fixture_dir,
    random_normalized_coeffs,
    run_suites,
    suite_closed_forms,
    suite_fixtures,
    suite_fox_wright_reduction,
    suite_identity_law,
    suite_oracle_closed_form,
    suite_reduction_law,
    suite_theta_equivalence,
)

import numpy as np


def test_registry_names():
    assert set(SUITES) == {
        "oracle_closed_form",
        "identity_law",
        "reduction_law",
        "fox_wright_reduction",
        "closed_forms",
        "theta_equivalence",
        "fixtures",
    }


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suites(names=["nope"])
    for flag in (True, np.True_):  # not seed 1 or one draw
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            run_suites(names=["identity_law"], seed=flag)
        with pytest.raises(DomainError, match="draws must be an integer >= 1"):
            run_suites(names=["identity_law"], draws=flag)


def test_draw_params_stay_in_window():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = draw_params(rng)
        assert 0.0 < p.beta <= 1.0 and 0.0 < p.tau <= 1.0
        assert 0.0 <= p.beta - p.tau < 1.0 and p.gamma >= 0.0
    q = draw_params(rng, tau_equals_beta=True)
    assert q.tau == q.beta
    r = draw_params(rng, gamma_zero=True)
    assert r.gamma == 0.0


def test_same_seed_same_report():
    a = run_suites(names=["identity_law"], seed=3, draws=40)[0]
    b = run_suites(names=["identity_law"], seed=3, draws=40)[0]
    assert a.to_json_dict() == b.to_json_dict()


def test_draws_override_scales_checks():
    small = run_suites(names=["reduction_law"], seed=0, draws=10)[0]
    assert small.checks == 10
    assert small.passed


# the seeds of 0-599 on which one Gauss-Jacobi panel in u = w^(1/(gamma+1)), 64 and 128 nodes,
# failed its doubling check (each a constant input at gamma <= 0.156)
@pytest.mark.parametrize("seed", [51, 77, 108, 125, 128, 222, 223, 240, 300, 340, 343, 378, 488, 498, 555, 587])
def test_oracle_closed_form_passes_where_the_one_panel_rule_failed(seed):
    res = suite_oracle_closed_form(seed=seed)
    assert res.passed, res.failures


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    assert fixture_dir() == tmp_path
    monkeypatch.delenv("FRACOPS_FIXTURES")
    assert fixture_dir().name == "fixtures"


def test_generator_rewrites_the_packaged_fixtures_byte_for_byte(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    runpy.run_path(str(root / "tools" / "gen_fixtures.py"))["main"](tmp_path)
    packaged = root / "src" / "fracops" / "fixtures"
    names = sorted(p.name for p in packaged.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (packaged / name).read_bytes(), name


def test_missing_fixture_directory_fails_with_names(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    res = suite_fixtures()
    assert not res.passed
    assert any("series_identity.json" in f for f in res.failures)
    assert any("quad_goldens.json" in f for f in res.failures)


def test_tampered_value_is_caught(tmp_path, monkeypatch):
    """A tampered golden fails the suite, naming the entry; none makes the suite raise."""
    src = fixture_dir()
    for name in src.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    golden = tmp_path / "quad_goldens.json"
    entries = json.loads(golden.read_text())["entries"]
    re, im = entries[0]["value"]
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    for change, message in (
        ({"value": [re + 1e-3, im]}, "stored value"),
        ({"input": {"kind": "monomial", "power": 3, "order": MAX_ORDER + 1}}, "malformed entry"),
    ):
        golden.write_text(json.dumps({"entries": [{**entries[0], **change}] + entries[1:]}))
        res = suite_fixtures()
        assert not res.passed
        assert res.failures and all(f.startswith("quad_goldens.json[0]: ") for f in res.failures), change
        assert message in res.failures[0], res.failures


def _one_golden(tmp_path, monkeypatch, **change):
    """suite_fixtures on the packaged fixtures with golden entry 0 alone, changed by change."""
    src = fixture_dir()
    for name in SERIES_FIXTURE_NAMES:
        (tmp_path / name).write_text((src / name).read_text())
    entry = json.loads((src / "quad_goldens.json").read_text())["entries"][0]
    (tmp_path / "quad_goldens.json").write_text(json.dumps({"entries": [{**entry, **change}]}))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    return suite_fixtures()


def test_golden_file_that_is_not_utf8_fails_naming_it(tmp_path, monkeypatch):
    """Bytes that are not UTF-8 fail the golden file as a whole, as JSON that does not parse does."""
    src = fixture_dir()
    for name in SERIES_FIXTURE_NAMES:
        (tmp_path / name).write_text((src / name).read_text())
    (tmp_path / "quad_goldens.json").write_bytes(b'{"entries": "\xe9"}')
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    res = suite_fixtures()
    assert len(res.failures) == 1 and res.failures[0].startswith("fixture quad_goldens.json: ")


@pytest.mark.parametrize("z, message", [
    ([0, 0], "undefined at z = 0"),
    ([1.0, 0.0], "inside the unit disk"),
    ([-0.6, 0.8], "inside the unit disk"),
    ([1.7e308, 1.7e308], "inside the unit disk"),  # abs() of this z overflows
])
def test_golden_outside_the_punctured_disk_fails_its_entry(tmp_path, monkeypatch, z, message):
    res = _one_golden(tmp_path, monkeypatch, z=z)
    assert len(res.failures) == 1 and res.failures[0].startswith("quad_goldens.json[0]: ")
    assert message in res.failures[0]
    assert math.isfinite(res.max_error)


@pytest.mark.parametrize("field", ["value", "z"])
def test_golden_with_a_nan_fails_as_malformed(tmp_path, monkeypatch, field):
    res = _one_golden(tmp_path, monkeypatch, **{field: [math.nan, 0.0]})
    assert res.failures == ["quad_goldens.json[0]: malformed entry (z and value must be finite)"]
    assert math.isfinite(res.max_error)
    json.dumps(res.to_json_dict(), allow_nan=False)


def test_golden_input_order_above_the_cap_fails_before_any_evaluation(tmp_path, monkeypatch):
    """An order-2^20 monomial, which took seconds to evaluate, fails at once."""
    assert _GOLDEN_MAX_ORDER < MAX_ORDER
    start = time.perf_counter()
    res = _one_golden(tmp_path, monkeypatch, input={"kind": "monomial", "power": 3, "order": MAX_ORDER})
    assert time.perf_counter() - start < 1.0
    assert len(res.failures) == 1
    assert res.failures[0].startswith("quad_goldens.json[0]: malformed entry (input order ")


def test_suite_results_serialize():
    res = run_suites(names=["fixtures"])[0]
    doc = res.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["name"] == "fixtures"
    assert doc["passed"] is True


def _identity_law_per_draw(seed, draws):
    """suite_identity_law rebuilt from one apply_operator and theta_normalize call per random draw."""
    rng = np.random.default_rng(seed)
    worst, failures, checks = 0.0, [], 0
    cases = [(draw_params(rng, tau_equals_beta=True), PowerSeries(random_normalized_coeffs(rng, 12)), f"draw {i}")
             for i in range(draws)]
    for name in SERIES_FIXTURE_NAMES:
        f = load_series_fixture(fixture_dir() / name)
        cases += [(draw_params(rng, tau_equals_beta=True), f, name) for _ in range(3)]
    for p, f, label in cases:
        dev = float(np.max(np.abs(apply_operator(p, f).series.coeffs - f.coeffs)))
        if f.is_normalized():
            dev = max(dev, float(np.max(np.abs(theta_normalize(p, f).coeffs - f.coeffs))))
        else:
            g = PowerSeries(np.concatenate([[0.0], f.coeffs[1:]]))
            if abs(f.coeffs[0]) < 1e-12 and f.coeffs.size > 1:
                dev = max(dev, float(np.max(np.abs(theta_multiplier_apply(p, g).coeffs - g.coeffs))))
        worst = max(worst, dev)
        checks += 1
        if not dev <= 1e-12:
            failures.append(f"{label}: coefficient deviation {dev:.3e} at {p}")
    return SuiteResult("identity_law", checks, worst, 1e-12, failures)


def _reduction_law_per_draw(seed, draws):
    """suite_reduction_law rebuilt from one monomial_transform call per draw."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng, gamma_zero=True)
        upsilon = float(rng.integers(0, 7)) if i % 2 == 0 else rng.uniform(0.0, 6.0)
        got = monomial_transform(p, upsilon)
        ref = math.exp(log_gamma(upsilon + p.beta) + log_gamma(p.tau) - log_gamma(upsilon + p.tau) - log_gamma(p.beta))
        err = max(abs(got.coefficient - ref) / abs(ref), abs(got.exponent - upsilon))
        worst = max(worst, err)
        if not err <= 1e-12:
            failures.append(f"draw {i}: rel err {err:.3e} at {p}, upsilon={upsilon}")
    return SuiteResult("reduction_law", draws, worst, 1e-12, failures)


def _oracle_closed_form_per_draw(seed, draws):
    """suite_oracle_closed_form rebuilt from one monomial_transform call per draw."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng)
        upsilon = int(rng.integers(0, 7))
        z = _draw_z(rng)
        ref = monomial_transform(p, float(upsilon)).evaluate(z)
        try:
            got = oracle_eval(p, monomial_series(upsilon, max(upsilon, 1)), z)
        except (ConvergenceError, DomainError) as exc:
            failures.append(f"draw {i}: {exc}")
            continue
        err = abs(got - ref) / max(abs(ref), 1e-300)
        worst = max(worst, err)
        if not err <= 1e-8:
            failures.append(f"draw {i}: rel err {err:.3e} at params {p}, upsilon={upsilon}, z={z}")
    return SuiteResult("oracle_closed_form", draws, worst, 1e-8, failures)


def _theta_equivalence_per_draw(seed, draws):
    """suite_theta_equivalence rebuilt from one theta_normalize and one theta_hadamard call per draw."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng)
        f = PowerSeries(random_normalized_coeffs(rng, 64))
        t1, t2 = theta_normalize(p, f).coeffs, theta_hadamard(p, f).coeffs
        dev = float(np.max(np.abs(t1 - t2) / np.maximum(1.0, np.abs(t1))))
        worst = max(worst, dev)
        if not dev <= 1e-12:
            failures.append(f"draw {i}: coefficient deviation {dev:.3e} at {p}")
    return SuiteResult("theta_equivalence", draws, worst, 1e-12, failures)


def _fox_wright_reduction_per_draw(seed, draws):
    """suite_fox_wright_reduction rebuilt from one fox_wright_eval call per draw."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        pq = _PQ_SHAPES[int(rng.integers(0, len(_PQ_SHAPES)))]
        upper = [rng.uniform(0.3, 3.0) for _ in range(pq[0])]
        lower = [rng.uniform(0.5, 3.5) for _ in range(pq[1])]
        z = _draw_z(rng, 0.05, 0.5)
        psi = fox_wright_eval(FoxWrightSpec(upper=tuple((a, 1.0) for a in upper),
                                            lower=tuple((b, 1.0) for b in lower)), z)
        delta = math.exp(sum(log_gamma(b) for b in lower) - sum(log_gamma(a) for a in upper))
        ref = direct_hypergeometric(upper, lower, z) / delta
        err = abs(psi.value - ref) / max(abs(ref), 1e-300)
        worst = max(worst, err)
        if psi.status.value != "Converged" or not err <= 1e-10:
            failures.append(f"draw {i}: status {psi.status.value}, rel err {err:.3e} "
                            f"(upper={upper}, lower={lower}, z={z})")
    return SuiteResult("fox_wright_reduction", draws, worst, 1e-10, failures)


def _closed_forms_per_point(seed, draws):
    """suite_closed_forms rebuilt from scalar evaluate calls, one per image and point, each closed form built afresh."""
    worst, failures, checks = 0.0, [], 0
    pts = _nine_points()
    for beta, tau, gamma in _CLOSED_FORM_PARAMS:
        p = OperatorParams(beta, tau, gamma)
        for kind, kw, order in _CLOSED_FORM_CASES:
            image = apply_operator(p, make_builtin(kind, order, **kw))
            for z in pts:
                ref, x = image.evaluate(z), closed_form_spec(p, kind, **kw).evaluate(z)
                err = abs(x - ref) / max(abs(ref), 1e-300)
                worst = max(worst, err)
                checks += 1
                if not err <= 1e-10:
                    failures.append(f"{kind}{kw} at {p}, z={z}: rel err {err:.3e}")
        for z in pts:
            ref = closed_form_spec(p, "exp_times_z").evaluate(z)
            x = closed_form_spec(p, "kummer", alpha=1.3, lam=1.3).evaluate(z)
            err = abs(x - ref) / max(abs(ref), 1e-300)
            worst = max(worst, err)
            checks += 1
            if not err <= 1e-10:
                failures.append(f"kummer degeneracy at {p}, z={z}: rel err {err:.3e}")
    return SuiteResult("closed_forms", checks, worst, 1e-10, failures)


def _fixtures_per_entry(seed, draws):
    """suite_fixtures rebuilt with one oracle call per golden entry, its input rebuilt for each entry."""
    fdir = fixture_dir()
    worst, failures, checks = 0.0, [], 0
    for name, (kind, order, kw) in SERIES_FIXTURE_RECIPES.items():
        path = fdir / name
        try:
            ps = load_series_fixture(path)
            if not np.array_equal(PowerSeries.from_fixture_dict(ps.to_fixture_dict()).coeffs, ps.coeffs):
                raise DomainError("round-trip mismatch")
            expected = make_builtin(kind, order, **kw)
            if ps.order != expected.order:
                raise DomainError(f"order {ps.order} != expected {expected.order}")
            dev = float(np.max(np.abs(ps.coeffs - expected.coeffs)))
            worst = max(worst, dev)
            if not dev <= 1e-15:
                raise DomainError(f"coefficients drift from the {kind} recipe by {dev:.3e}")
        except (OSError, FracopsError) as exc:
            failures.append(f"fixture {path.name}: {exc}")
        checks += 1
    golden_path = fdir / GOLDEN_FIXTURE_NAME
    try:
        entries = json.loads(golden_path.read_text())["entries"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        failures.append(f"fixture {golden_path.name}: {exc}")
        entries = []
    for idx, entry in enumerate(entries):
        label = f"{golden_path.name}[{idx}]"
        try:
            pd = entry["params"]
            p = OperatorParams(pd["beta"], pd["tau"], pd["gamma"])
            f = _rebuild_golden_input(entry["input"])
            z = complex(entry["z"][0], entry["z"][1])
            stored = complex(entry["value"][0], entry["value"][1])
            if not (cmath.isfinite(z) and cmath.isfinite(stored)):
                raise ValueError("z and value must be finite")
        except (KeyError, TypeError, ValueError, FracopsError) as exc:
            failures.append(f"{label}: malformed entry ({exc})")
            continue
        a_p, b_p = p.jacobi_exponents
        try:
            r1, r2, _ = quadrature._eval_doubling(p, f, _disk_point(z))
            err_beta = abs(inner_integral(p, PowerSeries([1.0]), z) - beta_fn(b_p + 1.0, a_p + 1.0))
        except FracopsError as exc:
            failures.append(f"{label}: {exc}")
            continue
        err_value, err_double = abs(r2 - stored), abs(r2 - r1)
        worst = max(worst, err_value, err_double)
        checks += 1
        if not err_value <= 1e-9:
            failures.append(f"{label}: stored value differs by {err_value:.3e}")
        if not err_double <= 1e-9:
            failures.append(f"{label}: node doubling moved result by {err_double:.3e}")
        if not err_beta <= 1e-12:
            failures.append(f"{label}: constant-input integral off Beta by {err_beta:.3e}")
    return SuiteResult("fixtures", checks, worst, 1e-9, failures)


_BATCHED = [
    (suite_identity_law, _identity_law_per_draw),
    (suite_reduction_law, _reduction_law_per_draw),
    (suite_oracle_closed_form, _oracle_closed_form_per_draw),
    (suite_theta_equivalence, _theta_equivalence_per_draw),
    (suite_fox_wright_reduction, _fox_wright_reduction_per_draw),
    (suite_closed_forms, _closed_forms_per_point),
    (suite_fixtures, _fixtures_per_entry),
]


@pytest.mark.parametrize("seed", [0, 7, 51])
@pytest.mark.parametrize("draws", [0, 1, 7, None])
@pytest.mark.parametrize("suite, per_draw", _BATCHED, ids=[suite.__name__[6:] for suite, _ in _BATCHED])
def test_batched_suites_report_what_per_draw_calls_report(suite, per_draw, seed, draws):
    """A suite that checks its draws in batched calls reports what one call per draw reports.

    draws=None is the suite's default, and draws=0 (which run_suites
    refuses) checks no random draw; closed_forms and fixtures take no draw
    count, so they run as they are at every draws value.
    """
    if "draws" not in inspect.signature(suite).parameters:
        assert suite(seed=seed) == per_draw(seed, None)
        return
    if draws is None:
        draws = inspect.signature(suite).parameters["draws"].default
    assert suite(seed=seed, draws=draws) == per_draw(seed, draws)


def test_a_corrupted_golden_reports_what_per_entry_calls_report(tmp_path, monkeypatch):
    """Goldens that fail in every way, mixed with good ones, fail as one oracle call per entry fails them.

    A malformed entry, a z off the punctured disk, a tampered value and
    an entry whose input repeats another's, in one file: the failures come
    in entry order with the same texts.
    """
    src = fixture_dir()
    for name in SERIES_FIXTURE_NAMES:
        (tmp_path / name).write_text((src / name).read_text())
    entries = json.loads((src / GOLDEN_FIXTURE_NAME).read_text())["entries"]
    re, im = entries[2]["value"]
    changed = [{**entries[0], "z": [1.0, 0.0]}, {**entries[1], "input": {"kind": "monomial", "order": 8}},
               {**entries[2], "value": [re + 1e-3, im]}, entries[3], {**entries[4], "z": [0, 0]}, entries[5]]
    (tmp_path / GOLDEN_FIXTURE_NAME).write_text(json.dumps({"entries": changed}))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    got = suite_fixtures()
    assert len(got.failures) == 4 and got == _fixtures_per_entry(0, None)


def test_run_suites_memory_stays_bounded():
    """run_suites(seed=0) peaks under 2 MiB of traced memory, its fresh Gauss rules included.

    So no batch builds a draws x order x nodes table: the oracle's moments
    are taken a few draws at a time. The rules are dropped first, so the
    run builds and keeps all of them, as a fresh process does.
    """
    run_suites(seed=0)
    quadrature._rules.cache_clear()
    tracemalloc.start()
    try:
        run_suites(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_identity_law_without_random_draws_checks_the_fixtures():
    """draws=0 leaves the random group empty; the 15 fixture draws are still checked."""
    assert suite_identity_law(seed=0, draws=0) == _identity_law_per_draw(0, 0)
    assert suite_identity_law(seed=0, draws=0).checks == 15
