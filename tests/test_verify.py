"""Self-check suite runner plumbing: registry, seeding, fixture override."""

import inspect
import json
import math
import pathlib
import runpy
import time

import pytest

from fracops.errors import ConvergenceError, DomainError
from fracops.fracdiff import apply_operator, monomial_transform, theta_multiplier_apply, theta_normalize
from fracops.quadrature import oracle_eval
from fracops.series import MAX_ORDER, PowerSeries, load_series_fixture, monomial_series
from fracops.special import log_gamma
from fracops.verify import (
    _GOLDEN_MAX_ORDER,
    SERIES_FIXTURE_NAMES,
    SUITES,
    SuiteResult,
    _draw_z,
    draw_params,
    fixture_dir,
    random_normalized_series,
    run_suites,
    suite_fixtures,
    suite_identity_law,
    suite_oracle_closed_form,
    suite_reduction_law,
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


@pytest.mark.parametrize("z, message", [
    ([0, 0], "undefined at z = 0"),
    ([1.0, 0.0], "inside the unit disk"),
    ([-0.6, 0.8], "inside the unit disk"),
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
    cases = [(draw_params(rng, tau_equals_beta=True), random_normalized_series(rng, 12), f"draw {i}")
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


@pytest.mark.parametrize("seed", [0, 7, 51])
@pytest.mark.parametrize("draws", [1, 7, None])
@pytest.mark.parametrize("suite, per_draw", [
    (suite_identity_law, _identity_law_per_draw),
    (suite_reduction_law, _reduction_law_per_draw),
    (suite_oracle_closed_form, _oracle_closed_form_per_draw),
], ids=("identity_law", "reduction_law", "oracle_closed_form"))
def test_batched_suites_report_what_per_draw_calls_report(suite, per_draw, seed, draws):
    """A suite that checks its draws from one kernel call reports what one call per draw reports.

    draws=None is the suite's default. Seed 51 fails oracle_closed_form's
    node doubling on a draw, so its failure text is compared too.
    """
    if draws is None:
        draws = inspect.signature(suite).parameters["draws"].default
    assert suite(seed=seed, draws=draws) == per_draw(seed, draws)


def test_identity_law_without_random_draws_checks_the_fixtures():
    """draws=0 leaves the random group empty; the 15 fixture draws are still checked."""
    assert suite_identity_law(seed=0, draws=0) == _identity_law_per_draw(0, 0)
    assert suite_identity_law(seed=0, draws=0).checks == 15
