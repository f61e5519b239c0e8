"""Self-check suite runner plumbing: registry, seeding, fixture override."""

import json

import pytest

from fracops.errors import DomainError
from fracops.verify import (
    SUITES,
    draw_params,
    fixture_dir,
    run_suites,
    suite_fixtures,
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


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    assert fixture_dir() == tmp_path
    monkeypatch.delenv("FRACOPS_FIXTURES")
    assert fixture_dir().name == "fixtures"


def test_missing_fixture_directory_fails_with_names(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    res = suite_fixtures()
    assert not res.passed
    assert any("series_identity.json" in f for f in res.failures)
    assert any("quad_goldens.json" in f for f in res.failures)


def test_tampered_value_is_caught(tmp_path, monkeypatch):
    """Flipping one golden value must fail the suite, naming the entry."""
    src = fixture_dir()
    for name in src.iterdir():
        (tmp_path / name.name).write_text(name.read_text())
    doc = json.loads((tmp_path / "quad_goldens.json").read_text())
    doc["entries"][0]["value"][0] += 1e-3
    (tmp_path / "quad_goldens.json").write_text(json.dumps(doc))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    res = suite_fixtures()
    assert not res.passed
    assert any("quad_goldens.json[0]" in f and "stored value" in f for f in res.failures)


def test_suite_results_serialize():
    res = run_suites(names=["fixtures"])[0]
    doc = res.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["name"] == "fixtures"
    assert doc["passed"] is True
