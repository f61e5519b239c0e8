"""Self-check suite runner plumbing: registry, seeding, fixture override."""

import json
import pathlib
import runpy

import pytest

from fracops.errors import DomainError
from fracops.quadrature import MAX_NODES
from fracops.series import MAX_ORDER
from fracops.verify import (
    SERIES_FIXTURE_NAMES,
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
        ({"node_count": 4}, "node_count"),
        ({"node_count": MAX_NODES + 1}, "node_count"),
        ({"input": {"kind": "monomial", "power": 3, "order": MAX_ORDER + 1}}, "malformed entry"),
    ):
        golden.write_text(json.dumps({"entries": [{**entries[0], **change}] + entries[1:]}))
        res = suite_fixtures()
        assert not res.passed
        assert res.failures and all(f.startswith("quad_goldens.json[0]: ") for f in res.failures), change
        assert message in res.failures[0], res.failures


def test_golden_whose_doubled_run_exceeds_max_nodes_names_its_stored_count(tmp_path, monkeypatch):
    """A stored count in (MAX_NODES / 2, MAX_NODES] fails with that count, not the doubled one."""
    src = fixture_dir()
    for name in SERIES_FIXTURE_NAMES:
        (tmp_path / name).write_text((src / name).read_text())
    entry = json.loads((src / "quad_goldens.json").read_text())["entries"][0]
    (tmp_path / "quad_goldens.json").write_text(json.dumps({"entries": [{**entry, "node_count": 3000}]}))
    monkeypatch.setenv("FRACOPS_FIXTURES", str(tmp_path))
    res = suite_fixtures()
    assert res.failures == ["quad_goldens.json[0]: node_count 3000: its doubled run of 6000 nodes "
                            f"would exceed MAX_NODES = {MAX_NODES}"]


def test_suite_results_serialize():
    res = run_suites(names=["fixtures"])[0]
    doc = res.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["name"] == "fixtures"
    assert doc["passed"] is True
