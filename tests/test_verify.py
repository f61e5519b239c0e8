"""Self-check suite runner plumbing: registry, seeding, fixture override."""

import json
import math
import pathlib
import runpy
import time

import pytest

from fracops.errors import DomainError
from fracops.series import MAX_ORDER
from fracops.verify import (
    _GOLDEN_MAX_ORDER,
    SERIES_FIXTURE_NAMES,
    SUITES,
    draw_params,
    fixture_dir,
    run_suites,
    suite_fixtures,
    suite_oracle_closed_form,
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
        with pytest.raises(DomainError, match="seed must be >= 0"):
            run_suites(names=["identity_law"], seed=flag)
        with pytest.raises(DomainError, match="draws must be >= 1"):
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
