"""Quick self-test of the benchmark's checkers, at small sizes (a few seconds).

    python3 bench/selftest.py

Every checker must accept today's correct output and reject the same
output perturbed by ten times its tolerance or more (a coefficient scaled
by 1 + 1e-9 for the coefficient checks). The independent references are
cross-checked against each other, and the tracer must restore every name
it patched and produce nested spans.
"""

from __future__ import annotations

import cmath
import dataclasses
import subprocess
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


import fracops  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402
import run  # noqa: E402
from workloads import Diagnose, Op, Transform, Verify  # noqa: E402

PARAMS = (0.7, 0.4, 1.3)
P = fracops.OperatorParams(*PARAMS)


def expect(condition, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def accepts(check, out, what):
    msg = check(out)
    expect(msg is None, f"{what}: rejected a correct output ({msg})")


def rejects(check, out, what):
    expect(check(out) is not None, f"{what}: accepted a perturbed output")


def scaled(coeffs, k, factor=1.0 + 1e-9):
    c = coeffs.copy()
    c[k] *= factor
    return fracops.PowerSeries(c)


def test_coefficient_checks():
    f = fracops.koebe_series(2.0, 64)
    idx = [3, 17, 64]
    img = fracops.apply_operator(P, f)
    check = lambda out: Transform._check_apply(f, PARAMS, idx, out)  # noqa: E731
    accepts(check, img, "apply_operator")
    rejects(check, fracops.OperatorImage(img.prefactor_power, scaled(img.series.coeffs, 17)), "apply_operator")
    rejects(check, fracops.OperatorImage(img.prefactor_power, scaled(img.series.coeffs, 1)), "apply_operator")
    rejects(check, fracops.OperatorImage(img.prefactor_power * (1 + 1e-9), img.series), "prefactor power")

    th = fracops.theta_normalize(P, f)
    check = lambda out: Transform._check_theta(f, PARAMS, idx, out)  # noqa: E731
    accepts(check, th, "theta_normalize")
    rejects(check, scaled(th.coeffs, 64), "theta_normalize")
    rejects(check, scaled(th.coeffs, 1, 1.0 + 1e-15), "Phi(1) exactly 1")

    g = fracops.theta_hadamard(P, f)
    check = lambda out: Transform._check_hadamard(P, f, out)  # noqa: E731
    accepts(check, g, "theta_hadamard")
    rejects(check, scaled(g.coeffs, 3), "theta_hadamard")

    p_eq = fracops.OperatorParams(0.7, 0.7, 1.3)
    same = fracops.apply_operator(p_eq, f).series.coeffs
    accepts(lambda c: Transform._check_unchanged(c, f.coeffs), same, "tau = beta")
    rejects(lambda c: Transform._check_unchanged(c, f.coeffs), scaled(same, 5).coeffs, "tau = beta")


def test_closed_form_checks():
    for name, kind, kw in (("koebe2", "koebe", {"alpha": 2.0}), ("kummer", "kummer", {"alpha": 1.3, "lam": 0.9})):
        z = 0.5 * cmath.exp(0.7j)
        value = fracops.closed_form_spec(P, kind, **kw).evaluate(z)
        check = lambda out: Transform._check_closed_form(PARAMS, name, z, out)  # noqa: E731
        accepts(check, value, f"closed form {name}")
        rejects(check, value * (1 + 1e-9), f"closed form {name}")
        # The two references agree with each other far inside the check's tolerance.
        a, b = refs.image_value(*PARAMS, kind, z, **kw), refs.mp_image_value(*PARAMS, kind, z, **kw)
        expect(abs(a - b) <= 1e-13 * abs(b), f"numpy and mpmath references differ for {name}")
    # The known Lerch fault is caught by the 30-digit reference.
    z = 0.9 * cmath.exp(0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lerch = fracops.closed_form_spec(P, "hurwitz_lerch", alpha=1.2, lam=0.8, rho=1.5, s=1.1, a=1.0).evaluate(z)
    expect(Transform._check_closed_form(PARAMS, "hurwitz_lerch", z, lerch, use_mpmath=True) is not None,
           "the truncated Lerch sum at |z| = 0.9 passed its check")


def test_criterion_check():
    for mode in ("theorem5_S", "theorem6_K"):
        rep = fracops.univalence_criterion(P, mode)
        check = lambda out: Transform._check_criterion(PARAMS, mode, out)  # noqa: E731
        accepts(check, rep, mode)
        sums = list(rep.partial_sums)
        sums[4] *= 1 + 1e-9
        rejects(check, dataclasses.replace(rep, partial_sums=sums), mode)
        rejects(check, dataclasses.replace(rep, verdict="Satisfied"), mode)


def test_screen_checks():
    # Truncated Koebe is starlike on the r = 0.99 ring only at high order.
    fk = fracops.koebe_series(2.0, 2500)
    tk = fracops.theta_normalize(P, fk)
    ok = fracops.starlike_order(fk, 0.0)
    accepts(lambda out: Diagnose._check_screen(fk, "starlike", 0.0, True, out), ok, "starlike koebe")
    rejects(lambda out: Diagnose._check_screen(fk, "starlike", 0.0, True, out),
            dataclasses.replace(ok, passed=False), "starlike koebe")
    bad = fracops.starlike_order(fk, 0.5)
    accepts(lambda out: Diagnose._check_koebe_witness(fk, out), bad, "koebe witness")
    rejects(lambda out: Diagnose._check_koebe_witness(fk, out),
            dataclasses.replace(bad, witness=bad.witness * cmath.exp(0.01j)), "koebe witness")
    for kind, screen in (("starlike", fracops.starlike_order), ("convex", fracops.convex_order)):
        res = screen(tk, 0.0)
        check = lambda out: Diagnose._check_screen(tk, kind, 0.0, None, out)  # noqa: E731
        accepts(check, res, f"{kind} theta(koebe)")
        rejects(check, dataclasses.replace(res, passed=not res.passed), f"{kind} theta(koebe)")
        if not res.passed:
            rejects(check, dataclasses.replace(res, witness_value=res.witness_value * (1 + 1e-8)), kind)


def test_norm_checks():
    ka = fracops.koebe_series(2.0, 64)
    est = fracops.bloch_norm_classical(ka)
    check = lambda out: Diagnose._check_norm(ka, lambda r: 1.0 - r * r, out)  # noqa: E731
    accepts(check, est, "bloch_norm_classical")
    rejects(check, dataclasses.replace(est, norm_estimate=est.norm_estimate * (1 + 1e-9)), "bloch norm")
    rejects(check, dataclasses.replace(est, argmax_point=-est.argmax_point), "bloch argmax")

    mu, fe = 1.2, fracops.exp_times_z_series(64)
    one = fracops.WeightSpec("constant_one")
    rep = fracops.boundedness_equivalence_check(P, fe, mu, one)
    check = lambda out: Diagnose._check_equivalence(PARAMS, mu, 64, out)  # noqa: E731
    accepts(check, rep, "boundedness equivalence")
    rejects(check, dataclasses.replace(rep, ratio=rep.ratio * (1 + 1e-9)), "boundedness equivalence")

    norms = fracops.compactness_decay_check(P, 8, mu, one)
    check = lambda out: Diagnose._check_compactness(PARAMS, mu, 8, out)  # noqa: E731
    accepts(check, norms, "compactness")
    rejects(check, norms[:3] + [norms[3] * (1 + 1e-9)] + norms[4:], "compactness")


def test_verify_checks():
    results = fracops.run_suites(seed=3, draws=2)
    names = tuple(r.name for r in results)
    accepts(lambda out: Verify._check_suites(names, out), results, "run_suites")
    broken = [dataclasses.replace(results[0], passed=False, failures=["x"])] + results[1:]
    rejects(lambda out: Verify._check_suites(names, out), broken, "run_suites")
    z = 0.4 * cmath.exp(1.1j)
    got = fracops.oracle_eval(P, fracops.monomial_series(3), z)
    accepts(lambda out: Verify._check_monomial(PARAMS, 3, z, out), got, "oracle monomial")
    rejects(lambda out: Verify._check_monomial(PARAMS, 3, z, out), got * (1 + 1e-7), "oracle monomial")
    got = fracops.oracle_eval(P, fracops.koebe_series(2.0, 200), z)
    accepts(lambda out: Verify._check_stock(PARAMS, "koebe2", z, out), got, "oracle koebe")
    rejects(lambda out: Verify._check_stock(PARAMS, "koebe2", z, out), got * (1 + 1e-7), "oracle koebe")


def test_cli_check():
    good = b'{\n  "x": 1.5\n}\n'

    def result(stdout, code=0):
        return subprocess.CompletedProcess([], code, stdout, b"")

    expect(run.check_cli(result(good), {"x": 1.5}, good) is None, "CLI check rejected a good call")
    for what, res, first, expected in (
        ("exit code", result(good, 1), None, {"x": 1.5}),
        ("NaN", result(b'{"x": NaN}'), None, {"x": 1.5}),
        ("bytes", result(b'{"x": 1.5}'), good, {"x": 1.5}),
        ("value", result(good), None, {"x": 1.5 * (1 + 1e-9)}),
    ):
        expect(run.check_cli(res, expected, first) is not None, f"CLI check accepted a bad {what}")


def test_tracer():
    originals = (fracops.fracdiff.log_gamma, fracops.bloch.theta_multiplier_apply,
                 fracops.series.PowerSeries.evaluate, fracops.verify.SUITES["fixtures"])
    tracer = tracing.Tracer()
    f = fracops.koebe_series(2.0, 32)
    op = Op("equivalence", lambda: fracops.boundedness_equivalence_check(P, f, 1.0, fracops.WeightSpec()),
            lambda out: None)
    outs = run.run_pass([op], tracer)
    expect(not isinstance(outs[0], Exception), f"traced call failed: {outs[0]}")
    now = (fracops.fracdiff.log_gamma, fracops.bloch.theta_multiplier_apply,
           fracops.series.PowerSeries.evaluate, fracops.verify.SUITES["fixtures"])
    expect(all(a is b for a, b in zip(originals, now)), "tracer left a wrapper in place")
    expect(tracer.check_nesting() is None, "spans do not nest")
    m = tracing.layer_metrics(tracer, 1, fracops.quadrature)
    expect(m["fracdiff.theta_multiplier_apply_s"] > 0 and m["bloch.grid_points"] == 2 * 96 * 128,
           "bloch's imported theta_multiplier_apply or its norms were not traced")
    expect(m["special.log_gamma_calls"] > 0, "log_gamma imported into fracdiff was not counted")
    names = {s[0] for s in tracer.spans}
    expect({"pass", "bloch.boundedness_equivalence_check", "series.PowerSeries.evaluate"} <= names,
           f"missing spans: {sorted(names)}")
    totals = tracer.totals()
    expect(totals["pass"][1] >= totals["bloch.boundedness_equivalence_check"][1], "child longer than parent")
    log = ("import time:       100 |        100 |       scipy\n"
           "import time:       200 |       5000 |     scipy.special\n"
           "import time:       300 |       6000 |   fracops.special\n")
    expect(abs(tracing.scipy_import_seconds(log) - 0.005) < 1e-12, "importtime parse")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
