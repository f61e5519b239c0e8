"""Seeded verification suites shared by the CLI and the acceptance tests.

Each suite draws its inputs from a single seed, runs one family of
cross-checks (integral route vs closed forms, identity/reduction laws,
Fox-Wright vs direct hypergeometric summation, the two Theta routes, and
fixture regression), and reports the worst observed error against a fixed
tolerance. Suites never silently pass: any failure carries a message
naming the offending case or fixture file.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConvergenceError, DomainError, FracopsError, PoleHitError
from .fracdiff import (
    OperatorParams,
    apply_operator,
    closed_form_spec,
    monomial_transform,
    theta_hadamard,
    theta_multiplier_apply,
    theta_normalize,
)
from .quadrature import _disk_point, _eval_doubling, inner_integral, oracle_eval
from .series import PowerSeries, evaluate_many, load_series_fixture, make_builtin, monomial_series
from .special import FoxWrightSpec, beta_fn, fox_wright_eval, log_gamma

#: fixture file -> (builtin kind, truncation order, parameters) used to rebuild it
SERIES_FIXTURE_RECIPES = {
    "series_identity.json": ("identity", 16, {}),
    "series_koebe_alpha1.json": ("koebe", 64, {"alpha": 1.0}),
    "series_koebe_alpha2.json": ("koebe", 64, {"alpha": 2.0}),
    "series_exp_times_z.json": ("exp_times_z", 32, {}),
    "series_kummer.json": ("kummer", 48, {"alpha": 1.3, "lam": 0.9}),
}
SERIES_FIXTURE_NAMES = tuple(SERIES_FIXTURE_RECIPES)
GOLDEN_FIXTURE_NAME = "quad_goldens.json"
#: Largest input order a golden entry may name; the packaged goldens use 8 and 200.
_GOLDEN_MAX_ORDER = 4096


def fixture_dir() -> pathlib.Path:
    """Fixture directory: $FRACOPS_FIXTURES if set, else the packaged data."""
    env = os.environ.get("FRACOPS_FIXTURES")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(str(resources.files("fracops").joinpath("fixtures")))


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    max_error: float
    tolerance: float
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "failures": list(self.failures),
        }


def draw_params(rng, tau_equals_beta: bool = False, gamma_zero: bool = False) -> OperatorParams:
    """One admissible (beta, tau, gamma) draw, optionally on a boundary slice."""
    beta = rng.uniform(0.1, 1.0)
    tau = beta if tau_equals_beta else rng.uniform(max(0.05, beta - 0.9), beta)
    gamma = 0.0 if gamma_zero else rng.uniform(0.0, 3.0)
    return OperatorParams(beta, tau, gamma)


def _draw_z(rng, r_lo: float = 0.05, r_hi: float = 0.9) -> complex:
    r = rng.uniform(r_lo, r_hi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(theta), math.sin(theta))


def random_normalized_series(rng, order: int) -> PowerSeries:
    """Class-A normalized series with decaying random complex coefficients."""
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[1] = 1.0
    k = np.arange(2, order + 1)
    coeffs[2:] = (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)) / k
    return PowerSeries(coeffs)


def _result(name, tol, worst, checks, failures) -> SuiteResult:
    return SuiteResult(
        name=name,
        passed=not failures,
        checks=checks,
        max_error=worst,
        tolerance=tol,
        failures=failures,
    )


def suite_oracle_closed_form(seed: int = 0, draws: int = 50) -> SuiteResult:
    """Integral route vs the monomial closed form on random admissible draws."""
    tol = 1e-8
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng)
        upsilon = int(rng.integers(0, 7))
        z = _draw_z(rng)
        f = monomial_series(upsilon, max(upsilon, 1))
        ref = monomial_transform(p, float(upsilon)).evaluate(z)
        try:
            got = oracle_eval(p, f, z)
        except (ConvergenceError, DomainError) as exc:
            failures.append(f"draw {i}: {exc}")
            continue
        err = abs(got - ref) / max(abs(ref), 1e-300)
        worst = max(worst, err)
        if not err <= tol:
            failures.append(f"draw {i}: rel err {err:.3e} at params {p}, upsilon={upsilon}, z={z}")
    return _result("oracle_closed_form", tol, worst, draws, failures)


def suite_identity_law(seed: int = 0, draws: int = 200) -> SuiteResult:
    """tau = beta leaves coefficients unchanged through both operator routes."""
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst, failures, checks = 0.0, [], 0

    def check(p, f, label):
        nonlocal worst
        dev = float(np.max(np.abs(apply_operator(p, f).series.coeffs - f.coeffs)))
        if f.is_normalized():
            dev = max(dev, float(np.max(np.abs(theta_normalize(p, f).coeffs - f.coeffs))))
        else:
            g = PowerSeries(np.concatenate([[0.0], f.coeffs[1:]]))
            if abs(f.coeffs[0]) < 1e-12 and f.coeffs.size > 1:
                dev = max(dev, float(np.max(np.abs(theta_multiplier_apply(p, g).coeffs - g.coeffs))))
        worst = max(worst, dev)
        if not dev <= tol:
            failures.append(f"{label}: coefficient deviation {dev:.3e} at {p}")

    for i in range(draws):
        p = draw_params(rng, tau_equals_beta=True)
        check(p, random_normalized_series(rng, 12), f"draw {i}")
        checks += 1
    fdir = fixture_dir()
    for name in SERIES_FIXTURE_NAMES:
        f = load_series_fixture(fdir / name)
        for _ in range(3):
            p = draw_params(rng, tau_equals_beta=True)
            check(p, f, name)
            checks += 1
    return _result("identity_law", tol, worst, checks, failures)


def suite_reduction_law(seed: int = 0, draws: int = 100) -> SuiteResult:
    """gamma = 0 monomial coefficient reduces to the two-parameter Gamma ratio.

    The coefficient comes from the kernel, the reference from log_gamma: no Gamma code is shared, below 16 either.
    """
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng, gamma_zero=True)
        upsilon = float(rng.integers(0, 7)) if i % 2 == 0 else rng.uniform(0.0, 6.0)
        got = monomial_transform(p, upsilon)
        ref = math.exp(
            log_gamma(upsilon + p.beta) + log_gamma(p.tau)
            - log_gamma(upsilon + p.tau) - log_gamma(p.beta)
        )
        err = abs(got.coefficient - ref) / abs(ref)
        err = max(err, abs(got.exponent - upsilon))
        worst = max(worst, err)
        if not err <= tol:
            failures.append(f"draw {i}: rel err {err:.3e} at {p}, upsilon={upsilon}")
    return _result("reduction_law", tol, worst, draws, failures)


_PQ_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))


def direct_hypergeometric(upper, lower, z: complex) -> complex:
    """Plain pFq partial sum via Pochhammer products (independent of log-Gamma), at most 2000 terms."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(2000):
        total += term
        ratio = complex(z) / (k + 1.0)
        for a in upper:
            ratio *= a + k
        for b in lower:
            ratio /= b + k
        term = term * ratio
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            total += term
            break
    return total


def suite_fox_wright_reduction(seed: int = 0, draws: int = 20) -> SuiteResult:
    """Unit-weight Fox-Wright equals Delta^{-1} times the direct pFq sum."""
    tol = 1e-10
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        pq = _PQ_SHAPES[int(rng.integers(0, len(_PQ_SHAPES)))]
        upper = [rng.uniform(0.3, 3.0) for _ in range(pq[0])]
        lower = [rng.uniform(0.5, 3.5) for _ in range(pq[1])]
        z = _draw_z(rng, 0.05, 0.5)
        spec = FoxWrightSpec(
            upper=tuple((a, 1.0) for a in upper),
            lower=tuple((b, 1.0) for b in lower),
        )
        psi = fox_wright_eval(spec, z)
        delta = math.exp(
            sum(log_gamma(b) for b in lower) - sum(log_gamma(a) for a in upper)
        )
        ref = direct_hypergeometric(upper, lower, z) / delta
        err = abs(psi.value - ref) / max(abs(ref), 1e-300)
        worst = max(worst, err)
        if psi.status.value != "Converged" or not err <= tol:
            failures.append(
                f"draw {i}: status {psi.status.value}, rel err {err:.3e} "
                f"(upper={upper}, lower={lower}, z={z})"
            )
    return _result("fox_wright_reduction", tol, worst, draws, failures)


_CLOSED_FORM_PARAMS = (
    (0.65, 0.30, 1.40),
    (0.90, 0.85, 0.00),
    (0.45, 0.45, 2.00),
    (1.00, 0.55, 3.00),
)
_CLOSED_FORM_CASES = (
    ("koebe", {"alpha": 1.0}, 320),
    ("koebe", {"alpha": 2.0}, 320),
    ("exp_times_z", {}, 64),
    ("kummer", {"alpha": 1.3, "lam": 0.9}, 64),
    ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}, 96),
)


def _nine_points():
    pts = []
    for r in (0.15, 0.35, 0.5):
        for theta in (0.0, 2.1, math.pi):
            pts.append(r * complex(math.cos(theta), math.sin(theta)))
    return pts


def suite_closed_forms(seed: int = 0) -> SuiteResult:
    """Stock closed forms vs termwise operator application at fixed points.

    Each closed form sums all nine points in one evaluate call; on the
    termwise side, one evaluate_many runs Horner on the five images of a
    parameter triple, bit-equal to each image's own evaluate.
    """
    tol = 1e-10
    worst, failures, checks = 0.0, [], 0
    pts = _nine_points()
    at = np.array(pts)
    for beta, tau, gamma in _CLOSED_FORM_PARAMS:
        p = OperatorParams(beta, tau, gamma)
        images = [apply_operator(p, make_builtin(kind, order, **kw)) for kind, kw, order in _CLOSED_FORM_CASES]
        horner = evaluate_many([image.series for image in images], at).tolist()
        for (kind, kw, _), image, values in zip(_CLOSED_FORM_CASES, images, horner):
            got = closed_form_spec(p, kind, **kw).evaluate(at).tolist()
            for z, value, x in zip(pts, values, got):
                ref = image._times_prefactor(z, value)
                err = abs(x - ref) / max(abs(ref), 1e-300)
                worst = max(worst, err)
                checks += 1
                if not err <= tol:
                    failures.append(f"{kind}{kw} at {p}, z={z}: rel err {err:.3e}")
        # Confluent degeneracy: alpha == lam collapses to the z*exp(z) form.
        refs = closed_form_spec(p, "exp_times_z").evaluate(at).tolist()
        got = closed_form_spec(p, "kummer", alpha=1.3, lam=1.3).evaluate(at).tolist()
        for z, ref, x in zip(pts, refs, got):
            err = abs(x - ref) / max(abs(ref), 1e-300)
            worst = max(worst, err)
            checks += 1
            if not err <= tol:
                failures.append(f"kummer degeneracy at {p}, z={z}: rel err {err:.3e}")
    return _result("closed_forms", tol, worst, checks, failures)


def suite_theta_equivalence(seed: int = 0, draws: int = 20) -> SuiteResult:
    """Multiplier route vs Fox-Wright Hadamard route for Theta, coefficientwise.

    Phi comes from the kernel, the Hadamard kernel from log_gamma: no Gamma code is shared, below 16 either.
    """
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, []
    for i in range(draws):
        p = draw_params(rng)
        f = random_normalized_series(rng, 64)
        t1 = theta_normalize(p, f)
        t2 = theta_hadamard(p, f)
        dev = float(np.max(np.abs(t1.coeffs - t2.coeffs) / np.maximum(1.0, np.abs(t1.coeffs))))
        worst = max(worst, dev)
        if not dev <= tol:
            failures.append(f"draw {i}: coefficient deviation {dev:.3e} at {p}")
    return _result("theta_equivalence", tol, worst, draws, failures)


def _rebuild_golden_input(doc: dict) -> PowerSeries:
    """The input series of a golden entry; an order above _GOLDEN_MAX_ORDER raises DomainError."""
    if doc["order"] > _GOLDEN_MAX_ORDER:
        raise DomainError(f"input order {doc['order']} is above {_GOLDEN_MAX_ORDER}")
    if doc["kind"] == "monomial":
        return monomial_series(doc["power"], doc["order"])
    return make_builtin(doc["kind"], doc["order"], **doc.get("params", {}))


def suite_fixtures(seed: int = 0) -> SuiteResult:
    """Regression over the fixtures in fixture_dir(): series load checks and quadrature goldens.

    For each golden entry the integral route is re-run: the value must
    match to 1e-9, node doubling must move it by at most 1e-9, and the
    f == 1 inner integral must reproduce the Beta function to 1e-12.
    Failures name the fixture file; an entry with a non-finite z or
    value, an input order above _GOLDEN_MAX_ORDER or any other input out
    of range, or a z outside the punctured unit disk, fails with its
    index instead of raising.
    """
    tol = 1e-9
    fdir = fixture_dir()
    worst, failures, checks = 0.0, [], 0

    for name, (kind, order, kw) in SERIES_FIXTURE_RECIPES.items():
        path = fdir / name
        try:
            ps = load_series_fixture(path)
            rt = PowerSeries.from_fixture_dict(ps.to_fixture_dict())
            if not np.array_equal(rt.coeffs, ps.coeffs):
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
        with open(golden_path) as fh:
            doc = json.load(fh)
        entries = doc["entries"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        failures.append(f"fixture {golden_path.name}: {exc}")
        entries = []

    one = PowerSeries([1.0])
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
            r1, r2, _ = _eval_doubling(p, f, _disk_point(z))
            err_beta = abs(inner_integral(p, one, z) - beta_fn(b_p + 1.0, a_p + 1.0))
        except FracopsError as exc:
            failures.append(f"{label}: {exc}")
            continue
        err_value = abs(r2 - stored)
        err_double = abs(r2 - r1)
        worst = max(worst, err_value, err_double)
        checks += 1
        if not err_value <= tol:
            failures.append(f"{label}: stored value differs by {err_value:.3e}")
        if not err_double <= tol:
            failures.append(f"{label}: node doubling moved result by {err_double:.3e}")
        if not err_beta <= 1e-12:
            failures.append(f"{label}: constant-input integral off Beta by {err_beta:.3e}")
    return _result("fixtures", tol, worst, checks, failures)


SUITES = {
    "oracle_closed_form": suite_oracle_closed_form,
    "identity_law": suite_identity_law,
    "reduction_law": suite_reduction_law,
    "fox_wright_reduction": suite_fox_wright_reduction,
    "closed_forms": suite_closed_forms,
    "theta_equivalence": suite_theta_equivalence,
    "fixtures": suite_fixtures,
}

# Suites whose draw counts are meaningful to scale from the CLI.
_DRAWABLE = {"oracle_closed_form", "identity_law", "reduction_law",
             "fox_wright_reduction", "theta_equivalence"}


def run_suites(names=None, seed: int = 0, draws: int | None = None) -> list:
    """Run the requested suites (all by default) and return their results.

    seed must be >= 0 (numpy seeds no generator from a negative integer),
    and draws, if given, >= 1: a randomized suite with no draws checks nothing.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if draws is not None and draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    chosen = list(SUITES) if not names else list(names)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise DomainError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
        fn = SUITES[name]
        if draws is not None and name in _DRAWABLE:
            results.append(fn(seed=seed, draws=draws))
        else:
            results.append(fn(seed=seed))
    return results
