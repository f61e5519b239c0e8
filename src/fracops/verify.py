"""Seeded verification suites shared by the CLI and the acceptance tests.

Each suite draws its inputs from a single seed, runs one family of
cross-checks (integral route vs closed forms, identity/reduction laws,
Fox-Wright vs direct hypergeometric summation, the two Theta routes, and
fixture regression), and reports the worst observed error against a fixed
tolerance. Suites never silently pass: any failure carries a message
naming the offending case or fixture file.

Every suite draws all its inputs first, with the same generator calls as
one draw after another, and then checks them in batched calls:
identity_law's random draws, then its fixture draws, through
log_gamma_ratios and the multiplier helpers of apply_operator and
theta_multiplier_apply; reduction_law's coefficients and
oracle_closed_form's references through monomial_transforms, and
reduction_law's references from one array log_gamma call;
theta_equivalence's two Theta routes, each once over all draws;
fox_wright_reduction's series as rows of one summation pass; and
closed_forms' termwise images by one Horner pass, and each triple's closed
forms at all points as rows of one summation pass. Each row has the bits of
its own call, so every report keeps its bytes. The quadrature oracle takes
one draw per call: oracle_closed_form calls oracle_eval per draw, and the
fixtures check each golden entry's doubling (quadrature._eval_doubling)
as they parse it.

The errors a suite reports in max_error pass through SuiteResult.record:
only a finite error raises max_error, so the report stays strict JSON,
and an error not within its tolerance, NaN and inf included, fails.
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

from .errors import ConvergenceError, DomainError, FracopsError, PoleHitError, check_count
from .fracdiff import (
    OperatorParams,
    _closed_form_rows,
    _front_times_exp,
    _theta_hadamard_rows,
    _times_phi,
    apply_operator,
    closed_form_spec,
    log_gamma_ratios,
    monomial_transforms,
)
from .quadrature import _disk_point, _eval_doubling, inner_integral, oracle_eval
from .series import PowerSeries, evaluate_many, load_series_fixture, make_builtin, monomial_series
from .special import FoxWrightSpec, _fox_wright_rows, beta_fn, log_gamma

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
    checks: int
    max_error: float
    tolerance: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, err: float, tol: float | None = None) -> bool:
        """Fold a finite err into max_error; True if err fails tol (self.tolerance by default), as NaN and inf do."""
        if math.isfinite(err):
            self.max_error = max(self.max_error, err)
        return not err <= (self.tolerance if tol is None else tol)

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


def random_normalized_coeffs(rng, order: int) -> np.ndarray:
    """Coefficients of a class-A normalized series (c0 = 0, c1 = 1), the rest decaying random complex numbers."""
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[1] = 1.0
    k = np.arange(2, order + 1)
    coeffs[2:] = (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)) / k
    return coeffs


def suite_oracle_closed_form(seed: int = 0, draws: int = 50) -> SuiteResult:
    """Integral route vs the monomial closed form on random admissible draws."""
    res = SuiteResult("oracle_closed_form", draws, 0.0, 1e-8)
    rng = np.random.default_rng(seed)
    cases = [(draw_params(rng), int(rng.integers(0, 7)), _draw_z(rng)) for _ in range(draws)]
    images = monomial_transforms([p for p, _, _ in cases], [float(upsilon) for _, upsilon, _ in cases])
    monomials = {upsilon: monomial_series(upsilon, max(upsilon, 1)) for _, upsilon, _ in cases}
    for i, ((p, upsilon, z), image) in enumerate(zip(cases, images)):
        ref = image.evaluate(z)
        try:
            got = oracle_eval(p, monomials[upsilon], z)
        except (ConvergenceError, DomainError) as exc:
            res.failures.append(f"draw {i}: {exc}")
            continue
        err = abs(got - ref) / max(abs(ref), 1e-300)
        if res.record(err):
            res.failures.append(f"draw {i}: rel err {err:.3e} at params {p}, upsilon={upsilon}, z={z}")
    return res


def suite_identity_law(seed: int = 0, draws: int = 200) -> SuiteResult:
    """tau = beta leaves coefficients unchanged through both operator routes.

    Theta is held to the input with its constant term set to 0. The random
    draws, then the fixture draws zero-padded to the longest fixture, are
    each checked from one kernel call, every row with the bits of its own
    apply_operator and theta_multiplier_apply images.
    """
    rng = np.random.default_rng(seed)
    drawn = [(draw_params(rng, tau_equals_beta=True), random_normalized_coeffs(rng, 12), f"draw {i}")
             for i in range(draws)]
    fixtures = [(name, load_series_fixture(fixture_dir() / name).coeffs) for name in SERIES_FIXTURE_NAMES]
    fixed = [(draw_params(rng, tau_equals_beta=True), c, name) for name, c in fixtures for _ in range(3)]
    res = SuiteResult("identity_law", draws + len(fixed), 0.0, 1e-12)
    for group in (drawn, fixed):
        if not group:
            continue
        ps = [p for p, _, _ in group]
        coeffs = np.zeros((len(group), max(c.size for _, c, _ in group)), dtype=np.complex128)
        for row, (_, c, _) in zip(coeffs, group):
            row[:c.size] = c
        r = log_gamma_ratios(ps, np.arange(float(coeffs.shape[1])))
        images = np.max(np.abs(coeffs * _front_times_exp(ps, r) - coeffs), axis=1).tolist()
        coeffs[:, 0] = 0.0
        thetas = np.max(np.abs(_times_phi(coeffs, r) - coeffs), axis=1).tolist()
        for (p, _, label), image, theta in zip(group, images, thetas):
            dev = max(image, theta)
            if res.record(dev):
                res.failures.append(f"{label}: coefficient deviation {dev:.3e} at {p}")
    return res


def suite_reduction_law(seed: int = 0, draws: int = 100) -> SuiteResult:
    """gamma = 0 monomial coefficient reduces to the two-parameter Gamma ratio.

    The coefficient comes from the kernel, the reference from log_gamma: no Gamma code is shared, below 16 either.
    The references' log Gamma terms come from one array log_gamma call, each element with its scalar call's bits.
    """
    res = SuiteResult("reduction_law", draws, 0.0, 1e-12)
    rng = np.random.default_rng(seed)
    ps, upsilons = [], []
    for i in range(draws):
        ps.append(draw_params(rng, gamma_zero=True))
        upsilons.append(float(rng.integers(0, 7)) if i % 2 == 0 else rng.uniform(0.0, 6.0))
    logs = log_gamma(np.array([(upsilon + p.beta, p.tau, upsilon + p.tau, p.beta)
                               for p, upsilon in zip(ps, upsilons)]).reshape(-1, 4)).tolist()
    for i, (p, upsilon, got, (a, b, c, d)) in enumerate(zip(ps, upsilons, monomial_transforms(ps, upsilons), logs)):
        ref = math.exp(a + b - c - d)
        err = abs(got.coefficient - ref) / abs(ref)
        err = max(err, abs(got.exponent - upsilon))
        if res.record(err):
            res.failures.append(f"draw {i}: rel err {err:.3e} at {p}, upsilon={upsilon}")
    return res


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
    """Unit-weight Fox-Wright equals Delta^{-1} times the direct pFq sum.

    The draws' series are summed as the rows of one pass of the summation
    driver, each with the bits of its own fox_wright_eval call: a block that
    met a Gamma pole would end every row, but every Gamma argument here is
    positive (upper parameters in [0.3, 3], lower ones in [0.5, 3.5]).
    """
    res = SuiteResult("fox_wright_reduction", draws, 0.0, 1e-10)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(draws):
        pq = _PQ_SHAPES[int(rng.integers(0, len(_PQ_SHAPES)))]
        upper = [rng.uniform(0.3, 3.0) for _ in range(pq[0])]
        lower = [rng.uniform(0.5, 3.5) for _ in range(pq[1])]
        cases.append((upper, lower, _draw_z(rng, 0.05, 0.5)))
    specs = [FoxWrightSpec(upper=tuple((a, 1.0) for a in upper), lower=tuple((b, 1.0) for b in lower))
             for upper, lower, _ in cases]
    for i, ((upper, lower, z), psi) in enumerate(zip(cases, _fox_wright_rows(specs, [z for _, _, z in cases]))):
        delta = math.exp(
            sum(log_gamma(b) for b in lower) - sum(log_gamma(a) for a in upper)
        )
        ref = direct_hypergeometric(upper, lower, z) / delta
        err = abs(psi.value - ref) / max(abs(ref), 1e-300)
        if res.record(err) or psi.status.value != "Converged":
            res.failures.append(
                f"draw {i}: status {psi.status.value}, rel err {err:.3e} "
                f"(upper={upper}, lower={lower}, z={z})"
            )
    return res


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

    Each triple's seven closed forms (the five stock cases, then the z*exp(z)
    form and the Kummer degeneracy that should equal it) are summed at all
    nine points as the rows of one _closed_form_rows pass, each row with the
    bits of its form's own evaluate call; on the termwise side, one
    evaluate_many runs Horner on the twenty images of the four parameter
    triples, bit-equal to each image's own evaluate.
    """
    res = SuiteResult("closed_forms", 0, 0.0, 1e-10)
    pts = _nine_points()
    at = np.array(pts)
    inputs = [make_builtin(kind, order, **kw) for kind, kw, order in _CLOSED_FORM_CASES]
    triples = [OperatorParams(beta, tau, gamma) for beta, tau, gamma in _CLOSED_FORM_PARAMS]
    images = [apply_operator(p, f) for p in triples for f in inputs]
    horner = evaluate_many([image.series for image in images], at).tolist()
    for j, p in enumerate(triples):
        forms = [closed_form_spec(p, kind, **kw) for kind, kw, _ in _CLOSED_FORM_CASES]
        forms += [closed_form_spec(p, "exp_times_z"), closed_form_spec(p, "kummer", alpha=1.3, lam=1.3)]
        outcomes = iter(_closed_form_rows(forms, pts))
        # evaluate's values, raising as evaluate would at the first form and point that did not converge
        got = [[form._value(z, next(outcomes)) for z in pts] for form in forms]
        group = slice(j * len(inputs), (j + 1) * len(inputs))
        for (kind, kw, _), image, values, closed in zip(_CLOSED_FORM_CASES, images[group], horner[group], got):
            for z, value, x in zip(pts, values, closed):
                ref = image._times_prefactor(z, value)
                err = abs(x - ref) / max(abs(ref), 1e-300)
                res.checks += 1
                if res.record(err):
                    res.failures.append(f"{kind}{kw} at {p}, z={z}: rel err {err:.3e}")
        # Confluent degeneracy: alpha == lam collapses to the z*exp(z) form.
        for z, ref, x in zip(pts, *got[-2:]):
            err = abs(x - ref) / max(abs(ref), 1e-300)
            res.checks += 1
            if res.record(err):
                res.failures.append(f"kummer degeneracy at {p}, z={z}: rel err {err:.3e}")
    return res


def suite_theta_equivalence(seed: int = 0, draws: int = 20) -> SuiteResult:
    """Multiplier route vs Fox-Wright Hadamard route for Theta, coefficientwise.

    Phi comes from the kernel, the Hadamard kernel from log_gamma: no Gamma code is shared, below 16 either.
    Each route runs once over all draws, every row with the bits of that
    draw's theta_normalize and theta_hadamard images: the multiplier route
    from one log_gamma_ratios call, the Hadamard route from one
    _theta_hadamard_rows call. The two routes stay separate.
    """
    res = SuiteResult("theta_equivalence", draws, 0.0, 1e-12)
    rng = np.random.default_rng(seed)
    ps, coeffs = [], []
    for _ in range(draws):
        ps.append(draw_params(rng))
        coeffs.append(random_normalized_coeffs(rng, 64))
    devs = []
    if ps:  # draws=0 checks nothing, as one draw after another did
        coeffs = np.array(coeffs)
        t1 = _times_phi(coeffs, log_gamma_ratios(ps, np.arange(float(coeffs.shape[1]))))
        t2 = _theta_hadamard_rows(ps, coeffs)
        devs = np.max(np.abs(t1 - t2) / np.maximum(1.0, np.abs(t1)), axis=1).tolist()
    for i, (p, dev) in enumerate(zip(ps, devs)):
        if res.record(dev):
            res.failures.append(f"draw {i}: coefficient deviation {dev:.3e} at {p}")
    return res


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
    res = SuiteResult("fixtures", 0, 0.0, 1e-9)
    fdir = fixture_dir()

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
            if res.record(dev, 1e-15):
                raise DomainError(f"coefficients drift from the {kind} recipe by {dev:.3e}")
        except (OSError, FracopsError) as exc:
            res.failures.append(f"fixture {path.name}: {exc}")
        res.checks += 1

    golden_path = fdir / GOLDEN_FIXTURE_NAME
    try:
        with open(golden_path) as fh:
            doc = json.load(fh)
        entries = doc["entries"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        res.failures.append(f"fixture {golden_path.name}: {exc}")
        entries = []

    inputs, one = {}, PowerSeries([1.0])  # each distinct golden input is built once
    for idx, entry in enumerate(entries):
        label = f"{golden_path.name}[{idx}]"
        try:
            pd = entry["params"]
            p = OperatorParams(pd["beta"], pd["tau"], pd["gamma"])
            key = json.dumps(entry["input"], sort_keys=True)
            if key not in inputs:
                inputs[key] = _rebuild_golden_input(entry["input"])
            z = complex(entry["z"][0], entry["z"][1])
            stored = complex(entry["value"][0], entry["value"][1])
            if not (cmath.isfinite(z) and cmath.isfinite(stored)):
                raise ValueError("z and value must be finite")
        except (KeyError, TypeError, ValueError, FracopsError) as exc:
            res.failures.append(f"{label}: malformed entry ({exc})")
            continue
        a_p, b_p = p.jacobi_exponents
        try:
            r1, r2, _ = _eval_doubling(p, inputs[key], _disk_point(z))
            err_beta = abs(inner_integral(p, one, z) - beta_fn(b_p + 1.0, a_p + 1.0))
        except FracopsError as exc:
            res.failures.append(f"{label}: {exc}")
            continue
        diff = r2 - stored
        err_value = math.hypot(diff.real, diff.imag)  # abs(diff) would raise OverflowError where |diff| overflows
        err_double = abs(r2 - r1)
        res.checks += 1
        if res.record(err_value):
            res.failures.append(f"{label}: stored value differs by {err_value:.3e}")
        if res.record(err_double):
            res.failures.append(f"{label}: node doubling moved result by {err_double:.3e}")
        if not err_beta <= 1e-12:
            res.failures.append(f"{label}: constant-input integral off Beta by {err_beta:.3e}")
    return res


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

    seed must be an integer >= 0 (numpy seeds no generator from a negative
    integer), and draws, if given, one >= 1: a randomized suite with no draws
    checks nothing.
    """
    check_count(seed, "seed", 0)
    if draws is not None:
        check_count(draws, "draws", 1)
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
