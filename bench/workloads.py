"""The three workloads: per-pass inputs, operations and output checks.

A pass is a fixed list of operations on inputs drawn from one seed. Only
the operations run inside the timed region; each operation's check runs
after the pass against a reference from refs.py (computed apart from
fracops) or against a property the method must have. An operation whose
check fails counts as failed. Operations marked known_fault fail today on
inputs that do not depend on the seed; they count as failed without
making the run incorrect.

Each workload also names its typical CLI command. run.py runs it as a
child process after every round of passes and compares its output with
the same result computed in process during the round's last pass.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fracops

# Draw range of the seeded parameters: the admissible window minus its
# corners (beta - tau <= 0.9, tau >= 0.05), where every check here holds.
BETA_RANGE = (0.1, 1.0)
GAMMA_RANGE = (0.0, 3.0)

# Closed-form faults, evaluated at fixed parameters and points.
FAULT_PARAMS = (0.65, 0.30, 1.40)
FAULT_ANGLES = (0.3, 2.0, -2.5)


def _refs():
    # References load mpmath, which must stay out of the measured set-up.
    import refs
    return refs


def call(obj, attr: str, *args, **kwargs):
    """An operation that looks obj.attr up when it runs, so a traced pass calls the wrapper."""
    return lambda: getattr(obj, attr)(*args, **kwargs)


@dataclass
class Op:
    """One operation of a pass: run() is timed, check(output) is not.

    check returns None when the output is right, else a failure message.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False


def draw_params(rng) -> tuple:
    beta = rng.uniform(*BETA_RANGE)
    tau = rng.uniform(max(0.05, beta - 0.9), beta)
    return beta, tau, rng.uniform(*GAMMA_RANGE)


def random_normalized(rng, order: int) -> fracops.PowerSeries:
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    k = np.arange(2, order + 1)
    c[2:] = (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)) / k
    return fracops.PowerSeries(c)


def log_uniform_indices(rng, order: int, count: int) -> list:
    """Sample indices in [2, order], denser at small indices where coefficients live."""
    u = np.exp(rng.uniform(math.log(2.0), math.log(order + 1.0), size=count))
    return sorted({min(order, max(2, int(v))) for v in u})


def _rel(got, ref) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def _check_coefficients(got: np.ndarray, f: np.ndarray, params, indices, kind: str):
    """Sampled image coefficients against f_u * C(u) or f_k * Phi(k) at 30 digits."""
    refs = _refs()
    for u in indices:
        if kind == "monomial":
            mult = refs.mp_monomial_coefficient(*params, int(u))
            tol = refs.lgamma_tolerance(*refs.monomial_args(*params, u))
        else:
            mult = refs.mp_phi(*params, int(u))
            tol = refs.lgamma_tolerance(*refs.phi_args(*params, u))
        ref = f[u] * mult
        if abs(got[u] - ref) > tol * abs(ref) + 1e-300:
            return f"coefficient {u}: {got[u]!r} vs reference {ref!r} (tol {tol:.1e})"
    return None


# ---------------------------------------------------------------------------
# transform: operator images at large order and closed-form point values


STOCK = {
    "koebe1": ("koebe", {"alpha": 1.0}),
    "koebe2": ("koebe", {"alpha": 2.0}),
    "exp_times_z": ("exp_times_z", {}),
    "kummer": ("kummer", {"alpha": 1.3, "lam": 0.9}),
    "hurwitz_lerch": ("hurwitz_lerch", {"alpha": 1.2, "lam": 0.8, "rho": 1.5, "s": 1.1, "a": 1.0}),
}


@functools.lru_cache(maxsize=None)
def _stock_series(name: str, order: int) -> fracops.PowerSeries:
    kind, kw = STOCK[name]
    return fracops.make_builtin(kind, order, **kw)


class Transform:
    """apply_operator / theta_normalize at orders 1024 and 8192, closed forms on rings."""

    name = "transform"
    passes_per_round = 2
    round_seconds = 4.0
    orders = (1024, 8192)
    series_names = ("koebe1", "koebe2", "exp_times_z", "kummer")
    ring_radii = (0.5, 0.9)
    angles_per_ring = 3

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        params = draw_params(rng)
        series = {}
        for order in self.orders:
            for name in self.series_names:
                series[(name, order)] = _stock_series(name, order)
            series[("random", order)] = random_normalized(rng, order)
        points = [r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                  for r in self.ring_radii for _ in range(self.angles_per_ring)]
        samples = {order: log_uniform_indices(rng, order, 8) + [order] for order in self.orders}
        return {"params": params, "series": series, "points": points, "samples": samples}

    def ops(self, inp: dict) -> list:
        params, samples = inp["params"], inp["samples"]
        p = fracops.OperatorParams(*params)
        ops = []
        for (name, order), f in inp["series"].items():
            ops.append(Op(f"apply_operator {name} {order}",
                          call(fracops, "apply_operator", p, f),
                          functools.partial(self._check_apply, f, params, samples[order])))
            ops.append(Op(f"theta_normalize {name} {order}",
                          call(fracops, "theta_normalize", p, f),
                          functools.partial(self._check_theta, f, params, samples[order])))

        f = inp["series"][("random", self.orders[0])]
        p_eq = fracops.OperatorParams(params[0], params[0], params[2])
        ops.append(Op("apply_operator tau=beta", call(fracops, "apply_operator", p_eq, f),
                      lambda out, f=f: self._check_unchanged(out.series.coeffs, f.coeffs)))
        ops.append(Op("theta_normalize tau=beta", call(fracops, "theta_normalize", p_eq, f),
                      lambda out, f=f: self._check_unchanged(out.coeffs, f.coeffs)))
        ops.append(Op("theta_hadamard random", call(fracops, "theta_hadamard", p, f),
                      functools.partial(self._check_hadamard, p, f)))

        for name, (kind, kw) in STOCK.items():
            cf = fracops.closed_form_spec(p, kind, **kw)
            for z in inp["points"]:
                if name == "hurwitz_lerch" and abs(z) > 0.75:
                    continue  # the Lerch ring at 0.9 is a known fault, run at fixed points below
                ops.append(Op(f"closed_form {name} |z|={abs(z):.2f}", call(cf, "evaluate", z),
                              functools.partial(self._check_closed_form, params, name, z)))

        pf = fracops.OperatorParams(*FAULT_PARAMS)
        for name, r in (("hurwitz_lerch", 0.9), ("koebe2", 0.95)):
            kind, kw = STOCK[name]
            cf = fracops.closed_form_spec(pf, kind, **kw)
            for angle in FAULT_ANGLES:
                z = r * cmath.exp(1j * angle)
                ops.append(Op(f"closed_form {name} |z|={r} (known fault)", call(cf, "evaluate", z),
                              functools.partial(self._check_closed_form, FAULT_PARAMS, name, z,
                                                use_mpmath=True),
                              known_fault=True))

        for mode in ("theorem5_S", "theorem6_K"):
            ops.append(Op(f"univalence_criterion {mode}",
                          call(fracops, "univalence_criterion", p, mode),
                          functools.partial(self._check_criterion, params, mode)))
        return ops

    @staticmethod
    def _check_apply(f, params, indices, out):
        beta, tau, gamma = params
        shift = (1.0 + (tau - beta)) * gamma
        if abs(out.prefactor_power - shift) > 4 * np.finfo(float).eps * max(1.0, shift):
            return f"prefactor power {out.prefactor_power!r} != {shift!r}"
        if out.series.coeffs.size != f.coeffs.size:
            return "image order differs from input order"
        return _check_coefficients(out.series.coeffs, f.coeffs, params, [0, 1] + indices, "monomial")

    @staticmethod
    def _check_theta(f, params, indices, out):
        if out.coeffs.size != f.coeffs.size:
            return "image order differs from input order"
        if out.coeffs[0] != 0.0 or out.coeffs[1] != 1.0:
            return f"Phi(1) is not exactly 1: c0={out.coeffs[0]!r}, c1={out.coeffs[1]!r}"
        return _check_coefficients(out.coeffs, f.coeffs, params, indices, "phi")

    @staticmethod
    def _check_unchanged(got, f):
        if not np.array_equal(got, f):
            return f"tau = beta moved coefficients by {float(np.max(np.abs(got - f))):.3e}"
        return None

    @staticmethod
    def _check_hadamard(p, f, out):
        """Both routes to 1e-12, or to their log-Gamma conditioning where that is wider."""
        refs = _refs()
        ref = fracops.theta_normalize(p, f).coeffs
        params = (p.beta, p.tau, p.gamma)
        b1 = p.beta / (p.gamma + 1.0) + 1.0
        for k in range(1, ref.size):
            x = b1 + (k - 1) / (p.gamma + 1.0)
            tol = max(1e-12, refs.lgamma_tolerance(k, k, x, x + p.diff)
                      + refs.lgamma_tolerance(*refs.phi_args(*params, k)))
            if abs(out.coeffs[k] - ref[k]) > tol * abs(ref[k]) + 1e-300:
                return f"coefficient {k}: Hadamard {out.coeffs[k]!r} vs multiplier {ref[k]!r} (tol {tol:.1e})"
        return None

    @staticmethod
    def _check_closed_form(params, name, z, out, use_mpmath=False):
        refs = _refs()
        kind, kw = STOCK[name]
        reference = refs.mp_image_value if use_mpmath else refs.image_value
        ref = reference(*params, kind, complex(z), **kw)
        err = _rel(out, ref)
        return None if err <= 1e-10 else f"value {out!r} vs reference {ref!r}: rel err {err:.2e}"

    @staticmethod
    def _check_criterion(params, mode, out):
        refs = _refs()
        sums = np.asarray(out.partial_sums)
        ref = refs.criterion_partial_sums(*params, mode, sums.size)
        err = float(np.max(np.abs(sums - ref) / np.abs(ref)))
        if err > 1e-12:
            return f"partial sums off by {err:.2e}"
        if out.series_status is not fracops.EvalStatus.DIVERGENT or out.verdict != "Inconclusive-Divergent":
            return f"growing series reported {out.series_status.value} / {out.verdict}"
        beta, tau, gamma = params
        b1 = beta / (gamma + 1.0) + 1.0
        threshold = 2.0 * math.exp(math.lgamma(b1) - math.lgamma(b1 + tau - beta))
        if _rel(out.rhs_threshold, threshold) > 1e-13:
            return f"threshold {out.rhs_threshold!r} vs {threshold!r}"
        return None

    def cli_argv(self, inp: dict) -> list:
        beta, tau, gamma = inp["params"]
        return ["transform", "--beta", repr(beta), "--tau", repr(tau), "--gamma", repr(gamma),
                "--builtin", "koebe", "--alpha", "2", "--order", "8192", "--normalize"]

    def cli_expected(self, inp: dict, outputs: dict):
        g = outputs["theta_normalize koebe2 8192"]
        if isinstance(g, Exception):
            return None
        return {"coefficients": [[c.real, c.imag] for c in g.coeffs], "order": g.order}


# ---------------------------------------------------------------------------
# diagnose: geometry screens and Bloch norms on disk grids


class Diagnose:
    """Screens and Bloch norms of order-2500 inputs and their Theta images."""

    name = "diagnose"
    passes_per_round = 2
    round_seconds = 14.0
    order = 2500
    nmax = 64

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        params = draw_params(rng)
        p = fracops.OperatorParams(*params)
        fk = fracops.koebe_series(2.0, self.order)
        fe = fracops.exp_times_z_series(self.order)
        alpha = float(rng.uniform(1.5, 2.5))
        return {
            "params": params, "fk": fk, "fe": fe,
            "tk": fracops.theta_normalize(p, fk), "te": fracops.theta_normalize(p, fe),
            "alpha": alpha, "ka": fracops.koebe_series(alpha, self.order),
            "mu": float(rng.uniform(1.0, 1.5)), "alpha_w": float(rng.uniform(0.0, 0.5)),
        }

    def ops(self, inp: dict) -> list:
        p = fracops.OperatorParams(*inp["params"])
        mu = inp["mu"]
        power = fracops.WeightSpec("power", alpha_w=inp["alpha_w"])
        logw = fracops.WeightSpec("log_weight")
        one = fracops.WeightSpec("constant_one")
        fk, fe, tk, te, ka = inp["fk"], inp["fe"], inp["tk"], inp["te"], inp["ka"]
        part = functools.partial
        return [
            Op("starlike_order koebe lambda=0", call(fracops, "starlike_order", fk, 0.0),
               part(self._check_screen, fk, "starlike", 0.0, True)),
            Op("starlike_order koebe lambda=0.5", call(fracops, "starlike_order", fk, 0.5),
               part(self._check_koebe_witness, fk)),
            Op("starlike_order theta(koebe)", call(fracops, "starlike_order", tk, 0.0),
               part(self._check_screen, tk, "starlike", 0.0, None)),
            Op("convex_order theta(z e^z)", call(fracops, "convex_order", te, 0.0),
               part(self._check_screen, te, "convex", 0.0, None)),
            Op("bloch_norm_classical koebe", call(fracops, "bloch_norm_classical", ka),
               part(self._check_norm, ka, lambda r: 1.0 - r * r)),
            Op("bloch_norm_weighted power theta(koebe)", call(fracops, "bloch_norm_weighted", tk, mu, power),
               part(self._check_norm, tk, lambda r: (1.0 - r) ** mu / (1.0 - r) ** inp["alpha_w"])),
            Op("bloch_norm_weighted log theta(z e^z)", call(fracops, "bloch_norm_weighted", te, mu, logw),
               part(self._check_norm, te, lambda r: (1.0 - r) ** mu / (1.0 - math.log(1.0 - r)))),
            Op("boundedness_equivalence_check z e^z",
               call(fracops, "boundedness_equivalence_check", p, fe, mu, one),
               part(self._check_equivalence, inp["params"], mu, fe.order)),
            Op("compactness_decay_check nmax=64", call(fracops, "compactness_decay_check", p, self.nmax, mu, one),
               part(self._check_compactness, inp["params"], mu, self.nmax)),
        ]

    @staticmethod
    def _check_screen(f, kind, lam, expect_pass, out):
        refs = _refs()
        ring_min = []  # (minimum of the screened quantity, radius), up to the first violating ring
        for r in refs.SCREEN_RADII:
            q = refs.screen_quantity(f.coeffs, refs.ring(r, refs.SCREEN_ANGLES), kind)
            ring_min.append((float(q.min()), r))
            if q.min() <= lam:
                break
        violated = ring_min[-1][0] <= lam
        if expect_pass is not None and out.passed != expect_pass:
            return f"screen passed={out.passed}, expected {expect_pass}"
        if any(abs(m - lam) < 1e-9 for m, _ in ring_min):
            return None  # a grid value within roundoff of lambda: either verdict is right
        if out.passed == violated:
            return f"screen passed={out.passed} but the reference minimum says violated={violated}"
        if out.points_checked != len(ring_min) * refs.SCREEN_ANGLES:
            return f"points_checked {out.points_checked} != {len(ring_min) * refs.SCREEN_ANGLES}"
        if violated:
            m, r = ring_min[-1]
            if _rel(out.witness_value, m) > 1e-9:
                return f"witness value {out.witness_value!r} vs reference ring minimum {m!r}"
            if abs(abs(out.witness) - r) > 1e-12:
                return f"witness {out.witness!r} not on the first violating ring |z|={r}"
        return None

    @staticmethod
    def _check_koebe_witness(f, out):
        msg = Diagnose._check_screen(f, "starlike", 0.5, False, out)
        if msg:
            return msg
        # Re(z k'/k) = Re((1+z)/(1-z)) is smallest at z = -r, and first <= 1/2 at r = 0.4.
        w = out.witness
        if not (abs(w.real + 0.4) < 1e-12 and abs(w.imag) < 1e-12):
            return f"witness {w!r} is not -0.4 on the negative real axis"
        return None

    @staticmethod
    def _check_norm(f, factor, out):
        refs = _refs()
        if out.grid.radii != refs.BLOCH_RADII or out.grid.angles_per_radius != refs.BLOCH_ANGLES:
            return f"norm taken on {out.grid.to_json_dict()}, not the default Bloch grid"
        best, vals, z = refs.grid_sup(f.coeffs, out.grid.radii, out.grid.angles_per_radius, factor)
        if _rel(out.norm_estimate, best) > 1e-10:
            return f"norm {out.norm_estimate!r} vs reference grid supremum {best!r}"
        i, j = np.unravel_index(int(np.argmin(np.abs(z - out.argmax_point))), z.shape)
        if abs(z[i, j] - out.argmax_point) > 1e-12 or _rel(vals[i, j], best) > 1e-10:
            return f"argmax {out.argmax_point!r} is not a grid point attaining the supremum"
        return None

    @staticmethod
    def _check_equivalence(params, mu, order, out):
        refs = _refs()
        one = lambda r: (1.0 - r) ** mu  # noqa: E731 - w = 1
        f = refs.stock_coefficients("exp_times_z", order)
        tf = f.copy()
        tf[1:] *= refs.phi_vector(*params, np.arange(1, f.size, dtype=np.float64))
        nf, _, _ = refs.grid_sup(f, refs.BLOCH_RADII, refs.BLOCH_ANGLES, one)
        ntf, _, _ = refs.grid_sup(tf, refs.BLOCH_RADII, refs.BLOCH_ANGLES, one)
        for label, got, ref in (("norm f", out.norm_f.norm_estimate, nf),
                                ("norm Theta f", out.norm_theta_f.norm_estimate, ntf),
                                ("ratio", out.ratio, ntf / nf)):
            if _rel(got, ref) > 1e-10:
                return f"{label} {got!r} vs reference {ref!r}"
        return None

    @staticmethod
    def _check_compactness(params, mu, nmax, out):
        refs = _refs()
        ref = refs.compactness_norms(*params, nmax, mu, refs.BLOCH_RADII)
        if len(out) != len(ref):
            return f"{len(out)} norms for n = 2..{nmax}"
        err = max(_rel(a, b) for a, b in zip(out, ref))
        return None if err <= 1e-12 else f"norms off the closed form Phi(n) max r^(n-1)(1-r)^mu by {err:.2e}"

    def cli_argv(self, inp: dict) -> list:
        return ["bloch", "--f", "koebe", "--alpha", repr(inp["alpha"]), "--order", str(self.order)]

    def cli_expected(self, inp: dict, outputs: dict):
        est = outputs["bloch_norm_classical koebe"]
        return None if isinstance(est, Exception) else est.to_json_dict()


# ---------------------------------------------------------------------------
# verify: the seeded suites and the quadrature oracle

# The seeded suites are every suite but oracle_closed_form. Its node-doubling
# check fails on a few seeds in a hundred (constant input, small beta + gamma),
# so it runs as a known fault on seed 51, one of those seeds.
SEEDED_SUITES = ("identity_law", "reduction_law", "fox_wright_reduction", "closed_forms",
                 "theta_equivalence", "fixtures")
ORACLE_SUITE_FAULT_SEED = 51
# oracle_eval near beta - tau -> 1: node doubling fails because scipy's
# roots_jacobi loses accuracy as the Jacobi exponent approaches -1.
ORACLE_FAULT_PARAMS = (0.9999, 0.0001, 0.0)
ORACLE_FAULT_POWERS = (2, 3, 4, 6)
ORACLE_FAULT_POINTS = (0.5, 0.8j)
ORACLE_INPUTS = ("koebe1", "koebe2", "exp_times_z", "kummer")


class Verify:
    """The seeded suites, plus oracle_eval on fresh parameters against independent references."""

    name = "verify"
    passes_per_round = 1
    round_seconds = 2.5
    oracle_draws = 24
    oracle_order = 200

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        draws = []
        for i in range(self.oracle_draws):
            params = draw_params(rng)
            z = rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            draws.append((ORACLE_INPUTS[i % len(ORACLE_INPUTS)], params, z))
        return {"seed": seed, "draws": draws}

    def ops(self, inp: dict) -> list:
        ops = [
            Op("run_suites", call(fracops, "run_suites", names=SEEDED_SUITES, seed=inp["seed"]),
               functools.partial(self._check_suites, SEEDED_SUITES)),
            Op("run_suites oracle_closed_form seed 51 (known fault)",
               call(fracops, "run_suites", names=["oracle_closed_form"], seed=ORACLE_SUITE_FAULT_SEED),
               functools.partial(self._check_suites, ("oracle_closed_form",)), known_fault=True),
        ]
        for name, params, z in inp["draws"]:
            f = _stock_series(name, self.oracle_order)
            ops.append(Op(f"oracle_eval {name} order {self.oracle_order}",
                          call(fracops, "oracle_eval", fracops.OperatorParams(*params), f, z),
                          functools.partial(self._check_stock, params, name, z)))
        pf = fracops.OperatorParams(*ORACLE_FAULT_PARAMS)
        for power in ORACLE_FAULT_POWERS:
            f = fracops.monomial_series(power)
            for z in ORACLE_FAULT_POINTS:
                ops.append(Op(f"oracle_eval z^{power} at beta-tau=0.9998 (known fault)",
                              call(fracops, "oracle_eval", pf, f, z),
                              functools.partial(self._check_monomial, ORACLE_FAULT_PARAMS, power, z),
                              known_fault=True))
        return ops

    @staticmethod
    def _check_suites(names, out):
        got = tuple(r.name for r in out)
        if got != tuple(names):
            return f"expected suites {names}, got {got}"
        bad = [f"{r.name}: {r.failures[:1]}" for r in out if not r.passed]
        return f"suites failed: {bad}" if bad else None

    @staticmethod
    def _check_monomial(params, power, z, out):
        beta, tau, gamma = params
        exponent = (1.0 + (tau - beta)) * gamma + power
        ref = _refs().mp_monomial_coefficient(*params, power) * cmath.exp(exponent * cmath.log(z))
        err = _rel(out, ref)
        return None if err <= 1e-8 else f"oracle {out!r} vs reference {ref!r}: rel err {err:.2e}"

    @staticmethod
    def _check_stock(params, name, z, out):
        kind, kw = STOCK[name]
        ref = _refs().image_value(*params, kind, z, **kw)
        err = _rel(out, ref)
        return None if err <= 1e-8 else f"oracle {out!r} vs reference {ref!r}: rel err {err:.2e}"

    def cli_argv(self, inp: dict) -> list:
        argv = ["verify", "--seed", str(inp["seed"])]
        for name in SEEDED_SUITES:
            argv += ["--suite", name]
        return argv

    def cli_expected(self, inp: dict, outputs: dict):
        results = outputs["run_suites"]
        if isinstance(results, Exception):
            return None
        suites = [r.to_json_dict() for r in results]
        return {"seed": inp["seed"], "draws": None, "suites": suites, "all_passed": True}


WORKLOADS = {w.name: w for w in (Transform(), Diagnose(), Verify())}
