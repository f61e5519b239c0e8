"""Outside-in tracing of fracops for the benchmark's traced runs.

Tracer.install() wraps the public functions of each fracops module, two
methods (PowerSeries.evaluate and ClosedFormImage.evaluate) and scipy's
roots_jacobi as quadrature sees it, and patches each wrapper into every
fracops namespace and module-level dict that holds the original. So a
name imported into another module (log_gamma in fracdiff, quadrature and
verify; theta_multiplier_apply in bloch) is traced wherever it is called,
and so are the suites that verify.run_suites looks up in verify.SUITES.

Wrappers record spans in memory as [name, parent index, start, end];
nothing is written until the run ends. The scalar primitives that run once
per coefficient are not wrapped, except log_gamma and roots_jacobi, which
get a bare call counter. That keeps a pass at a few thousand spans and the
tracing overhead low. There are no threads or queues in fracops, so no
waiting time exists to record.
"""

from __future__ import annotations

import inspect
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("special", "series", "fracdiff", "quadrature", "geometry", "bloch", "verify")
METHODS = (("series", "PowerSeries", "evaluate"), ("fracdiff", "ClosedFormImage", "evaluate"))
COUNTED = frozenset({"special.log_gamma", "quadrature.roots_jacobi"})
UNWRAPPED = frozenset({
    "special.is_near_pole", "special.pochhammer", "special.beta_fn", "special.fox_wright_coefficient",
    "fracdiff.monomial_transform", "fracdiff.phi_multiplier", "fracdiff.gamma_shift_ratio",
    "fracdiff.theta_front_constant", "geometry.criterion_term",
})
SUITES = ("oracle_closed_form", "identity_law", "reduction_law", "fox_wright_reduction",
          "closed_forms", "theta_equivalence", "fixtures")


def _grid_points(out):
    return len(out.grid.radii) * out.grid.angles_per_radius


# Counters read from a traced call's arguments and result: span name -> (counter, fn(args, out)).
HOOKS = {
    "special.fox_wright_eval": ("special.fox_wright_terms", lambda a, out: out.terms_used),
    "fracdiff.sum_coefficient_series": ("fracdiff.coefficient_series_terms", lambda a, out: out.terms_used),
    "fracdiff.apply_operator": ("fracdiff.coefficients", lambda a, out: out.series.coeffs.size),
    "fracdiff.theta_multiplier_apply": ("fracdiff.coefficients", lambda a, out: out.coeffs.size),
    "fracdiff.theta_hadamard": ("fracdiff.coefficients", lambda a, out: out.coeffs.size),
    "series.PowerSeries.evaluate": ("series.horner_steps", lambda a, out: np.size(a[1]) * a[0].coeffs.size),
    "geometry.starlike_order": ("geometry.screen_points", lambda a, out: out.points_checked),
    "geometry.convex_order": ("geometry.screen_points", lambda a, out: out.points_checked),
    "bloch.bloch_norm_classical": ("bloch.grid_points", lambda a, out: _grid_points(out)),
    "bloch.bloch_norm_weighted": ("bloch.grid_points", lambda a, out: _grid_points(out)),
}


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter()
        self._patches = []   # (namespace, key, original), undone by remove()
        self._wrappers = {}  # id(original) -> wrapper, built once per run

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def _spanned(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                self.counts[hook[0]] += hook[1](args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """(qualified name, original) for everything the tracer wraps."""
        mods = {m: sys.modules[f"fracops.{m}"] for m in MODULES}
        for short, mod in mods.items():
            for key, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not key.startswith("_"):
                    yield f"{short}.{key}", obj
        for short, cls, meth in METHODS:
            yield f"{short}.{cls}.{meth}", getattr(mods[short], cls).__dict__[meth]
        yield "quadrature.roots_jacobi", mods["quadrature"].roots_jacobi

    def install(self) -> None:
        if not self._wrappers:
            for name, fn in self._targets():
                if name not in UNWRAPPED:
                    make = self._counted if name in COUNTED else self._spanned
                    self._wrappers[id(fn)] = make(name, fn)
        wrappers = self._wrappers
        namespaces = [vars(m) for n, m in sys.modules.items() if n == "fracops" or n.startswith("fracops.")]
        namespaces += [d for ns in list(namespaces) for d in ns.values() if isinstance(d, dict)]
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in wrappers:
                    self._patches.append((ns, key, val))
                    ns[key] = wrappers[id(val)]
        mods = {m: sys.modules[f"fracops.{m}"] for m in MODULES}
        for short, cls, meth in METHODS:
            klass = getattr(mods[short], cls)
            original = klass.__dict__[meth]
            self._patches.append((klass, meth, original))
            setattr(klass, meth, wrappers[id(original)])

    def remove(self) -> None:
        for ns, key, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds); nested repeats count once."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            outer = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][1]
            out[name] = (calls + 1, incl + (end - start if outer else 0.0),
                         self_s + (end - start) - child_time[i])
        return out

    def check_nesting(self) -> str | None:
        """None if every span lies inside its parent and after its previous sibling."""
        last_end = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            if end < start:
                return f"span {i} ({name}) ends before it starts"
            if parent >= 0:
                _, _, ps, pe = self.spans[parent]
                if not (ps <= start and end <= pe):
                    return f"span {i} ({name}) is not inside its parent {parent}"
            if start < last_end.get(parent, -np.inf):
                return f"span {i} ({name}) overlaps its previous sibling"
            last_end[parent] = end
        return None

    def write(self, path, extra: dict) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc["by_name"] = {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(self.totals().items())}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [[n, p, s - t0, e - t0] for n, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def node_cache_entries(quadrature) -> int:
    cache = getattr(quadrature, "_node_cache", None)
    if isinstance(cache, dict):
        return len(cache)
    info = getattr(quadrature.jacobi_nodes, "cache_info", None)
    return info().currsize if info else 0


def layer_metrics(tracer: Tracer, passes: int, quadrature) -> dict:
    """The per-layer metrics, per timed pass except the end-of-run cache size."""
    totals = tracer.totals()
    counts = tracer.counts

    def secs(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / passes

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    lookups = totals.get("quadrature.jacobi_nodes", (0, 0.0, 0.0))[0]
    misses = counts["quadrature.roots_jacobi"]
    m = {
        "special.log_gamma_calls": counts["special.log_gamma"] / passes,
        "special.fox_wright_eval_s": secs("special.fox_wright_eval"),
        "special.fox_wright_terms": counts["special.fox_wright_terms"] / passes,
        "fracdiff.apply_operator_s": secs("fracdiff.apply_operator"),
        "fracdiff.theta_normalize_s": secs("fracdiff.theta_normalize"),
        "fracdiff.theta_multiplier_apply_s": secs("fracdiff.theta_multiplier_apply"),
        "fracdiff.coefficients": counts["fracdiff.coefficients"] / passes,
        "fracdiff.closed_form_eval_s": secs("fracdiff.ClosedFormImage.evaluate"),
        "fracdiff.coefficient_series_terms": counts["fracdiff.coefficient_series_terms"] / passes,
        "series.evaluate_s": secs("series.PowerSeries.evaluate"),
        "series.evaluate_calls": calls("series.PowerSeries.evaluate"),
        "series.horner_steps": counts["series.horner_steps"] / passes,
        "quadrature.oracle_eval_s": secs("quadrature.oracle_eval"),
        "quadrature.oracle_evals": calls("quadrature.oracle_eval"),
        "quadrature.jacobi_nodes_s": secs("quadrature.jacobi_nodes"),
        "quadrature.roots_jacobi_calls": misses / passes,
        "quadrature.node_cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "quadrature.node_cache_entries": node_cache_entries(quadrature),
        "geometry.starlike_order_s": secs("geometry.starlike_order"),
        "geometry.convex_order_s": secs("geometry.convex_order"),
        "geometry.univalence_criterion_s": secs("geometry.univalence_criterion"),
        "geometry.screen_points": counts["geometry.screen_points"] / passes,
        "bloch.norm_s": secs("bloch.bloch_norm_classical", "bloch.bloch_norm_weighted"),
        "bloch.compactness_s": secs("bloch.compactness_decay_check"),
        "bloch.grid_points": counts["bloch.grid_points"] / passes,
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = secs(f"verify.suite_{suite}")
    return m


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)")


def scipy_import_seconds(importtime_log: str) -> float:
    """Summed cumulative time of the scipy imports that no other scipy import encloses.

    -X importtime prints each module after its children, indented by depth,
    so a line's parent is the next line with less indentation.
    """
    rows = [(len(m.group(2)), m.group(3), int(m.group(1))) for m in _IMPORTTIME.finditer(importtime_log)]
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total += cumulative
    return total * 1e-6


def import_metrics(src: str, env: dict, samples: int = 3) -> dict:
    """cli.import_s: median wall time of `import fracops` in a fresh interpreter.
    cli.scipy_import_s: median time spent importing scipy, from separate runs
    under -X importtime (which slows the import it reports on)."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
            "import fracops; print(time.perf_counter() - t)")

    def run(*flags):
        return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)

    imports = [float(run().stdout.split()[-1]) for _ in range(samples)]
    scipy = [scipy_import_seconds(run("-X", "importtime").stderr) for _ in range(samples)]
    return {"cli.import_s": statistics.median(imports), "cli.scipy_import_s": statistics.median(scipy)}
