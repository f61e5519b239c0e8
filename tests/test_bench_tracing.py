"""The benchmark's tracer (bench/tracing.py) still finds every package name it wraps or reads.

A renamed or deleted function that the tracer names, such as
quadrature.jacobi_nodes, quadrature.roots_jacobi or ClosedFormImage.evaluate,
fails here instead of only in a traced benchmark run.
"""

import importlib.util
import pathlib

from fracops import fracdiff, quadrature, verify  # loaded before any install(), so its names get wrapped
from fracops.fracdiff import OperatorParams
from fracops.series import koebe_series

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_reads_the_package_names():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    f = koebe_series(2.0, 16)
    p = OperatorParams(0.6173, 0.2791, 1.3377)  # a triple no other test asks for: a cold rule cache
    tracer.install()
    try:
        fracdiff.apply_operator(p, f)
        quadrature.oracle_eval(p, f, 0.3 + 0.2j)
    finally:
        tracer.remove()
    assert fracdiff.apply_operator.__module__ == "fracops.fracdiff"  # the originals are back
    assert tracer.check_nesting() is None
    m = tracing.layer_metrics(tracer, 1, quadrature)
    assert m["fracdiff.apply_operator_s"] > 0.0 and m["fracdiff.coefficients"] == f.coeffs.size
    assert m["quadrature.oracle_eval_s"] > 0.0 and m["quadrature.oracle_evals"] == 1
    assert m["quadrature.jacobi_nodes_s"] > 0.0 and m["quadrature.roots_jacobi_calls"] >= 1


def test_traced_oracle_suite_counts_each_draws_oracle_call():
    """oracle_closed_form calls oracle_eval once per draw, through verify's name for it, which the tracer wraps."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verify.run_suites(["oracle_closed_form"], seed=0, draws=5)
    finally:
        tracer.remove()
    assert tracing.layer_metrics(tracer, 1, quadrature)["quadrature.oracle_evals"] == 5
