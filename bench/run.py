"""fracops benchmark: one command for the transform, diagnose and verify workloads.

    python3 bench/run.py --workload transform|diagnose|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; fracops is imported from its src/. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones:

  setup_s      median time for a fresh interpreter to import fracops, build
               the workload's inputs and finish one untimed warm-up pass
  pass_s       median time of one timed pass over the workload's operations
  cli_s        median time of the workload's fracops subcommand as a child
  peak_rss_mb  peak resident memory of this process

With --trace 1 the same passes run under outside-in tracing and the
metrics are the per-layer ones (see tracing.py and README.md).

A run does fixed work. It is a number of rounds set by --seconds through a
nominal round length per workload, never by a measured time, so a faster
program does no extra passes. Each round runs a fixed number of passes on
inputs drawn from seed + pass index, then one pair of identical CLI calls,
then one set-up sample in a fresh interpreter (this script with
--setup-only). Everything is single-threaded and runs one process at a
time, pinned to one CPU.

Times are calibrated. A measured interval is cut into segments of about
SEGMENT_S (at operation boundaries; a child process is one segment, except
that a set-up child takes readings of its own), and each segment's wall
time is multiplied by PROBE_REF_S / probe, where probe is the mean time of
a fixed fracops-free kernel read on the same CPU at the segment's two ends.
The host's speed swings by up to 2x for tens of seconds at a time, and the
probe follows those swings; see README.md for the measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("transform", "diagnose", "verify")
# The BLAS and OpenMP pools size themselves at import, so these are set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Warm-up inputs come from seed + WARMUP_OFFSET, so no timed pass reuses them
# (a reused verify seed would find its Jacobi nodes already cached).
WARMUP_OFFSET = 1_000_000
CHILD_TIMEOUT_S = 120
# Probe time that defines the reference speed the reported times are scaled to.
PROBE_REF_S = 0.003
# A timed pass gets a probe reading between operations at least this often.
SEGMENT_S = 0.2


def single_threaded() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit the CPU


def _probe_kernel(np) -> float:
    # Scalar log-Gamma work in the interpreter and a Horner loop over a small
    # array: the two kinds of work fracops does, written without fracops.
    s = 0.0
    for k in range(1, 3000):
        s += math.lgamma(0.37 * k + 0.5) - math.lgamma(0.37 * k + 0.2)
    z = 0.9 * np.exp(2j * np.pi * np.arange(128) / 128)
    acc = np.zeros_like(z)
    for c in range(1000):
        acc = acc * z + c
    return s + abs(acc[0])


def probe_seconds() -> float:
    import numpy as np
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _probe_kernel(np)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Wall time cut into segments, each scaled by the probe readings at its two ends.

    lap() closes a segment; the probe's own time falls between segments and
    is not counted. start and probe let a child continue a stopwatch its
    parent started before spawning it.
    """

    def __init__(self, start=None, probe=None):
        self.cal = self.wall = 0.0
        self._probe = probe_seconds() if probe is None else probe
        self._t = time.monotonic() if start is None else start

    def lap(self) -> None:
        end = time.monotonic()
        probe = probe_seconds()
        self.cal += (end - self._t) * PROBE_REF_S / (0.5 * (self._probe + probe))
        self.wall += end - self._t
        self._probe, self._t = probe, time.monotonic()

    def lap_if_due(self) -> None:
        if time.monotonic() - self._t >= SEGMENT_S:
            self.lap()


def run_pass(ops, tracer=None, watch=None):
    """Run every operation once; returns outputs, an exception standing for a failed one.

    A stopwatch gets a lap between operations once a segment is SEGMENT_S long.
    """
    outputs = []
    if tracer is not None:
        tracer.install()
        root = tracer.begin("pass")
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:  # a failing operation is counted; the run goes on
            outputs.append(exc)
        if watch is not None:
            watch.lap_if_due()
    if watch is not None:
        watch.lap()
    if tracer is not None:
        tracer.end(root)
        tracer.remove()
    return outputs


def check_op(op, out) -> str | None:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    try:
        return op.check(out)
    except Exception as exc:  # an output the check cannot read is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def check_cli(result, expected, first_stdout) -> str | None:
    """Exit 0, strict JSON, byte-identical to the first call, equal to the in-process result."""
    if result.returncode != 0:
        tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {result.returncode}: {tail}"
    try:
        doc = json.loads(result.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if first_stdout is not None and result.stdout != first_stdout:
        return "two identical calls gave different bytes"
    if expected is None:
        return "no in-process result to compare with"
    if doc != expected:
        return "CLI result differs from the in-process result"
    return None


def normalized(doc):
    """The in-process result as the CLI's JSON would read back, or None if it has none."""
    if doc is None:
        return None
    try:
        return json.loads(json.dumps(doc, allow_nan=False))
    except (TypeError, ValueError):
        return None


def setup_sample(args) -> tuple:
    """(calibrated, wall) seconds from starting a fresh --setup-only interpreter to its ready line.

    The child continues this stopwatch: it gets the start time and the probe
    reading taken just before the spawn. time.monotonic reads CLOCK_MONOTONIC,
    which every process on the machine shares.
    """
    probe = probe_seconds()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.monotonic()
    r = subprocess.run(cmd + ["--started", repr(start), "--probe", repr(probe)], cwd=ROOT,
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    ready = [line.split() for line in r.stdout.splitlines() if line.startswith("ready ")]
    return float(ready[0][1]), float(ready[0][2])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--started", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "fracops" / "__init__.py").is_file():
        print(f"bench: no fracops sources under {SRC}", file=sys.stderr)
        return 2
    single_threaded()

    sys.path.insert(0, str(SRC))
    import fracops
    if Path(fracops.__file__).resolve().parent != (SRC / "fracops").resolve():
        print(f"bench: fracops imported from {fracops.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        watch = Stopwatch(start=args.started, probe=args.probe)
        watch.lap()
        run_pass(wl.ops(wl.build(args.seed + WARMUP_OFFSET)), watch=watch)
        print(f"ready {watch.cal!r} {watch.wall!r}", flush=True)
        return 0
    run_pass(wl.ops(wl.build(args.seed + WARMUP_OFFSET)))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rounds = max(1, round(args.seconds / wl.round_seconds))
    times = {"pass": [], "cli": [], "setup": []}  # (calibrated, wall) pairs
    attempted = failed = 0
    known, unexpected = Counter(), []

    def count(label, msg, known_fault):
        nonlocal attempted, failed
        attempted += 1
        if msg is not None:
            failed += 1
            if known_fault:
                known[label] += 1
            else:
                unexpected.append(f"{label}: {msg}")

    for rnd in range(rounds):
        for j in range(wl.passes_per_round):
            inp = wl.build(args.seed + rnd * wl.passes_per_round + j)
            ops = wl.ops(inp)
            gc.collect()
            watch = Stopwatch()
            outputs = run_pass(ops, tracer, watch)
            times["pass"].append((watch.cal, watch.wall))
            for op, out in zip(ops, outputs):
                count(op.label, check_op(op, out), op.known_fault)
        expected = normalized(wl.cli_expected(inp, {op.label: out for op, out in zip(ops, outputs)}))
        argv_cli = wl.cli_argv(inp)
        first = None
        for _ in range(2):
            watch = Stopwatch()
            result = subprocess.run([sys.executable, "-m", "fracops.cli", *argv_cli], cwd=ROOT, env=env,
                                    capture_output=True, timeout=CHILD_TIMEOUT_S)
            watch.lap()
            times["cli"].append((watch.cal, watch.wall))
            count(f"cli {argv_cli[0]}", check_cli(result, expected, first), False)
            first = result.stdout if first is None else first
        if not args.trace:
            times["setup"].append(setup_sample(args))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for label, n in sorted(known.items()):
        print(f"known fault, failed {n}x: {label}", file=sys.stderr)
    for msg in unexpected[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    medians = {k: tuple(statistics.median(x[i] for x in v) for i in (0, 1)) for k, v in times.items() if v}
    print("medians, calibrated / wall seconds: " + ", ".join(
        f"{k} {c:.4f} / {w:.4f}" for k, (c, w) in medians.items()), file=sys.stderr)

    correct = not unexpected
    if tracer is not None:
        nesting = tracer.check_nesting()
        if nesting is not None:
            print(f"FAILED: trace spans do not nest: {nesting}", file=sys.stderr)
            correct = False
        layers = tracing.layer_metrics(tracer, len(times["pass"]), sys.modules["fracops.quadrature"])
        layers.update(tracing.import_metrics(str(SRC), env))
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json",
                     {"workload": wl.name, "seed": args.seed, "layers": layers,
                      "pass_s_traced": [w for _, w in times["pass"]]})
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": medians["setup"][0], "unit": "s"},
            "pass_s": {"value": medians["pass"][0], "unit": "s"},
            "cli_s": {"value": medians["cli"][0], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
