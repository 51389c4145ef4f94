"""The relaqm benchmark: one seeded workload, timed, checked and reported.

Usage::

    python3 perfbench/run.py --workload labs|qudit|unistochastic|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; relaqm is imported from its ``src/``.  Each
workload is a closed loop with one client in this process (``cli``: one
child process at a time).  An op is one complete user job; the loop runs ops
until ``--seconds`` have passed and checks each output between ops.

``--trace 0`` prints the end-to-end metrics.  Their timings are scaled to a
fixed reference speed of the host by a calibration timed between ops
(``calibrate.py``); the raw wall-clock figures go to stderr.  ``--trace 1``
runs half the time untraced and half with the outside-in tracer installed,
prints the per-layer metrics (per traced op) and writes the spans as JSON
lines under ``perfbench/out/``.  Either way the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import yaml

import workloads
from calibrate import COLD, WARM, Scaler, Stopwatch
from tracer import Tracer, aggregate

SETUP_REPEATS = 5      # set-up probes per run; setup_s is their median
IMPORT_REPEATS = 3     # fresh interpreters per cli.*import_ms figure

END_TO_END = {"ops_per_s": "1/s", "p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _calls_ms(*names):
    return [(f"{n}.{kind}", unit) for n in names
            for kind, unit in (("calls", "calls/op"), ("ms", "ms/op"))]


QUESTION_OPS = ("join", "meet", "negate", "implies", "same_question", "random_question")
PER_LAYER = dict(
    [("scenario.parse_scenario.ms", "ms/op"),
     ("scenario.run.ms", "ms/op"),
     ("scenario.run.self_ms", "ms/op"),
     ("scenario.run.svd_calls", "calls/op"),
     ("scenario.lint_report.ms", "ms/op"),
     ("scenario.emit_report.ms", "ms/op"),
     ("scenario.cross_check_misfires", "count/op")]
    + _calls_ms("scenario.resolve_family", "measurement.premeasurement_unitary",
                "measurement.correlation_operator")
    + [("measurement.operator_bytes", "bytes/op")]
    + _calls_ms("kernels.kernel_from_families")
    + [("kernels.unistochastic_search.ms", "ms/op"),
       ("kernels.unistochastic_search.iterations", "iter/call"),
       ("kernels.unistochastic_search.decided_ratio", "ratio")]
    + _calls_ms(*(f"questions.{op}" for op in QUESTION_OPS))
    + _calls_ms("dynamics.propagator")
    + [("cli.import_ms", "ms"),
       ("cli.deps_import_ms", "ms"),
       ("cli.main.self_ms", "ms/op"),
       ("trace.op_ms", "ms"),
       ("trace.traced_ops_per_s", "1/s"),
       ("trace.untraced_ops_per_s", "1/s")])


def environment() -> dict:
    """What the numbers depend on; recorded, never changed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def timed_loop(wl, seconds: float, trace=None, scaler=None):
    """Run ops back to back for ``seconds`` of wall time, checking each output
    between ops.  Only the ops are timed; with a ``scaler`` each latency is
    scaled to the reference speed.  Returns (failed, findings, latencies)."""
    failed, findings, latencies = 0, {}, []
    clock = scaler or Stopwatch()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        if trace is not None:
            trace.op = len(latencies)
        clock.start()
        try:
            label, out = wl.op(len(latencies), trace, clock.pause)
        except Exception:  # relaqm crashed: a failed op, and the loop goes on
            latencies.append(clock.stop())
            failed += 1
            print(f"FAILED op {len(latencies) - 1}:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies.append(clock.stop())
        try:
            for key, value in wl.check(out).items():
                findings[key] = findings.get(key, 0) + value
        except workloads.CheckFailed as exc:
            failed += 1
            print(f"FAILED op ({label}): {exc}", file=sys.stderr)
    return failed, findings, latencies


def probe_child(args: list[str]) -> float:
    t = time.perf_counter()
    code, _, _ = workloads.run_child([sys.executable] + args)
    elapsed = time.perf_counter() - t
    if code != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {code}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up (``--setup-only``),
    at the reference speed."""
    argv = [__file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    scaler, samples = Scaler(COLD), []
    for _ in range(SETUP_REPEATS):
        scaler.start()
        probe_child(argv)
        samples.append(scaler.stop())
    return statistics.median(samples)


def import_ms(statement: str) -> float:
    """Median time of ``statement`` in a fresh interpreter, as it reports it."""
    code = ("import time; t = time.perf_counter(); " + statement
            + "; print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        rc, out, _ = workloads.run_child([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"python -c {statement!r} exited with {rc}")
        samples.append(float(out))
    return statistics.median(samples)


def end_to_end(wl, args, latencies) -> dict:
    if isinstance(wl, workloads.CliWorkload):
        rss = wl.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": setup_seconds(args.workload, args.seed),
        "peak_rss_mb": rss,
    }


def per_layer(trace, misfires: int, latencies, untraced) -> dict:
    """Per-layer figures per traced op, from the spans and counters."""
    ops = len(latencies)
    calls, total, own = aggregate(trace.spans)
    counters = trace.counters
    searches = calls.get("kernels.unistochastic_search", 0)
    values = {
        "scenario.run.svd_calls": counters.get("scenario.run.svd_calls", 0) / ops,
        "scenario.cross_check_misfires": misfires / ops,
        "measurement.operator_bytes": counters.get("measurement.operator_bytes", 0) / ops,
        "kernels.unistochastic_search.iterations":
            counters.get("kernels.unistochastic_search.iterations", 0) / searches
            if searches else 0.0,
        "kernels.unistochastic_search.decided_ratio":
            counters.get("kernels.unistochastic_search.decided", 0) / searches
            if searches else 0.0,
        "cli.import_ms": import_ms("import relaqm"),
        "cli.deps_import_ms": import_ms("import numpy, yaml"),
        "trace.op_ms": statistics.fmean(latencies) * 1e3,
        "trace.traced_ops_per_s": len(latencies) / math.fsum(latencies),
        "trace.untraced_ops_per_s": len(untraced) / math.fsum(untraced),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, kind = name.rsplit(".", 1)
        if kind == "calls":
            values[name] = calls.get(span, 0) / ops
        elif kind == "ms":
            values[name] = total.get(span, 0.0) * 1e3 / ops
        elif kind == "self_ms":
            values[name] = own.get(span, 0.0) * 1e3 / ops
    return {name: values[name] for name in PER_LAYER}


def write_trace(trace, args, env) -> str:
    path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"environment": env, "workload": args.workload,
                             "seed": args.seed}) + "\n")
        trace.write(fh)
    return str(path.relative_to(workloads.ROOT))


def summarize(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}", file=sys.stderr)
    op_ms = metrics.get("trace.op_ms")
    if op_ms:
        print("layer shares of a traced op (inclusive ms / op ms):", file=sys.stderr)
        for name, value in metrics.items():
            if name.endswith("ms") and units[name] == "ms/op" and value:
                print(f"  {name:43s} {100 * value / op_ms:6.1f} %", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("labs", "qudit", "unistochastic", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and run the warm-up op, then exit (times setup_s)")
    args = parser.parse_args(argv)

    try:
        wl = workloads.make_workload(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    wl.warmup()
    if args.setup_only:
        return 0

    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        failed, _, untraced = timed_loop(wl, args.seconds / 2)
        trace = Tracer()
        if not isinstance(wl, workloads.CliWorkload):
            trace.install()
        try:
            traced_failed, findings, latencies = timed_loop(wl, args.seconds / 2, trace)
        finally:
            trace.uninstall()
        metrics = per_layer(trace, findings.get("misfire", 0), latencies, untraced)
        ops, failed = len(untraced) + len(latencies), failed + traced_failed
        units = PER_LAYER
        print(f"spans: {write_trace(trace, args, env)}", file=sys.stderr)
    else:
        scaler = Scaler(COLD if isinstance(wl, workloads.CliWorkload) else WARM)
        failed, findings, latencies = timed_loop(wl, args.seconds, scaler=scaler)
        ops = len(latencies)
        metrics = end_to_end(wl, args, latencies)
        units = END_TO_END
        print(f"ops: {ops}, findings: {findings}, error_rate: {failed / ops:.4g}",
              file=sys.stderr)
        print(f"wall clock: {ops / math.fsum(scaler.raw):.6g} ops/s, "
              f"p50 {statistics.median(scaler.raw) * 1e3:.6g} ms; calibration median "
              f"{statistics.median(scaler.samples) * 1e3:.4g} ms "
              f"(reference {scaler.calibration.reference_ms} ms)", file=sys.stderr)
    summarize(metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
