"""Pipeline benchmark of the AADL→SIGNAL tool chain (analyse, simulate, sweep, serve).

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Each run builds its inputs from ``--seed``, sets up five times
(``setup_s`` is the median), computes the oracle, sends one untimed
warm-up request, then sends pipeline requests one after another (a closed
loop, one client) for ``--seconds`` seconds, finishing the cycle over its
distinct inputs that it is in.  Every request's outputs are checked
against the oracle.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with spans off:
``latency_ms`` and ``setup_s``.  ``--trace 1`` records a span around every
layer call, the tool chain's analysis stages included
(:func:`pipeline.instrument`), and reports each layer's self time per request
(``<layer>_ms``) plus per-request counts; the spans are written to
``.perfbench/spans-<workload>-seed<n>.json``.  A human-readable breakdown
goes to standard error.

Times are speed-normalised.  On a shared machine the CPU alternates, for
seconds or minutes at a time, between a quiet state and one where the same
work takes ~1.7x longer.  A fixed pure-Python kernel (:func:`_calibrate`)
runs before and after every request and every set-up; each measured time is
scaled by the kernel's nominal time over its mean time around that
measurement, so a time reads as it would on the quiet machine.  Request
times are then summarised per distinct input by their median and averaged
over the inputs, so that each input weighs the same.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Seconds :func:`_calibrate` takes on the quiet machine (the scale that
#: normalised times are expressed in).
CALIBRATION_SECONDS = 0.010

#: Layers reported with ``--trace 1``, in pipeline order.
LAYERS = (
    "parse", "instantiate", "validate", "translate", "schedulability",
    "flatten", "clock_calculus", "determinism", "deadlock", "plan_compile",
    "simulate", "sweep", "sweep_query", "serve_submit", "serve_simulate",
)
#: Per-request counts reported with ``--trace 1``.
COUNTS = ("cache_hits", "cache_misses", "vector_blocks", "fallback_blocks")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    # The library keeps its persistent cache off by default; pin it inside
    # the checkout all the same, so a run can never read or write elsewhere.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(WORK, "cache")
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _calibrate() -> float:
    """Seconds taken by a fixed kernel of dict updates and a sort.

    It uses only builtins, and the collector is held off while it runs so
    the program's garbage is never collected inside it: no change to the
    program can alter its cost, and its time tracks the machine alone.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        totals = {}
        for i in range(40000):
            key = f"k{i % 977}"
            totals[key] = totals.get(key, 0) + i
        sorted(totals.items(), key=lambda item: item[1])
        return time.perf_counter() - started
    finally:
        gc.enable()


def _per_input(samples) -> float:
    """Mean over the distinct inputs of each input's median sample."""
    return statistics.fmean(statistics.median(values) for values in samples if values)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import pipeline
    from spans import Tracer

    setup_times = []
    before = _calibrate()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = pipeline.setup(workload, seed, workdir)
        elapsed = time.perf_counter() - started
        after = _calibrate()
        setup_times.append(elapsed * 2 * CALIBRATION_SECONDS / (before + after))
        before = after
    expected = pipeline.oracle(state)
    outputs = pipeline.request(state, -1, Tracer(enabled=False))
    shutil.rmtree(outputs["sweep_dir"])
    problems = pipeline.check(state, outputs, expected)
    if problems:
        raise SystemExit("perfbench: warm-up request is wrong: " + "; ".join(problems))

    tracer = Tracer(enabled=trace)
    cycle = len(state.items)
    latencies = [[] for _ in range(cycle)]
    layers = {name: [[] for _ in range(cycle)] for name in LAYERS}
    counts = {name: [] for name in COUNTS}
    attempted = failed = 0
    # Keep the set-up state and the oracle out of the collector's scans, so
    # the timed requests pay only for the garbage the program makes.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    number = 0
    with pipeline.instrument(tracer) if trace else contextlib.nullcontext():
        before = _calibrate()
        while True:
            tracer.request = number
            attempted += 1
            started = time.perf_counter()
            try:
                outputs = pipeline.request(state, number, tracer)
            except Exception as exc:  # a failed request is counted, not fatal
                failed += 1
                problems.append(f"request {number}: {type(exc).__name__}: {exc}")
                before = _calibrate()
            else:
                elapsed = time.perf_counter() - started
                after = _calibrate()
                scale = 2 * CALIBRATION_SECONDS / (before + after)
                before = after
                shutil.rmtree(outputs["sweep_dir"])
                latencies[number % cycle].append(elapsed * scale)
                issues = pipeline.check(state, outputs, expected)
                if issues:
                    failed += 1
                    problems.extend(f"request {number}: {issue}" for issue in issues)
                for name in COUNTS:
                    counts[name].append(outputs.get(name, 0))
                if trace:
                    self_times = tracer.self_times(number)
                    for name in LAYERS:
                        layers[name][number % cycle].append(
                            self_times.get(name, 0.0) * scale
                        )
            number += 1
            if number % cycle == 0 and time.perf_counter() >= deadline:
                break

    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not any(latencies):
        raise SystemExit("perfbench: every timed request failed")
    if trace:
        metrics = {
            f"{name}_ms": {"value": _per_input(layers[name]) * 1000.0, "unit": "ms"}
            for name in LAYERS
        }
        for name in COUNTS:
            metrics[name] = {"value": statistics.median(counts[name]), "unit": "count"}
        tracer.write(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"))
    else:
        metrics = {
            "latency_ms": {"value": _per_input(latencies) * 1000.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(
        f"perfbench {workload} seed={seed}: {attempted} request(s), {failed} failed, "
        f"{cycle} distinct input(s)",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name:<18} {metric['value']:12.3f} {metric['unit']}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(pipeline.WORKLOADS)}"
        )
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace == 1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
