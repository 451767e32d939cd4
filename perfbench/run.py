"""Benchmark of certified Koszul ranks, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory and nowhere else.  The workloads are described in
``perfbench/README.md``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it wraps the module boundaries of
``koszul`` and reports the per-layer metrics instead.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Human-readable lines above it give each metric's sample count, and the
full record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# setup_s is the median over fresh processes, sampled before the first pass
# and again after every pass, so that the samples spread over the whole run
SETUP_FIRST = 4
SETUP_PER_PASS = 2
MIN_PASSES = 3  # a cold pass and at least two warm passes

# per-layer metric: unit (the order is the order of the output)
LAYER_UNITS = {
    "subspaces.canon_s": "s",
    "hilbert.build_s": "s",
    "hilbert.matrices": "count",
    "hilbert.nnz": "count",
    "hilbert.self_s": "s",
    "linalg.modp_s": "s",
    "linalg.modp_calls": "count",
    "linalg.modp_cells": "count",
    "linalg.oracle_s": "s",
    "linalg.oracle_calls": "count",
    "linalg.certified_yield": "ratio",
    "linalg.key_s": "s",
    "linalg.cache_get_s": "s",
    "linalg.cache_put_s": "s",
    "linalg.cache_hits": "count",
    "linalg.cache_misses": "count",
    "linalg.cache_bytes": "B",
    "resonance.self_s": "s",
    "resonance.pencil_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "process.cpu_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


class Pass:
    """Timings and check results of one pass."""

    def __init__(self):
        self.calls: list[tuple[str, float]] = []  # (kind, seconds)
        self.cpu_s = 0.0
        self.labels: list[tuple[str, list[str]]] = []  # (call, its statuses)
        self.counters: dict[str, int] = {}

    @property
    def seconds(self) -> float:
        return sum(t for _, t in self.calls)


def run_call(call):
    """Time one call; returns (seconds, cpu seconds, result, error)."""
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        result = call.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, time.process_time() - cpu, None, exc
    return time.perf_counter() - start, time.process_time() - cpu, result, None


def run_passes(workload, inputs, deadline: float, workdir: str, tracer=None, between=None) -> list[Pass]:
    """Whole passes, at least ``MIN_PASSES``, until the next one would end
    after ``deadline``.

    ``between()`` runs after each pass, outside its timing; its time counts
    towards the deadline.
    """
    passes: list[Pass] = []
    durations: list[float] = []
    while True:
        index = len(passes)
        if tracer is not None:
            tracer.phase = index
        record = Pass()
        began = time.perf_counter()
        for call in workload.calls(inputs, index, workdir):
            elapsed, cpu, result, error = run_call(call)
            record.calls.append((call.kind, elapsed))
            record.cpu_s += cpu
            record.labels.append((call.label, call.outcome(result, error)))
        record.counters = dict(getattr(workload, "counters", {}))
        passes.append(record)
        if between is not None:
            between()
        durations.append(time.perf_counter() - began)
        if len(passes) >= MIN_PASSES and time.perf_counter() + statistics.median(durations) > deadline:
            return passes


def measure_setup(name: str, seed: int, count: int) -> list[float]:
    """Import ``koszul`` and build the inputs in ``count`` fresh processes."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import workloads\n"
        f"workload = workloads.WORKLOADS[{name!r}]()\n"
        "start = time.perf_counter()\n"
        f"workload.build({seed})\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh process:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return ""
    best = max(p for p in (75, 90, 95, 99) if n * (100 - p) >= 1000)
    return f", p{best} {statistics.quantiles(samples, n=100)[best - 1]:.6g}"


def end_to_end(workload, passes: list[Pass], setup: list[float]):
    wall = [p.seconds for p in passes]
    cold = [sum(t for k, t in p.calls if k == "cold") for p in passes if any(k == "cold" for k, _ in p.calls)]
    repeats = getattr(workload, "warm_repeats", 1)
    warm = [
        sum(t for k, t in p.calls if k == "warm") / repeats
        for p in passes
        if any(k == "warm" for k, _ in p.calls)
    ]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"wall_s": wall, "setup_s": setup, "cold_s": cold, "warm_s": warm}
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    notes = [
        f"{name} median {statistics.median(v):.6g} s over {len(v)} samples{tail(v)}"
        for name, v in samples.items()
    ]
    notes.append(f"peak_rss_mb {rss:.6g} MB (one process)")
    order = ("wall_s", "setup_s", "peak_rss_mb", "cold_s", "warm_s")
    return {k: metrics[k] for k in order}, notes, samples


def per_layer(tracer, passes: list[Pass], span_cost: float):
    from tracing import layer_totals

    by_phase: dict[object, list] = {}
    for span in tracer.spans:
        by_phase.setdefault(span.phase, []).append(span)
    setup_totals = layer_totals(by_phase.get("setup", []))
    rows = []
    for index, record in enumerate(passes):
        totals = layer_totals(by_phase.get(index, []))
        totals.update(record.counters)
        totals["linalg.certified_yield"] = totals["certified"] / max(totals["rank_calls"], 1)
        totals["process.cpu_s"] = record.cpu_s
        totals["pass_s"] = record.seconds
        totals["trace.coverage_pct"] = 100.0 * totals["root_s"] / record.seconds
        totals["trace.overhead_pct"] = 100.0 * totals["spans"] * span_cost / record.seconds
        rows.append(totals)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        value = statistics.median(row.get(name, 0) for row in rows)
        if name == "subspaces.canon_s":
            value += setup_totals[name]
        metrics[name] = {"value": value, "unit": unit}
    notes = [f"per-layer values are medians over {len(passes)} traced passes"]
    notes.append(f"span cost {span_cost * 1e6:.3g} us (wrapped no-op against a bare one)")
    return metrics, notes, rows


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "revision": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "koszul", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/koszul is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from checks import FAILED, WRONG

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup: list[float] = []
        between = None
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        else:
            setup += measure_setup(args.workload, args.seed, SETUP_FIRST)

            def between():
                setup.extend(measure_setup(args.workload, args.seed, SETUP_PER_PASS))
        try:
            inputs = workload.build(args.seed)
            import koszul

            if os.path.dirname(os.path.dirname(os.path.abspath(koszul.__file__))) != SRC:
                raise RuntimeError(f"imported koszul from {koszul.__file__}, not from {SRC}")
            passes = run_passes(workload, inputs, deadline, workdir, tracer, between)
        finally:
            if tracer is not None:
                tracer.remove()
        if tracer is None:
            metrics, notes, samples = end_to_end(workload, passes, setup)
            detail = {"samples": samples}
        else:
            metrics, notes, rows = per_layer(tracer, passes, tracer.span_cost_s())
            detail = {"pass_rows": rows}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    statuses = [s for p in passes for _, outcome in p.labels for s in outcome]
    result = {
        "correct": WRONG not in statuses,
        "attempted": len(statuses),
        "failed": statuses.count(FAILED),
        "metrics": metrics,
    }
    calls = {}
    for p in passes:
        for label, outcome in p.labels:
            calls.setdefault(label, set()).update(outcome)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(passes),
        "calls": {label: sorted(s) for label, s in calls.items()},
        "notes": notes,
        **detail,
        "result": result,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    print(f"perfbench {args.workload} seed {args.seed}: {len(passes)} passes")
    for label, outcome in record["calls"].items():
        print(f"  {label}: {', '.join(outcome)}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
