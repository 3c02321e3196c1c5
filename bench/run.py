"""Benchmark for sightpath: one workload, one seed, one closed-loop caller.

Usage, from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 15 --trace 0

A single caller in a single process runs ops back to back, each starting when
the previous one returned.  With ``--trace 0`` it sets up the workload's inputs
several times, runs ops for ``--seconds`` seconds, checks every op's output and
prints the end-to-end metrics.  With ``--trace 1`` it replays the workload's
fixed list of traced ops traced, untraced and traced again, checks the outputs
and that every count repeats exactly, and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibration import NOMINAL_S, Calibration  # noqa: E402
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
SLICE_S = 0.5
NOTES = {"oracle.worlds_enumerated": " (computed: 2^|E| per candidate_values call)"}
OUT_DIR = ROOT / ".bench_out"

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p95", "ms"),
    ("peak_rss_mb", "MB"),
]


def import_program():
    """Import sightpath afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "sightpath" or m.startswith("sightpath.")]:
        del sys.modules[name]
    return argparse.Namespace(**{
        name: importlib.import_module(f"sightpath.{name}")
        for name in ("approx", "cli", "exact", "generate", "io", "model", "oracle", "sim")
    })


def settle() -> None:
    """Collect the set-up's garbage and exempt what survives from later
    collections, so that the inputs' size does not set the cost of the
    collections that run during ops."""
    gc.collect()
    gc.freeze()


def run_ops(op, stop, first: int = 0):
    """Run op ``first``, ``first + 1``, ... until ``stop(ops run, seconds
    elapsed)`` holds.

    Returns each op's (seconds, output, error) and the loop's wall time.  An
    op that raises is recorded with its error and the loop goes on.
    """
    results = []
    clock = time.perf_counter
    begin = clock()
    while not stop(len(results), clock() - begin):
        i = first + len(results)
        start = clock()
        try:
            output, error = op(i), None
        except Exception as exc:  # a failed op is counted, never fatal
            output, error = None, f"op {i} raised {type(exc).__name__}: {exc}"
        results.append((clock() - start, output, error))
    return results, clock() - begin


def check_ops(workload, results) -> tuple[list[str], dict]:
    """Check each op's output; returns the failures and the good outputs by op index."""
    failures, good = [], {}
    for i, (_, output, error) in enumerate(results):
        if error is None:
            try:
                error = workload.check(i, output)
            except Exception as exc:
                error = f"op {i}: checking raised {type(exc).__name__}: {exc}"
        if error is None:
            good[i] = output
        else:
            failures.append(error)
    return failures, good


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_ops(op, seconds: float, calibration: Calibration):
    """Run ops for ``seconds`` of op time, in slices of about SLICE_S seconds,
    with a calibration round before the first slice and after every slice.

    Returns each op's (seconds, output, error) and each slice's (ops, seconds,
    slowness).
    """
    results, slices = [], []
    before = calibration.round()
    while sum(took for _, took, _ in slices) < seconds:
        ran, took = run_ops(op, lambda n, elapsed: elapsed >= SLICE_S, first=len(results))
        after = calibration.round()
        results += ran
        slices.append((len(ran), took, calibration.slowness(before, after)))
        before = after
    return results, slices


def timed_run(workload, seed: int, seconds: float, workdir: Path, lines: list[str]):
    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibration.round()
        begin = time.perf_counter()
        problems = workload.setup(import_program(), seed, workdir)
        took = time.perf_counter() - begin
        setups.append((took, calibration.slowness(before, calibration.round())))
    settle()
    results, slices = timed_ops(workload.op, seconds, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, good = check_ops(workload, results)
    problems += workload.finish(good)

    op_slowness = [slow for count, _, slow in slices for _ in range(count)]
    times = sorted(took / slow * 1000 for (took, _, _), slow in zip(results, op_slowness))
    p95, above = percentile(times, 0.95)
    unscaled = sum(took for _, took, _ in slices)
    metrics = {
        "setup_s": statistics.median(took / slow for took, slow in setups),
        "ops_per_s": len(results) / sum(took / slow for _, took, slow in slices),
        "op_ms.p50": statistics.median(times),
        "op_ms.p95": p95,
        "peak_rss_mb": peak_rss_mb,
    }
    slowness = [slow for _, _, slow in slices]
    lines += [
        "set-ups (import, generation, io round trip): "
        + ", ".join(f"{took:.4f} s at slowness {slow:.3f}" for took, slow in setups),
        f"ops: {len(results)} in {len(slices)} slices, {unscaled:.3f} s unscaled,"
        f" {len(results) / unscaled:.6g} ops/s unscaled; {len(times)} op_ms samples, {above} above p95",
        f"host slowness (calibration round / {NOMINAL_S} s): median {statistics.median(slowness):.3f},"
        f" min {min(slowness):.3f}, max {max(slowness):.3f}",
        f"fail_ratio = {len(failures) / len(results):.6g} ({len(failures)} of {len(results)} ops failed)",
    ]
    return metrics, len(results), failures, problems


def traced_run(workload, seed: int, workdir: Path, lines: list[str]):
    sp = import_program()
    setup = Tracer(sp)
    with setup:
        problems = workload.setup(sp, seed, workdir)
    settle()
    count = workload.traced_ops
    fixed = lambda i, elapsed: i >= count  # noqa: E731

    calibration = Calibration()

    def scaled_pass(tracer=None):
        """Run the fixed ops, traced if a tracer is given; returns the results
        and the wall time scaled to the reference host."""
        before = calibration.round()
        if tracer is None:
            results, wall = run_ops(workload.op, fixed)
        else:
            with tracer:
                results, wall = run_ops(lambda i: tracer.run_op(workload.op, i), fixed)
        return results, wall / calibration.slowness(before, calibration.round())

    # the first pass also warms the instances' cached lookups, so the overhead
    # ratio and the reported times come from the two passes after it
    first, second = Tracer(sp), Tracer(sp)
    first_results, first_wall = scaled_pass(first)
    plain_results, plain_wall = scaled_pass()
    second_results, second_wall = scaled_pass(second)
    failures = []
    for results in (first_results, plain_results, second_results):
        failures += check_ops(workload, results)[0]
    overhead = second_wall / plain_wall
    earlier = layer_metrics(setup, first, overhead)
    metrics = layer_metrics(setup, second, overhead)
    problems += [
        f"count {name} did not repeat: {earlier[name]} then {metrics[name]}"
        for name in COUNT_METRICS
        if metrics[name] != earlier[name]
    ]
    stem = f"spans-{workload.name}-{seed}"
    setup.write(OUT_DIR / f"{stem}-setup.tsv")
    second.write(OUT_DIR / f"{stem}-ops.tsv")
    lines += [
        f"traced ops: {count}, run traced ({first_wall:.3f} s), untraced ({plain_wall:.3f} s)"
        f" and traced again ({second_wall:.3f} s), times scaled by calibration",
        f"spans: {len(setup.spans)} set-up, {len(second.spans)} ops,"
        f" written to {OUT_DIR.name}/{stem}-setup.tsv and -ops.tsv",
        f"fail_ratio = {len(failures) / (3 * count):.6g} ({len(failures)} of {3 * count} ops failed)",
    ]
    return metrics, 3 * count, failures, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    lines = [
        f"workload {workload.name}: {workload.why}",
        f"seed {args.seed}, python {platform.python_version()}, nproc {os.cpu_count()},"
        " closed loop: one caller, one process, no threads",
        f"inputs: GeneratorConfig({', '.join(f'{k}={v}' for k, v in workload.config.items())},"
        f" seed={args.seed}), {workload.selection}; pool {workload.pool}, op i uses instance i % pool",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        if args.trace:
            metrics, attempted, failures, problems = traced_run(workload, args.seed, Path(work), lines)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            metrics, attempted, failures, problems = timed_run(
                workload, args.seed, args.seconds, Path(work), lines
            )
            units = dict(END_TO_END)
    lines.append("shape: " + ", ".join(f"{k} {v}" for k, v in workload.shape().items()))
    lines += [f"{name} = {value:.6g} {units[name]}{NOTES.get(name, '')}" for name, value in metrics.items()]
    lines += [f"FAILED {failure}" for failure in failures[:10]]
    lines += [f"PROBLEM {problem}" for problem in problems]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
