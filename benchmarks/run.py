"""epicoord benchmark: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload ladder-large --seed 1 --seconds 36 --trace 0

A closed loop with one client: each op starts when the previous one ends,
for --seconds seconds (and at least enough ops for the digest).  The
package sees only the objects generated from --seed.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 every op is traced from
outside, span by span, and the run reports per-layer metrics over the first
`trace_ops` ops of the workload (a fixed set, so every count repeats).
The last line of standard output is one JSON object; the lines before it
repeat the figures for a reader.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from tracing import NullTracer, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up (fresh import of the package plus input generation) is repeated
# SETUP_REPS times before the timed loop and again after the checks, and the
# median is reported, so neither one cold import nor a slow spell of a
# shared machine at start-up decides setup_s.
SETUP_REPS = 3
DIGEST_OPS = 12
# The speed of a shared machine drifts by tens of percent within seconds, so
# every timed interval is bracketed by a calibration sample (a fixed
# pure-Python workload) and scaled to a machine on which one sample takes
# CALIBRATION_S seconds.  Raw figures are printed beside the calibrated ones.
CALIBRATION_S = 0.003
CALIBRATION_UNITS = 4

LAYER_CALLS = (
    "worldmodel.enumerate_states",
    "worldmodel.build_information_partition",
    "epistemic.evident_ladder",
    "epistemic.common_p_belief",
    "strategies.iterated_maximization_prob",
    "strategies.iterated_matching",
    "strategies.cognitive_strategy",
    "strategies.pair_heuristic",
    "game.verify_equilibrium",
    "experiments.compare_models",
    "experiments.human_agent_sweep",
    "oracle.brute_force_common_p_belief",
    "cli.compare",
    "cli.sweep",
)
MODULES = ("worldmodel", "epistemic", "strategies", "game", "experiments", "oracle", "cli")
WORK_COUNTS = (
    "worldmodel.assignments_tried",
    "worldmodel.states_kept",
    "epistemic.rungs",
    "epistemic.blocks",
    "oracle.events_scanned",
    "game.verify.pass",
    "game.verify.fail",
    "game.verify.na",
)


def _reference_unit():
    # The interpreter work the package does: Fraction arithmetic, frozenset
    # algebra and dict lookups keyed on frozensets.
    total = Fraction(0)
    seen: dict = {}
    evens = frozenset(range(0, 60, 2))
    thirds = frozenset(range(0, 60, 3))
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        key = (evens & thirds) | frozenset((i,))
        seen[key] = seen.get(key, 0) + len(key)
    return total


def calibration_sample() -> float:
    """Seconds for the fixed reference workload, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_UNITS):
            _reference_unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def fresh_import():
    for name in [m for m in sys.modules if m == "epicoord" or m.startswith("epicoord.")]:
        del sys.modules[name]
    return importlib.import_module("epicoord")


def setup(cls, seed: int, workdir: str, reps: int):
    """Import the package afresh and build the input pool, `reps` times.

    The collector is paused meanwhile: it would otherwise rescan the growing
    pool, a cost of generating every input up front, not of the package.
    """
    times = []
    workload = None
    gc.disable()
    try:
        before = calibration_sample()
        for _ in range(reps):
            workload = None
            start = time.perf_counter()
            workload = cls(fresh_import(), seed, workdir)
            elapsed = time.perf_counter() - start
            after = calibration_sample()
            times.append((elapsed, 2 * CALIBRATION_S / (before + after)))
            before = after
    finally:
        gc.enable()
    return workload, times


def run_ops(workload, seconds: float, min_ops: int, tracer):
    """The timed closed loop.  Returns results, errors, per-op (latency,
    calibration scale) pairs and the ladder cache's statistics after op
    `min_ops`."""
    null = NullTracer()
    results, errors, latencies = {}, {}, []
    cache_info = getattr(workload.ep.evident_ladder, "cache_info", None)
    cache = None
    deadline = time.perf_counter() + seconds
    before = calibration_sample()
    index = 0
    while index < len(workload) and (index < min_ops or time.perf_counter() < deadline):
        op_start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op = index
                results[index] = tracer.call("bench.op", workload.op, index, tracer)
            else:
                results[index] = workload.op(index, null)
        except Exception:
            errors[index] = traceback.format_exc()
        latency = time.perf_counter() - op_start
        after = calibration_sample()
        latencies.append((latency, 2 * CALIBRATION_S / (before + after)))
        before = after
        index += 1
        if index == min_ops and cache_info is not None:
            cache = cache_info()
    return results, errors, latencies, cache


def nearest_rank(values, percentile: float) -> tuple[float, int]:
    """The value at `percentile` and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def digest(workload, results, errors) -> str:
    h = hashlib.sha256()
    for index in range(DIGEST_OPS):
        lines = ["error"] if index in errors else workload.answers(index, results[index])
        for line in lines:
            h.update(f"{index}: {line}\n".encode())
    return h.hexdigest()[:16]


def end_to_end(workload, setup_times, latencies, correct, peak_rss_kib):
    raw = [latency for latency, _ in latencies]
    calibrated = [latency * scale for latency, scale in latencies]
    setup_s = statistics.median(elapsed * scale for elapsed, scale in setup_times)
    tail, beyond = nearest_rank(calibrated, workload.tail_percentile)
    raw_tail, _ = nearest_rank(raw, workload.tail_percentile)
    notes = [
        f"op_tail_ms is p{workload.tail_percentile:g} of {len(calibrated)} ops, {beyond} beyond it",
        f"error_rate {(len(calibrated) - correct) / len(calibrated):.6g}",
        f"raw: setup_s {statistics.median(e for e, _ in setup_times):.6g} ops_per_s {correct / sum(raw):.6g} "
        f"op_p50_ms {statistics.median(raw) * 1e3:.6g} op_tail_ms {raw_tail * 1e3:.6g}; "
        f"mean calibration scale {statistics.fmean(s for _, s in latencies):.4f}",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (correct / sum(calibrated), "1/s"),
        "op_p50_ms": (statistics.median(calibrated) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "success_rate": (correct / len(calibrated), "ratio"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }
    return metrics, notes


def per_layer(workload, tracer, results, cache, check_s):
    limit = workload.trace_ops
    bookkeeping = sum(tracer.bookkeeping[op] for op in range(limit))
    totals = tracer.totals(limit)
    op_self = totals.get("bench.op", (0, 0.0))[1]
    op_time = sum(s.end - s.start for s in tracer.spans if s.name == "bench.op" and s.op < limit)
    metrics = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name in LAYER_CALLS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        module_self[name.split(".")[0]] += self_s
    for module in MODULES:
        metrics[f"{module}.share"] = (module_self[module] / op_time if op_time else 0.0, "ratio")
    counts = dict.fromkeys(WORK_COUNTS, 0)
    for index in range(limit):
        if index not in results:
            continue
        for key, value in workload.counts(index, results[index]).items():
            counts[key] += value
    for key in WORK_COUNTS:
        metrics[key] = (counts[key], "count")
    tried = counts["worldmodel.assignments_tried"]
    metrics["worldmodel.kept_ratio"] = (counts["worldmodel.states_kept"] / tried if tried else 0.0, "ratio")
    queries, query_s = totals.get("epistemic.common_p_belief", (0, 0.0))
    metrics["epistemic.query_us"] = (query_s / queries * 1e6 if queries else 0.0, "us")
    hits, misses, _, currsize = cache if cache is not None else (0, 0, None, 0)
    metrics["epistemic.ladder_cache.hits"] = (hits, "count")
    metrics["epistemic.ladder_cache.misses"] = (misses, "count")
    metrics["epistemic.ladder_cache.currsize"] = (currsize, "count")
    # Traced ops/s over untraced ops/s, from the tracer's measured bookkeeping time.
    metrics["bench.trace_overhead"] = ((op_time - bookkeeping) / op_time if op_time else 1.0, "ratio")
    metrics["bench.traced_op_s"] = (op_time, "s")
    metrics["bench.glue_share"] = (op_self / op_time if op_time else 0.0, "ratio")
    metrics["bench.check_s"] = (check_s, "s")
    return metrics


def write_spans(tracer, workload_name: str, seed: int) -> str:
    directory = os.path.join(ROOT, ".bench-traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload_name}-seed{seed}.jsonl")
    with open(path, "w") as handle:
        for span_id, span in enumerate(tracer.spans):
            handle.write(
                json.dumps(
                    {"id": span_id, "name": span.name, "start": span.start, "end": span.end,
                     "parent": span.parent, "op": span.op}
                )
                + "\n"
            )
    return path


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epicoord", "__init__.py")):
        print(f"benchmark: no epicoord sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    min_ops = cls.trace_ops if args.trace else DIGEST_OPS

    with tempfile.TemporaryDirectory(prefix=".epicoord-bench-", dir=ROOT) as workdir:
        # An untimed first set-up compiles the package and grows the heap
        # once, so the timed ones before the loop compare with those after it.
        setup(cls, args.seed, workdir, 1)
        workload, setup_times = setup(cls, args.seed, workdir, SETUP_REPS)
        # The input pool lives for the whole run; freezing it keeps the
        # collector from rescanning it, which a program fed one input at a
        # time would not pay.
        gc.collect()
        gc.freeze()
        first_op = time.perf_counter() - process_start
        results, errors, latencies, cache = run_ops(workload, args.seconds, min_ops, tracer)
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_start = time.perf_counter()
        problems = workload.check(results, random.Random(f"check-{args.seed}"))
        check_s = time.perf_counter() - check_start
        if tracer is None:
            gc.unfreeze()
            setup_times += setup(cls, args.seed, workdir, SETUP_REPS)[1]

    failed = set(errors) | {index for index, found in problems.items() if found}
    for index in sorted(failed):
        detail = errors.get(index) or "; ".join(problems[index])
        print(f"op {index} failed: {detail}", file=sys.stderr)
    attempted = len(latencies)
    correct = attempted - len(failed)
    notes = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {len(failed)} failed",
        f"digest {digest(workload, results, errors)} over ops 0..{DIGEST_OPS - 1}",
        "setup reps " + " ".join(f"{t:.4f}" for t, _ in setup_times) + f" s; process start to first op {first_op:.4f} s",
        f"check {check_s:.3f} s",
    ]
    if tracer is None:
        metrics, more = end_to_end(workload, setup_times, latencies, correct, peak_rss_kib)
        notes += more
    else:
        metrics = per_layer(workload, tracer, results, cache, check_s)
        notes.append(f"spans written to {os.path.relpath(write_spans(tracer, args.workload, args.seed), ROOT)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
