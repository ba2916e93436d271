"""One workload, in a process of its own (``python -m e2e.worker``).

``run.py`` starts this module once per measurement so that every
workload gets a fresh interpreter: its peak RSS is its own, and nothing
one workload cached is there for the next. The result is one JSON
document on the last line of standard output, after ``RESULT_MARK``.

Untraced runs produce the end-to-end samples. Traced runs alternate an
untraced and a traced iteration (so the tracing overhead is measured in
the same process, on the same inputs), derive the layer ledger from the
spans, and finish with the micro-timings.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

_IMPORT_START = time.perf_counter()
from e2e import hostspeed, layers, micro, workloads  # noqa: E402
from e2e.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RESULT_MARK,
    applies,
    summarize,
    tail,
)
from e2e.trace import Tracer  # noqa: E402
IMPORT_S = time.perf_counter() - _IMPORT_START

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(HERE, "out")


@dataclass
class Iteration:
    """What one closed-loop iteration produced. ``wall`` is scaled to
    the reference host speed; ``raw_wall`` is what the clock said."""

    wall: float = 0.0
    raw_wall: float = 0.0
    host_speed: float = 1.0
    build_s: float = 0.0
    attempted: int = 1  # an iteration that raises is one failed operation
    failed: int = 1
    golden: dict = None
    work: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def run_iteration(workload, tracer=None, iterate=None):
    """Fresh platform, collect garbage, time the workload, check it;
    returns ``(record, context)``.

    An exception anywhere is one failed operation, not a crashed
    benchmark: the failure is what gets reported.
    """
    iterate = iterate or workload.iterate
    record, context = Iteration(), None
    try:
        start = time.perf_counter()
        context = workload.context()
        record.build_s = time.perf_counter() - start
        gc.collect()
        probe = hostspeed.probe()
        start = time.perf_counter()
        outputs, events = iterate(context, tracer)
        record.raw_wall = time.perf_counter() - start
        record.host_speed = hostspeed.index(probe, hostspeed.probe())
        record.wall = record.raw_wall / record.host_speed
        record.attempted, record.failed = workload.check(outputs)
        record.golden = workload.golden(context, outputs)
        record.work = workload.work(context, outputs)
        record.ops = [latency / record.host_speed
                      for latency in workload.op_latencies(events)]
    except Exception:  # noqa: BLE001 - counted and reported as a failure
        traceback.print_exc()
    return record, context


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.seed0.json")


def golden_drift(records, reference):
    """Entries of *reference* that any iteration reports differently (a
    stat the program has since added is not drift; one that changed or
    vanished is)."""
    missing = object()
    drifted = set()
    for record in records:
        observed = record.golden or {}
        drifted.update(name for name, value in reference.items()
                       if observed.get(name, missing) != value)
    return sorted(drifted)


#: per-second metric -> (count of work it divides by the wall time, scale)
RATES = {
    "sim_mips": ("gpu_instrs", 1e-6),
    "jobs_per_s": ("jobs", 1.0),
    "guest_mips": ("guest_instrs", 1e-6),
    "copy_mb_per_s": ("bytes", 1e-6),
    "frames_per_s": ("frames", 1.0),
    "cases_per_s": ("cases", 1.0),
}


def end_to_end(workload, good):
    """Every end-to-end metric this workload defines, with its spread,
    from the iterations that ran to completion."""
    out = {"wall_s": summarize([r.wall for r in good], "s")}
    for metric, (key, scale) in RATES.items():
        if applies(metric, workload.name):
            out[metric] = summarize(
                [scale * r.work[key] / r.wall for r in good],
                END_TO_END[metric][0])
    ops = [1e3 * op for record in good for op in record.ops]
    if ops:
        out["op_p50_ms"] = summarize(ops, "ms")
        percentile, value = tail(ops) or (100.0, max(ops))
        out["op_tail_ms"] = {"value": value, "unit": "ms", "n": len(ops),
                             "percentile": percentile}
    usage = max(resource.getrusage(who).ru_maxrss for who in
                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["peak_rss_mb"] = summarize([usage / 1024.0], "MB")
    return out


def measure(workload, seconds, min_iterations):
    """Untraced closed loop: one warm-up, then iterations until the
    time is up. Returns ``(warm-up record, timed records)``."""
    warmup, _ = run_iteration(workload)
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_iterations or time.perf_counter() < deadline:
        records.append(run_iteration(workload)[0])
    return warmup, records


def measure_traced(workload, seconds, smoke):
    """Alternate untraced and traced iterations, then build the ledger
    and run the micro-timings."""
    # farm workers are other processes, whose spans never come back;
    # executing the same cases in this process (same report, byte for
    # byte) shows which layers the campaign's simulation time goes to
    iterate = workload.iterate_inprocess
    warmup, _ = run_iteration(workload)
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + 0.6 * seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_iteration(workload, iterate=iterate)[0])
        tracer.iteration = len(traced)
        with tracer:
            record, context = run_iteration(workload, tracer, iterate)
        traced.append(record)

    registry = (context.platform.stats_registry.snapshot()
                if context is not None else None)
    out = dict.fromkeys(PER_LAYER, 0)
    out.update(layers.ledger(
        tracer, [record.raw_wall for record in traced], registry))
    plain_wall = statistics.median(record.wall for record in plain)
    if plain_wall > 0:
        out["trace.overhead_frac"] = statistics.median(
            record.wall for record in traced) / plain_wall - 1.0
    out["core.platform.import_s"] = IMPORT_S
    out["core.platform.build_s"] = statistics.median(
        record.build_s for record in plain + traced)
    out["kernels.prepare_s"] = workload.prepare_s
    out["kernels.reference_s"] = workload.reference_s
    if iterate is not None:
        out["validate.farm.cases"] = len(workload.cases)
        out["validate.farm.inproc_s"] = statistics.median(
            record.raw_wall for record in plain)
    os.makedirs(OUT_DIR, exist_ok=True)
    out.update(micro.run(workload, context, OUT_DIR, smoke))
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                 {"workload": workload.name, "seed": workload.seed,
                  "iterations": len(traced)})
    return warmup, plain + traced, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the first usable context, print the "
                             "wall-clock time it was ready, and exit")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.smoke)
    if args.probe_setup:
        workload.context()
        print(RESULT_MARK + json.dumps({"ready_at": time.time()}))
        return 0

    min_iterations = 2 if args.smoke else 3
    per_layer = None
    if args.traced:
        warmup, records, per_layer = measure_traced(
            workload, args.seconds, args.smoke)
    else:
        warmup, records = measure(workload, args.seconds, min_iterations)

    pinned = args.seed == 0 and not args.smoke
    if args.update_golden and pinned and warmup.golden is not None:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path(args.workload), "w") as handle:
            json.dump(warmup.golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if pinned and os.path.exists(golden_path(args.workload)):
        with open(golden_path(args.workload)) as handle:
            reference = json.load(handle)
    else:
        # no pinned expectation for this seed or size: every iteration
        # must still agree with the first one
        reference = warmup.golden or {}
    drifted = golden_drift([warmup] + records, reference)

    attempted = sum(record.attempted for record in records)
    failed = sum(record.failed for record in records)
    result = {
        "workload": args.workload, "seed": args.seed,
        "traced": args.traced, "smoke": args.smoke,
        "sizes": workload.sizes, "iterations": len(records),
        "attempted": attempted, "failed": failed,
        "golden_drift": len(drifted), "drifted": drifted[:8],
    }
    good = [record for record in records if record.wall > 0]
    if good and not args.traced:
        result["end_to_end"] = end_to_end(workload, good)
        result["host"] = {
            "wall_raw_s": summarize([r.raw_wall for r in good], "s"),
            "host_speed": summarize([r.host_speed for r in good], "ratio"),
        }
    if per_layer is not None:
        result["per_layer"] = per_layer
    print(RESULT_MARK + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
