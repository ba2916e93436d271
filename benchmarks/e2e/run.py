"""The system benchmark: six workloads, host-speed end-to-end metrics
and an outside-in layer ledger.

    python benchmarks/e2e/run.py [--seed N] [--traced]

runs every workload, each in a fresh subprocess, prints every metric by
name with its unit, checks the outputs against the NumPy oracle and the
pinned golden statistics, writes ``benchmarks/e2e/out/result-*.json``
and exits non-zero if anything failed or drifted. Compare two result
files with ``compare.py``.

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is the single-measurement form ``BENCHMARK.json`` names: it prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).

This process only orchestrates and never imports the simulator; all
simulation happens in ``worker.py`` children, one at a time. Times are
reported at a reference host speed (see ``hostspeed.py``).
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if HERE in sys.path:
    sys.path.remove(HERE)  # trace.py must not shadow the stdlib module
sys.path.insert(0, os.path.dirname(HERE))

from e2e import hostspeed, metrics  # noqa: E402
from e2e.metrics import RESULT_MARK  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def worker(arguments):
    """Run one ``e2e.worker`` child to completion; returns its result
    document. The child imports the simulator from this checkout's
    ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no simulator source under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(HERE), SRC])
    # a session of its own, so that a worker that overruns is killed
    # together with any farm processes it has started
    child = subprocess.Popen(
        [sys.executable, "-m", "e2e.worker"] + arguments,
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"worker {' '.join(arguments)} timed out")
    lines = [line for line in stdout.splitlines()
             if line.startswith(RESULT_MARK)]
    if child.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(arguments)} failed "
                         f"(exit {child.returncode})")
    return json.loads(lines[-1][len(RESULT_MARK):])


def measure_setup(name, seed, smoke):
    """Seconds from starting a fresh interpreter to the first usable
    context (import, input generation, platform bring-up), several times
    over: a one-off start-up reading is mostly page-cache luck. Scaled
    to the reference host speed like every other time."""
    samples = []
    base = ["--workload", name, "--seed", str(seed), "--probe-setup"]
    for _ in range(1 if smoke else SETUP_PROBES):
        probe = hostspeed.probe()
        started = time.time()
        ready = worker(base + (["--smoke"] if smoke else []))["ready_at"]
        samples.append((ready - started)
                       / hostspeed.index(probe, hostspeed.probe()))
    return metrics.summarize(samples, "s")


def run_workload(name, seed, seconds, traced, smoke=False,
                 update_golden=False):
    """One measurement of one workload: its worker's result document,
    plus ``setup_s`` for untraced runs."""
    arguments = ["--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds)]
    arguments += ["--traced"] if traced else []
    arguments += ["--smoke"] if smoke else []
    arguments += ["--update-golden"] if update_golden else []
    result = worker(arguments)
    if not traced and "end_to_end" in result:
        result["end_to_end"]["setup_s"] = measure_setup(name, seed, smoke)
    failed_frac = result["failed"] / max(1, result["attempted"])
    result.setdefault("end_to_end", {}).update({
        "failed_frac": {"value": failed_frac, "unit": "frac",
                        "n": result["attempted"]},
        "golden_drift": {"value": result["golden_drift"], "unit": "count",
                         "n": result["iterations"]},
    })
    result["correct"] = (result["attempted"] > 0 and result["failed"] == 0
                         and result["golden_drift"] == 0)
    return result


def host_metadata(seed):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "machine": platform.machine(),
        "git_commit": commit, "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def print_metrics(name, result):
    for group in ("end_to_end", "host", "per_layer"):
        for metric, record in sorted(result.get(group, {}).items()):
            if group == "per_layer":
                record = {"value": record,
                          "unit": metrics.PER_LAYER[metric][0]}
            spread = ""
            if "q1" in record and record["n"] > 1:
                spread = (f"  [n={record['n']} q1={record['q1']:.6g} "
                          f"q3={record['q3']:.6g}]")
            elif "percentile" in record:
                spread = (f"  [p{record['percentile']:.1f} of "
                          f"n={record['n']}]")
            print(f"{name:12s} {metric:36s} {record['value']:14.6g} "
                  f"{record['unit']}{spread}")


def contract_line(result, traced):
    """The last line of a single measurement, in the driver's format."""
    if traced:
        chosen = {metric: {"value": result["per_layer"][metric],
                           "unit": unit}
                  for metric, (unit, _better) in metrics.PER_LAYER.items()}
    else:
        chosen = {metric: {"value": result["end_to_end"][metric]["value"],
                           "unit": metrics.END_TO_END[metric][0]}
                  for metric in metrics.DRIVER_GATED}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": chosen})


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS),
                        help="measure one workload and end with the "
                             "driver's JSON line (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of each workload's measuring loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads form: add a traced run of each")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.seed0.json from "
                             "this run (seed 0, full sizes only)")
    parser.add_argument("--output", help="result file (all-workloads form)")
    args = parser.parse_args(argv)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke,
                              args.update_golden)
        print_metrics(args.workload, result)
        if not result["correct"]:
            print(f"{args.workload}: failed={result['failed']} "
                  f"golden_drift={result['golden_drift']} "
                  f"{result['drifted']}", file=sys.stderr)
        print(contract_line(result, bool(args.trace)))
        return 0 if result["correct"] else 1

    document = {"host": host_metadata(args.seed), "smoke": args.smoke,
                "seconds": args.seconds, "workloads": {}}
    for name in metrics.WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, False,
                              args.smoke, args.update_golden)
        if args.traced:
            traced = run_workload(name, args.seed, args.seconds, True,
                                  args.smoke)
            result["per_layer"] = traced["per_layer"]
            result["correct"] = result["correct"] and traced["correct"]
        document["workloads"][name] = result
        print_metrics(name, result)
    os.makedirs(OUT_DIR, exist_ok=True)
    output = args.output or os.path.join(
        OUT_DIR, time.strftime("result-%Y%m%d-%H%M%S.json"))
    with open(output, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    bad = [name for name, result in document["workloads"].items()
           if not result["correct"]]
    if bad:
        print(f"FAILED (failed_frac or golden_drift non-zero): {bad}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
