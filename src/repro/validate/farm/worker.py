"""Farm worker process: execute shards case by case, streaming results.

Each worker is a separate OS process. It pulls :class:`ShardTask`
messages from the shared task queue and, for every case, pushes a
``("start", ...)`` marker before execution and a ``("done", ...)``
outcome after — so when the manager has to kill a hung or crashed
worker, every already-completed case of the shard is preserved and
exactly the unfinished remainder is re-sharded.

Isolation contract: a **fresh platform per case**. All provider
``execute`` hooks build their own platform/context/registry from
scratch, so no ``StatsRegistry`` state, MMU, driver or injector survives
from one case to the next, and a case's outcome is identical whether it
runs first on worker 7 of 8 or alone in a sequential run. A case that
raises is an ``error`` verdict for that case only; the worker moves on.
Memory is part of the contract: a finished case's platform is a web of
reference cycles that only the cycle collector frees, so the worker
collects after every case (cheap: what the process was born with is
frozen out of the collector's sight first). A worker's peak footprint
is then its largest single case, not however many platforms the
collector's own schedule lets pile up — which depends on the order the
shards happened to be pulled in.

The optional *chaos* dict is the farm's own fault-injection hook (used
by the determinism and kill-recovery tests): ``{"kill_case": id}`` makes
the worker die with SIGKILL semantics (``os._exit``) immediately before
executing that case — only on the case's first attempt, so the retried
shard completes and the report must come out byte-identical to an
unkilled run.
"""

import gc
import os
from dataclasses import dataclass

#: outcome verdicts a worker can produce; the manager adds "timeout"
#: and "crash" for cases it had to adjudicate from the outside
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_ERROR = "error"


@dataclass(frozen=True)
class ShardTask:
    """One dispatch message: run these cases (in order)."""

    shard_id: str
    attempt: int
    cases: tuple      # case dicts: {"id", "kind", "spec", "seed"}


def artifact_dir_for(outdir, case_id):
    """The deterministic per-case artifact directory (not created here;
    providers create it only when they have something to write)."""
    from repro.validate.farm.providers import sanitize_case_id

    if outdir is None:
        return None
    return os.path.join(outdir, "artifacts", sanitize_case_id(case_id))


def execute_case(case, outdir):
    """Run one case on a fresh platform; returns the outcome dict that
    goes into the aggregate report (plain JSON-safe values only)."""
    from repro.validate.farm.providers import PROVIDERS

    provider = PROVIDERS[case["kind"]]
    try:
        ok, detail, counters, artifacts = provider.execute(
            case["spec"], artifact_dir_for(outdir, case["id"]))
        verdict = VERDICT_PASS if ok else VERDICT_FAIL
    except Exception as exc:  # noqa: BLE001 - isolate to this case
        verdict = VERDICT_ERROR
        detail = f"{type(exc).__name__}: {exc}"
        counters, artifacts = {}, []
    return {
        "id": case["id"],
        "kind": case["kind"],
        "verdict": verdict,
        "detail": detail,
        "counters": counters,
        "artifacts": sorted(artifacts),
    }


def worker_main(worker_index, task_queue, result_queue, outdir,
                chaos=None):
    """Worker process entry point (top-level so it survives spawn)."""
    chaos = chaos or {}
    gc.freeze()
    while True:
        task = task_queue.get()
        if task is None:
            result_queue.put(("bye", worker_index))
            return
        for case in task.cases:
            result_queue.put(("start", worker_index, task.shard_id,
                              task.attempt, case["id"]))
            if case["id"] == chaos.get("kill_case") and task.attempt == 0:
                # let the feeder thread finish writing "start" first: a
                # kill mid-write leaves a torn message in the pipe, and
                # the manager's reader stalls on it
                result_queue.close()
                result_queue.join_thread()
                os._exit(137)
            outcome = execute_case(case, outdir)
            result_queue.put(("done", worker_index, task.shard_id,
                              task.attempt, case["id"], outcome))
            gc.collect()
        result_queue.put(("shard_done", worker_index, task.shard_id,
                          task.attempt))
