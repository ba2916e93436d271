"""The campaign manager: multiprocess execution of a farm config.

Execution model (FireSim-style deploy layer, scaled to one host):

1. the config expands to the deterministic case list and shard plan
   (pure functions of the canonical config — see ``config``/``shard``);
2. N worker processes pull whole shards from a shared task queue and
   stream per-case results back (``worker.worker_main``);
3. the manager is the only stateful party: it records the first outcome
   per case, watches every worker's in-flight case against the config's
   ``timeout_s``, kills hung workers, adjudicates crashed/hung cases
   once their ``max_attempts`` are consumed, re-shards the unfinished
   remainder of a dead worker's shard (``shard.retry_shard``) and
   respawns replacement workers to hold capacity;
4. the surviving outcomes aggregate into the deterministic report
   (``report.build_report``) — byte-identical however many workers ran
   the plan and whether any of them had to be killed along the way.

``workers=0`` replaces steps 2 and 3 with the calling process executing
the plan itself, case by case: same expansion, plan, journal and report
(so the same bytes), no queues, no processes, nobody to police a
timeout. It is how the standalone campaign verbs (``faultcampaign``,
``tenants``, ``conformance --replay``) run a sweep.

Worker death inside the tiny window between dequeuing a task and
announcing it cannot be attributed to a shard; the manager guards the
whole run with a global progress deadline so even that pathological
case ends in a clean error instead of a silent hang.
"""

import importlib
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field

import multiprocessing as mp

from repro.errors import SimError
from repro.validate.farm.config import load_config
from repro.validate.farm.providers import expand_cases
from repro.validate.farm.report import (
    build_report,
    report_to_bytes,
    summary_lines,
)
from repro.validate.farm.shard import plan_shards, retry_shard
from repro.validate.farm.worker import ShardTask, execute_case, worker_main


#: seconds the manager waits on the result queue before it polices
#: timeouts and dead workers again
POLL_INTERVAL = 0.05

#: what a worker executes beyond the config load: the compiler and the
#: verifier's pass pipeline (every build), the validation modules the
#: conformance, corpus and selftest cases run, and the default engine.
#: ``run_farm`` imports them before it sets up its pool, so each forked
#: worker inherits them instead of importing its own copy, while a config
#: load, a plan or a ``workers=0`` run imports only what it uses. They
#: come first in ``run_farm``: the plan and the queues it then allocates
#: reuse the import's transient memory, which an import just at fork
#: time would leave resident on top of them (peak RSS ~0.4 MB higher on
#: the e2e farm_sweep).
WORKER_MODULES = (
    "repro.clc.compiler",
    "repro.gpu.verify.pipeline",
    "repro.gpu.megakernel",
    "repro.validate.trace",
    "repro.validate.runner",
    "repro.validate.progen",
    "repro.validate.minimize",
    "repro.validate.conformance",
)


class FarmError(SimError):
    """The farm itself failed (config, spawn, or global stall)."""


@dataclass
class FarmRun:
    """Everything a ``run_farm`` call produced."""

    report: dict
    report_bytes: bytes
    report_path: str = None
    run_info: dict = field(default_factory=dict)
    run_log: list = field(default_factory=list)

    @property
    def ok(self):
        return self.report["ok"]

    def summary(self):
        return "\n".join(summary_lines(self.report, self.run_info))


class _WorkerSlot:
    """Manager-side view of one worker process."""

    def __init__(self, index):
        self.index = index
        self.process = None
        self.task_key = None      # (shard_id, attempt) it announced
        self.case_id = None       # in-flight case
        self.case_started = None  # monotonic start of the in-flight case


def default_start_method():
    """``fork`` where the OS offers it (workers inherit the warm
    interpreter), else ``spawn``; either way every case still builds a
    fresh platform, so the isolation contract does not depend on this."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def run_farm(config, workers=2, outdir=None, chaos=None, progress=None,
             preloaded=None):
    """Execute a farm config; returns a :class:`FarmRun`.

    Args:
        config: a :class:`~repro.validate.farm.config.FarmConfig`, a
            config dict, or a JSON file path.
        workers: worker process count (the report does not depend on
            it); 0 executes every case in the calling process, without
            timeout policing (*chaos* does not apply). A pool declares
            the run stalled after ``timeout_s + 60`` seconds without
            any worker message.
        outdir: artifact/report directory (created); ``report.json``,
            per-case artifacts and the crash-resume journal
            (``resume/``) land here.
        chaos: farm self-test fault hook, e.g. ``{"kill_case": id}``
            (see ``worker.worker_main``).
        progress: optional callable receiving human log lines live.
        preloaded: case id -> outcome dict of already-settled cases
            (from a verified journal — see :func:`resume_farm`); those
            cases are not re-run, and the report is byte-identical to
            the run that would have produced them in one sitting.
    """
    from repro.validate.farm import journal

    if not hasattr(config, "config_hash"):
        config = load_config(config)
    if workers < 0:
        raise FarmError("worker count must be >= 0")
    if workers:
        for name in WORKER_MODULES:
            importlib.import_module(name)
    cases = expand_cases(config)
    case_by_id = {case["id"]: case for case in cases}
    shards = plan_shards([case["id"] for case in cases], config.shard_size)
    if preloaded:
        unknown = sorted(set(preloaded) - set(case_by_id))
        if unknown:
            raise FarmError(
                f"preloaded outcomes for unknown cases: {unknown[:4]}")
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        journal.init_journal(outdir, config)

    run_log = []
    run_info = {"workers": workers, "retries": 0, "kills": 0,
                "respawns": 0}

    def log(line):
        run_log.append(line)
        if progress is not None:
            progress(line)

    outcomes = {}                 # case id -> outcome dict (first wins)
    case_attempts = {}            # case id -> failed attempts consumed
    open_tasks = {}               # (shard_id, attempt) -> ShardTask

    if preloaded:
        outcomes.update(preloaded)
        log(f"resume: {len(preloaded)} of {len(cases)} outcomes "
            f"preloaded from the journal")

    def record(outcome):
        if outcome["id"] not in outcomes:
            outcomes[outcome["id"]] = outcome
            if outdir is not None:
                # journal before logging: once an outcome is visible it
                # is also durable, so a later kill cannot un-settle it
                journal.record_outcome(outdir, outcome)
            mark = outcome["verdict"]
            log(f"{mark:>7} {outcome['id']}"
                + (f" -- {outcome['detail']}" if mark != "pass"
                   and outcome["detail"] else ""))

    start = time.monotonic()

    def finish():
        run_info["elapsed"] = time.monotonic() - start
        report = build_report(config, outcomes, shards)
        raw = report_to_bytes(report)
        report_path = None
        if outdir is not None:
            from repro.checkpoint.format import atomic_write_bytes

            report_path = os.path.join(outdir, "report.json")
            atomic_write_bytes(report_path, raw)
            atomic_write_bytes(os.path.join(outdir, "run.log"),
                               ("\n".join(run_log) + "\n").encode("utf-8"))
        return FarmRun(report=report, report_bytes=raw,
                       report_path=report_path, run_info=dict(run_info),
                       run_log=run_log)

    if workers == 0:
        for case in cases:
            if case["id"] not in outcomes:
                record(execute_case(case, outdir))
        return finish()

    stall_limit = config.timeout_s + 60.0
    ctx = mp.get_context(default_start_method())
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()

    def enqueue(shard, attempt_tag=""):
        task = ShardTask(shard_id=shard.shard_id, attempt=shard.attempt,
                         cases=tuple(case_by_id[case_id]
                                     for case_id in shard.case_ids))
        open_tasks[(task.shard_id, task.attempt)] = task
        task_queue.put(task)
        if attempt_tag:
            log(f"requeue {task.shard_id} ({len(task.cases)} cases, "
                f"{attempt_tag})")

    for shard in shards:
        remaining = [case_id for case_id in shard.case_ids
                     if case_id not in outcomes]
        if not remaining:
            continue
        if len(remaining) == len(shard.case_ids):
            enqueue(shard)
        else:
            enqueue(retry_shard(shard, remaining))

    slots = [_WorkerSlot(index) for index in range(workers)]

    def spawn(slot):
        slot.process = ctx.Process(
            target=worker_main,
            args=(slot.index, task_queue, result_queue, outdir, chaos),
            daemon=True)
        slot.process.start()
        slot.task_key = None
        slot.case_id = None
        slot.case_started = None

    def adjudicate(case_id, verdict, detail):
        case = case_by_id[case_id]
        record({"id": case_id, "kind": case["kind"], "verdict": verdict,
                "detail": detail, "counters": {}, "artifacts": []})

    def handle_worker_failure(slot, cause):
        """A worker died (crash or timeout kill): keep its streamed
        results, re-shard the rest, respawn a replacement."""
        task = open_tasks.pop(slot.task_key, None)
        if task is not None:
            remaining = [case["id"] for case in task.cases
                         if case["id"] not in outcomes]
            victim = slot.case_id
            if victim is not None and victim in remaining:
                attempts = case_attempts.get(victim, 0) + 1
                case_attempts[victim] = attempts
                if attempts >= config.max_attempts:
                    remaining.remove(victim)
                    if cause == "timeout":
                        adjudicate(
                            victim, "timeout",
                            f"no result within the farm timeout "
                            f"({config.timeout_s:g}s per case, "
                            f"{config.max_attempts} attempts)")
                    else:
                        adjudicate(
                            victim, "crash",
                            f"worker process died executing this case "
                            f"({config.max_attempts} attempts)")
            if remaining:
                run_info["retries"] += 1
                retry = retry_shard(
                    _shard_for_task(task), remaining)
                enqueue(retry, attempt_tag=f"attempt {retry.attempt}")
        run_info["respawns"] += 1
        spawn(slot)

    def _shard_for_task(task):
        from repro.validate.farm.shard import Shard

        return Shard(shard_id=task.shard_id,
                     case_ids=tuple(case["id"] for case in task.cases),
                     attempt=task.attempt)

    last_message = start
    try:
        if len(outcomes) < len(cases):
            for slot in slots:
                spawn(slot)
        while len(outcomes) < len(cases):
            try:
                message = result_queue.get(timeout=POLL_INTERVAL)
            except queue_mod.Empty:
                message = None
            now = time.monotonic()
            if message is not None:
                last_message = now
                tag = message[0]
                if tag == "start":
                    _tag, widx, shard_id, attempt, case_id = message
                    slot = slots[widx]
                    slot.task_key = (shard_id, attempt)
                    slot.case_id = case_id
                    slot.case_started = now
                elif tag == "done":
                    _tag, widx, _shard_id, _attempt, case_id, outcome \
                        = message
                    slot = slots[widx]
                    record(outcome)
                    if slot.case_id == case_id:
                        slot.case_id = None
                        slot.case_started = None
                elif tag == "shard_done":
                    _tag, widx, shard_id, attempt = message
                    open_tasks.pop((shard_id, attempt), None)
                    slot = slots[widx]
                    slot.task_key = None
                    slot.case_id = None
                    slot.case_started = None

            # police timeouts and dead workers every tick (a hung worker
            # must be found even while its siblings stream results)
            for slot in slots:
                if slot.case_started is not None \
                        and now - slot.case_started > config.timeout_s \
                        and slot.process.is_alive():
                    run_info["kills"] += 1
                    log(f"kill worker {slot.index}: case "
                        f"{slot.case_id} over {config.timeout_s:g}s")
                    slot.process.kill()
                    slot.process.join(timeout=10.0)
                    handle_worker_failure(slot, "timeout")
                elif slot.process is not None \
                        and not slot.process.is_alive():
                    exitcode = slot.process.exitcode
                    if slot.task_key is not None:
                        log(f"worker {slot.index} died "
                            f"(exit {exitcode}) mid-shard")
                        handle_worker_failure(slot, "crash")
                    elif len(outcomes) < len(cases):
                        # died between tasks: hold capacity
                        run_info["respawns"] += 1
                        spawn(slot)
            if now - last_message > stall_limit:
                raise FarmError(
                    f"farm stalled: no worker progress for "
                    f"{stall_limit:g}s with "
                    f"{len(cases) - len(outcomes)} cases outstanding")
    finally:
        for slot in slots:
            task_queue.put(None)
        deadline = time.monotonic() + 10.0
        for slot in slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=max(0.1,
                                          deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=5.0)
        for q in (task_queue, result_queue):
            q.close()
            q.cancel_join_thread()
    return finish()


def resume_farm(outdir, workers=2, progress=None):
    """Finish an interrupted campaign from its on-disk journal.

    Loads and digest-verifies ``<outdir>/resume/`` (config + settled
    outcomes), runs only the cases with no journaled outcome, and
    rewrites ``report.json`` — byte-identical to the report a
    straight-through run of the same config produces. Raises
    :class:`~repro.errors.CheckpointError` if the journal is missing or
    corrupted (never a wrong-answer resume), :class:`FarmError` for
    farm-level failures during the remainder run.
    """
    from repro.validate.farm.journal import load_journal

    config, preloaded = load_journal(outdir)
    return run_farm(config, workers=workers, outdir=outdir,
                    progress=progress, preloaded=preloaded)
