"""Seeded fault campaigns: sweep workloads under fault plans and assert
the recovery invariants.

For every (workload, scenario, seed) case the campaign:

1. runs the workload **clean** (no injector) and keeps the output bytes
   plus the clean-run observables (GPU-VA pages touched, workgroup
   count) that seed the plan generator;
2. derives a :class:`~repro.inject.plan.FaultPlan` from the case seed;
3. runs the workload **under the plan** and checks the scenario's
   invariant:

   - *recoverable* scenarios (transient faults, IRQ mismatches) must
     complete **bit-exactly** equal to the clean run, with the injected
     fault actually fired and the recovery counters moved;
   - *unrecoverable* scenarios (persistent faults) must surface a clean
     :class:`~repro.errors.SimError` — never a hang, never a raw
     non-simulation exception — and must leave the platform usable: a
     follow-up clean run on the *same* platform has to verify;
   - the *heap-grow* scenario runs a kernel over a grow-on-fault buffer
     and requires bit-exact results with the page-fault worker having
     grown the region;

4. optionally re-runs the faulted case and requires identical fault
   counters, firing logs and outputs (determinism invariant — this is
   what makes every campaign failure a reproducer).

This module runs **one case** (:func:`run_case`). Sweeping the
``workloads x scenarios x seeds x engines`` grid, reports and
reproducers are the simulation farm's (sweep kind ``fault``,
:mod:`repro.validate.farm.providers`): a case is a pure function of its
coordinates — the plan is regenerated from the seed — so a failing
case's reproducer is the one-case farm config naming them.

Bit-exact recovery relies on jobs being **replayable** (outputs a pure
function of inputs): the driver re-runs a faulted job from the start,
exactly as kbase replays jobs, so kernels that read-modify-write their
outputs are outside the contract. All campaign workloads are replayable.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from repro.cl import CommandQueue, Context
from repro.core.platform import DEFAULT_ENGINE, MobilePlatform
from repro.errors import SimError
from repro.inject.injector import FaultInjector
from repro.inject.plan import FaultPlan, FaultSpec
from repro.inject.scenarios import (  # noqa: F401 - re-exports the names
    DEFAULT_WORKLOADS,
    SCENARIOS,
    known_workloads,
)
from repro.kernels import REPLAYABLE, get_workload
from repro.mem.physical import PAGE_SIZE
from repro.tenancy.harness import run_adversarial


def _make_workload(name):
    if name in DEFAULT_WORKLOADS:
        return REPLAYABLE[name]()
    return get_workload(name)


@dataclass
class CaseResult:
    """Outcome of one campaign case."""

    workload: str
    scenario: str
    seed: int
    ok: bool
    detail: str = ""
    fired: int = 0
    counters: dict = field(default_factory=dict)


class _Execution:
    """One platform run of a workload, clean or under a plan."""

    def __init__(self, platform, context, injector, outputs, verified,
                 error):
        self.platform = platform
        self.context = context
        self.injector = injector
        self.outputs = outputs
        self.verified = verified
        self.error = error

    @property
    def output_bytes(self):
        if self.outputs is None:
            return None
        return b"".join(
            np.ascontiguousarray(np.asarray(out)).tobytes()
            for out in self.outputs)

    def counters(self):
        driver = self.platform.driver
        gpu = self.platform.gpu
        counts = {
            "driver.retries": driver.retries,
            "driver.resets": driver.resets,
            "driver.soft_stops": driver.soft_stops,
            "driver.hard_stops": driver.hard_stops,
            "driver.irq_mismatches": driver.irq_mismatches,
            "driver.spurious_irqs": driver.spurious_irqs,
            "driver.backoff_ticks": driver.backoff_ticks,
            "driver.page_faults": driver.page_faults,
            "driver.pages_grown": driver.pages_grown,
            "driver.alloc_failures": driver.alloc_failures,
            "driver.faults_unrecovered": driver.faults_unrecovered,
            "gpu.faults.mmu_injected": gpu.mmu.injected_faults,
            "gpu.faults.page_faults_resolved": gpu.mmu.page_faults_resolved,
            "gpu.faults.watchdog_timeouts": gpu.job_manager.watchdog_timeouts,
            "gpu.faults.descriptor_corruptions":
                gpu.job_manager.descriptor_corruptions,
            "gpu.faults.soft_resets": gpu.soft_resets,
        }
        if self.injector is not None:
            counts["inject.total"] = self.injector.total_fired
        return counts


def _run_verified(workload, context):
    """One pass of *workload* on *context*: (outputs, verified)."""
    inputs = workload.prepare()
    outputs = workload.execute(context, CommandQueue(context), inputs)
    return outputs, workload.check(outputs, workload.reference(inputs))


def _execute(workload_name, engine, plan=None):
    """Run *workload_name* on a fresh platform, optionally under *plan*.

    SimErrors are captured (they are legal outcomes of a fault plan);
    anything else propagates — a non-SimError escaping is itself a
    campaign failure, caught and reported by the case runner.
    """
    platform = MobilePlatform.for_mode(engine)
    context = Context(platform)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan)
        platform.attach_injector(injector)
    workload = _make_workload(workload_name)
    outputs = verified = error = None
    try:
        outputs, verified = _run_verified(workload, context)
    except SimError as exc:
        error = exc
    return _Execution(platform, context, injector, outputs, verified, error)


@dataclass(frozen=True)
class _CleanRun:
    """What a case needs of its workload's clean run, as plain values:
    why it cannot serve as a baseline (*failure*, else None), the output
    bytes, and the plan generator's inputs — touched GPU-VA pages and
    the workgroup count of the (last) job."""

    failure: str
    output_bytes: bytes
    pages: tuple
    groups: int


#: (workload, engine) -> _CleanRun. Clean runs are deterministic,
#: so every case this process runs on the same coordinates shares one.
#: Only the observables are kept (a few KB), never the _Execution: one
#: retained platform is ~2 MB of a farm worker's peak RSS
_clean_runs = {}


def _clean_run(workload_name, engine):
    key = (workload_name, engine)
    if key not in _clean_runs:
        execution = _execute(workload_name, engine)
        platform = execution.platform
        groups = max((result.shape.total_groups
                      for result in platform.last_job_results()), default=1)
        _clean_runs[key] = _CleanRun(
            failure=(None if execution.error is None and execution.verified
                     else "clean run failed: "
                          f"{execution.error or 'verification'}"),
            output_bytes=execution.output_bytes,
            pages=tuple(sorted(platform.gpu.mmu.pages_accessed)),
            groups=max(1, groups))
    return _clean_runs[key]


def build_plan(scenario, rng, pages, groups):
    """Derive the scenario's fault plan from the case RNG and the
    clean-run observables."""
    persistent = scenario.endswith("-persistent")
    count = None if persistent else 1
    if scenario.startswith("mmu-"):
        spec = FaultSpec(
            "mmu.page", key=rng.choice(pages), count=count,
            params={"kind": rng.choice(["translation", "permission"]),
                    "access": rng.choice(["r", "w"])})
    elif scenario.startswith("hang-"):
        spec = FaultSpec("core.hang", key=rng.randrange(groups),
                         count=count)
    elif scenario.startswith("descriptor-"):
        # corrupt the job-type field: any bit-flip there turns the
        # descriptor into a guaranteed clean fault (never a silently
        # wrong job), which is what the recovery invariant needs
        spec = FaultSpec(
            "descriptor.read", count=count,
            params={"offset": rng.randrange(4),
                    "mask": rng.randrange(1, 256)})
    elif scenario == "irq-lost":
        spec = FaultSpec("irq.lost", count=1)
    elif scenario == "irq-spurious":
        spec = FaultSpec("irq.spurious", count=1,
                         params={"line": "mmu"})
    elif scenario == "alloc-fail":
        spec = FaultSpec("alloc.phys", occurrence=1 + rng.randrange(2),
                         count=1)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return FaultPlan([spec], name=scenario)


def _usable_after(execution, workload_name):
    """A follow-up clean run on the *same* platform must verify."""
    execution.platform.attach_injector(None)
    return _run_verified(_make_workload(workload_name),
                         execution.context)[1]


def _run_grow_case(rng, engine):
    """heap-grow: a kernel sweeps a grow-on-fault buffer; the page-fault
    worker must grow the mapping and the result must be exact."""
    platform = MobilePlatform.for_mode(engine)
    context = Context(platform)
    queue = CommandQueue(context)
    n_pages = 4 + rng.randrange(8)
    n = n_pages * PAGE_SIZE // 4
    workload = REPLAYABLE["fillseq"](n=n)
    inputs = workload.prepare()
    # execute(), spelled out: the commit check below needs the buffer
    state = workload.setup(context, queue, inputs)
    queue.enqueue_nd_range(state["kernel"], *workload.geometry())
    outputs = workload.collect(queue, state)
    driver = platform.driver
    if not workload.check(outputs, workload.reference(inputs)):
        return False, "grow-on-fault output mismatch", driver
    if driver.page_faults == 0 or driver.pages_grown == 0:
        return False, ("page-fault worker never grew the region "
                       f"(page_faults={driver.page_faults})"), driver
    committed = state["out"].region.committed
    if committed < n * 4:
        return False, (f"region under-committed: {committed} < {n * 4}"), \
            driver
    return True, (f"pages_grown={driver.pages_grown} "
                  f"page_faults={driver.page_faults}"), driver


def run_case(workload_name, scenario, seed, engine=DEFAULT_ENGINE,
             check_determinism=True):
    """Run one campaign case; returns (CaseResult, FaultPlan or None).

    *engine* is anything
    :meth:`~repro.core.platform.MobilePlatform.for_mode` takes.
    """
    rng = random.Random(f"{workload_name}:{scenario}:{seed}")
    expect = SCENARIOS[scenario]

    if expect == "isolate":
        ok, detail, counters = run_adversarial(
            scenario, seed, victim=workload_name, engine_mode=engine,
            check_determinism=check_determinism)
        fired = counters.pop("inject.total", 0)
        return CaseResult(workload_name, scenario, seed, ok, detail,
                          fired=fired, counters=counters), None

    if expect == "grow":
        ok, detail, driver = _run_grow_case(rng, engine)
        counters = {"driver.page_faults": driver.page_faults,
                    "driver.pages_grown": driver.pages_grown}
        return CaseResult(workload_name, scenario, seed, ok, detail,
                          counters=counters), None

    clean = _clean_run(workload_name, engine)
    if clean.failure is not None:
        return CaseResult(workload_name, scenario, seed, False,
                          clean.failure), None
    plan = build_plan(scenario, rng, clean.pages, clean.groups)

    faulted = _execute(workload_name, engine, plan=plan)
    fired = faulted.injector.total_fired
    counters = faulted.counters()
    result = CaseResult(workload_name, scenario, seed, True,
                        fired=fired, counters=counters)

    def fail(detail):
        result.ok = False
        result.detail = detail
        return result, plan

    if fired == 0:
        return fail("plan never fired")
    if expect == "recover":
        if faulted.error is not None:
            return fail(f"expected recovery, got {faulted.error!r}")
        if not faulted.verified:
            return fail("recovered run failed verification")
        if faulted.output_bytes != clean.output_bytes:
            return fail("recovered output not bit-exact vs clean run")
    else:  # fail-clean
        if faulted.error is None:
            return fail("expected a clean SimError, run completed")
        if not _usable_after(faulted, workload_name):
            return fail("platform unusable after unrecoverable fault")

    if check_determinism:
        repeat = _execute(workload_name, engine, plan=plan)
        if repeat.counters() != counters:
            return fail(f"non-deterministic counters: {repeat.counters()} "
                        f"!= {counters}")
        if repeat.injector.log != faulted.injector.log:
            return fail("non-deterministic firing log")
        if repeat.output_bytes != faulted.output_bytes:
            return fail("non-deterministic outputs under plan")
        if str(repeat.error) != str(faulted.error):
            return fail("non-deterministic error under plan")

    result.detail = " ".join(
        f"{key.split('.')[-1]}={value}"
        for key, value in sorted(counters.items()) if value)
    return result, plan
