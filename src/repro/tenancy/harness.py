"""Multi-tenant mixed-run harness: N client contexts over one GPU.

Builds a :class:`~repro.core.platform.MobilePlatform` whose driver hosts
one :class:`~repro.driver.kbase.TenantContext` per configured tenant,
runs a workload per tenant through the job-slot arbiter (deferred
submissions, ``driver.drain()``), and captures a per-tenant
:class:`TenantRecord`: output bytes, NumPy verification, the tenant's
golden stats subtree, the sha256 of its physical carve-out, and its
fairness counters.

The harness is what the isolation proof is built from. A **solo
baseline** (:func:`solo_baseline`) runs the *same* tenancy shape with
only one tenant active — same carve-out bases, same VA layout, same
page-table placement — so a multi-tenant run's record for that tenant
must match the solo record byte-for-byte (outputs, golden stats,
carve-out image) whatever the *other* tenants did: faults, hangs, OOB
kernels, GPU resets. :func:`check_isolation` asserts exactly that,
:func:`solo_isolation` applies it to every unpreempted tenant of a mixed
run (the farm's ``tenants`` kind), and :func:`run_adversarial` packages
the attacker/victim scenarios the fault campaign's ``xtenant-*`` rows
run.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cl import CommandQueue, Context
from repro.core.platform import (  # noqa: F401 - re-exports the table
    DEFAULT_ENGINE,
    ENGINE_MODES,
    MobilePlatform,
)
from repro.driver.kbase import TenancyConfig, TenantSpec
from repro.errors import SimError
from repro.gpu.mmu import AS_TAG_SHIFT
from repro.inject.injector import FaultInjector
from repro.inject.plan import FaultPlan, FaultSpec
from repro.inject.scenarios import ADVERSARIAL_SCENARIOS
from repro.instrument.registry import diff_snapshots
from repro.kernels.replayable import REPLAYABLE


@dataclass
class TenantPlan:
    """One tenant's role in a mixed run: *workload* names a
    :data:`~repro.kernels.replayable.REPLAYABLE` entry, *params* are its
    constructor keywords."""

    workload: str
    qos: str = "fg"
    params: dict = None
    jobs: int = 1


def _workload(tenant_plan):
    """The :data:`~repro.kernels.replayable.REPLAYABLE` workload a plan
    names (soft-stop replays and recovery resubmissions are bit-invisible
    only for those)."""
    if tenant_plan.workload not in REPLAYABLE:
        raise ValueError(f"unknown tenant workload {tenant_plan.workload!r}; "
                         f"known: {sorted(REPLAYABLE)}")
    return REPLAYABLE[tenant_plan.workload](**tenant_plan.params or {})


@dataclass
class TenantRecord:
    """Everything observable about one tenant after a mixed run."""

    tenant_id: int
    name: str
    qos: str
    workload: str
    verified: bool
    output_digest: str
    errors: list
    golden: dict
    carveout_digest: str
    pages_accessed: int
    translations: int
    jobs_completed: int
    jobs_failed: int
    dispatches: int
    preemptions: int
    wait_ticks: int

    @property
    def failed(self):
        return bool(self.errors)


@dataclass
class MixedRunResult:
    """A finished mixed run: platform handle plus per-tenant records."""

    platform: object
    records: dict  # tenant_id -> TenantRecord
    engine_mode: str
    injector: object = None

    @property
    def driver(self):
        return self.platform.driver

    def counters(self):
        driver = self.driver
        counts = {
            "driver.retries": driver.retries,
            "driver.resets": driver.resets,
            "driver.soft_stops": driver.soft_stops,
            "driver.hard_stops": driver.hard_stops,
            "driver.faults_unrecovered": driver.faults_unrecovered,
            "driver.as_switches": driver.as_switches,
            "driver.preemptions": driver.preemptions,
            "arbiter.dispatched": driver.arbiter.dispatched,
            "arbiter.promotions": driver.arbiter.promotions,
        }
        if self.injector is not None:
            counts["inject.total"] = self.injector.total_fired
        return counts


def _digest(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def tenancy_config(tenant_plans):
    """The driver-level :class:`TenancyConfig` for *tenant_plans* — the
    solo baseline reuses it verbatim so carve-out bases and VA layout
    match the mixed run exactly."""
    return TenancyConfig(
        [TenantSpec(f"tenant{i}", qos=plan.qos)
         for i, plan in enumerate(tenant_plans)])


def run_mixed(tenant_plans, engine_mode=DEFAULT_ENGINE, active=None,
              plan=None, seed=0):
    """Run one mixed multi-tenant campaign; returns a MixedRunResult.

    Args:
        tenant_plans: list of :class:`TenantPlan`, one per tenant.
        engine_mode: anything
            :meth:`~repro.core.platform.MobilePlatform.for_mode` takes.
        active: tenant ids that actually run (default: all). Inactive
            tenants still exist — same carve-outs, same VA plan — they
            just never touch the GPU. ``active={v}`` is the solo
            baseline for tenant ``v``.
        plan: optional :class:`FaultPlan` (specs may carry ``tenant=``
            so an attacker's faults never target anyone else).
        seed: input-data seed (per-tenant RNG derives from it).
    """
    platform = MobilePlatform.for_mode(
        engine_mode, tenancy=tenancy_config(tenant_plans)).initialize()
    driver = platform.driver
    injector = None
    if plan is not None:
        injector = FaultInjector(plan)
        platform.attach_injector(injector)

    if active is None:
        active = range(len(tenant_plans))
    active = sorted(set(active))

    sessions = {}
    for tenant_id in active:
        tenant_plan = tenant_plans[tenant_id]
        tenant = driver.tenant(tenant_id)
        context = Context(platform=platform, tenant=tenant)
        queue = CommandQueue(context)
        workload = _workload(tenant_plan)
        workload.rng = np.random.default_rng(seed * 1_000_003 + tenant_id)
        inputs = workload.prepare()
        sessions[tenant_id] = {
            "workload": workload, "queue": queue, "inputs": inputs,
            "state": workload.setup(context, queue, inputs), "jobs": [],
        }

    # submissions interleave round-robin across tenants so the arbiter
    # always sees the full contention picture
    max_jobs = max((tenant_plans[i].jobs for i in active), default=0)
    for round_index in range(max_jobs):
        for tenant_id in active:
            if round_index < tenant_plans[tenant_id].jobs:
                session = sessions[tenant_id]
                session["jobs"].append(
                    session["queue"].enqueue_nd_range_async(
                        session["state"]["kernel"],
                        *session["workload"].geometry()))

    driver.drain()

    golden = platform.stats_registry.snapshot(golden_only=True)
    records = {}
    for tenant_id in active:
        session = sessions[tenant_id]
        workload = session["workload"]
        tenant = driver.tenant(tenant_id)
        errors = [f"{type(job.error).__name__}: {job.error}"
                  for job in session["jobs"] if job.error is not None]
        undone = [job for job in session["jobs"] if not job.done]
        if undone:
            errors.append(f"{len(undone)} jobs never completed")
        outputs, verified = [], False
        if not errors and not workload.expects_failure:
            try:
                outputs = workload.collect(session["queue"],
                                           session["state"])
                verified = workload.check(outputs,
                                          workload.reference(
                                              session["inputs"]))
            except SimError as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
        elif workload.expects_failure:
            verified = bool(errors)  # the attacker is *supposed* to fault
        prefix = f"tenant{tenant_id}."
        records[tenant_id] = TenantRecord(
            tenant_id=tenant_id,
            name=tenant.name,
            qos=tenant.qos.name,
            workload=workload.name,
            verified=verified,
            output_digest=_digest(
                np.ascontiguousarray(np.asarray(out)).tobytes()
                for out in outputs),
            errors=errors,
            golden={key: value for key, value in golden.items()
                    if key.startswith(prefix)},
            carveout_digest=platform.memory.carveout_digest(
                f"tenant{tenant_id}"),
            pages_accessed=platform.gpu.mmu.pages_accessed_in(
                tenant.as_id),
            translations=tenant.translations,
            jobs_completed=tenant.jobs_completed,
            jobs_failed=tenant.jobs_failed,
            dispatches=tenant.dispatches,
            preemptions=tenant.preemptions,
            wait_ticks=tenant.wait_ticks,
        )
    return MixedRunResult(platform=platform, records=records,
                          injector=injector, engine_mode=engine_mode)


def solo_baseline(tenant_plans, victim, engine_mode, seed=0):
    """The isolation reference: the same tenancy shape with only
    *victim* active. Identical carve-out bases and VA layout make its
    record byte-comparable to the mixed run's."""
    return run_mixed(tenant_plans, engine_mode=engine_mode, active=[victim],
                     seed=seed)


def check_isolation(multi_record, solo_record):
    """Compare a tenant's mixed-run record against its solo baseline;
    returns a list of human-readable differences (empty == isolated)."""
    diffs = []
    if multi_record.errors:
        diffs.append(f"victim errored in mixed run: {multi_record.errors}")
    if not multi_record.verified:
        diffs.append("victim outputs failed verification in mixed run")
    if multi_record.output_digest != solo_record.output_digest:
        diffs.append("victim outputs differ from solo run")
    if multi_record.carveout_digest != solo_record.carveout_digest:
        diffs.append("victim carve-out memory image differs from solo run")
    changed = diff_snapshots(solo_record.golden, multi_record.golden)
    if changed:
        diffs.append(f"victim golden stats differ from solo run: "
                     f"{changed[:8]}")
    return diffs


def solo_isolation(tenant_plans, multi, seed=0):
    """Solo-vs-multi golden invariance for a finished mixed run: every
    tenant the arbiter never sliced must match its :func:`solo_baseline`
    byte-for-byte. Preempted tenants replay workgroups, so their
    translation counts legitimately grow with contention; they are
    skipped. Returns ``({tenant_id: differences}, skipped tenant ids)``
    (an empty difference list == isolated)."""
    diffs, skipped = {}, []
    for tenant_id in sorted(multi.records):
        record = multi.records[tenant_id]
        if record.preemptions:
            skipped.append(tenant_id)
            continue
        solo = solo_baseline(tenant_plans, tenant_id,
                             engine_mode=multi.engine_mode, seed=seed)
        diffs[tenant_id] = check_isolation(record, solo.records[tenant_id])
    return diffs, skipped


def fairness_report(result, title="tenants"):
    """Human-readable fairness table for a finished mixed run."""
    driver = result.driver
    total_dispatches = max(driver.arbiter.dispatched, 1)
    lines = [
        f"{title}: engine={result.engine_mode} "
        f"tenants={len(result.records)} "
        f"dispatches={driver.arbiter.dispatched} "
        f"promotions={driver.arbiter.promotions} "
        f"as_switches={driver.as_switches} resets={driver.resets}",
        "  id name      qos  workload   jobs ok/fail  disp  preempt "
        "wait  slot%  verified",
    ]
    for tenant_id in sorted(result.records):
        record = result.records[tenant_id]
        slot_share = 100.0 * record.dispatches / total_dispatches
        lines.append(
            f"  {record.tenant_id:>2} {record.name:<9} "
            f"{record.qos:<4} {record.workload:<10} "
            f"{record.jobs_completed:>4}/{record.jobs_failed:<5} "
            f"{record.dispatches:>5} {record.preemptions:>7} "
            f"{record.wait_ticks:>4} {slot_share:>5.1f}  "
            f"{'yes' if record.verified else 'NO'}")
    starving = [record for record in result.records.values()
                if record.jobs_completed == 0 and not record.failed
                and record.dispatches == 0]
    if starving:
        lines.append(f"  STARVED tenants: "
                     f"{[record.tenant_id for record in starving]}")
    return "\n".join(lines)


# -- adversarial cross-tenant scenarios ---------------------------------------

#: scenarios where the attacker itself is expected to fail cleanly
_ATTACKER_FAILS = {"xtenant-mmu", "xtenant-hang", "xtenant-oob"}


def _adversarial_plans(scenario, victim="sgemm"):
    """Victim (fg, two jobs) + attacker. The attacker runs in the
    real-time class so its faults land *before and between* the victim's
    dispatches — including the GPU resets at the top of the ladder."""
    return [TenantPlan(victim, qos="fg", jobs=2),
            TenantPlan(ADVERSARIAL_SCENARIOS[scenario], qos="rt", jobs=1)]


def _adversarial_plan(scenario, rng, tenant_plans, attacker_id,
                      engine_mode, seed):
    """Derive the attacker-scoped fault plan (None for pure-OOB)."""
    if scenario == "xtenant-oob":
        return None
    if scenario == "xtenant-mmu":
        # probe the attacker solo for its touched pages, then arm a
        # persistent fault on one of them — tagged with the attacker's
        # address space, exactly as the MMU keys its accesses
        probe = run_mixed(tenant_plans, engine_mode=engine_mode,
                          active=[attacker_id], seed=seed)
        tagged = sorted(
            page for page in probe.platform.gpu.mmu.pages_accessed
            if page >> AS_TAG_SHIFT == attacker_id)
        spec = FaultSpec("mmu.page", key=int(rng.choice(tagged)),
                         count=None, tenant=attacker_id,
                         params={"kind": "translation", "access": "w"})
    elif scenario == "xtenant-hang":
        groups = _workload(tenant_plans[attacker_id]).total_groups()
        spec = FaultSpec("core.hang",
                         key=int(rng.integers(0, groups)),
                         count=None, tenant=attacker_id)
    elif scenario == "xtenant-irq-lost":
        spec = FaultSpec("irq.lost", count=1, tenant=attacker_id)
    else:
        raise ValueError(f"unknown adversarial scenario {scenario!r}")
    return FaultPlan([spec], name=scenario)


def run_adversarial(scenario, seed, engine_mode, victim="sgemm",
                    check_determinism=False):
    """One attacker-vs-victim case; returns ``(ok, detail, counters)``.

    The victim's mixed-run record must match its solo baseline in
    outputs, golden stats subtree and carve-out image; the attacker
    must fail cleanly (or, for recoverable scenarios, complete) without
    the dispatch loop ever tearing down.
    """
    if scenario not in ADVERSARIAL_SCENARIOS:
        raise ValueError(f"unknown adversarial scenario {scenario!r}; "
                         f"known: {sorted(ADVERSARIAL_SCENARIOS)}")
    # sha256-derived, NOT hash(): plan keys must reproduce across
    # processes (farm workers, reproducer replays)
    rng = np.random.default_rng(int.from_bytes(
        hashlib.sha256(f"{scenario}:{victim}:{seed}".encode())
        .digest()[:8], "little"))
    tenant_plans = _adversarial_plans(scenario, victim=victim)
    victim_id, attacker_id = 0, 1
    plan = _adversarial_plan(scenario, rng, tenant_plans, attacker_id,
                             engine_mode, seed)

    solo = solo_baseline(tenant_plans, victim_id, engine_mode=engine_mode,
                         seed=seed)
    multi = run_mixed(tenant_plans, engine_mode=engine_mode, plan=plan,
                      seed=seed)
    counters = multi.counters()

    diffs = check_isolation(multi.records[victim_id],
                            solo.records[victim_id])
    attacker = multi.records[attacker_id]
    if scenario in _ATTACKER_FAILS:
        if not attacker.errors:
            diffs.append("attacker was expected to fail cleanly but "
                         "completed")
    elif attacker.errors or not attacker.verified:
        diffs.append(f"attacker failed a recoverable scenario: "
                     f"{attacker.errors}")
    if plan is not None and multi.injector.total_fired == 0:
        diffs.append("attacker plan never fired")

    if not diffs and check_determinism:
        repeat = run_mixed(tenant_plans, engine_mode=engine_mode, plan=plan,
                           seed=seed)
        if repeat.counters() != counters:
            diffs.append("non-deterministic counters on replay")
        for tenant_id, record in multi.records.items():
            twin = repeat.records[tenant_id]
            if (record.output_digest != twin.output_digest
                    or record.golden != twin.golden):
                diffs.append(f"non-deterministic tenant {tenant_id} "
                             "record on replay")
        if (multi.injector is not None
                and repeat.injector.log != multi.injector.log):
            diffs.append("non-deterministic firing log on replay")

    ok = not diffs
    detail = ("victim isolated" if ok else "; ".join(diffs))
    return ok, detail, {**counters, "isolation_checked": 1}


# -- the standard mixed campaign (farm sweep kind "tenants") ------------------

#: (workload, qos) roles cycled to populate an N-tenant mixed campaign;
#: spans three QoS classes and a long bg job that actually gets sliced
DEFAULT_MIX = (
    ("sgemm", "fg"),
    ("divergent", "bg"),
    ("fillseq", "fg"),
    ("divergent", "rt"),
)


def default_plans(count, jobs=2):
    """The standard N-tenant mixed campaign (cycling DEFAULT_MIX)."""
    plans = []
    for index in range(count):
        workload, qos = DEFAULT_MIX[index % len(DEFAULT_MIX)]
        params = {"n": 8192} if (workload, qos) == ("divergent", "bg") \
            else None
        plans.append(TenantPlan(workload, qos=qos, params=params,
                                jobs=jobs))
    return plans


def golden_fingerprint(records):
    """A stable integer fingerprint of every tenant's golden subtree —
    comparable across engine modes and worker counts in farm reports."""
    blob = repr(sorted(
        (tenant_id, sorted(record.golden.items()))
        for tenant_id, record in records.items())).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "little")
