"""Multi-tenant GPU platform: N client contexts, one GPU, isolation
proven end to end.

The headline matrix runs an adversarial tenant (fault injections scoped
to its address space, or a malicious out-of-bounds kernel) next to a
victim tenant and asserts the victim's outputs, golden stats subtree
and physical carve-out image are byte-identical to a solo run — across
every execution engine, including the cases where the attacker drives
the recovery ladder all the way to a GPU reset.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cl import CommandQueue, Context
from repro.errors import CLError, JobFault
from repro.core.platform import HEAP_SIZE, MobilePlatform, PlatformConfig
from repro.driver.kbase import (
    PREEMPTED,
    ArbiterPolicy,
    JobSlotArbiter,
    KBaseDriver,
    PendingJob,
    TenancyConfig,
    TenantSpec,
)
from repro.gpu import regs
from repro.gpu.device import GPUConfig
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.tenancy.harness import (
    ADVERSARIAL_SCENARIOS,
    ENGINE_MODES,
    TenantPlan,
    default_plans,
    golden_fingerprint,
    run_adversarial,
    run_mixed,
    solo_isolation,
)
from repro.tools.cli import main as cli_main


def _platform(tenancy, engine="interpreter"):
    platform = MobilePlatform(PlatformConfig(
        gpu=GPUConfig(engine=engine), tenancy=tenancy))
    return platform.initialize()


# -- tenant contexts and carve-outs -------------------------------------------


class TestTenantContexts:
    def test_carveouts_disjoint_and_cover_heap(self):
        platform = _platform(TenancyConfig.symmetric(4))
        memory = platform.memory
        assert memory.carveout_names == [f"tenant{i}" for i in range(4)]
        extents = [memory.carveout(f"tenant{i}") for i in range(4)]
        for (base_a, size_a), (base_b, _) in zip(extents, extents[1:]):
            assert base_a + size_a <= base_b
        assert all(size == HEAP_SIZE // 4 for _, size in extents)

    def test_tenants_share_va_layout_over_private_page_tables(self):
        platform = _platform(TenancyConfig.symmetric(3))
        driver = platform.driver
        regions = [driver.tenant(i).alloc_region(PAGE_SIZE)
                   for i in range(3)]
        # same GPU virtual address in every tenant...
        assert len({region.gpu_va for region in regions}) == 1
        # ...backed by frames in each tenant's own carve-out
        for index, region in enumerate(regions):
            base, size = platform.memory.carveout(f"tenant{index}")
            assert base <= region.phys < base + size

    def test_tenancy_config_validation(self):
        with pytest.raises(Exception):
            TenancyConfig([])
        with pytest.raises(Exception):
            TenancyConfig([TenantSpec("a"), TenantSpec("a")])
        with pytest.raises(Exception):
            TenancyConfig([TenantSpec("a", qos="no-such-class")])

    def test_legacy_single_client_unchanged(self):
        # no tenancy config: one full-heap tenant, no AS switches, no
        # tenant{i}.* subtrees in the registry
        platform = _platform(None)
        driver = platform.driver
        assert len(driver.tenants) == 1
        assert driver.tenant(0).as_id == 0
        assert driver.as_switches == 0
        region = driver.alloc_region(PAGE_SIZE)
        assert region.gpu_va >= driver.gpu_va_base
        snapshot = platform.stats_registry.snapshot()
        assert not any(key.startswith("tenant") for key in snapshot)

    def test_carveout_digest_tracks_content(self):
        memory = PhysicalMemory(1 << 24)
        memory.register_carveout("a", 0, 1 << 20)
        memory.register_carveout("b", 1 << 20, 1 << 20)
        before = memory.carveout_digest("a")
        assert before == memory.carveout_digest("a")
        memory.write_block(0x100, b"\x01\x02")
        assert memory.carveout_digest("a") != before
        # writes to one carve-out never move another's digest
        digest_b = memory.carveout_digest("b")
        memory.write_block(0x200, b"\x03")
        assert memory.carveout_digest("b") == digest_b

    def test_carveout_overlap_rejected(self):
        memory = PhysicalMemory(1 << 24)
        memory.register_carveout("a", 0, 1 << 20)
        with pytest.raises(Exception):
            memory.register_carveout("c", 1 << 16, 1 << 20)
        # idempotent re-register of the identical extent is fine
        memory.register_carveout("a", 0, 1 << 20)


# -- soft-stop preemption (JOB_SLICE) -----------------------------------------


_LONG_SOURCE = """
__kernel void fill(__global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * 3 + 1;
    }
}
"""


class TestPreemption:
    def test_job_slice_returns_preempted_sentinel(self):
        platform = _platform(None)
        driver = platform.driver
        context = Context(platform)
        queue = CommandQueue(context)
        kernel = context.build_program(_LONG_SOURCE).kernel("fill")
        n = 4096  # 64 workgroups of 64
        buf = context.alloc_buffer(n * 4)
        kernel.set_args(buf, n)
        job = queue.enqueue_nd_range_async(kernel, (n,), (64,))
        driver._write(regs.JOB_SLICE, 16)
        driver._job_slice = 16
        outcome = driver.submit_and_wait(job.descriptor_va)
        assert outcome is PREEMPTED
        assert platform.gpu.job_manager.jobs_preempted == 1
        # a soft-stop is not a fault: no MMU fault, no recovery retry
        assert driver.retries == 0
        assert platform.gpu.system_stats.mmu_faults == 0
        # clearing the budget lets the same chain run to completion
        driver._write(regs.JOB_SLICE, 0)
        driver._job_slice = 0
        assert driver.submit_and_wait(job.descriptor_va) is not PREEMPTED
        out = queue.enqueue_read_buffer(buf, np.int32, count=n)
        assert np.array_equal(out,
                              (np.arange(n, dtype=np.int64) * 3 + 1)
                              .astype(np.int32))

    def test_background_job_sliced_and_requeued_to_completion(self):
        plans = [TenantPlan("sgemm", qos="fg", jobs=2),
                 TenantPlan("divergent", qos="bg",
                            params={"n": 8192}, jobs=2)]
        result = run_mixed(plans, engine_mode="interp", seed=5)
        background = result.records[1]
        assert background.preemptions >= 1
        assert background.verified and not background.errors
        assert background.dispatches == 2 + background.preemptions
        assert result.driver.preemptions == background.preemptions
        # the foreground tenant was never sliced
        assert result.records[0].preemptions == 0
        assert result.records[0].verified

    def test_preemption_invisible_in_golden_stats(self):
        # the same bg workload, sliced + replayed vs never sliced
        # (slicing disabled by policy): completed-job golden stats,
        # outputs and carve-out image match bit-for-bit — translations
        # legitimately grow with replay and are excluded
        plans = [TenantPlan("sgemm", qos="fg", jobs=2),
                 TenantPlan("divergent", qos="bg",
                            params={"n": 8192}, jobs=2)]
        multi = run_mixed(plans, engine_mode="interp", seed=5)
        baseline = run_mixed(plans, engine_mode="interp", seed=5,
                             active=[1],
                             arbiter=ArbiterPolicy(max_preemptions=0))
        assert multi.records[1].preemptions >= 1
        assert baseline.records[1].preemptions == 0

        def job_stats(record):
            return {key: value for key, value in record.golden.items()
                    if ".mmu." not in key}

        assert job_stats(multi.records[1]) == job_stats(
            baseline.records[1])
        assert (multi.records[1].output_digest
                == baseline.records[1].output_digest)
        assert (multi.records[1].carveout_digest
                == baseline.records[1].carveout_digest)


# -- the job-slot arbiter (property-based) ------------------------------------


def _job(tenant_id, priority):
    return PendingJob(tenant_id=tenant_id, priority=priority)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 3),
                  st.integers(1, 3)),
        st.tuples(st.just("next"), st.just(0), st.just(0)),
    ),
    min_size=1, max_size=60)


def _dispatch(arbiter):
    """``arbiter.next_job()``, checked against the arbiter's documented
    guarantee: while any queue head is over the starvation bound, the
    over-bound head with the oldest claim is served — a starved head
    yields only to older claims."""
    over_bound = [
        queue[0]
        for priority_queues in arbiter._queues.values()
        for queue in priority_queues.values()
        if queue and (arbiter.tick + 1 - queue[0].queued_tick
                      > arbiter.policy.starvation_bound)]
    job = arbiter.next_job()
    if job is None:
        assert arbiter.waiting == 0
    elif over_bound:
        assert job is min(over_bound, key=lambda j: (j.queued_tick, j.seq))
    return job


class TestArbiterProperties:
    @given(ops=_OPS)
    # one FIFO queue: the seventh job waits 7 ticks, over any bound that
    # counts only the starvation bound and the number of queues
    @example(ops=[("submit", 0, 1)] * 7)
    @settings(max_examples=120, deadline=None)
    def test_fifo_starvation_and_determinism(self, ops):
        arbiter = JobSlotArbiter(ArbiterPolicy(starvation_bound=4))
        submitted, dispatched = [], []
        for op, tenant_id, priority in ops:
            if op == "submit":
                job = _job(tenant_id, priority)
                submitted.append(job)
                arbiter.submit(job)
            elif (job := _dispatch(arbiter)) is not None:
                dispatched.append(job)
        # drain the rest, under the same guarantee
        while (job := _dispatch(arbiter)) is not None:
            dispatched.append(job)
        # every submitted job dispatched exactly once
        assert len(dispatched) == len(submitted)
        assert {id(job) for job in dispatched} == {id(job)
                                                   for job in submitted}
        # per-(priority, tenant) FIFO: dispatch order preserves seq
        order = {}
        for job in dispatched:
            order.setdefault((job.priority, job.tenant_id),
                             []).append(job.seq)
        for seqs in order.values():
            assert seqs == sorted(seqs)

    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_replay_is_deterministic(self, ops):
        def run():
            arbiter = JobSlotArbiter(ArbiterPolicy(starvation_bound=4))
            trace = []
            for op, tenant_id, priority in ops:
                if op == "submit":
                    arbiter.submit(_job(tenant_id, priority))
                else:
                    job = arbiter.next_job()
                    trace.append(None if job is None
                                 else (job.tenant_id, job.priority,
                                       job.seq))
            while True:
                job = arbiter.next_job()
                if job is None:
                    break
                trace.append((job.tenant_id, job.priority, job.seq))
            return trace

        assert run() == run()

    def test_round_robin_within_class(self):
        arbiter = JobSlotArbiter()
        for round_index in range(3):
            for tenant_id in range(3):
                arbiter.submit(_job(tenant_id, priority=2))
        seen = [arbiter.next_job().tenant_id for _ in range(9)]
        assert seen == [0, 1, 2] * 3

    def test_strict_priority_between_classes(self):
        arbiter = JobSlotArbiter(ArbiterPolicy(starvation_bound=100))
        low = _job(0, priority=1)
        arbiter.submit(low)
        high = [_job(1, priority=3) for _ in range(4)]
        for job in high:
            arbiter.submit(job)
        assert [arbiter.next_job() for _ in range(5)] == high + [low]


# -- cross-tenant isolation (the headline matrix) -----------------------------


class TestIsolation:
    # the engine modes, plus the ``fast`` alias a pinned benchmark sweep
    # still names: isolation must hold under every spelling a run takes
    @pytest.mark.parametrize("engine_mode", sorted({*ENGINE_MODES, "fast"}))
    @pytest.mark.parametrize("scenario", sorted(ADVERSARIAL_SCENARIOS))
    def test_adversary_cannot_perturb_victim(self, scenario, engine_mode):
        ok, detail, counters = run_adversarial(
            scenario, seed=11, engine_mode=engine_mode,
            check_determinism=False)
        assert ok, f"{scenario}/{engine_mode}: {detail}"
        if scenario != "xtenant-irq-lost":
            # the attacker drove the ladder to a full GPU reset and the
            # victim still matched its solo baseline byte-for-byte
            assert counters["driver.resets"] >= 1
            assert counters["driver.faults_unrecovered"] >= 1

    def test_adversarial_case_is_deterministic(self):
        ok, detail, _ = run_adversarial(
            "xtenant-mmu", seed=3, engine_mode="interp",
            check_determinism=True)
        assert ok, detail

    def test_benign_neighbors_match_solo(self):
        plans = default_plans(3, jobs=1)
        multi = run_mixed(plans, engine_mode="interp", seed=2)
        for tenant_id, record in multi.records.items():
            assert record.verified, (tenant_id, record.errors)
        isolation, _skipped = solo_isolation(plans, multi, seed=2)
        assert isolation and not any(isolation.values()), isolation


# -- per-tenant golden stats subtrees -----------------------------------------


class TestGoldenSubtrees:
    def _goldens(self, engine_mode):
        plans = [TenantPlan("sgemm", qos="fg", jobs=2),
                 TenantPlan("divergent", qos="bg",
                            params={"n": 8192}, jobs=1),
                 TenantPlan("fillseq", qos="fg", jobs=1)]
        result = run_mixed(plans, engine_mode=engine_mode, seed=9)
        for record in result.records.values():
            assert record.verified and not record.errors
            assert record.golden, "tenant subtree must not be empty"
        return {tenant_id: record.golden
                for tenant_id, record in result.records.items()}

    def test_identical_across_engines(self):
        assert self._goldens("mega") == self._goldens("interp")

    def test_subtree_keys_are_scoped_per_tenant(self):
        plans = default_plans(2, jobs=1)
        result = run_mixed(plans, engine_mode="interp", seed=0)
        for tenant_id, record in result.records.items():
            prefix = f"tenant{tenant_id}."
            assert all(key.startswith(prefix) for key in record.golden)
            assert any(key.endswith(".jobs_completed")
                       for key in record.golden)
            assert any(".gpu.job." in key for key in record.golden)

    def test_farm_fingerprint_matches_direct_run(self):
        from repro.validate.farm import PROVIDERS

        spec = {"tenants": 3, "engine_mode": "interp", "seed": 4, "jobs": 1}
        ok, detail, counters, _ = PROVIDERS["tenants"].execute(spec, None)
        assert ok, detail
        result = run_mixed(default_plans(3, jobs=1), engine_mode="interp",
                           seed=4)
        assert counters["golden_fingerprint"] == golden_fingerprint(
            result.records)


# -- the CL runtime under multiple tenants ------------------------------------


_SHARED_SOURCE = """
__kernel void tag(__global int* out, int tag) {
    int i = get_global_id(0);
    out[i] = tag + i;
}
"""


class TestRuntimeTenancy:
    def test_contexts_do_not_share_build_state(self):
        platform = _platform(TenancyConfig.symmetric(2))
        context_a = Context(platform, tenant=platform.driver.tenant(0))
        context_b = Context(platform, tenant=platform.driver.tenant(1))
        program_a = context_a.build_program(_SHARED_SOURCE)
        program_b = context_b.build_program(_SHARED_SOURCE)
        assert program_a.build_reports is not program_b.build_reports
        region_a = program_a._binary_region(program_a.compiled.kernel("tag"))
        region_b = program_b._binary_region(program_b.compiled.kernel("tag"))
        # each context uploads into its own tenant's carve-out
        base_a, size_a = platform.memory.carveout("tenant0")
        base_b, size_b = platform.memory.carveout("tenant1")
        assert base_a <= region_a.phys < base_a + size_a
        assert base_b <= region_b.phys < base_b + size_b

    def test_same_va_different_programs_execute_correctly(self):
        # the decode cache is keyed by address space: two tenants place
        # *different* binaries at the same GPU VA and each must run its
        # own program
        platform = _platform(TenancyConfig.symmetric(2))
        n = 128
        outs = {}
        for tenant_id, tag in ((0, 1000), (1, 5000)):
            context = Context(platform,
                              tenant=platform.driver.tenant(tenant_id))
            queue = CommandQueue(context)
            kernel = context.build_program(_SHARED_SOURCE).kernel("tag")
            buf = context.alloc_buffer(n * 4)
            kernel.set_args(buf, tag)
            queue.enqueue_nd_range(kernel, (n,), (64,))
            outs[tenant_id] = queue.enqueue_read_buffer(
                buf, np.int32, count=n)
        assert np.array_equal(outs[0], 1000 + np.arange(n))
        assert np.array_equal(outs[1], 5000 + np.arange(n))

    def test_tenant_context_requires_matching_platform(self):
        platform_a = _platform(TenancyConfig.symmetric(2))
        platform_b = _platform(TenancyConfig.symmetric(2))
        with pytest.raises(CLError):
            Context(platform_a, tenant=platform_b.driver.tenant(0))
        with pytest.raises(CLError):
            Context(tenant=platform_a.driver.tenant(0))

    def test_per_tenant_runtime_counters(self):
        platform = _platform(TenancyConfig.symmetric(2))
        context = Context(platform, tenant=platform.driver.tenant(1))
        queue = CommandQueue(context)
        kernel = context.build_program(_SHARED_SOURCE).kernel("tag")
        buf = context.alloc_buffer(64 * 4)
        kernel.set_args(buf, 7)
        queue.enqueue_nd_range(kernel, (64,), (64,))
        snapshot = platform.stats_registry.snapshot()
        assert snapshot["tenant1.cl.runtime.kernels_launched"] == 1
        assert snapshot.get("tenant0.cl.runtime.kernels_launched", 0) == 0


# -- the one dispatch envelope -------------------------------------------------


_OOB_SOURCE = """
__kernel void tag(__global int* out, int tag) {
    int i = get_global_id(0);
    out[i + 100000000] = tag + i;
}
"""


def _fg_bg():
    return TenancyConfig([TenantSpec("fg0", qos="fg"),
                          TenantSpec("bg0", qos="bg")])


def _tag_launch(platform, tenant=None, tag=7, n=64, local=16, sync=True,
                source=_SHARED_SOURCE):
    """One ``tag`` job as *tenant* (None: a tenant-less context);
    returns ``(queue, buffer)``."""
    context = Context(platform, tenant=tenant)
    queue = CommandQueue(context)
    kernel = context.build_program(source).kernel("tag")
    buf = context.alloc_buffer(n * 4)
    kernel.set_args(buf, tag)
    if sync:
        queue.enqueue_nd_range(kernel, (n,), (local,))
    else:
        queue.enqueue_nd_range_async(kernel, (n,), (local,))
    return queue, buf


# routes a job takes to the GPU; each returns (jobs settled, threads each)


def _single_sync(platform):
    _tag_launch(platform)
    return 1, 64


def _tenant_sync(platform):
    _tag_launch(platform, platform.driver.tenant(1))
    return 1, 64


def _arbitrated(platform):
    for tenant in platform.driver.tenants:
        _tag_launch(platform, tenant, sync=False)
    platform.driver.drain()
    return 2, 64


def _arbitrated_with_preemption(platform):
    # two per tenant keep the queue non-empty, so bg's first 64-workgroup
    # job is sliced, soft-stopped and replayed
    for tenant in platform.driver.tenants:
        for _ in range(2):
            _tag_launch(platform, tenant, n=256, local=4, sync=False)
    platform.driver.drain()
    assert platform.driver.tenant(1).preemptions > 0
    return 4, 256


class TestDispatchEnvelope:
    def test_tenantless_context_on_a_tenancy_platform_is_tenant_zero(self):
        platform = _platform(TenancyConfig.symmetric(2))
        driver = platform.driver
        queue1, buf1 = _tag_launch(platform, driver.tenant(1), tag=100)
        expected1 = queue1.enqueue_read_buffer(buf1, np.int32)
        digest1 = platform.memory.carveout_digest("tenant1")
        switches = driver.as_switches
        # same kernel, same GPU VAs, other page tables: the launch must
        # run in tenant 0's address space, not the one left installed
        queue0, buf0 = _tag_launch(platform, tag=300)
        assert np.array_equal(queue0.enqueue_read_buffer(buf0, np.int32),
                              300 + np.arange(64))
        assert driver.as_switches == switches + 1
        assert platform.memory.carveout_digest("tenant1") == digest1
        assert np.array_equal(queue1.enqueue_read_buffer(buf1, np.int32),
                              expected1)
        assert driver.tenant(0).jobs_completed == 1

    @pytest.mark.parametrize("tenancy, route", [
        (None, _single_sync),
        (_fg_bg, _tenant_sync),
        (_fg_bg, _arbitrated),
        (_fg_bg, _arbitrated_with_preemption),
    ], ids=lambda value: getattr(value, "__name__", "single").strip("_"))
    def test_retire_hook_fires_once_per_settled_job_accounting_landed(
            self, tenancy, route):
        platform = _platform(tenancy and tenancy())
        tenants = platform.driver.tenants
        seen = []

        def hook():
            seen.append((
                sum(t.jobs_completed + t.jobs_failed for t in tenants),
                sum(t.ledger.stats().threads_launched for t in tenants)))

        platform.driver.on_job_retired = hook
        settled, threads = route(platform)
        # once per settled job — never for a preempted slice — and at
        # each call the job that just settled is already counted
        assert seen == [(index, index * threads)
                        for index in range(1, settled + 1)]
        assert sum(t.dispatches for t in tenants) \
            == settled + platform.driver.preemptions

    @pytest.mark.parametrize("sync", [True, False],
                             ids=["sync", "arbitrated"])
    def test_failed_job_is_accounted_before_the_hook(self, sync):
        platform = _platform(TenancyConfig.symmetric(2))
        tenant = platform.driver.tenant(1)
        seen = []
        platform.driver.on_job_retired = lambda: seen.append(
            (tenant.jobs_failed, tenant.translations))
        if sync:
            with pytest.raises(JobFault):
                _tag_launch(platform, tenant, source=_OOB_SOURCE)
        else:
            _tag_launch(platform, tenant, sync=False, source=_OOB_SOURCE)
            platform.driver.drain()
        # the tenant's share of the faulting walks is golden: a
        # checkpoint taken from the hook must already hold it
        assert tenant.translations > 0
        assert seen == [(1, tenant.translations)]

    def test_both_launch_forms_stage_one_way(self, monkeypatch):
        platform = _platform(None)
        driver = platform.driver
        context = Context(platform)
        queue = CommandQueue(context)
        kernel = context.build_program(_SHARED_SOURCE).kernel("tag")
        kernel.set_args(context.alloc_buffer(64 * 4), 7)
        handed = []  # the seven job arguments of every descriptor built
        build_descriptor = driver.default_tenant.build_descriptor

        def spy(*args, **kwargs):
            handed.append(args[:7])
            return build_descriptor(*args, **kwargs)

        monkeypatch.setattr(driver.default_tenant, "build_descriptor", spy)
        queue.enqueue_nd_range(kernel, 64, 16)
        allocated = driver.regions_allocated
        queue.enqueue_nd_range(kernel, (64,), (16,))
        # a second synchronous launch reuses the kernel's uniform region
        assert driver.regions_allocated == allocated
        queue.enqueue_nd_range_async(kernel, 64, 16)
        driver.drain()
        assert driver.regions_allocated == allocated + 1
        first, second, queued = handed
        assert first == second
        # (global, local, binary region, binary size, uniform region,
        # uniform count, local memory): only the uniform region differs
        assert queued[4] is not first[4]
        assert queued[:4] + queued[5:] == first[:4] + first[5:]


# -- campaign + CLI integration -----------------------------------------------


class TestCampaignAndCLI:
    def test_campaign_runs_isolate_scenario(self):
        from repro.inject.campaign import SCENARIOS, run_case

        assert SCENARIOS["xtenant-mmu"] == "isolate"
        case, plan = run_case("sgemm", "xtenant-hang", 0,
                              engine="interpreter",
                              check_determinism=False)
        assert case.ok, case.detail
        assert plan is None
        assert case.fired > 0

    def test_cli_fairness_smoke(self, capsys, tmp_path, monkeypatch):
        from repro.validate import farm

        # the verb is one farm sweep; given an outdir, its case leaves
        # the fairness table behind as the provider's artifact
        run_farm = farm.run_farm
        monkeypatch.setattr(farm, "run_farm", lambda config, **kwargs:
                            run_farm(config, outdir=str(tmp_path), **kwargs))
        assert cli_main(["tenants", "--tenants", "4", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "RESULT tenants status=ok" in out
        [table] = tmp_path.glob("artifacts/*/fairness.txt")
        text = table.read_text()
        assert "rt" in text and "bg" in text  # >= 2 QoS classes exercised

    def test_cli_adversarial_smoke(self, capsys):
        assert cli_main(["faultcampaign", "--workloads", "sgemm",
                         "--scenarios", "xtenant-irq-lost",
                         "--no-determinism"]) == 0
        out = capsys.readouterr().out
        assert "RESULT faultcampaign status=ok mode=sweep" in out

    def test_farm_fails_a_tenant_that_differs_from_its_solo_run(
            self, monkeypatch):
        from repro.tenancy import harness
        from repro.validate.farm import run_farm

        solo_baseline = harness.solo_baseline
        monkeypatch.setattr(
            harness, "solo_baseline", lambda plans, victim, **kwargs:
            solo_baseline(plans, victim, **{**kwargs, "seed": 1}))
        run = run_farm({"name": "planted", "sweeps": [
            {"kind": "tenants", "tenants": 2, "jobs": 1,
             "engine_modes": ["mega"]}]}, workers=0)
        [case] = run.report["cases"]
        assert case["verdict"] == "fail"
        assert "not isolated" in case["detail"]
        assert case["counters"]["isolation_checked"] == 2
