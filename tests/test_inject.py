"""Unit tests: fault injection, kbase-faithful recovery, fault campaign."""

import numpy as np
import pytest

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.driver.kbase import RecoveryPolicy
from repro.errors import (
    DriverError,
    IRQMismatchError,
    JobFault,
    SimError,
)
from repro.inject import FaultInjector, FaultPlan, FaultSpec
from repro.inject.campaign import SCENARIOS, run_case
from repro.mem.physical import PAGE_SIZE

_FILL_SOURCE = """
__kernel void fill(__global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * 7 + 3;
    }
}
"""


def _fresh_context():
    return Context(MobilePlatform(PlatformConfig()))


def _run_fill(context, queue=None, n=256, grow=False):
    queue = queue or CommandQueue(context)
    buffer = context.alloc_buffer(n * 4, grow_on_fault=grow)
    kernel = context.build_program(_FILL_SOURCE).kernel("fill")
    kernel.set_args(buffer, n)
    queue.enqueue_nd_range(kernel, (n,), (64,))
    return queue.enqueue_read_buffer(buffer, dtype=np.int32, count=n)


def _expected_fill(n=256):
    return (np.arange(n, dtype=np.int64) * 7 + 3).astype(np.int32)


class TestPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec("mmu.bogus")

    def test_keyed_site_requires_key(self):
        with pytest.raises(ValueError, match="requires a key"):
            FaultSpec("mmu.page")

    def test_occurrence_site_rejects_key(self):
        with pytest.raises(ValueError, match="occurrence-keyed"):
            FaultSpec("irq.lost", key=3)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec("irq.lost", count=0)

    def test_round_trip(self):
        plan = FaultPlan(
            [FaultSpec("mmu.page", key=0x123, count=None,
                       params={"kind": "permission", "access": "w"}),
             FaultSpec("descriptor.read", occurrence=2,
                       params={"offset": 1, "mask": 0x80})],
            name="mixed", seed=7)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.name == "mixed" and clone.seed == 7
        assert [spec.to_dict() for spec in clone] \
            == [spec.to_dict() for spec in plan]


class TestInjector:
    def test_occurrence_site_fires_on_nth_visit(self):
        injector = FaultInjector([FaultSpec("irq.lost", occurrence=2)])
        assert injector.fire("irq.lost") is None
        assert injector.fire("irq.lost") is not None
        assert injector.fire("irq.lost") is None  # count=1 consumed
        assert injector.fired["irq.lost"] == 1

    def test_persistent_spec_fires_every_visit(self):
        injector = FaultInjector([FaultSpec("alloc.phys", count=None)])
        for _ in range(5):
            assert injector.fire("alloc.phys") is not None
        assert injector.fired["alloc.phys"] == 5

    def test_keyed_site_matches_only_its_key(self):
        injector = FaultInjector(
            [FaultSpec("core.hang", key=3, params={"stall_rounds": 9})])
        assert injector.fire("core.hang", key=2) is None
        assert injector.fire("core.hang", key=3) == {"stall_rounds": 9}
        assert injector.fire("core.hang", key=3) is None

    def test_page_armed_is_non_consuming(self):
        injector = FaultInjector([FaultSpec("mmu.page", key=0x40)])
        for _ in range(3):
            assert injector.armed("mmu.page", 0x40)
        assert not injector.armed("mmu.page", 0x41)
        assert not injector.armed("core.hang", 0x40)
        assert injector.fire_page(0x40) is not None
        assert not injector.armed("mmu.page", 0x40)  # consumed
        assert injector.fire_page(0x40) is None


class TestGrowOnFault:
    def test_growable_region_commits_lazily(self):
        platform = MobilePlatform().initialize()
        driver = platform.driver
        region = driver.alloc_region(8 * PAGE_SIZE, grow_on_fault=True)
        assert region.growable
        assert region.committed \
            == driver.policy.grow_initial_pages * PAGE_SIZE
        # the committed window translates; the rest faults into the
        # driver's page-fault worker, which grows the mapping and the
        # access resumes
        mmu = platform.gpu.mmu
        assert mmu.translate(region.gpu_va, "w") == region.phys
        vaddr = region.gpu_va + 5 * PAGE_SIZE + 8
        assert mmu.translate(vaddr, "w") == region.phys + 5 * PAGE_SIZE + 8
        assert driver.page_faults == 1
        assert driver.pages_grown >= 5
        assert mmu.page_faults_resolved == 1
        assert region.committed > 5 * PAGE_SIZE

    def test_growable_cannot_be_executable(self):
        platform = MobilePlatform().initialize()
        with pytest.raises(DriverError, match="executable"):
            platform.driver.alloc_region(PAGE_SIZE, executable=True,
                                         grow_on_fault=True)

    def test_free_growable_region_balances_bytes_mapped(self):
        platform = MobilePlatform().initialize()
        driver = platform.driver
        before = driver.bytes_mapped
        region = driver.alloc_region(8 * PAGE_SIZE, grow_on_fault=True)
        platform.gpu.mmu.translate(region.gpu_va + 6 * PAGE_SIZE, "w")
        driver.free_region(region)
        assert driver.bytes_mapped == before

    def test_kernel_over_growable_buffer_is_exact(self):
        context = _fresh_context()
        got = _run_fill(context, n=4 * PAGE_SIZE // 4, grow=True)
        assert np.array_equal(got, _expected_fill(4 * PAGE_SIZE // 4))
        assert context.platform.driver.page_faults > 0


class TestRecoveryLadder:
    def _faulted_run(self, plan):
        context = _fresh_context()
        injector = context.platform.attach_injector(FaultInjector(plan))
        got = _run_fill(context)
        return context, injector, got

    def test_transient_mmu_fault_recovers_bit_exact(self):
        clean = _run_fill(_fresh_context())
        probe = _fresh_context()
        _run_fill(probe)
        page = max(probe.platform.gpu.mmu.pages_accessed)
        plan = [FaultSpec("mmu.page", key=page,
                          params={"kind": "permission", "access": "w"})]
        context, injector, got = self._faulted_run(plan)
        assert np.array_equal(got, clean)
        driver = context.platform.driver
        assert injector.total_fired == 1
        assert driver.retries == 1
        assert context.platform.gpu.mmu.injected_faults == 1

    def test_persistent_fault_exhausts_ladder_and_leaves_gpu_usable(self):
        plan = [FaultSpec("descriptor.read", count=None)]
        context = _fresh_context()
        context.platform.attach_injector(FaultInjector(plan))
        with pytest.raises(JobFault, match="unrecoverable"):
            _run_fill(context)
        driver = context.platform.driver
        assert driver.faults_unrecovered == 1
        assert driver.retries == driver.policy.max_retries
        assert driver.resets == 1
        assert context.platform.gpu.soft_resets == 1
        # the reset + re-bring-up leaves the same platform fully usable
        context.platform.attach_injector(None)
        assert np.array_equal(_run_fill(context), _expected_fill())

    def test_injected_hang_walks_soft_stop_ladder(self):
        plan = [FaultSpec("core.hang", key=0)]
        context, injector, got = self._faulted_run(plan)
        assert np.array_equal(got, _expected_fill())
        driver = context.platform.driver
        jm = context.platform.gpu.job_manager
        assert jm.watchdog_timeouts == 1
        assert driver.soft_stops == 1
        assert driver.retries == 1

    def test_lost_irq_recovered_from_rawstat(self):
        plan = [FaultSpec("irq.lost")]
        context, injector, got = self._faulted_run(plan)
        assert np.array_equal(got, _expected_fill())
        assert context.platform.driver.irq_mismatches == 1

    def test_spurious_irq_acknowledged(self):
        plan = [FaultSpec("irq.spurious", params={"line": "mmu"})]
        context, injector, got = self._faulted_run(plan)
        assert np.array_equal(got, _expected_fill())
        assert context.platform.driver.spurious_irqs == 1

    def test_strict_irq_policy_raises_mismatch(self):
        context = _fresh_context()
        context.platform.driver.policy = RecoveryPolicy(strict_irq=True)
        context.platform.attach_injector(
            FaultInjector([FaultSpec("irq.spurious", params={"line": "mmu"})]))
        with pytest.raises(IRQMismatchError, match="spurious"):
            _run_fill(context)

    def test_injected_alloc_failure_is_clean_and_transient(self):
        context = _fresh_context()
        context.platform.attach_injector(
            FaultInjector([FaultSpec("alloc.phys")]))
        with pytest.raises(DriverError, match="allocation"):
            _run_fill(context)
        assert context.platform.driver.alloc_failures == 1
        # the injected failure was transient; the platform keeps working
        assert np.array_equal(_run_fill(context), _expected_fill())


class TestCLRuntimeFaults:
    def test_unrecoverable_launch_records_errored_event(self):
        context = _fresh_context()
        queue = CommandQueue(context, profiling=True)
        context.platform.attach_injector(
            FaultInjector([FaultSpec("descriptor.read", count=None)]))
        with pytest.raises(JobFault):
            _run_fill(context, queue=queue)
        assert queue.events[-1].kind == "ndrange"
        assert queue.events[-1].status == "error"
        assert context.stat_kernels_failed.value() == 1
        # same context and queue keep working afterwards
        context.platform.attach_injector(None)
        got = _run_fill(context, queue=queue)
        assert np.array_equal(got, _expected_fill())
        assert queue.events[-2].status == "complete"  # the clean ndrange


class TestCampaign:
    def test_scenario_table_complete(self):
        assert set(SCENARIOS.values()) == {"recover", "fail-clean",
                                           "grow", "isolate"}

    def test_transient_case_passes(self):
        case, plan = run_case("divergent", "mmu-transient", 0,
                              check_determinism=True)
        assert case.ok, case.detail
        assert case.fired == 1
        assert plan is not None and len(plan) == 1

    def test_persistent_case_passes(self):
        case, _plan = run_case("divergent", "hang-persistent", 0,
                               check_determinism=False)
        assert case.ok, case.detail
        assert case.counters["driver.faults_unrecovered"] == 1
        assert case.counters["driver.resets"] == 1

    def test_reproducer_round_trip(self, tmp_path):
        from repro.validate.farm import PROVIDERS, run_farm

        case, _plan = run_case("divergent", "irq-lost", 0,
                               check_determinism=False)
        assert case.ok
        [name] = PROVIDERS["fault"].write_reproducer(str(tmp_path), {
            "workload": "divergent", "scenario": "irq-lost", "seed": 0,
            "engine": "interpreter", "check_determinism": False})
        replayed = run_farm(str(tmp_path / name), workers=0)
        [outcome] = replayed.report["cases"]
        assert replayed.ok, outcome["detail"]
        assert outcome["id"] == "fault/divergent/irq-lost/s0/interpreter/t1"
        assert outcome["detail"] == case.detail


def _planned_run(workload, scenario, engine):
    """*scenario*'s seed-0 plan, built from *engine*'s clean run, run on
    a fresh *engine* platform: (counters, error text, output bytes,
    registry snapshot)."""
    import random

    from repro.inject import campaign

    clean = campaign._clean_run(workload, engine)
    plan = campaign.build_plan(
        scenario, random.Random(f"{workload}:{scenario}:0"), clean.pages,
        clean.groups)
    run = campaign._execute(workload, engine, plan=plan)
    return (run.counters(), str(run.error), run.output_bytes,
            run.platform.stats_registry.snapshot())


class TestMegaUnderFaultPlans:
    """An attached fault plan neither moves a job off mega nor switches
    its lockstep batching off: the campaign's counters, error text and
    outputs are the interpreter's."""

    @pytest.mark.parametrize("scenario", ["hang-transient",
                                          "hang-persistent"])
    def test_injected_hang_stalls_the_group_on_mega(self, scenario):
        from repro.gpu.shadercore import ComputeUnit

        interp = _planned_run("sgemm", scenario, "interp")
        spawned = []
        spawn = ComputeUnit._spawn_warps

        def counted(self, *args):
            spawned.append(args)
            return spawn(self, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ComputeUnit, "_spawn_warps", counted)
            mega = _planned_run("sgemm", scenario, "mega")
        assert mega[:3] == interp[:3]
        assert mega[0]["gpu.faults.watchdog_timeouts"] > 0
        # the stalled group stayed on mega: no group ever spawned the
        # interpreter's quad warps
        assert spawned == []
        assert mega[3]["gpu.mmu.quad_accesses"] == 0
        case, _plan = run_case("sgemm", scenario, 0, engine="mega",
                               check_determinism=False)
        assert case.ok, case.detail

    def test_fault_plan_keeps_batches(self):
        mega = _planned_run("sgemm", "mmu-transient", "mega")
        assert mega[:3] == _planned_run("sgemm", "mmu-transient",
                                        "interp")[:3]
        assert mega[0]["gpu.faults.mmu_injected"] == 1
        assert mega[3]["gpu.jobmanager.batches_run"] > 0

    def test_batch_ends_before_an_armed_hang_group(self):
        """Groups before and after the armed one still run batched; the
        armed group runs alone and consumes the hang."""
        from repro.gpu.megakernel import MegaKernel

        calls = []
        run = MegaKernel.run_workgroup

        def recording(self, shape, flat_group, *args, **kwargs):
            count = args[2] if len(args) > 2 else kwargs.get("count", 1)
            calls.append((flat_group, count, kwargs.get("stalled", 0)))
            return run(self, shape, flat_group, *args, **kwargs)

        context = Context(MobilePlatform.for_mode("mega"))
        injector = FaultInjector([FaultSpec("core.hang", key=5, count=1,
                                            params={"stall_rounds": 2})])
        context.platform.attach_injector(injector)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MegaKernel, "run_workgroup", recording)
            out = _run_fill(context, n=1024)
        np.testing.assert_array_equal(out, _expected_fill(1024))
        assert injector.fired["core.hang"] == 1
        assert calls == [(0, 5, 0), (5, 1, 2), (6, 10, 0)]


class TestCleanRunMemo:
    """``run_case`` reuses a workload's clean run within a process: the
    outcome must not depend on whether it did, and what it keeps must be
    observables, never a platform."""

    CASES = [("divergent", "mmu-transient"),    # recover
             ("divergent", "hang-persistent"),  # fail-clean
             ("sgemm", "xtenant-irq-lost")]     # isolate (no clean run)

    def test_memoised_and_fresh_outcomes_agree_and_hold_no_platform(
            self, monkeypatch):
        import gc
        import weakref

        from repro.core.platform import MobilePlatform
        from repro.inject import campaign

        platforms = []
        build = MobilePlatform.for_mode.__func__

        def tracked(cls, *args, **kwargs):
            platform = build(cls, *args, **kwargs)
            platforms.append(weakref.ref(platform))
            return platform

        monkeypatch.setattr(MobilePlatform, "for_mode", classmethod(tracked))

        def outcome(workload, scenario):
            case, _plan = run_case(workload, scenario, 0,
                                   check_determinism=False)
            return case.ok, case.detail, case.counters, case.fired

        fresh = []
        for workload, scenario in self.CASES:
            campaign._clean_runs.clear()
            fresh.append(outcome(workload, scenario))
        built_fresh = len(platforms)
        memoised = [outcome(workload, scenario)
                    for workload, scenario in self.CASES]
        assert memoised == fresh
        assert all(ok for ok, _detail, _counters, _fired in fresh), fresh
        # this time the second divergent case reused the first's clean run
        assert len(platforms) - built_fresh == built_fresh - 1
        assert campaign._clean_runs
        gc.collect()
        assert not any(ref() is not None for ref in platforms)


class TestGoldenStatsUnaffected:
    def test_detached_injector_costs_nothing_in_golden_stats(self):
        """With no injector attached, every injection counter reads zero
        and the golden register/translation counts match a platform that
        never knew about injection (the zero-hot-path-cost invariant)."""
        def run():
            context = _fresh_context()
            _run_fill(context)
            registry = context.platform.stats_registry
            golden = {
                name: registry.value(name)
                for name in ("gpu.ctrl_reg_reads", "gpu.ctrl_reg_writes",
                             "gpu.mmu.translations",
                             "driver.kbase.jobs_submitted")
            }
            inject_total = registry.value("inject.total")
            return golden, inject_total

        (golden_a, inject_a), (golden_b, inject_b) = run(), run()
        assert golden_a == golden_b
        assert inject_a == inject_b == 0
