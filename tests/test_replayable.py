"""Tests: the one replayable workload set (repro.kernels.replayable).

The fault campaign and the tenant harness must run the *same*
definitions — one kernel source, one oracle, one setup order each — and
the campaign's command streams are the canonical ones: its case results
are pinned here as literals.
"""

import pathlib
import re

import numpy as np
import pytest

import repro
from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform
from repro.driver.kbase import TenancyConfig
from repro.inject import campaign
from repro.kernels import WORKLOADS
from repro.kernels.replayable import REPLAYABLE
from repro.tenancy import harness

SRC = pathlib.Path(repro.__file__).parent


def test_harnesses_define_no_kernels_of_their_own():
    for package in ("inject", "tenancy"):
        for path in sorted((SRC / package).glob("*.py")):
            assert "__kernel" not in path.read_text(), path
    sources = "".join(path.read_text() for path in SRC.rglob("*.py"))
    for kernel in ("divergent", "fillseq", "oob"):
        assert len(re.findall(rf"__kernel void {kernel}\b", sources)) == 1


@pytest.mark.parametrize("name", campaign.DEFAULT_WORKLOADS)
def test_campaign_and_tenants_resolve_the_same_class(name):
    cls = REPLAYABLE[name]
    assert cls.__module__ == "repro.kernels.replayable"
    assert type(campaign._make_workload(name)) is cls
    assert type(harness._workload(harness.TenantPlan(name))) is cls
    assert not hasattr(harness, "WORKLOADS")
    assert not hasattr(repro.tenancy, "make_workload")


def test_replayable_is_a_second_registry():
    assert sorted(REPLAYABLE) == ["divergent", "fillseq", "oob", "sgemm"]
    assert REPLAYABLE["sgemm"] is not WORKLOADS["sgemm"]
    assert WORKLOADS["sgemm"].beta == 0.5 and REPLAYABLE["sgemm"].beta == 0.0
    assert not {"divergent", "fillseq", "oob"} & set(WORKLOADS)
    assert campaign.known_workloads() == sorted({"divergent", *WORKLOADS})
    assert {name: cls().params for name, cls in REPLAYABLE.items()} == {
        "sgemm": {"m": 32, "k": 24, "n": 40},
        "divergent": {"n": 4096},
        "fillseq": {"n": 8192},
        "oob": {"n": 256, "offset": 1 << 22},
    }
    assert [cls().total_groups() for cls in REPLAYABLE.values()] \
        == [20, 64, 128, 4]
    assert [cls.expects_failure for cls in REPLAYABLE.values()] \
        == [False, False, False, True]


def _bytes(outputs):
    return b"".join(np.ascontiguousarray(out).tobytes() for out in outputs)


@pytest.mark.parametrize("name", ["sgemm", "divergent", "fillseq"])
def test_sync_execute_equals_arbitrated_phases(name):
    workload = REPLAYABLE[name]()
    inputs = workload.prepare()
    context = Context(MobilePlatform.for_mode("mega"))
    outputs = workload.execute(context, CommandQueue(context), inputs)
    assert workload.check(outputs, workload.reference(inputs))

    platform = MobilePlatform.for_mode(
        "mega", tenancy=TenancyConfig.symmetric(1)).initialize()
    context = Context(platform=platform, tenant=platform.driver.tenant(0))
    queue = CommandQueue(context)
    state = workload.setup(context, queue, inputs)
    job = queue.enqueue_nd_range_async(state["kernel"], *workload.geometry())
    platform.driver.drain()
    assert job.done and job.error is None
    assert _bytes(workload.collect(queue, state)) == _bytes(outputs)


def test_campaign_streams_are_the_parents():
    """The values the parent commit returned, as literals."""
    result, plan = campaign.run_case("sgemm", "irq-lost", 0, engine="mega")
    assert result.ok and result.fired == 1
    assert result.detail == "irq_mismatches=1 total=1"
    assert result.counters == {
        "driver.retries": 0, "driver.resets": 0, "driver.soft_stops": 0,
        "driver.hard_stops": 0, "driver.irq_mismatches": 1,
        "driver.spurious_irqs": 0, "driver.backoff_ticks": 0,
        "driver.page_faults": 0, "driver.pages_grown": 0,
        "driver.alloc_failures": 0, "driver.faults_unrecovered": 0,
        "gpu.faults.mmu_injected": 0, "gpu.faults.page_faults_resolved": 0,
        "gpu.faults.watchdog_timeouts": 0,
        "gpu.faults.descriptor_corruptions": 0, "gpu.faults.soft_resets": 0,
        "inject.total": 1}
    assert plan.to_dict() == {"name": "irq-lost", "specs": [
        {"site": "irq.lost", "count": 1}]}

    # the faulted page is chosen from the clean run's touched pages, so
    # it moves if the setup order (allocation / fill / build) does
    result, plan = campaign.run_case("divergent", "mmu-transient", 0,
                                     engine="mega", check_determinism=False)
    assert result.ok
    assert result.detail == "backoff_ticks=8 retries=1 mmu_injected=1 total=1"
    assert plan.to_dict()["specs"] == [
        {"site": "mmu.page", "key": 4099, "count": 1,
         "params": {"kind": "translation", "access": "r"}}]

    result, _plan = campaign.run_case("sgemm", "heap-grow", 0, engine="mega")
    assert (result.ok, result.detail, result.counters) == (
        True, "pages_grown=10 page_faults=2",
        {"driver.page_faults": 2, "driver.pages_grown": 10})
