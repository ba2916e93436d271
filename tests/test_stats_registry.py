"""Unit + golden-regression tests: the unified cross-layer stats registry.

The golden tests are the engine-conformance contract of ISSUE 3: sgemm and
a warp-divergent kernel must produce *identical*
``snapshot(golden_only=True)`` output on the interpreter, the quad fast
path and the megakernel, and the snapshot must be stable across repeated
runs.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.instrument import (
    Counter,
    JobStats,
    Probe,
    StatsRegistry,
    format_registry,
    register_job_stats,
)
from repro.kernels import get_workload

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestStatsRegistry:
    def test_counter_accumulates(self):
        registry = StatsRegistry()
        counter = registry.counter("a.b", desc="demo")
        counter.increment()
        counter.increment(4)
        counter.add(5)
        assert registry.value("a.b") == 10
        assert "a.b" in registry

    def test_probe_views_live_value(self):
        registry = StatsRegistry()
        state = {"n": 0}
        registry.probe("live", lambda: state["n"])
        state["n"] = 7
        assert registry.value("live") == 7

    def test_scope_prefixes_and_nests(self):
        registry = StatsRegistry()
        gpu = registry.scope("gpu")
        core = gpu.scope("core0")
        core.counter("warps").increment()
        assert registry.value("gpu.core0.warps") == 1
        assert registry.names() == ["gpu.core0.warps"]

    def test_get_or_create_returns_same_stat(self):
        registry = StatsRegistry()
        first = registry.counter("shared")
        second = registry.counter("shared")
        assert first is second
        first.increment()
        assert second.value() == 1

    def test_kind_conflict_raises(self):
        registry = StatsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError, match="already registered"):
            registry.probe("name", lambda: 0)

    def test_dump_golden_filter_and_sorting(self):
        registry = StatsRegistry()
        registry.counter("b.diag", golden=False).add(1)
        registry.counter("a.arch").add(2)
        full = registry.snapshot()
        assert list(full) == ["a.arch", "b.diag"]
        assert registry.snapshot(golden_only=True) == {"a.arch": 2}

    def test_format_registry_alignment_and_buckets(self):
        registry = StatsRegistry()
        registry.counter("jobs", desc="jobs retired").add(3)
        registry.probe("sizes", lambda: {4: 2, 1: 7})
        text = format_registry(registry)
        assert "jobs" in text and "# jobs retired" in text
        assert text.index("sizes::1") < text.index("sizes::4")
        assert format_registry(StatsRegistry()) == "(no statistics registered)"

    def test_register_job_stats_probes_and_formulas(self):
        registry = StatsRegistry()
        stats = JobStats()
        register_job_stats(registry.scope("gpu.job"), lambda: stats)
        stats.arith_instrs = 10
        stats.nop_instrs = 5
        stats.clause_size_histogram = {8: 1, 4: 2}
        assert all(isinstance(stat, Probe) for stat in registry.stats())
        # a view, sorted by bucket regardless of insertion order
        assert list(registry.value("gpu.job.clause_size_histogram")) == [4, 8]
        snapshot = registry.snapshot()
        assert snapshot["gpu.job.arith_instrs"] == 10
        assert snapshot["gpu.job.total_instrs"] == 15
        assert snapshot["gpu.job.clause_size_histogram"] == {"4": 2, "8": 1}
        assert snapshot["gpu.job.average_clause_size"] == pytest.approx(
            16 / 3)

    def test_exports(self):
        assert Counter.kind == "counter"
        assert Probe.kind == "probe"


# -- golden cross-engine regression --------------------------------------------


def _run_divergent(engine, fast_path=True):
    """Run examples/divergent.cl on a full platform; return the golden
    snapshot."""
    config = PlatformConfig(
        gpu=GPUConfig(engine=engine, instrument=True)
    )
    context = Context(MobilePlatform(config))
    context.platform.gpu.mmu.fast_path_enabled = fast_path
    queue = CommandQueue(context)
    n = 64
    data = (np.arange(n, dtype=np.int32) * 7) % 23
    buf_data = context.buffer_from_array(data)
    buf_out = context.buffer_from_array(np.zeros(n, dtype=np.int32))
    source = (EXAMPLES / "divergent.cl").read_text()
    kernel = context.build_program(source).kernel("divergent")
    kernel.set_args(buf_data, buf_out)
    queue.enqueue_nd_range(kernel, (n,), (16,))
    return context.platform.stats_registry.snapshot(golden_only=True)


def _run_sgemm(engine):
    config = PlatformConfig(
        gpu=GPUConfig(engine=engine, instrument=True)
    )
    context = Context(MobilePlatform(config))
    workload = get_workload("sgemm", m=16, k=16, n=16)
    result = workload.run(context=context)
    assert result.verified
    return context.platform.stats_registry.snapshot(golden_only=True)


class TestGoldenCrossEngine:
    def test_divergent_kernel_identical_across_engines(self):
        interp = _run_divergent("interpreter", fast_path=False)
        fast = _run_divergent("interpreter", fast_path=True)
        mega = _run_divergent("mega")
        assert interp == fast
        assert interp == mega
        # the workload actually diverged, so the counters mean something
        assert interp["gpu.job.divergent_branches"] > 0

    def test_divergent_kernel_stable_across_runs(self):
        assert _run_divergent("mega") == _run_divergent("mega")

    def test_sgemm_identical_across_engines(self):
        interp = _run_sgemm("interpreter")
        mega = _run_sgemm("mega")
        assert interp == mega
        assert interp["gpu.job.total_instrs"] > 0
        assert interp["cl.runtime.kernels_launched"] >= 1

    def test_sgemm_stable_across_runs(self):
        assert _run_sgemm("interpreter") == _run_sgemm("interpreter")

    def test_dump_spans_every_layer(self):
        snapshot = _run_divergent("interpreter")
        prefixes = {name.split(".")[0] for name in snapshot}
        assert {"cpu", "driver", "gpu", "cl"} <= prefixes
        assert snapshot["gpu.jobmanager.jobs_retired"] == 1
        assert snapshot["driver.kbase.jobs_submitted"] == 1
        assert snapshot["gpu.mmu.translations"] > 0
