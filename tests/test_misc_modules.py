"""Tests for the remaining small modules: workload base, M2S runtime
adapter, SLAM scene/configs, analysis tables, errors."""

import numpy as np
import pytest

from repro.errors import (
    BusError,
    CLError,
    CompileError,
    DriverError,
    GuestError,
    JobFault,
    MMUFault,
    SimError,
)


class TestErrors:
    def test_hierarchy(self):
        for exc in (BusError, CLError, CompileError, DriverError,
                    GuestError, JobFault, MMUFault):
            assert issubclass(exc, SimError)

    def test_mmu_fault_fields(self):
        fault = MMUFault(0x1234, "w")
        assert fault.vaddr == 0x1234
        assert fault.access == "w"
        assert "0x1234" in str(fault)

    def test_compile_error_location(self):
        error = CompileError("bad", line=3, col=7)
        assert "3:7" in str(error)
        assert error.line == 3


class TestWorkloadBase:
    def test_unknown_parameter_rejected(self):
        from repro.kernels import get_workload

        with pytest.raises(TypeError):
            get_workload("SobelFilter", bogus=1)

    def test_unknown_workload_rejected(self):
        from repro.kernels import get_workload

        with pytest.raises(KeyError):
            get_workload("NotAWorkload")

    def test_prepare_is_deterministic(self):
        from repro.kernels import get_workload

        a = get_workload("URNG", n=64).prepare()
        b = get_workload("URNG", n=64).prepare()
        np.testing.assert_array_equal(a["image"], b["image"])

    def test_run_native_returns_positive_time(self):
        from repro.baselines.native import native_seconds
        from repro.kernels import get_workload

        workload = get_workload("nn", records=64)
        assert native_seconds(workload, repeats=1) > 0

    def test_registry_covers_table_ii(self):
        from repro.kernels import WORKLOADS

        table_ii = {"BinarySearch", "BinomialOption", "BitonicSort", "DCT",
                    "DwtHaar1D", "FloydWarshall", "MatrixTranspose",
                    "RecursiveGaussian", "Reduction", "ScanLargeArrays",
                    "SobelFilter", "URNG", "backprop", "bfs", "cutcp", "nn",
                    "sgemm", "spmv", "stencil"}
        assert table_ii <= set(WORKLOADS)


class TestM2SRuntimeAdapter:
    def test_workload_runs_unmodified_on_baseline(self):
        from repro.analysis.figures import run_workload_m2s
        from repro.kernels import get_workload

        seconds, verified, stats = run_workload_m2s(
            get_workload("MatrixTranspose", width=16, height=16)
        )
        assert verified
        assert seconds > 0
        assert stats.total > 0

    def test_adapter_checks_unset_args(self):
        from repro.baselines.m2s_runtime import M2SContext, M2SQueue

        context = M2SContext()
        queue = M2SQueue(context)
        kernel = context.build_program("""
        __kernel void k(__global int* out) { out[0] = 1; }
        """).kernel("k")
        kernel._args[0] = None
        with pytest.raises(CLError):
            queue.enqueue_nd_range(kernel, (4,), (4,))


class TestSlamScene:
    def test_camera_motion_changes_depth(self):
        from repro.slam import synthetic_depth_frame

        frame0 = synthetic_depth_frame(16, 12, frame_index=0, noise=0.0)
        frame5 = synthetic_depth_frame(16, 12, frame_index=5, noise=0.0)
        # the camera moves forward: the wall gets closer
        assert frame5[0, 0] < frame0[0, 0]

    def test_noise_is_seeded(self):
        from repro.slam import synthetic_depth_frame

        a = synthetic_depth_frame(16, 12, frame_index=2)
        b = synthetic_depth_frame(16, 12, frame_index=2)
        np.testing.assert_array_equal(a, b)


class TestAnalysisTables:
    def test_table_ii_generated_from_registry(self):
        from repro.analysis.tables import render_table_ii

        text = render_table_ii()
        assert "SobelFilter" in text
        assert "1536x1536" in text  # paper input recorded

    def test_table_iv_contains_paper_rows(self):
        from repro.analysis.tables import render_table_iv

        text = render_table_iv()
        for simulator in ("Barra", "GPGPU-Sim", "Multi2Sim", "TEAPOT",
                          "GCN3 Simulator"):
            assert simulator in text

    def test_table_i(self):
        from repro.analysis.tables import render_table_i

        assert "Bifrost-like" in render_table_i()


class TestPlatformStaging:
    def test_staging_wraps_around(self):
        from repro.core.platform import STAGING_SIZE, MobilePlatform

        platform = MobilePlatform()
        first = platform.stage_bytes(b"x" * 1024)
        # exhaust the window
        platform._staging_next = first + STAGING_SIZE - 512
        wrapped = platform.stage_bytes(b"y" * 1024)
        assert wrapped < platform._staging_next

    def test_oversized_staging_rejected(self):
        from repro.core.platform import STAGING_SIZE, MobilePlatform

        platform = MobilePlatform()
        with pytest.raises(ValueError):
            platform.stage_bytes(b"z" * (STAGING_SIZE + 1))


class TestFigureTimingIsIndependentOfProcessHistory:
    """A build is paid once per content per process, so the figures
    build before they start a clock: what they time holds no build,
    whether or not the process built that workload before."""

    @staticmethod
    def _builds_by_region(monkeypatch):
        """Per-kernel compiles and binary-gate calls, split by whether
        they fall between two clock reads of a timed region (the
        ``perf_counter`` pairs of ``Workload.run``, ``run_workload_m2s``
        and the launch-overhead calibration)."""
        import sys
        import time

        from repro.cl import runtime
        from repro.clc import compiler
        from repro.hostcode import BoundedTable

        # a cold process: nothing built yet
        monkeypatch.setattr(compiler, "_programs", BoundedTable(64))
        monkeypatch.setattr(runtime, "_builds", BoundedTable(64))
        timed = {("base.py", "run"), ("figures.py", "run_workload_m2s")}
        builds = {"inside": 0, "outside": 0, "regions": 0}
        running = [False]
        clock = time.perf_counter

        def reading_clock():
            code = sys._getframe(1).f_code
            if (code.co_filename.rsplit("/", 1)[-1], code.co_name) in timed:
                running[0] = not running[0]
                builds["regions"] += running[0]
            return clock()

        def counting(function):
            def counted(*args, **kwargs):
                builds["inside" if running[0] else "outside"] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(time, "perf_counter", reading_clock)
        monkeypatch.setattr(compiler, "compile_kernel",
                            counting(compiler.compile_kernel))
        monkeypatch.setattr(runtime, "verify_binary",
                            counting(runtime.verify_binary))
        return builds

    def test_fig08_times_no_build(self, monkeypatch):
        from repro.analysis.figures import fig08_vs_m2s

        builds = self._builds_by_region(monkeypatch)
        sizes = {"MatrixTranspose": {"width": 16, "height": 16}}
        for expected in (2, 0):  # cold: one compile, one gate; then warm
            builds.update(inside=0, outside=0, regions=0)
            row, = fig08_vs_m2s(("MatrixTranspose",), sizes)
            assert row["verified"]
            assert builds == {"inside": 0, "outside": expected,
                              "regions": 3}
