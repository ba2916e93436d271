"""Unit tests: the OpenCL-like runtime API surface."""

import numpy as np
import pytest

from repro.errors import CLError, CompileError
from repro.cl import Buffer, CommandQueue, Context, LocalMemory

KERNEL = """
__kernel void fill(__global float* out, float value, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = value;
    }
}

__kernel void with_local(__global int* out, __local int* tile) {
    int lid = get_local_id(0);
    tile[lid] = lid;
    barrier(1);
    out[get_global_id(0)] = tile[get_local_size(0) - 1 - lid];
}
"""


@pytest.fixture(scope="module")
def context():
    return Context()


@pytest.fixture(scope="module")
def program(context):
    return context.build_program(KERNEL)


class TestBuffers:
    def test_zero_size_rejected(self, context):
        with pytest.raises(CLError):
            context.alloc_buffer(0)

    def test_from_array_roundtrip(self, context):
        data = np.arange(100, dtype=np.int32)
        buffer = context.buffer_from_array(data)
        queue = CommandQueue(context)
        out = queue.enqueue_read_buffer(buffer, np.int32)
        np.testing.assert_array_equal(out, data)

    def test_oversized_write_rejected(self, context):
        buffer = context.alloc_buffer(16)
        with pytest.raises(CLError):
            CommandQueue(context).enqueue_write_buffer(
                buffer, np.zeros(100, dtype=np.float32))

    def test_fill_buffer(self, context):
        buffer = context.alloc_buffer(64)
        queue = CommandQueue(context)
        queue.enqueue_fill_buffer(buffer, 0xAB)
        out = queue.enqueue_read_buffer(buffer)
        assert (out == 0xAB).all()

    def test_partial_read(self, context):
        data = np.arange(50, dtype=np.float32)
        buffer = context.buffer_from_array(data)
        queue = CommandQueue(context)
        out = queue.enqueue_read_buffer(buffer, np.float32, count=10)
        np.testing.assert_array_equal(out, data[:10])

    def test_copy_buffer(self, context):
        data = np.arange(64, dtype=np.int32)
        src = context.buffer_from_array(data)
        dst = context.alloc_buffer(data.nbytes)
        queue = CommandQueue(context)
        queue.enqueue_copy_buffer(src, dst)
        out = queue.enqueue_read_buffer(dst, np.int32)
        np.testing.assert_array_equal(out, data)

    def test_copy_buffer_size_checked(self, context):
        src = context.buffer_from_array(np.zeros(16, dtype=np.int32))
        dst = context.alloc_buffer(16)
        with pytest.raises(CLError):
            CommandQueue(context).enqueue_copy_buffer(src, dst, nbytes=128)


class TestKernelArgs:
    def test_kernel_names(self, program):
        assert program.kernel_names == ["fill", "with_local"]

    def test_missing_kernel(self, program):
        with pytest.raises(CompileError):
            program.kernel("nope")

    def test_arg_count_checked(self, context, program):
        kernel = program.kernel("fill")
        with pytest.raises(CLError):
            kernel.set_args(context.alloc_buffer(4))

    def test_arg_index_checked(self, program):
        kernel = program.kernel("fill")
        with pytest.raises(CLError):
            kernel.set_arg(9, 1)

    def test_buffer_arg_type_checked(self, program):
        kernel = program.kernel("fill")
        with pytest.raises(CLError):
            kernel.set_arg(0, 42)  # scalar where buffer expected

    def test_scalar_arg_type_checked(self, context, program):
        kernel = program.kernel("fill")
        with pytest.raises(CLError):
            kernel.set_arg(1, context.alloc_buffer(4))

    def test_local_arg_type_checked(self, context, program):
        kernel = program.kernel("with_local")
        with pytest.raises(CLError):
            kernel.set_arg(1, context.alloc_buffer(4))

    def test_unset_arg_detected_at_launch(self, context, program):
        kernel = program.kernel("fill")
        kernel.set_arg(0, context.alloc_buffer(64))
        kernel.set_arg(2, 16)
        with pytest.raises(CLError):
            CommandQueue(context).enqueue_nd_range(kernel, (16,), (4,))

    def test_local_memory_validation(self):
        with pytest.raises(CLError):
            LocalMemory(0)


class TestLaunch:
    def test_scalar_float_arg(self, context, program):
        kernel = program.kernel("fill")
        buffer = context.alloc_buffer(4 * 32)
        kernel.set_args(buffer, np.float32(3.25), 32)
        queue = CommandQueue(context)
        queue.enqueue_nd_range(kernel, (32,), (8,))
        out = queue.enqueue_read_buffer(buffer, np.float32)
        assert (out == np.float32(3.25)).all()

    def test_python_float_arg(self, context, program):
        kernel = program.kernel("fill")
        buffer = context.alloc_buffer(4 * 8)
        kernel.set_args(buffer, 1.5, 8)
        queue = CommandQueue(context)
        queue.enqueue_nd_range(kernel, (8,), (8,))
        out = queue.enqueue_read_buffer(buffer, np.float32)
        assert (out == np.float32(1.5)).all()

    def test_default_local_size(self, context, program):
        kernel = program.kernel("fill")
        buffer = context.alloc_buffer(4 * 96)
        kernel.set_args(buffer, np.float32(1.0), 96)
        stats = CommandQueue(context).enqueue_nd_range(kernel, (96,)).stats
        assert stats.threads_launched == 96

    def test_indivisible_sizes_rejected(self, context, program):
        kernel = program.kernel("fill")
        kernel.set_args(context.alloc_buffer(400), np.float32(0.0), 100)
        with pytest.raises(CLError):
            CommandQueue(context).enqueue_nd_range(kernel, (100,), (32,))

    def test_dynamic_local_memory(self, context, program):
        kernel = program.kernel("with_local")
        n, tile = 32, 8
        buffer = context.alloc_buffer(4 * n)
        kernel.set_args(buffer, LocalMemory(4 * tile))
        queue = CommandQueue(context)
        queue.enqueue_nd_range(kernel, (n,), (tile,))
        out = queue.enqueue_read_buffer(buffer, np.int32)
        expected = np.tile(np.arange(tile)[::-1], n // tile)
        np.testing.assert_array_equal(out, expected)

    def test_queue_aggregates_stats(self, context, program):
        kernel = program.kernel("fill")
        buffer = context.alloc_buffer(4 * 16)
        kernel.set_args(buffer, np.float32(0.0), 16)
        queue = CommandQueue(context)
        queue.enqueue_nd_range(kernel, (16,), (8,))
        queue.enqueue_nd_range(kernel, (16,), (8,))
        assert queue.kernels_launched == 2
        assert queue.ledger.stats().threads_launched == 32
        queue.finish()  # no-op, must not raise

    def test_guest_cpu_cost_accumulates(self, context):
        before = context.guest_instructions
        data = np.zeros(4096, dtype=np.float32)
        context.buffer_from_array(data)
        assert context.guest_instructions > before
        assert context.cpu_seconds > 0


# -- the process-wide build table ---------------------------------------------


def _count_gates(monkeypatch):
    """Calls of the binary gate, counted where the build looks it up, and
    of the program verifier every gate ends in, counted in every module
    that looks it up (a second gate anywhere would show here)."""
    import sys

    from repro.cl import runtime
    from repro.gpu.verify import pipeline

    calls = {"verifier": 0, "binary": 0}
    verifier, binary_gate = pipeline.verify_program, runtime.verify_binary

    def counting_verifier(*args, **kwargs):
        calls["verifier"] += 1
        return verifier(*args, **kwargs)

    def counting_binary_gate(binary, ctx):
        calls["binary"] += 1
        return binary_gate(binary, ctx)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "verify_program", None) is verifier:
            monkeypatch.setattr(module, "verify_program", counting_verifier)
    monkeypatch.setattr(runtime, "verify_binary", counting_binary_gate)
    return calls


def _unique(source, tag):
    """*source* as a content no other test of this process builds."""
    return f"{source}\n// {tag}\n"


class TestBuildTable:
    def test_the_gate_runs_once_per_content(self, monkeypatch):
        from repro.slam.kernels import ALL_SOURCES

        calls = _count_gates(monkeypatch)
        source = _unique(ALL_SOURCES, "gates-once")
        programs = [Context().build_program(source) for _ in range(2)]
        # one verification per kernel, the binary gate's
        assert calls == {"verifier": 9, "binary": 9}
        first, second = programs
        assert first.compiled is second.compiled
        # what a program writes is its own
        assert first.build_reports == second.build_reports
        assert first.build_reports is not second.build_reports
        assert first._uploaded is not second._uploaded
        assert all(report.ok for report in second.build_reports.values())

    def test_the_compiler_runs_no_verifier(self, monkeypatch):
        from repro.clc import compile_source

        calls = _count_gates(monkeypatch)
        program = compile_source(_unique(KERNEL, "compile-only"))
        assert sorted(program.kernels) == ["fill", "with_local"]
        assert calls == {"verifier": 0, "binary": 0}

    def test_m2s_builds_through_the_gate(self, monkeypatch):
        from repro.baselines.m2s_runtime import M2SContext

        calls = _count_gates(monkeypatch)
        source = _unique(KERNEL, "m2s-gate")
        m2s = M2SContext().build_program(source)
        assert calls == {"verifier": 2, "binary": 2}
        # one build table: the platform's build of the content is a hit
        assert Context().build_program(source).compiled is m2s.compiled
        assert calls == {"verifier": 2, "binary": 2}

    def test_stored_programs_are_never_written(self, monkeypatch):
        """The kernels the table hands to every tenant and platform still
        equal a fresh compile of their key after the SLAM pipeline and a
        fault-and-recover case ran from them."""
        from repro.clc import compiler
        from repro.clc.compiler import build_key
        from repro.core.platform import MobilePlatform
        from repro.gpu.encoding import encode_program
        from repro.hostcode import BoundedTable
        from repro.inject.campaign import run_case
        from repro.kernels.replayable import REPLAYABLE
        from repro.slam import KFusionPipeline
        from repro.slam.kernels import ALL_SOURCES

        KFusionPipeline("express").run_gpu(
            context=Context(MobilePlatform.for_mode("mega")))
        result, _plan = run_case("sgemm", "mmu-transient", seed=0,
                                 engine="mega")
        assert result.ok, result.detail
        stored = {key: compiler._programs[key] for key in (
            build_key(ALL_SOURCES), build_key(REPLAYABLE["sgemm"].source))}
        monkeypatch.setattr(compiler, "_programs", BoundedTable(8))
        for (source, options, defines), program in stored.items():
            fresh = compiler.compile_source(source, options, dict(defines))
            assert fresh is not program
            assert sorted(fresh.kernels) == sorted(program.kernels)
            for name, kernel in program.kernels.items():
                assert kernel.binary == fresh.kernels[name].binary
                assert encode_program(kernel.program) == kernel.binary
                assert vars(kernel).keys() == vars(fresh.kernels[name]).keys()
                for field in ("work_registers", "local_static_size",
                              "scratch_per_thread", "params",
                              "uniform_count"):
                    assert getattr(kernel, field) \
                        == getattr(fresh.kernels[name], field)

    def test_a_rejected_build_is_rejected_every_time(self, monkeypatch):
        """The binary gate sees an image that does not decode (as if it
        were damaged between compiler and driver): ``CLError`` on every
        attempt, nothing kept — and the intact build still passes."""
        from repro.cl import runtime
        from repro.clc import compiler
        from repro.clc.compiler import build_key

        source = _unique(KERNEL, "rejected")
        compiles = []
        compile_kernel = compiler.compile_kernel
        monkeypatch.setattr(
            compiler, "compile_kernel",
            lambda ast, options: compiles.append(ast.name)
            or compile_kernel(ast, options))
        gate = runtime.verify_binary
        calls = _count_gates(monkeypatch)
        monkeypatch.setattr(
            runtime, "verify_binary",
            lambda binary, ctx: gate(b"JUNK" + binary[4:], ctx))
        for _ in range(2):
            with pytest.raises(CLError, match="binary verifier"):
                Context().build_program(source)
        assert build_key(source) not in runtime._builds
        monkeypatch.setattr(runtime, "verify_binary", gate)
        assert Context().build_program(source).kernel_names \
            == ["fill", "with_local"]
        # the compile was kept from the first attempt, the verdict was not
        assert compiles == ["fill", "with_local"]
        assert calls["verifier"] == 2

    def test_a_failing_compile_fails_every_time(self):
        from repro.clc import compiler

        source = _unique(
            "__kernel void broken(__global int* out) { out[0] = nope; }",
            "failing")
        for _ in range(2):
            with pytest.raises(CompileError):
                Context().build_program(source)
        assert compiler.build_key(source) not in compiler._programs

    def test_racing_threads_keep_one_build(self, monkeypatch):
        import sys
        import threading

        from repro.cl import runtime
        from repro.clc.compiler import build_key

        source = _unique(KERNEL, "racing")
        built = []

        def worker():
            built.append(runtime.gated_build(source))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 8
        assert all(entry is runtime._builds[build_key(source)]
                   for entry in built)

    def test_the_bound_holds(self, monkeypatch):
        from repro.cl import runtime
        from repro.clc import compiler
        from repro.hostcode import BoundedTable

        monkeypatch.setattr(compiler, "_programs", BoundedTable(4))
        monkeypatch.setattr(runtime, "_builds", BoundedTable(4))
        sources = [_unique(KERNEL, f"bound-{index}") for index in range(8)]
        for source in sources:
            runtime.gated_build(source)
            assert len(runtime._builds) <= 4 and len(compiler._programs) <= 4
        assert [key[0] for key in runtime._builds] == sources[4:]
        assert [key[0] for key in compiler._programs] == sources[4:]

    def test_the_table_holds_no_context_platform_or_buffer(self, context):
        """PR 17's memo rule: compiled programs and reports only."""
        import gc
        import types

        from repro.cl import runtime
        from repro.clc import compiler
        from repro.core.platform import MobilePlatform

        program = context.build_program(_unique(KERNEL, "reachable"))
        kernel = program.kernel("fill")
        buffer = context.alloc_buffer(4 * 8)
        kernel.set_args(buffer, 1.0, 8)
        CommandQueue(context).enqueue_nd_range(kernel, (8,), (8,))
        opaque = (type, types.ModuleType, types.FunctionType,
                  types.BuiltinFunctionType, types.CodeType)
        seen, stack = set(), [runtime._builds, compiler._programs]
        while stack:
            item = stack.pop()
            if id(item) in seen or isinstance(item, opaque):
                continue
            seen.add(id(item))
            assert not isinstance(item, (Context, MobilePlatform, Buffer)), \
                type(item)
            stack.extend(gc.get_referents(item))
        assert len(seen) > 100
