"""Validation-methodology tests (paper Section V-A).

Differential testing of the independent engine implementations:
instruction fuzzing over the whole ISA and kernel-level instruction-trace
comparison, both as `DifferentialRunner` cases. An empty mismatch list is
this reproduction's analogue of the paper's "100% architectural accuracy"
claim.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.isa import CmpMode, Op
from repro.validate import (
    ENGINES,
    DifferentialRunner,
    compare_traces,
    execute_instruction_both,
    make_kernel_case,
    trace_kernel_both,
)
from repro.validate.fuzz import FUZZABLE_OPS, results_equivalent
from repro.validate.trace import InstructionTracer, TraceEvent

_bits = st.integers(0, 0xFFFFFFFF)

# interesting bit patterns: zeros, denormals, infinities, NaNs, extremes
_SPECIAL = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000,  # 0, -0, 1, -1
    0x7F800000, 0xFF800000, 0x7FC00000,  # inf, -inf, NaN
    0x00000001, 0x007FFFFF,  # denormals
    0x7F7FFFFF, 0xFF7FFFFF,  # +-FLT_MAX
    0xFFFFFFFF, 0x7FFFFFFF, 0x80000001,  # int extremes
]
_bits_mixed = st.one_of(_bits, st.sampled_from(_SPECIAL))


def _assert_engines_agree(engines, op, a, b, c):
    flags = 0
    if op is Op.CMP:
        flags = int(CmpMode((a ^ b) % 16))
    quad, *others = execute_instruction_both(op, a, b, c, flags=flags,
                                             engines=engines)
    for engine, other in zip(engines[1:], others):
        assert results_equivalent(op, quad, other), (
            f"{op.name}(0x{a:08x}, 0x{b:08x}, 0x{c:08x}) -> "
            f"{engines[0]}=0x{quad:08x} {engine}=0x{other:08x}"
        )


@given(op=st.sampled_from(FUZZABLE_OPS), a=_bits_mixed, b=_bits_mixed,
       c=_bits_mixed)
@settings(max_examples=400, deadline=None)
def test_fuzz_all_ops_agree_between_engines(op, a, b, c):
    _assert_engines_agree(("interp", "m2s"), op, a, b, c)


@pytest.mark.fuzz
@given(op=st.sampled_from(FUZZABLE_OPS), a=_bits_mixed, b=_bits_mixed,
       c=_bits_mixed)
@settings(max_examples=4000, deadline=None)
def test_fuzz_all_ops_agree_on_every_engine(op, a, b, c):
    """The nightly campaign: the same one-clause case on every tier, so the
    code `mega` emits per op is fuzzed per instruction too."""
    _assert_engines_agree(ENGINES, op, a, b, c)


@given(mode=st.sampled_from(sorted(CmpMode)), a=_bits_mixed, b=_bits_mixed)
@settings(max_examples=200, deadline=None)
def test_fuzz_every_compare_mode(mode, a, b):
    quad, scalar = execute_instruction_both(Op.CMP, a, b, 0, flags=int(mode))
    assert quad == scalar


_SNAN = 0x7F800001
_QNAN = 0x7FC00000


class TestMinMaxDefaultNaN:
    """fmin/fmax NaN results are the canonical quiet NaN on every engine.

    NumPy's fmin/fmax NaN payload choice varies with the SIMD lane
    position (the same 4-wide call can return different payloads in
    different lanes), so payload propagation can never be bit-exact
    across engine vector widths. The engines therefore canonicalize NaN
    results outright, matching Arm's default-NaN mode.
    """

    _NAN_PAIRS = [(_SNAN, _QNAN), (_QNAN, _SNAN), (_SNAN, _SNAN),
                  (0x7FC00001, 0x7FC00002)]

    @pytest.mark.parametrize("op", [Op.FMIN, Op.FMAX])
    @pytest.mark.parametrize("a,b", _NAN_PAIRS)
    def test_nan_result_is_canonical_on_both_engines(self, op, a, b):
        quad, scalar = execute_instruction_both(op, a, b, 0)
        assert quad == scalar == _QNAN, (
            f"{op.name}(0x{a:08x}, 0x{b:08x}) -> "
            f"quad=0x{quad:08x} scalar=0x{scalar:08x}")

    @pytest.mark.parametrize("op", [Op.FMIN, Op.FMAX])
    def test_canonical_in_every_lane(self, op):
        # the payload choice differs per lane, so lane 0 agreeing is not
        # enough — the whole quad must come back canonical
        from repro.gpu.isa import Clause, Instruction, Program, Tail
        from repro.gpu.warp import ClauseInterpreter, QuadWarp

        instr = Instruction(op, dst=0, srca=1, srcb=2)
        program = Program(clauses=[
            Clause(tuples=[(instr, Instruction(Op.NOP))], tail=Tail.END)])
        interp = ClauseInterpreter(program, np.zeros(1, dtype=np.uint32),
                                   mem=None)
        warp = QuadWarp()
        warp.regs[:, 1] = np.uint32(_QNAN)
        warp.regs[:, 2] = np.uint32(_SNAN)
        interp.run_warp(warp)
        assert [int(x) for x in warp.regs[:, 0]] == [_QNAN] * 4

    @pytest.mark.parametrize("op", [Op.FMIN, Op.FMAX])
    def test_op_table_row_is_canonical(self, op):
        # every engine executes the shared op-table row, mega at a whole
        # workgroup's (or batch's) width
        from repro.gpu.ops import OPS

        out = OPS[op].fn(np.full(64, _QNAN, np.uint32),
                         np.full(64, _SNAN, np.uint32))
        assert list(out) == [_QNAN] * 64

    def test_quiet_nan_still_loses_to_numbers(self):
        # default-NaN mode only applies to NaN *results*: fmax(x, qNaN)
        # is still x
        quad, scalar = execute_instruction_both(Op.FMAX, 0x3F800000, _QNAN, 0)
        assert quad == scalar == 0x3F800000


class TestTraceComparison:
    def test_identical_traces_have_no_mismatch(self):
        a, b = InstructionTracer(), InstructionTracer()
        event = TraceEvent("IADD", 0, 0, 42)
        a.by_thread[(0, 0, 0)] = [event]
        b.by_thread[(0, 0, 0)] = [event]
        assert compare_traces(a, b) == []

    def test_divergence_pinpointed(self):
        a, b = InstructionTracer(), InstructionTracer()
        a.by_thread[(1, 0, 0)] = [TraceEvent("IADD", 0, 0, 1),
                                  TraceEvent("IMUL", 1, 0, 5)]
        b.by_thread[(1, 0, 0)] = [TraceEvent("IADD", 0, 0, 1),
                                  TraceEvent("IMUL", 1, 0, 6)]
        mismatches = compare_traces(a, b)
        assert len(mismatches) == 1
        assert mismatches[0].index == 1
        assert mismatches[0].thread == (1, 0, 0)

    def test_missing_thread_detected(self):
        a, b = InstructionTracer(), InstructionTracer()
        a.by_thread[(0, 0, 0)] = [TraceEvent("MOV", 0, 0, 0)]
        mismatches = compare_traces(a, b)
        assert len(mismatches) == 1
        assert mismatches[0].reference is None


SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
"""

DIVERGENT = """
__kernel void classify(__global int* data, __global int* out) {
    int i = get_global_id(0);
    int v = data[i];
    int steps = 0;
    while (v > 1) {
        if ((v & 1) == 0) {
            v = v >> 1;
        } else {
            v = 3 * v + 1;
        }
        steps += 1;
    }
    out[i] = steps;
}
"""

LOCAL_KERNEL = """
__kernel void tile_sum(__global float* data, __local float* tile) {
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    tile[lid] = data[gid];
    barrier(1);
    float acc = 0.0f;
    for (int k = 0; k < 8; k += 1) {
        acc += tile[k];
    }
    data[gid] = acc;
}
"""


class TestKernelTraces:
    def test_saxpy_trace_identical(self):
        rng = np.random.default_rng(0)
        n = 32
        x = rng.random(n, dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        mismatches, quad, scalar, _ = trace_kernel_both(
            SAXPY, "saxpy", (n,), (8,), [x, y],
            scalars=[np.float32(2.5), n],
        )
        assert quad.total_events > 0
        assert quad.total_events == scalar.total_events
        assert mismatches == [], "\n".join(map(str, mismatches))

    def test_divergent_kernel_trace_identical(self):
        """Divergent control flow: both engines must retire the exact same
        per-thread instruction streams despite different scheduling."""
        values = np.arange(1, 17, dtype=np.int32)
        out = np.zeros(16, dtype=np.int32)
        mismatches, quad, scalar, outputs = trace_kernel_both(
            DIVERGENT, "classify", (16,), (8,), [values, out]
        )
        assert mismatches == [], "\n".join(map(str, mismatches))
        assert (outputs[1] > 0).any()

    def test_local_memory_kernel_trace_identical(self):
        rng = np.random.default_rng(5)
        data = rng.random(16, dtype=np.float32)
        mismatches, _quad, _scalar, _ = trace_kernel_both(
            LOCAL_KERNEL, "tile_sum", (16,), (8,), [data],
            local_args=[4 * 8],
        )
        assert mismatches == [], "\n".join(map(str, mismatches))

    @pytest.mark.parametrize("version", ["5.6", "6.0", "6.2"])
    def test_trace_identical_across_compiler_versions(self, version):
        rng = np.random.default_rng(7)
        n = 16
        x = rng.random(n, dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        mismatches, _, _, _ = trace_kernel_both(
            SAXPY, "saxpy", (n,), (8,), [x, y],
            scalars=[np.float32(0.5), n], version=version,
        )
        assert mismatches == []

    def test_platform_tracer_matches_runner(self):
        """The tracer plumbing of the full platform (`GPUConfig.tracer` ->
        `JobManager` -> `ComputeUnit.prepare`) records what the runner's
        reference engine records for the same launch. Tracing keeps the
        interpreter on the quad MMU tier and leaves every output as an
        untraced platform leaves it."""
        from repro.cl import CommandQueue, Context
        from repro.core.platform import MobilePlatform, PlatformConfig
        from repro.gpu.device import GPUConfig
        from repro.kernels.parboil import Sgemm

        rng = np.random.default_rng(3)
        n, rows, depth, cols = 32, 8, 6, 16
        launches = [
            (SAXPY, "saxpy", (n,), (8,),
             [rng.random(n, dtype=np.float32) for _ in range(2)],
             [2.5, n]),
            (Sgemm.source, "sgemm", (cols, rows), (8, 8),
             [rng.random(size, dtype=np.float32)
              for size in (rows * depth, depth * cols, rows * cols)],
             [rows, cols, depth, np.float32(1.0), np.float32(0.5)]),
        ]
        for source, name, global_size, local_size, arrays, scalars \
                in launches:
            def launch(tracer):
                context = Context(MobilePlatform(PlatformConfig(
                    gpu=GPUConfig(engine="interp", tracer=tracer))))
                queue = CommandQueue(context)
                kernel = context.build_program(source).kernel(name)
                device = [context.buffer_from_array(array)
                          for array in arrays]
                kernel.set_args(*device, *scalars)
                queue.enqueue_nd_range(kernel, global_size, local_size)
                return context, device, queue.enqueue_read_buffer(
                    device[-1], np.float32)

            tracer = InstructionTracer()
            context, device, traced = launch(tracer)
            assert context.platform.gpu.mmu.quad_accesses > 0, name
            assert traced.tobytes() == launch(None)[2].tobytes(), name

            # the same launch as a runner case, its buffers at the
            # addresses the driver chose, so address arithmetic traces
            # identically
            case = make_kernel_case(source, name, global_size, local_size,
                                    arrays, scalars=scalars)
            case = replace(
                case,
                regions=[(region, buffer.gpu_va, words)
                         for (region, _va, words), buffer
                         in zip(case.regions, device)],
                args=[buffer.gpu_va for buffer in device]
                + case.args[len(device):])
            results, mismatches = DifferentialRunner(
                ("interp", "m2s")).run_case(case)
            assert mismatches == [], name
            assert tracer.total_events \
                == results["interp"].trace.total_events > 0
            assert compare_traces(tracer, results["interp"].trace) == []
            assert traced.tobytes() \
                == results["interp"].memory[f"buf{len(device) - 1}"]
