"""Unit tests: lowering, scheduling, temp forwarding, register allocation."""

import pytest

from repro.errors import CompileError
from repro.clc.compiler import CompilerOptions, compile_source
from repro.clc.ir import Const
from repro.gpu.isa import (
    ALLOCATABLE_REGS,
    MAX_CONSTS,
    Op,
    Tail,
    can_use_add_slot,
    is_temp,
)


def _compile(source, **option_overrides):
    options = CompilerOptions(**option_overrides) if option_overrides \
        else CompilerOptions()
    program = compile_source(source, options=options)
    return next(iter(program.kernels.values()))


def _all_slots(kernel):
    for clause in kernel.program.clauses:
        for fma, add in clause.tuples:
            yield fma, add


class TestLoweringSemantics:
    def test_constant_folding(self):
        kernel = _compile("""
        __kernel void k(__global int* out) {
            out[0] = 3 * 4 + (10 >> 1);
        }
        """)
        constants = [c for clause in kernel.program.clauses
                     for c in clause.constants]
        assert 17 in constants
        arith_ops = [fma.op for fma, _ in _all_slots(kernel)
                     if fma.op in (Op.IMUL, Op.ISHR)]
        assert not arith_ops  # folded away

    def test_float_division_uses_reciprocal(self):
        kernel = _compile("""
        __kernel void k(__global float* a, __global float* out) {
            out[0] = a[0] / a[1];
        }
        """)
        ops = {slot.op for pair in _all_slots(kernel) for slot in pair}
        assert Op.FRCP in ops and Op.FMUL in ops

    def test_register_array_with_constant_indices(self):
        kernel = _compile("""
        __kernel void k(__global float* out) {
            float acc[4];
            acc[0] = 1.0f; acc[1] = 2.0f; acc[2] = 3.0f; acc[3] = 4.0f;
            out[0] = acc[0] + acc[1] + acc[2] + acc[3];
        }
        """)
        assert kernel.scratch_per_thread == 0
        assert kernel.local_static_size == 0

    def test_dynamic_private_array_spills_to_scratch(self):
        kernel = _compile("""
        __kernel void k(__global float* out, int i) {
            float buf[8];
            buf[i] = 1.0f;
            out[0] = buf[i];
        }
        """)
        assert kernel.scratch_per_thread == 32

    def test_local_array_layout(self):
        kernel = _compile("""
        __kernel void k(__global float* out) {
            __local float a[16];
            __local float b[8];
            a[get_local_id(0)] = 0.0f;
            b[get_local_id(0)] = 0.0f;
            barrier(1);
            out[0] = a[0] + b[0];
        }
        """)
        assert kernel.local_static_size == 4 * 24

    def test_barrier_becomes_clause_tail(self):
        kernel = _compile("""
        __kernel void k(__global float* out) {
            __local float t[4];
            t[get_local_id(0)] = 1.0f;
            barrier(1);
            out[0] = t[0];
        }
        """)
        tails = [clause.tail for clause in kernel.program.clauses]
        assert Tail.BARRIER in tails

    def test_out_of_bounds_register_array_index(self):
        with pytest.raises(CompileError):
            _compile("""
            __kernel void k(__global float* out) {
                float a[2];
                a[0] = 1.0f;
                out[0] = a[5];
            }
            """)

    def test_undeclared_identifier(self):
        with pytest.raises(CompileError):
            _compile("__kernel void k(__global float* o) { o[0] = ghost; }")

    def test_redeclaration_rejected(self):
        with pytest.raises(CompileError):
            _compile("__kernel void k() { int x = 1; int x = 2; }")

    def test_scoping_allows_shadowing_in_blocks(self):
        kernel = _compile("""
        __kernel void k(__global int* out) {
            int x = 1;
            if (x > 0) {
                int y = 2;
                out[0] = y;
            }
            out[1] = x;
        }
        """)
        assert kernel.binary

    def test_pointer_arithmetic_scales_by_element(self):
        kernel = _compile("""
        __kernel void k(__global int* a, __global int* out) {
            out[0] = *(a + 3);
        }
        """)
        constants = [c for clause in kernel.program.clauses
                     for c in clause.constants]
        assert 12 in constants  # 3 elements * 4 bytes

    def test_break_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            _compile("__kernel void k() { break; }")

    def test_return_value_rejected(self):
        with pytest.raises(CompileError):
            _compile("__kernel void k() { return 1; }")

    def test_unknown_builtin(self):
        with pytest.raises(CompileError):
            _compile("__kernel void k(__global float* o) { o[0] = warp(); }")

    def test_get_global_id_requires_constant_dim(self):
        with pytest.raises(CompileError):
            _compile("""
            __kernel void k(__global int* o, int d) {
                o[0] = get_global_id(d);
            }
            """)


class TestSchedulingInvariants:
    def test_add_slots_only_hold_add_class_ops(self):
        source = """
        __kernel void k(__global float* a, __global float* out, int n) {
            int i = get_global_id(0);
            float x = a[i] * 2.0f;
            float y = x * x + 1.0f;
            out[i] = y / (x + 3.0f);
        }
        """
        for dual_issue in (False, True):
            kernel = _compile(source, dual_issue=dual_issue)
            for _fma, add in _all_slots(kernel):
                assert add.op is Op.NOP or can_use_add_slot(add.op)

    def test_clause_size_cap(self):
        body = "\n".join(f"acc = acc * 1.5f + {i}.0f;" for i in range(40))
        kernel = _compile(f"""
        __kernel void k(__global float* out) {{
            float acc = 1.0f;
            {body}
            out[0] = acc;
        }}
        """)
        for clause in kernel.program.clauses:
            assert 1 <= clause.size <= 8

    def test_constant_pool_cap(self):
        body = "\n".join(f"acc = acc + {i}.5f;" for i in range(100))
        kernel = _compile(f"""
        __kernel void k(__global float* out) {{
            float acc = 0.0f;
            {body}
            out[0] = acc;
        }}
        """)
        for clause in kernel.program.clauses:
            assert len(clause.constants) <= MAX_CONSTS

    def test_dual_issue_never_increases_nops(self):
        source = """
        __kernel void k(__global float* a, __global float* out, int n) {
            int i = get_global_id(0);
            float s = 0.0f;
            for (int k = 0; k < 8; k += 1) {
                s = s * a[i] + a[i + k] * 0.5f;
            }
            out[i] = s;
        }
        """
        plain = _compile(source, dual_issue=False, unroll_limit=8)
        dual = _compile(source, dual_issue=True, unroll_limit=8)
        assert dual.static_metrics()["nops"] <= plain.static_metrics()["nops"]

    def test_temp_forwarding_uses_temps(self):
        source = """
        __kernel void k(__global float* a, __global float* out) {
            int i = get_global_id(0);
            out[i] = (a[i] * 2.0f) + 1.0f;
        }
        """
        kernel = _compile(source, temp_forward=True)
        temp_writes = sum(
            1 for fma, add in _all_slots(kernel)
            for slot in (fma, add)
            if slot.op is not Op.NOP and slot.dst != 255 and is_temp(slot.dst)
        )
        assert temp_writes > 0
        kernel_off = _compile(source, temp_forward=False)
        temp_writes_off = sum(
            1 for fma, add in _all_slots(kernel_off)
            for slot in (fma, add)
            if slot.op is not Op.NOP and slot.dst != 255 and is_temp(slot.dst)
        )
        assert temp_writes_off == 0

    def test_branch_condition_stays_in_grf(self):
        kernel = _compile("""
        __kernel void k(__global int* out, int n) {
            int i = get_global_id(0);
            if (i < n) {
                out[i] = i;
            }
        }
        """)
        for clause in kernel.program.clauses:
            if clause.tail in (Tail.BRANCH, Tail.BRANCH_Z):
                assert clause.cond_reg < 64


class TestRegisterAllocation:
    def test_pressure_overflow_spills_to_scratch(self):
        # 60 simultaneously-live accumulators cannot fit in the GRF: the
        # compiler must spill some of them to per-thread scratch
        declarations = "\n".join(
            f"float v{i} = (float)get_global_id(0) + {i}.0f;"
            for i in range(60)
        )
        uses = " + ".join(f"v{i}" for i in range(60))
        kernel = _compile(f"""
        __kernel void k(__global float* out) {{
            {declarations}
            out[0] = {uses};
        }}
        """)
        assert kernel.scratch_per_thread > 0
        from repro.gpu.isa import ALLOCATABLE_REGS
        assert kernel.work_registers <= ALLOCATABLE_REGS

    def test_register_reuse_after_death(self):
        # sequentially dead values must reuse registers
        statements = "\n".join(
            f"out[{i}] = (float)get_global_id(0) * {i}.0f;"
            for i in range(60)
        )
        kernel = _compile(f"""
        __kernel void k(__global float* out) {{
            {statements}
        }}
        """)
        assert kernel.work_registers < ALLOCATABLE_REGS

    def test_vector_groups_get_consecutive_registers(self):
        kernel = _compile("""
        __kernel void k(__global float* a, __global float* out) {
            float4 v = vload4(0, a);
            out[0] = v.x + v.y + v.z + v.w;
        }
        """, vector_ls=True)
        wide_loads = [
            fma for fma, _ in _all_slots(kernel)
            if fma.op is Op.LD and fma.mem_width == 4
        ]
        assert wide_loads, "expected a wide load"
        assert wide_loads[0].dst + 3 < ALLOCATABLE_REGS

    def test_work_registers_metric(self):
        kernel = _compile("""
        __kernel void k(__global float* out) {
            out[0] = 1.0f;
        }
        """)
        assert 1 <= kernel.work_registers <= 8


class TestProgramTable:
    """``compile_source`` keeps one program per content per process."""

    SOURCE = """
    __kernel void k(__global int* out) {
        out[get_global_id(0)] = A + B;
    }
    """

    def test_same_content_is_the_stored_program(self):
        defines = {"A": 1, "B": 2}
        first = compile_source(self.SOURCE, defines=defines)
        assert compile_source(self.SOURCE, defines=dict(defines)) is first
        assert compile_source(self.SOURCE, "6.2", {"A": "1", "B": "2"}) \
            is first  # the default version; values as they are substituted

    def test_whatever_decides_the_compile_is_in_the_key(self):
        base = compile_source(self.SOURCE, defines={"A": 1, "B": 2})
        others = [
            compile_source(self.SOURCE, defines={"A": 1, "B": 3}),
            # the preprocessor substitutes in the order given
            compile_source(self.SOURCE, defines={"B": 2, "A": 1}),
            compile_source(self.SOURCE, "5.6", {"A": 1, "B": 2}),
            compile_source(self.SOURCE, CompilerOptions(dce=False),
                           {"A": 1, "B": 2}),
            compile_source(self.SOURCE + "\n", defines={"A": 1, "B": 2}),
        ]
        assert len({id(program) for program in [base, *others]}) == 6

    def test_numeric_version_is_a_version(self):
        """Was an ``AttributeError``: anything that is not an options
        object goes through ``from_version``, as its ``str()``."""
        from repro.cl import Context

        by_name = compile_source(self.SOURCE, "6.1", {"A": 1, "B": 2})
        assert compile_source(self.SOURCE, 6.1, {"A": 1, "B": 2}) is by_name
        assert by_name.options.version == "6.1"
        program = Context().build_program(self.SOURCE, version=6.1,
                                          defines={"A": 1, "B": 2})
        assert program.compiled is by_name
        for unknown in (7.7, object()):
            with pytest.raises(CompileError, match="unknown compiler"):
                compile_source(self.SOURCE, unknown, {"A": 1, "B": 2})

    def test_a_failing_compile_keeps_nothing(self):
        from repro.clc import compiler

        for _ in range(2):
            with pytest.raises(CompileError):
                compile_source(self.SOURCE)  # A and B undefined
        assert compiler.build_key(self.SOURCE) not in compiler._programs
