"""Unit tests for the static binary verifier (repro.gpu.verify).

Each pass family gets targeted hand-built programs: structural limits,
dataflow (temps, uninitialized reads, dead writes), control flow
(reachability, termination, barrier divergence) and memory (abstract
bounds, workgroup races). The build-gate wiring (clc + CL runtime) is
covered at the end.
"""

import pytest

from repro.gpu.encoding import encode_program
from repro.gpu.isa import (
    CONST_BASE,
    MEM_SPACE_LOCAL,
    NOP_INSTR,
    OPERAND_NONE,
    REG_LANE,
    REG_LOCAL_ID,
    TEMP_BASE,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
)
from repro.gpu.verify import (
    BufferInfo,
    Severity,
    VerifyContext,
    verify_binary,
    verify_program,
)


def mk_clause(instrs, tail=Tail.FALLTHROUGH, cond_reg=0, target=0,
              constants=()):
    """One instruction per tuple, FMA slot (ADD slot nop)."""
    tuples = [(instr, NOP_INSTR) for instr in instrs]
    if not tuples:
        tuples = [(NOP_INSTR, NOP_INSTR)]
    return Clause(tuples=tuples, constants=list(constants), tail=tail,
                  cond_reg=cond_reg, target=target)


def codes(report, severity=None):
    found = report.findings if severity is None else \
        [f for f in report.findings if f.severity is severity]
    return {f.code for f in found}


LAUNCH_CTX = dict(
    uniform_count=15,
    threads=16,
    threads_per_group=8,
    local_bytes=4096,
    mapped_ranges=[(0x100000, 0x110000)],
    uniform_values={10: 0x100000},
    buffers={10: BufferInfo(slot=10, size=0x1000, va=0x100000, name="buf")},
)


class TestStructural:
    def test_clean_program(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=8, srcb=9)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert report.ok
        assert report.facts["terminating"] is True

    def test_const_pool_out_of_range(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=128 + 3, srcb=8)],
                      constants=[7], tail=Tail.END)])
        report = verify_program(program)
        assert "const-oob" in codes(report, Severity.ERROR)

    def test_ldu_imm_out_of_range(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=0, imm=40)], tail=Tail.END)])
        report = verify_program(program, VerifyContext(uniform_count=15))
        assert "ldu-imm-oob" in codes(report, Severity.ERROR)

    def test_missing_operand(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=8,
                                   srcb=OPERAND_NONE)], tail=Tail.END)])
        report = verify_program(program)
        assert "missing-operand" in codes(report, Severity.ERROR)

    def test_memory_op_in_add_slot(self):
        bad = Clause(
            tuples=[(Instruction(Op.MOV, dst=0, srca=8),
                     Instruction(Op.LD, dst=1, srca=8))],
            constants=[], tail=Tail.END, cond_reg=0, target=0)
        report = verify_program(Program(clauses=[bad]))
        assert "add-slot-class" in codes(report, Severity.ERROR)

    def test_branch_target_out_of_range(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)],
                      tail=Tail.JUMP, target=7)])
        report = verify_program(program)
        assert "branch-target-oob" in codes(report, Severity.ERROR)

    def test_final_fallthrough(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)])])
        report = verify_program(program)
        assert "final-fallthrough" in codes(report, Severity.ERROR)

    def test_wide_load_overflows_grf(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.LD, dst=62, srca=8, flags=2)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "wide-reg-overflow" in codes(report, Severity.ERROR)

    def test_bad_cmp_mode(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.CMP, dst=0, srca=8, srcb=9,
                                   flags=21)], tail=Tail.END)])
        report = verify_program(program)
        assert "bad-cmp-mode" in codes(report, Severity.ERROR)

    def test_decode_error_binary(self):
        report = verify_binary(b"\x00" * 7)
        assert "decode-error" in codes(report, Severity.ERROR)
        assert not report.ok

    def test_every_prefix_of_an_image_decodes_or_reports(self):
        from repro.clc import compile_source
        kernel = compile_source("""
            __kernel void k(__global int* out, int v) {
                int i = get_global_id(0);
                out[i] = v + i;
            }""").kernel("k")
        context = VerifyContext.from_compiled_kernel(kernel)
        image = kernel.binary
        rejected = 0
        for cut in range(len(image)):
            report = verify_binary(image[:cut], context)  # never raises
            if not report.ok:
                assert codes(report, Severity.ERROR) == {"decode-error"}
                rejected += 1
        # only a cut inside the last pool's alignment pad still decodes
        assert rejected >= len(image) - 4


class TestDataflow:
    def test_temp_read_across_clause_boundary(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=TEMP_BASE, srca=8)]),
            mk_clause([Instruction(Op.IADD, dst=0, srca=TEMP_BASE,
                                   srcb=9)], tail=Tail.END)])
        report = verify_program(program)
        assert "temp-cross-clause" in codes(report, Severity.ERROR)

    def test_temp_within_clause_is_fine(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=TEMP_BASE, srca=8),
                       Instruction(Op.IADD, dst=0, srca=TEMP_BASE,
                                   srcb=9)], tail=Tail.END)])
        report = verify_program(program)
        assert "temp-cross-clause" not in codes(report)

    def test_uninitialized_read(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=33, srcb=34)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "uninit-read" in codes(report, Severity.WARNING)

    def test_preloaded_registers_are_initialized(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=REG_LANE,
                                   srcb=REG_LOCAL_ID)], tail=Tail.END)])
        report = verify_program(program)
        assert "uninit-read" not in codes(report)

    def test_partially_initialized_read(self):
        # clause 0 branches over the write in clause 1; clause 2 reads it
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=1, srca=8)],
                      tail=Tail.BRANCH, cond_reg=REG_LANE, target=2),
            mk_clause([Instruction(Op.MOV, dst=0, srca=9)]),
            mk_clause([Instruction(Op.IADD, dst=2, srca=0, srcb=1)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "maybe-uninit-read" in codes(report, Severity.NOTE)

    def test_dead_write(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=5, srca=8),
                       Instruction(Op.MOV, dst=5, srca=9)]),
            mk_clause([Instruction(Op.IADD, dst=6, srca=5, srcb=9)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "dead-write" in codes(report, Severity.NOTE)

    def test_final_clause_writes_not_dead(self):
        # END-state registers are observable (differential runner)
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=5, srca=8)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "dead-write" not in codes(report)


class TestControlFlow:
    def test_unreachable_clause(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)], tail=Tail.END),
            mk_clause([Instruction(Op.MOV, dst=1, srca=9)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "unreachable-clause" in codes(report, Severity.WARNING)

    def test_infinite_loop(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)],
                      tail=Tail.JUMP, target=0)])
        report = verify_program(program)
        assert "no-termination" in codes(report, Severity.ERROR)
        assert report.facts["terminating"] is False

    def test_escapable_loop_terminates_unclaimed(self):
        # backward branch with an exit path: no termination *error*
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=0, srcb=8)],
                      tail=Tail.BRANCH, cond_reg=0, target=0),
            mk_clause([Instruction(Op.MOV, dst=1, srca=0)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "no-termination" not in codes(report)
        assert report.facts["forward_only"] is False

    def test_barrier_under_divergence(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)],
                      tail=Tail.BRANCH, cond_reg=REG_LANE, target=2),
            mk_clause([Instruction(Op.MOV, dst=1, srca=9)],
                      tail=Tail.BARRIER),
            mk_clause([Instruction(Op.MOV, dst=2, srca=8)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "barrier-divergence" in codes(report, Severity.WARNING)

    def test_uniform_branch_over_barrier_is_fine(self):
        # condition loaded from a uniform: no divergence possible
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=0, imm=13)],
                      tail=Tail.BRANCH, cond_reg=0, target=2),
            mk_clause([Instruction(Op.MOV, dst=1, srca=9)],
                      tail=Tail.BARRIER),
            mk_clause([Instruction(Op.MOV, dst=2, srca=8)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(uniform_count=15))
        assert "barrier-divergence" not in codes(report)


class TestMemory:
    def test_unmapped_store_is_must_fault(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=2, srca=128),
                       Instruction(Op.ST, srca=2, srcb=8)],
                      constants=[0x40], tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        oob = report.by_code("oob-access")
        assert oob and oob[0].severity is Severity.ERROR
        assert oob[0].must_fault

    def test_avoidable_unmapped_access_not_must_fault(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=2, srca=128)],
                      constants=[0x40],
                      tail=Tail.BRANCH, cond_reg=REG_LANE, target=2),
            mk_clause([Instruction(Op.ST, srca=2, srcb=8)]),
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        oob = report.by_code("oob-access")
        assert oob and not oob[0].must_fault

    def test_buffer_relative_oob(self):
        # base from uniform slot 10 (4 KiB buffer), offset way past it but
        # still inside the mapped window: static-only corruption
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10),
                       Instruction(Op.IADD, dst=2, srca=1, srcb=128),
                       Instruction(Op.LD, dst=0, srca=2)],
                      constants=[0x2000], tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert "oob-access" in codes(report, Severity.ERROR)
        assert not report.by_code("oob-access")[0].must_fault

    def test_in_bounds_access_is_clean(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10),
                       Instruction(Op.LD, dst=0, srca=1)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert report.ok
        assert "possible-oob" not in codes(report)

    def test_local_oob(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.MOV, dst=2, srca=128),
                       Instruction(Op.LD, dst=0, srca=2,
                                   flags=MEM_SPACE_LOCAL)],
                      constants=[0x2000], tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert "local-oob" in codes(report, Severity.ERROR)

    def test_uniform_store_race(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10),
                       Instruction(Op.ST, srca=1, srcb=8)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert "race-ww" in codes(report, Severity.ERROR)

    def test_guarded_uniform_store_is_note(self):
        # the "if (lid == 0) out[..] = acc" reduction idiom: avoidable
        # store clause, so no error/warning
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10)],
                      tail=Tail.BRANCH, cond_reg=REG_LOCAL_ID, target=2),
            mk_clause([Instruction(Op.ST, srca=1, srcb=8)]),
            mk_clause([Instruction(Op.MOV, dst=0, srca=8)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert "race-ww" not in codes(report)
        assert "possible-race-ww" in codes(report, Severity.NOTE)

    def test_lane_varying_store_no_race(self):
        # addr = base + 4 * lid: disjoint per-thread words
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10),
                       Instruction(Op.ISHL, dst=2, srca=REG_LOCAL_ID,
                                   srcb=128),
                       Instruction(Op.IADD, dst=2, srca=1, srcb=2),
                       Instruction(Op.ST, srca=2, srcb=8)],
                      constants=[2], tail=Tail.END)])
        report = verify_program(program, VerifyContext(**LAUNCH_CTX))
        assert "race-ww" not in codes(report)
        assert "possible-race-ww" not in codes(report)

    def test_no_race_claims_without_launch_geometry(self):
        # build-time context: never error-severity race claims
        program = Program(clauses=[
            mk_clause([Instruction(Op.LDU, dst=1, imm=10),
                       Instruction(Op.ST, srca=1, srcb=8)],
                      tail=Tail.END)])
        report = verify_program(program, VerifyContext(uniform_count=15))
        assert "race-ww" not in codes(report)
        assert "possible-race-ww" in codes(report, Severity.WARNING)


class TestReport:
    def test_annotated_disassembly(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=33, srcb=34)],
                      tail=Tail.END)])
        report = verify_program(program)
        text = report.format()
        assert "; ^" in text
        assert "uninit-read" in text

    def test_min_severity_filter(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=33, srcb=34)],
                      tail=Tail.END)])
        report = verify_program(program)
        assert "uninit-read" not in report.format(
            min_severity=Severity.ERROR)

    def test_roundtrip_through_binary(self):
        program = Program(clauses=[
            mk_clause([Instruction(Op.IADD, dst=0, srca=33, srcb=34)],
                      tail=Tail.END)])
        report = verify_binary(encode_program(program))
        assert "uninit-read" in codes(report)


class TestBuildGates:
    SAXPY = """
    __kernel void saxpy(__global float* y, __global const float* x,
                        float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = a * x[i] + y[i];
    }
    """

    def test_clc_gate_accepts_clean_kernel(self):
        from repro.clc import compile_source

        compiled = compile_source(self.SAXPY).kernel("saxpy")
        assert compiled.binary

    def test_runtime_gate_stores_reports(self):
        from repro.cl import Context

        program = Context().build_program(self.SAXPY)
        report = program.build_reports["saxpy"]
        assert report.ok

    def test_compiled_kernel_context_maps_params(self):
        from repro.clc import compile_source

        compiled = compile_source(self.SAXPY).kernel("saxpy")
        ctx = VerifyContext.from_compiled_kernel(compiled)
        assert set(ctx.buffers) == {10, 11}  # y, x buffer slots
        assert ctx.scalar_slots == {12, 13}  # a, n
        assert ctx.uniform_count == 14


class TestProvenance:
    """``absint.stored_slots``: the argument slots the global stores of
    a program go through, flow-sensitive over the clause CFG."""

    @staticmethod
    def stored(*clauses):
        from repro.gpu.verify.absint import stored_slots

        program = Program(clauses=list(clauses))
        program.clauses[-1].tail = Tail.END
        return stored_slots(program)

    def test_a_reused_register_names_its_last_buffer(self):
        assert self.stored(mk_clause([
            Instruction(Op.LDU, dst=1, imm=10),
            Instruction(Op.LD, dst=2, srca=1),    # loads buffer 10
            Instruction(Op.LDU, dst=1, imm=11),   # r1 reused for 11
            Instruction(Op.ST, srca=1, srcb=2),
        ])) == {11}

    def test_any_offset_keeps_the_base(self):
        # base + (loaded * scalar << 2): nothing the value domain tracks
        assert self.stored(mk_clause([
            Instruction(Op.LDU, dst=1, imm=10),
            Instruction(Op.LDU, dst=3, imm=12),
            Instruction(Op.LD, dst=2, srca=1),
            Instruction(Op.IMUL, dst=2, srca=2, srcb=3),
            Instruction(Op.ISHL, dst=2, srca=2, srcb=CONST_BASE),
            Instruction(Op.IADD, dst=4, srca=1, srcb=2),
            Instruction(Op.ST, srca=4, srcb=2),
        ], constants=[2])) == {10}

    def test_paths_join(self):
        # clause 0 points r1 at 10 and branches over clause 1, which
        # points it at 11: the store may go through either
        assert self.stored(
            mk_clause([Instruction(Op.LDU, dst=1, imm=10)],
                      tail=Tail.BRANCH, cond_reg=REG_LANE, target=2),
            mk_clause([Instruction(Op.LDU, dst=1, imm=11)]),
            mk_clause([Instruction(Op.ST, srca=1, srcb=REG_LANE)]),
        ) == {10, 11}

    def test_a_loaded_pointer_names_no_buffer(self):
        assert self.stored(mk_clause([
            Instruction(Op.LDU, dst=1, imm=10),
            Instruction(Op.LD, dst=2, srca=1),
            Instruction(Op.ST, srca=2, srcb=1),
        ])) is None

    def test_local_stores_and_loads_name_nothing(self):
        assert self.stored(mk_clause([
            Instruction(Op.LDU, dst=1, imm=10),
            Instruction(Op.LD, dst=2, srca=1),
            Instruction(Op.ST, srca=REG_LOCAL_ID, srcb=2,
                        flags=MEM_SPACE_LOCAL),
        ])) == frozenset()
