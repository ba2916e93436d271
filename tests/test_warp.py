"""Unit tests: quad-warp clause execution, divergence, ALU semantics."""

import struct

import numpy as np
import pytest

from repro.gpu.isa import (
    CONST_BASE,
    REG_LANE,
    CmpMode,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
)
from repro.gpu.warp import WARP_WIDTH, ClauseInterpreter, QuadWarp
from repro.instrument.stats import JobStats, apply_clause_stats

NOP = Instruction(Op.NOP)


class _FlatMemory:
    """Minimal global-memory port for executor tests."""

    def __init__(self, size=1 << 16):
        self.data = bytearray(size)

    def load_u32(self, addr):
        return struct.unpack_from("<I", self.data, addr)[0]

    def store_u32(self, addr, value):
        struct.pack_into("<I", self.data, addr, value & 0xFFFFFFFF)


def _run(clauses, uniforms=(0,), setup=None, local_words=64, stats=None):
    """Run one warp; its clause table is multiplied out into *stats*."""
    program = Program(clauses=clauses)
    program.validate()
    local = np.zeros(local_words, dtype=np.uint32)
    mem = _FlatMemory()
    counts = None if stats is None else {}
    interp = ClauseInterpreter(program, np.array(uniforms, dtype=np.uint32),
                               mem, local=local, counts=counts)
    warp = QuadWarp()
    if setup:
        setup(warp, mem)
    status = interp.run_warp(warp)
    if stats is not None:
        apply_clause_stats(stats, program.clauses, counts)
    return warp, mem, local, status


def _f(value):
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _single(op, dst=0, srca=1, srcb=2, srcc=255, flags=0, imm=0, constants=()):
    clause = Clause(
        tuples=[(Instruction(op, dst=dst, srca=srca, srcb=srcb, srcc=srcc,
                             flags=flags, imm=imm), NOP)],
        constants=list(constants),
        tail=Tail.END,
    )
    return [clause]


class TestALUSemantics:
    def _alu(self, op, a_bits, b_bits, flags=0):
        def setup(warp, _mem):
            warp.regs[:, 1] = a_bits
            warp.regs[:, 2] = b_bits
        warp, _, _, _ = _run(_single(op, flags=flags), setup=setup)
        return warp.regs[0, 0]

    def test_fadd_float32_rounding(self):
        result = self._alu(Op.FADD, _f(0.1), _f(0.2))
        expected = np.float32(0.1) + np.float32(0.2)
        assert result == _f(float(expected))

    def test_fma(self):
        def setup(warp, _mem):
            warp.regs[:, 1] = _f(2.0)
            warp.regs[:, 2] = _f(3.0)
            warp.regs[:, 3] = _f(4.0)
        warp, _, _, _ = _run(_single(Op.FMA, srcc=3), setup=setup)
        assert warp.regs[0, 0] == _f(10.0)

    def test_integer_wraparound(self):
        assert self._alu(Op.IADD, 0xFFFFFFFF, 2) == 1
        assert self._alu(Op.IMUL, 0x10000, 0x10000) == 0
        assert self._alu(Op.ISUB, 0, 1) == 0xFFFFFFFF

    def test_signed_vs_unsigned_shift(self):
        assert self._alu(Op.ISHR, 0x80000000, 4) == 0x08000000
        assert self._alu(Op.IASHR, 0x80000000, 4) == 0xF8000000

    def test_division_by_zero_yields_zero(self):
        assert self._alu(Op.IDIV, 100, 0) == 0
        assert self._alu(Op.UREM, 100, 0) == 0

    def test_signed_division_truncates_toward_zero(self):
        minus7 = (-7) & 0xFFFFFFFF
        assert self._alu(Op.IDIV, minus7, 2) == ((-3) & 0xFFFFFFFF)
        assert self._alu(Op.IREM, minus7, 2) == ((-1) & 0xFFFFFFFF)

    def test_signed_division_negative_dividend_and_divisor(self):
        # regression: the handler once computed the quotient twice, with
        # the dead first result floor-dividing negative dividends
        minus7 = (-7) & 0xFFFFFFFF
        minus2 = (-2) & 0xFFFFFFFF
        assert self._alu(Op.IDIV, minus7, minus2) == 3
        assert self._alu(Op.IDIV, 7, minus2) == ((-3) & 0xFFFFFFFF)
        assert self._alu(Op.IREM, minus7, minus2) == ((-1) & 0xFFFFFFFF)
        assert self._alu(Op.IREM, 7, minus2) == 1
        # INT_MIN / -1 overflows; the architecture defines the wrap
        int_min = 0x80000000
        minus1 = 0xFFFFFFFF
        assert self._alu(Op.IDIV, int_min, minus1) == 0x80000000

    def test_compare_modes(self):
        assert self._alu(Op.CMP, _f(1.5), _f(2.5), int(CmpMode.FLT)) == 1
        assert self._alu(Op.CMP, (-1) & 0xFFFFFFFF, 1, int(CmpMode.ILT)) == 1
        # unsigned: 0xFFFFFFFF is the largest value
        assert self._alu(Op.CMP, 0xFFFFFFFF, 1, int(CmpMode.ULT)) == 0

    def test_select(self):
        def setup(warp, _mem):
            warp.regs[:, 1] = 111
            warp.regs[:, 2] = 222
            warp.regs[:, 3] = np.array([1, 0, 1, 0], dtype=np.uint32)
        warp, _, _, _ = _run(_single(Op.SELECT, srcc=3), setup=setup)
        np.testing.assert_array_equal(warp.regs[:, 0],
                                      [111, 222, 111, 222])

    def test_conversions(self):
        assert self._alu(Op.F2I, _f(-2.7), 0) == ((-2) & 0xFFFFFFFF)
        assert self._alu(Op.F2U, _f(-2.7), 0) == 0
        assert self._alu(Op.I2F, (-5) & 0xFFFFFFFF, 0) == _f(-5.0)
        assert self._alu(Op.U2F, 0xFFFFFFFF, 0) == _f(float(0xFFFFFFFF))


class TestOperandsAndTemps:
    def test_rom_constant_operand(self):
        clauses = _single(Op.MOV, srca=CONST_BASE + 1, srcb=255,
                          constants=[7, 99])
        warp, _, _, _ = _run(clauses)
        assert (warp.regs[:, 0] == 99).all()

    def test_temporaries_within_clause(self):
        clause = Clause(
            tuples=[
                (Instruction(Op.MOV, dst=64, srca=CONST_BASE),
                 Instruction(Op.IADD, dst=0, srca=64, srcb=64)),
            ],
            constants=[21],
            tail=Tail.END,
        )
        warp, _, _, _ = _run([clause])
        assert (warp.regs[:, 0] == 42).all()

    def test_uniform_load(self):
        clauses = _single(Op.LDU, srca=255, srcb=255, imm=2)
        warp, _, _, _ = _run(clauses, uniforms=(5, 6, 7))
        assert (warp.regs[:, 0] == 7).all()


class TestMemoryOps:
    def test_global_load_store_per_lane(self):
        store = Clause(
            tuples=[(Instruction(Op.ST, srca=1, srcb=REG_LANE), NOP)],
            tail=Tail.FALLTHROUGH,
        )
        load = Clause(
            tuples=[(Instruction(Op.LD, dst=2, srca=1), NOP)],
            tail=Tail.END,
        )

        def setup(warp, _mem):
            warp.regs[:, 1] = np.arange(4, dtype=np.uint32) * 4 + 0x100

        warp, mem, _, _ = _run([store, load], setup=setup)
        np.testing.assert_array_equal(warp.regs[:, 2], np.arange(4))
        assert mem.load_u32(0x10C) == 3

    def test_wide_load(self):
        def setup(warp, mem):
            for i in range(4):
                mem.store_u32(0x200 + 4 * i, 100 + i)
            warp.regs[:, 1] = 0x200
        clauses = _single(Op.LD, dst=4, srca=1, flags=2)  # width 4
        warp, _, _, _ = _run(clauses, setup=setup)
        for i in range(4):
            assert (warp.regs[:, 4 + i] == 100 + i).all()

    def test_local_memory(self):
        store = Clause(
            tuples=[(Instruction(Op.ST, srca=1, srcb=REG_LANE, flags=0x4),
                     NOP)],
            tail=Tail.FALLTHROUGH,
        )
        load = Clause(
            tuples=[(Instruction(Op.LD, dst=2, srca=1, flags=0x4), NOP)],
            tail=Tail.END,
        )

        def setup(warp, _mem):
            warp.regs[:, 1] = np.arange(4, dtype=np.uint32) * 4

        warp, _, local, _ = _run([store, load], setup=setup)
        np.testing.assert_array_equal(local[:4], np.arange(4))
        np.testing.assert_array_equal(warp.regs[:, 2], np.arange(4))


class TestControlFlowAndDivergence:
    def _branchy_program(self):
        """lane < 2 goes to clause 1, others to clause 2."""
        cmp_clause = Clause(
            tuples=[(Instruction(Op.CMP, dst=0, srca=REG_LANE,
                                 srcb=CONST_BASE, flags=int(CmpMode.ULT)),
                     NOP)],
            constants=[2],
            tail=Tail.BRANCH_Z, cond_reg=0, target=2,
        )
        then_clause = Clause(
            tuples=[(Instruction(Op.MOV, dst=1, srca=CONST_BASE), NOP)],
            constants=[111],
            tail=Tail.JUMP, target=3,
        )
        else_clause = Clause(
            tuples=[(Instruction(Op.MOV, dst=1, srca=CONST_BASE), NOP)],
            constants=[222],
            tail=Tail.FALLTHROUGH,
        )
        join = Clause(tuples=[(NOP, NOP)], tail=Tail.END)
        return [cmp_clause, then_clause, else_clause, join]

    def test_divergent_lanes_take_both_paths(self):
        stats = JobStats()
        warp, _, _, status = _run(self._branchy_program(), stats=stats)
        assert status == "done"
        np.testing.assert_array_equal(warp.regs[:, 1], [111, 111, 222, 222])
        assert stats.divergent_branches == 1
        assert stats.branch_events >= 1

    def test_uniform_branch_not_divergent(self):
        program = self._branchy_program()
        program[0].constants = [4]  # all lanes < 4: uniform taken
        stats = JobStats()
        warp, _, _, _ = _run(program, stats=stats)
        np.testing.assert_array_equal(warp.regs[:, 1], [111] * 4)
        assert stats.divergent_branches == 0

    def test_loop_with_per_lane_trip_counts(self):
        """Each lane decrements its counter; min-PC scheduling reconverges."""
        init = Clause(
            tuples=[(Instruction(Op.IADD, dst=0, srca=REG_LANE,
                                 srcb=CONST_BASE),
                     Instruction(Op.MOV, dst=1, srca=CONST_BASE + 1))],
            constants=[1, 0],
            tail=Tail.FALLTHROUGH,
        )
        body = Clause(
            tuples=[
                (Instruction(Op.ISUB, dst=0, srca=0, srcb=CONST_BASE),
                 Instruction(Op.IADD, dst=1, srca=1, srcb=CONST_BASE)),
            ],
            constants=[1],
            tail=Tail.BRANCH, cond_reg=0, target=1,
        )
        end = Clause(tuples=[(NOP, NOP)], tail=Tail.END)
        warp, _, _, _ = _run([init, body, end])
        # lane i ran (i + 1) iterations
        np.testing.assert_array_equal(warp.regs[:, 1], [1, 2, 3, 4])

    def test_barrier_blocks_warp(self):
        clause = Clause(tuples=[(NOP, NOP)], tail=Tail.BARRIER)
        end = Clause(tuples=[(NOP, NOP)], tail=Tail.END)
        program = Program(clauses=[clause, end])
        interp = ClauseInterpreter(program, np.zeros(1, dtype=np.uint32),
                                   _FlatMemory())
        warp = QuadWarp()
        assert interp.run_warp(warp) == "barrier"
        assert warp.blocked
        warp.release_barrier()
        assert interp.run_warp(warp) == "done"

    def test_partial_warp(self):
        clauses = _single(Op.MOV, srca=CONST_BASE, srcb=255, constants=[9])
        program = Program(clauses=clauses)
        interp = ClauseInterpreter(program, np.zeros(1, dtype=np.uint32),
                                   _FlatMemory())
        warp = QuadWarp(active_lanes=3)
        interp.run_warp(warp)
        np.testing.assert_array_equal(warp.regs[:3, 0], [9, 9, 9])
        assert warp.regs[3, 0] == 0  # inactive lane untouched

    def test_runaway_warp_detected(self):
        from repro.errors import GuestError
        spin = Clause(tuples=[(NOP, NOP)], tail=Tail.JUMP, target=0)
        program = Program(clauses=[spin])
        interp = ClauseInterpreter(program, np.zeros(1, dtype=np.uint32),
                                   _FlatMemory())
        with pytest.raises(GuestError):
            interp.run_warp(QuadWarp(), max_clauses=100)


class TestStatsCounting:
    def test_per_lane_and_per_warp_counters(self):
        stats = JobStats()
        clause = Clause(
            tuples=[
                (Instruction(Op.IADD, dst=0, srca=REG_LANE, srcb=REG_LANE),
                 NOP),
                (Instruction(Op.LDU, dst=1, imm=0), NOP),
            ],
            tail=Tail.END,
        )
        _run([clause], stats=stats)
        assert stats.arith_instrs == WARP_WIDTH  # 1 op x 4 lanes
        assert stats.nop_instrs == 2 * WARP_WIDTH
        assert stats.const_load_instrs == WARP_WIDTH
        assert stats.arith_cycles == 2  # tuples, per warp
        assert stats.clauses_executed == 1
        assert stats.clause_size_histogram == {2: 1}
        assert stats.grf_reads == 2 * WARP_WIDTH  # IADD reads two GRF srcs
        assert stats.grf_writes == 2 * WARP_WIDTH

    def test_instrumentation_off_collects_nothing(self):
        warp, _, _, _ = _run(_single(Op.MOV, srca=CONST_BASE, srcb=255,
                                     constants=[1]), stats=None)
        assert (warp.regs[:, 0] == 1).all()
