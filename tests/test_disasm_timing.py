"""Tests: disassembler and the first-order cycle model."""

import numpy as np
import pytest

from repro.clc import compile_source
from repro.gpu.disasm import disassemble, format_instruction, operand_name
from repro.gpu.isa import Instruction, Op
from repro.instrument.stats import JobStats
from repro.instrument.timing import (
    REGISTER_KNEE,
    CycleModel,
    MachineDescription,
)

SOURCE = """
__kernel void k(__global float* a, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = sqrt(a[i]) * 2.0f + 1.0f;
    }
}
"""


class TestDisassembler:
    def test_operand_names(self):
        assert operand_name(0) == "r0"
        assert operand_name(64) == "t0"
        assert operand_name(65) == "t1"
        assert operand_name(128) == "c0"
        assert operand_name(56) == "gid.x"
        assert operand_name(59) == "lid.x"
        assert operand_name(63) == "lane"
        assert operand_name(255) == "-"

    def test_format_instruction(self):
        instr = Instruction(Op.FMA, dst=3, srca=1, srcb=128, srcc=3)
        assert format_instruction(instr) == "fma r3, r1, c0, r3"
        assert format_instruction(Instruction(Op.NOP)) == "nop"

    def test_memory_annotations(self):
        load = Instruction(Op.LD, dst=4, srca=1, flags=2)
        assert "[global x4]" in format_instruction(load)
        store = Instruction(Op.ST, srca=1, srcb=2, flags=0x4)
        assert "[local x1]" in format_instruction(store)

    def test_disassemble_compiled_kernel(self):
        kernel = compile_source(SOURCE).kernel("k")
        text = disassemble(kernel.program)
        assert "clause 0" in text
        assert "fsqrt" in text
        assert "tail=end" in text
        assert "pool:" in text

    def test_disassemble_from_binary(self):
        kernel = compile_source(SOURCE).kernel("k")
        from_binary = disassemble(kernel.binary)
        from_program = disassemble(kernel.program)
        assert from_binary == from_program

    def test_branch_annotation(self):
        kernel = compile_source(SOURCE).kernel("k")
        text = disassemble(kernel.program)
        assert "branch" in text and " -> " in text


class TestCycleModel:
    def _stats(self, arith_cycles=8000, ls_cycles=100, main_mem=100,
               workgroups=16, divergent=0):
        stats = JobStats()
        stats.arith_cycles = arith_cycles
        stats.ls_cycles = ls_cycles
        stats.main_mem_accesses = main_mem
        stats.workgroups = workgroups
        stats.divergent_branches = divergent
        return stats

    def test_compute_bound_kernel(self):
        model = CycleModel()
        estimate = model.estimate(self._stats(arith_cycles=1_000_000,
                                              ls_cycles=10, main_mem=10))
        assert estimate["bound_by"] == "arith"
        assert estimate["total_cycles"] > 0

    def test_memory_bound_kernel(self):
        model = CycleModel()
        estimate = model.estimate(self._stats(arith_cycles=100,
                                              ls_cycles=50_000,
                                              main_mem=100_000))
        assert estimate["bound_by"] == "memory"

    def test_occupancy_limits_small_jobs(self):
        model = CycleModel()
        small = model.estimate(self._stats(workgroups=1))
        large = model.estimate(self._stats(workgroups=64))
        assert small["occupancy"] < large["occupancy"]
        assert small["arith_bound"] > large["arith_bound"]

    def test_divergence_penalty(self):
        model = CycleModel()
        calm = model.estimate(self._stats(divergent=0))
        stormy = model.estimate(self._stats(divergent=1000))
        assert stormy["total_cycles"] > calm["total_cycles"]

    def test_more_cores_never_slower(self):
        small = CycleModel(MachineDescription(shader_cores=2))
        large = CycleModel(MachineDescription(shader_cores=16))
        stats = self._stats(workgroups=64)
        assert (large.estimate(stats)["total_cycles"]
                <= small.estimate(stats)["total_cycles"])

    def test_footprint_sets_the_misses_whatever_the_hit_fraction(self):
        stats = self._stats(arith_cycles=100, ls_cycles=50_000,
                            main_mem=100_000)
        cold = CycleModel(MachineDescription(dram_hit_fraction=0.5))
        warm = CycleModel(MachineDescription(dram_hit_fraction=0.99))
        assert (cold.estimate(stats, footprint=3072)
                == warm.estimate(stats, footprint=3072))
        assert (cold.estimate(stats)["memory_bound"]
                > cold.estimate(stats, footprint=3072)["memory_bound"])

    def test_registers_above_the_knee_halve_latency_hiding(self):
        stats = self._stats(arith_cycles=100_000, ls_cycles=50_000,
                            main_mem=100_000)
        model = CycleModel()
        light = model.estimate(stats, registers=REGISTER_KNEE)
        heavy = model.estimate(stats, registers=REGISTER_KNEE + 1)
        assert heavy["memory_bound"] > light["memory_bound"]
        assert heavy["arith_bound"] == light["arith_bound"]
        assert light == model.estimate(stats)

    def test_default_arguments_keep_the_first_order_formula(self):
        # pinned: with no registers and no footprint, what `bench` and the
        # design-space sweep print must not move
        stats = self._stats(arith_cycles=100, ls_cycles=50_000,
                            main_mem=100_000, workgroups=5, divergent=7)
        estimate = CycleModel().estimate(stats, jobs=3)
        assert estimate["total_cycles"] == 61613.999999999985

    def test_on_real_workload_stats(self):
        from repro.kernels import get_workload

        result = get_workload("SobelFilter", width=32, height=24).run()
        estimate = CycleModel().estimate(result.stats, jobs=result.jobs)
        assert estimate["total_cycles"] > 1000
        assert estimate["bound_by"] in ("arith", "memory")
        # a 3x3 window filter has near-total on-chip reuse: at a high hit
        # rate the kernel turns compute bound
        warm = CycleModel(MachineDescription(dram_hit_fraction=0.999))
        assert warm.estimate(result.stats)["bound_by"] == "arith"
