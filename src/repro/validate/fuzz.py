"""Differential single-instruction execution (fuzzing harness).

Runs one arbitrary arithmetic instruction with arbitrary register inputs
through both independent implementations — the quad-warp NumPy executor and
the scalar Python/struct baseline ALU — and returns both results for
comparison. Memory and uniform ops execute over a pre-seeded scratch buffer
with masked (address-safe) offsets, comparing a digest of registers plus
the final memory image. Hypothesis drives this over the whole ISA in
``tests/test_validation.py``, mirroring the paper's instruction fuzzing
against Arm's reference simulator; whole-program fuzzing lives in
``repro.validate.progen`` / ``repro.validate.conformance``.
"""

import numpy as np

from repro.baselines.m2s import M2SSimulator
from repro.gpu.encoding import encode_program
from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
)
from repro.gpu.warp import ClauseInterpreter, QuadWarp

# only NOP is excluded from single-instruction fuzzing; memory/uniform ops
# run through an address-safe scratch-buffer harness (below)
NON_FUZZABLE = {Op.NOP}

MEMORY_OPS = {Op.LD, Op.ST, Op.LDU, Op.ATOM}

FUZZABLE_OPS = tuple(op for op in Op if op not in NON_FUZZABLE)

# transcendental ops where the two implementations may legitimately differ
# in the last ulp (numpy vectorized vs numpy scalar paths)
ULP_TOLERANT = {Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS, Op.FRSQ, Op.FRCP,
                Op.FSQRT}

# ops whose result is a float32: NaN *payloads* are implementation-defined
# (hardware and numpy both canonicalize differently), so NaN == NaN there
FLOAT_RESULT_OPS = {
    Op.FADD, Op.FSUB, Op.FMUL, Op.FMA, Op.FMIN, Op.FMAX, Op.FABS, Op.FNEG,
    Op.FFLOOR, Op.FRCP, Op.FSQRT, Op.FRSQ, Op.FEXP, Op.FLOG, Op.FSIN,
    Op.FCOS, Op.I2F, Op.U2F,
}


# -- memory-op harness ---------------------------------------------------------

SCRATCH_BYTES = 256   # power of two, so offsets can be masked in
_SCRATCH_VA = 0x1000

_UNIFORM_WORDS = 16   # 10 NDRange words + 6 argument words


def _scratch_words(a_bits, b_bits):
    """Deterministic scratch-buffer contents derived from the fuzz inputs
    (identical in both engines)."""
    mix = (a_bits * 0x9E3779B9 + b_bits * 0x85EBCA6B + 1) & 0xFFFFFFFF
    words = np.empty(SCRATCH_BYTES // 4, dtype=np.uint32)
    for i in range(len(words)):
        mix = (mix * 1664525 + 1013904223) & 0xFFFFFFFF
        words[i] = mix
    return words


def _memory_program(op, a_bits, b_bits, c_bits):
    """A one-clause program exercising *op* once, address-safely.

    The fuzzed bits travel as clause constants so the identical binary runs
    on every engine: ``a_bits`` picks the (masked) scratch offset or the
    uniform index, ``b_bits`` supplies store/atomic data, ``c_bits`` picks
    the access width or the atomic mode.
    """
    slots = [Instruction(Op.LDU, dst=4, imm=10)]  # r4 = scratch base VA
    consts = []

    def const(value):
        value &= 0xFFFFFFFF
        if value not in consts:
            consts.append(value)
        return 128 + consts.index(value)

    if op is Op.LDU:
        slots.append(Instruction(Op.LDU, dst=8,
                                 imm=a_bits % _UNIFORM_WORDS))
        width = 1
    elif op is Op.ATOM:
        mode = c_bits % 8
        offset = a_bits & (SCRATCH_BYTES - 4)
        slots.append(Instruction(Op.MOV, dst=1, srca=const(offset)))
        slots.append(Instruction(Op.IADD, dst=1, srca=1, srcb=4))
        slots.append(Instruction(Op.MOV, dst=2, srca=const(b_bits)))
        slots.append(Instruction(Op.ATOM, dst=8, srca=1, srcb=2,
                                 flags=mode << ATOM_MODE_SHIFT))
        width = 1
    else:
        log2w = c_bits % 3
        width = 1 << log2w
        offset = a_bits & (SCRATCH_BYTES - 4 * width)
        slots.append(Instruction(Op.MOV, dst=1, srca=const(offset)))
        slots.append(Instruction(Op.IADD, dst=1, srca=1, srcb=4))
        if op is Op.LD:
            slots.append(Instruction(Op.LD, dst=8, srca=1, flags=log2w))
        else:
            for element in range(width):
                slots.append(Instruction(
                    Op.MOV, dst=8 + element,
                    srca=const(b_bits ^ (element * 0x01010101))))
            slots.append(Instruction(Op.ST, srca=1, srcb=8, flags=log2w))
    tuples = [(slot, Instruction(Op.NOP)) for slot in slots]
    program = Program(clauses=[Clause(tuples=tuples, constants=consts,
                                      tail=Tail.END)])
    program.validate()
    return program, width


class _ScratchMemory:
    """Minimal per-word memory port over the scratch window (the interpreter
    falls back to load_u32/store_u32 when no quad port is exposed)."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint32)

    def load_u32(self, addr):
        return int(self.words[(addr - _SCRATCH_VA) >> 2])

    def store_u32(self, addr, value):
        self.words[(addr - _SCRATCH_VA) >> 2] = value


def _digest(words):
    value = 2166136261
    for word in words:
        value = ((value ^ (int(word) & 0xFFFFFFFF)) * 16777619) & 0xFFFFFFFF
    return value


class _Shim:
    local_static_size = 0
    scratch_per_thread = 0

    def __init__(self, binary):
        self.binary = binary


def execute_memory_both(op, a_bits, b_bits, c_bits):
    """Run one memory/uniform instruction on both engines over an identical
    seeded scratch buffer; returns a digest of the destination registers and
    the final memory image per engine."""
    program, width = _memory_program(op, a_bits, b_bits, c_bits)
    scratch = _scratch_words(a_bits, b_bits)
    args = [_SCRATCH_VA]
    mix = b_bits
    for _ in range(_UNIFORM_WORDS - 11):
        mix = (mix * 0x41C64E6D + 12345) & 0xFFFFFFFF
        args.append(mix)

    # quad engine: one live lane, scalar memory port
    uniforms = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 1] + args,
                        dtype=np.uint32)
    mem = _ScratchMemory(scratch)
    interp = ClauseInterpreter(program, uniforms, mem)
    warp = QuadWarp(active_lanes=1)
    interp.run_warp(warp)
    quad_regs = [int(warp.regs[0, 8 + e]) for e in range(width)]
    quad_bits = _digest(quad_regs + list(mem.words))

    # scalar baseline: same binary, same flat layout
    sim = M2SSimulator(memory_size=_SCRATCH_VA + 4 * SCRATCH_BYTES,
                       capture_registers=True)
    sim.place(_SCRATCH_VA, scratch)
    sim.run_kernel(_Shim(encode_program(program)), (1, 1, 1), (1, 1, 1),
                   args)
    regs, _temps = sim.retired_registers[(0, 0, 0)]
    scalar_regs = [regs[8 + e] for e in range(width)]
    scalar_mem = sim.read(_SCRATCH_VA, SCRATCH_BYTES // 4, np.uint32)
    scalar_bits = _digest(scalar_regs + list(scalar_mem))
    return quad_bits, scalar_bits


def execute_instruction_both(op, a_bits, b_bits, c_bits, flags=0):
    """Execute ``op`` with raw 32-bit inputs on both engines.

    Returns (quad_result_bits, scalar_result_bits) for lane/thread 0.
    Memory/uniform ops are routed through the scratch-buffer harness and
    compare a digest of registers + memory instead of a single register.
    """
    if op in MEMORY_OPS:
        return execute_memory_both(op, a_bits, b_bits, c_bits)
    instr = Instruction(op, dst=0, srca=1, srcb=2, srcc=3, flags=flags)
    clause = Clause(tuples=[(instr, Instruction(Op.NOP))], tail=Tail.END)
    program = Program(clauses=[clause])

    interp = ClauseInterpreter(program, np.zeros(1, dtype=np.uint32),
                               mem=None)
    warp = QuadWarp()
    warp.regs[:, 1] = np.uint32(a_bits)
    warp.regs[:, 2] = np.uint32(b_bits)
    warp.regs[:, 3] = np.uint32(c_bits)
    interp.run_warp(warp)
    quad_bits = int(warp.regs[0, 0])

    scalar_bits = int(M2SSimulator.alu(op, instr, a_bits & 0xFFFFFFFF,
                                       b_bits & 0xFFFFFFFF,
                                       c_bits & 0xFFFFFFFF)) & 0xFFFFFFFF
    return quad_bits, scalar_bits


def results_equivalent(op, quad_bits, scalar_bits, ulps=2):
    """Bit-equal, or within *ulps* for the transcendental special-function
    ops (and NaN == NaN)."""
    if quad_bits == scalar_bits:
        return True
    a = np.uint32(quad_bits).view(np.float32)
    b = np.uint32(scalar_bits).view(np.float32)
    if op in FLOAT_RESULT_OPS and np.isnan(a) and np.isnan(b):
        return True
    if op not in ULP_TOLERANT:
        return False
    if np.isinf(a) or np.isinf(b):
        return bool(a == b)
    # ulp distance via ordered-integer representation
    ia = np.int64(np.uint32(quad_bits).view(np.int32))
    ib = np.int64(np.uint32(scalar_bits).view(np.int32))
    if ia < 0:
        ia = np.int64(-0x80000000) - ia
    if ib < 0:
        ib = np.int64(-0x80000000) - ib
    return abs(int(ia) - int(ib)) <= ulps
