"""Differential single-instruction execution (fuzzing harness).

One arbitrary instruction with arbitrary 32-bit inputs becomes a one-clause
:class:`~repro.validate.runner.DiffCase` — the fuzzed bits travel as clause
constants, so the identical binary runs on every engine — executed by
:class:`~repro.validate.runner.DifferentialRunner` on one thread. The
runner compares registers, memory, counters and traces exactly; what this
module adds is the instruction's one legitimate inexactness, the last ulp
and the NaN payload of a float result (:func:`results_equivalent`). Memory
and uniform ops execute over a pre-seeded scratch buffer with masked
(address-safe) offsets. Hypothesis drives this over the whole ISA in
``tests/test_validation.py``, mirroring the paper's instruction fuzzing
against Arm's reference simulator; whole-program fuzzing lives in
``repro.validate.progen`` / ``repro.validate.conformance``.
"""

import numpy as np

from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
    CONST_BASE,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
)
from repro.gpu.launch import U_FIRST_ARG
from repro.validate.runner import DiffCase, DifferentialRunner

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


# -- the one-clause case -------------------------------------------------------

SCRATCH_BYTES = 256   # power of two, so offsets can be masked in
_SCRATCH_VA = 0x1000

_ARG_WORDS = 6        # the scratch base VA + 5 seeded words
_UNIFORM_WORDS = U_FIRST_ARG + _ARG_WORDS


def _seeded_words(seed, count):
    """*count* words of a deterministic stream derived from the fuzz inputs
    (identical in every engine)."""
    words = []
    for _ in range(count):
        seed = (seed * 1664525 + 1013904223) & 0xFFFFFFFF
        words.append(seed)
    return words


def instruction_case(op, a_bits, b_bits, c_bits, flags=0):
    """The one-clause, one-thread :class:`DiffCase` exercising *op* once,
    and the register its (first) result lands in.

    An ALU op reads ``r1..r3`` = the fuzzed bits. For a memory/uniform op
    ``a_bits`` picks the (masked, address-safe) scratch offset or the
    uniform index, ``b_bits`` supplies store/atomic data, ``c_bits`` picks
    the access width or the atomic mode.
    """
    slots = []
    consts = []

    def const(value):
        value &= 0xFFFFFFFF
        if value not in consts:
            consts.append(value)
        return CONST_BASE + consts.index(value)

    def address(offset):
        slots.append(Instruction(Op.LDU, dst=4, imm=U_FIRST_ARG))
        slots.append(Instruction(Op.MOV, dst=1, srca=const(offset)))
        slots.append(Instruction(Op.IADD, dst=1, srca=1, srcb=4))

    dst = 8
    if op not in MEMORY_OPS:
        dst = 0
        for reg, bits in ((1, a_bits), (2, b_bits), (3, c_bits)):
            slots.append(Instruction(Op.MOV, dst=reg, srca=const(bits)))
        slots.append(Instruction(op, dst=0, srca=1, srcb=2, srcc=3,
                                 flags=flags))
    elif op is Op.LDU:
        slots.append(Instruction(Op.LDU, dst=8,
                                 imm=a_bits % _UNIFORM_WORDS))
    elif op is Op.ATOM:
        address(a_bits & (SCRATCH_BYTES - 4))
        slots.append(Instruction(Op.MOV, dst=2, srca=const(b_bits)))
        slots.append(Instruction(Op.ATOM, dst=8, srca=1, srcb=2,
                                 flags=(c_bits % 8) << ATOM_MODE_SHIFT))
    else:
        log2w = c_bits % 3
        width = 1 << log2w
        address(a_bits & (SCRATCH_BYTES - 4 * width))
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
    scratch = _seeded_words(a_bits * 0x9E3779B9 + b_bits * 0x85EBCA6B + 1,
                            SCRATCH_BYTES // 4)
    case = DiffCase(
        program=program, global_size=(1, 1, 1), local_size=(1, 1, 1),
        regions=[("scratch", _SCRATCH_VA, np.array(scratch, np.uint32))],
        args=[_SCRATCH_VA, *_seeded_words(b_bits, _ARG_WORDS - 1)],
        name=f"fuzz-{op.name}")
    return case, dst


def execute_instruction_both(op, a_bits, b_bits, c_bits, flags=0,
                             engines=("interp", "m2s")):
    """Execute ``op`` with raw 32-bit inputs on every engine of *engines*.

    Returns the result register's bits per engine, in *engines* order, for
    :func:`results_equivalent` to judge. Everything else the runner
    compares — the other registers, the scratch image, counters, traces —
    has no tolerance: a disagreement there (or, for an op without a float
    result, anywhere) raises AssertionError.
    """
    case, dst = instruction_case(op, a_bits, b_bits, c_bits, flags)
    results, mismatches = DifferentialRunner(engines).run_case(case)
    tolerated = ("registers", "trace") if op in FLOAT_RESULT_OPS else ()
    hard = [str(m) for m in mismatches if m.kind not in tolerated]
    if hard:
        raise AssertionError(
            f"{op.name}(0x{a_bits:08x}, 0x{b_bits:08x}, 0x{c_bits:08x}): "
            + "; ".join(hard))
    return tuple(results[engine].registers[(0, 0, 0)][0][dst]
                 for engine in engines)


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
