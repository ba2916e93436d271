"""ALU semantics of the GPU, defined once.

:data:`OPS` maps every arithmetic :class:`~repro.gpu.isa.Op` to one row:
a NumPy *value function* and the *source arity*. A value function takes
exactly ``arity`` uint32 lane vectors of any (equal) length and returns
a uint32 lane vector of that length; lane *i* of the result depends only
on lane *i* of the sources, never on the vector length, the lane
position or the memory layout of the operands. That property is what
lets the quad interpreter (4 strided lanes), the
workgroup-wide megakernel (16..256 contiguous lanes) and the verifier's
constant folder (1 lane) share the rows and stay bit-identical;
``tests/test_gpu_ops.py`` checks it row by row.

A row that is *one ufunc applied in one lane type* records that pair and
derives its value function from it (:func:`_lanewise`); the megakernel
emits such a row as the ufunc itself, ``out=`` the destination row.

``CMP`` has no row — its function depends on the mode in the flags field
— and is built by :func:`compare`. :func:`alu` resolves either kind for
an instruction slot. :func:`atomic_apply` is the scalar update function
of ``ATOM`` and :func:`atomic` its lane-serial read-modify-write, which
both platform engines call. The other memory ops have no value semantics
and live in the engines. :func:`uniform_word` is the read port of ``LDU``.

``repro.baselines.m2s`` deliberately does *not* use this table: it is the
independent scalar oracle the single-instruction fuzzer compares against.
"""

import functools
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import GuestError
from repro.gpu.isa import (
    ATOM_ADD,
    ATOM_AND,
    ATOM_MAX,
    ATOM_MIN,
    ATOM_MODE_SHIFT,
    ATOM_OR,
    ATOM_SUB,
    ATOM_XCHG,
    ATOM_XOR,
    CmpMode,
    Op,
)

_U32 = np.uint32
_I32 = np.int32
_F32 = np.float32
_SHIFT_MASK = np.uint32(31)
_QNAN_BITS = np.uint32(0x7FC00000)  # canonical quiet NaN


# -- long-tail integer and conversion semantics ---------------------------------
#
# Division, remainder and float<->int conversion have architecture-defined
# corner cases (divide-by-zero yields zero, saturating float conversion,
# NaN converts to zero).

def vec_idiv(a_u32, b_u32):
    """Signed 32-bit division: truncate toward zero, x/0 == 0."""
    a = a_u32.view(_I32).astype(np.int64)
    b = b_u32.view(_I32).astype(np.int64)
    safe = np.where(b == 0, 1, b)
    quotient = np.where(b == 0, 0, np.trunc(a / safe))
    return quotient.astype(np.int64).astype(_I32).view(_U32)


def vec_irem(a_u32, b_u32):
    """Signed 32-bit remainder (C semantics), x%0 == 0."""
    a = a_u32.view(_I32).astype(np.int64)
    b = b_u32.view(_I32).astype(np.int64)
    safe = np.where(b == 0, 1, b)
    quotient = np.trunc(a / safe).astype(np.int64)
    remainder = a - quotient * safe
    remainder = np.where(b == 0, 0, remainder)
    return remainder.astype(_I32).view(_U32)


def vec_udiv(a_u32, b_u32):
    a = a_u32.astype(np.uint64)
    b = b_u32.astype(np.uint64)
    safe = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, a // safe).astype(_U32)


def vec_urem(a_u32, b_u32):
    a = a_u32.astype(np.uint64)
    b = b_u32.astype(np.uint64)
    safe = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, a % safe).astype(_U32)


def _f2int(low, high):
    """Float -> integer saturating at [*low*, *high*] (the architecture's
    defined out-of-range behaviour); NaN converts to 0."""
    def run(a_u32):
        with np.errstate(all="ignore"):  # a signalling NaN traps the cast
            wide = a_u32.view(_F32).astype(np.float64)
            wide[wide != wide] = 0.0
            np.clip(wide, low, high, out=wide)
            return wide.astype(np.int64).astype(_U32)  # two's complement
    return run


def vec_i2f(a_u32):
    return a_u32.view(_I32).astype(_F32).view(_U32)


def vec_u2f(a_u32):
    return a_u32.astype(_F32).view(_U32)


# -- row builders -----------------------------------------------------------------

def _f1(fn):
    def run(a):
        with np.errstate(all="ignore"):
            return fn(a.view(_F32)).view(_U32)
    return run


def _f2(fn):
    def run(a, b):
        with np.errstate(all="ignore"):
            return fn(a.view(_F32), b.view(_F32)).view(_U32)
    return run


def _fma(a, b, c):
    with np.errstate(all="ignore"):
        return (a.view(_F32) * b.view(_F32) + c.view(_F32)).view(_U32)


def _fminmax(wins, merge_zeros):
    """FMIN/FMAX after Arm's FPMin/FPMax with default NaN: a NaN source
    (quiet or signalling) loses to a number, NaN against NaN is the
    canonical quiet NaN, and of two zeros FMAX takes +0 and FMIN -0
    (*merge_zeros* on the bit patterns: AND resp. OR).

    Built from compares and selects on purpose. ``np.fmin``/``np.fmax``
    pick the signed zero, the NaN payload and the signalling-NaN outcome
    differently in their SIMD body and their scalar tail, so their result
    depends on vector length, lane position and operand stride.
    """
    def run(a, b):
        fa, fb = a.view(_F32), b.view(_F32)
        with np.errstate(invalid="ignore"):
            out = np.where(wins(fa, fb) | (fb != fb), a, b)
            out = np.where(fa == fb, merge_zeros(a, b), out)
        return np.where(np.isnan(out.view(_F32)), _QNAN_BITS, out)
    return run


def _i1(fn):
    def run(a):
        return fn(a.view(_I32)).view(_U32)
    return run


def _i2(fn):
    def run(a, b):
        return fn(a.view(_I32), b.view(_I32)).view(_U32)
    return run


class OpRow(NamedTuple):
    fn: Callable  # exactly `arity` uint32 lane vectors -> uint32 lane vector
    arity: int    # source fields read, srca first
    # set when fn is exactly `ufunc` over the sources viewed as `lane`,
    # its result being `lane` bits (or, for the CMP relations, 0/1)
    ufunc: Callable = None
    lane: type = None


_IN_LANE = {_F32: (_f1, _f2), _I32: (_i1, _i2)}


def _lanewise(ufunc, lane):
    """The row of an op that is exactly *ufunc* applied in *lane* type:
    the pair is the definition, the value function follows from it."""
    fn = ufunc if lane is _U32 else _IN_LANE[lane][ufunc.nin - 1](ufunc)
    return OpRow(fn, ufunc.nin, ufunc, lane)


#: The op table. Every engine, the verifier's operand model and constant
#: folder, and the program generator derive from these rows.
OPS = {
    Op.MOV: OpRow(lambda a: a, 1),
    Op.FADD: _lanewise(np.add, _F32),
    Op.FSUB: _lanewise(np.subtract, _F32),
    Op.FMUL: _lanewise(np.multiply, _F32),
    Op.FMA: OpRow(_fma, 3),
    Op.FMIN: OpRow(_fminmax(np.less, np.bitwise_or), 2),
    Op.FMAX: OpRow(_fminmax(np.greater, np.bitwise_and), 2),
    Op.FABS: _lanewise(np.abs, _F32),
    Op.FNEG: _lanewise(np.negative, _F32),
    Op.FFLOOR: _lanewise(np.floor, _F32),
    Op.FRCP: OpRow(_f1(lambda x: _F32(1.0) / x), 1),
    Op.FSQRT: _lanewise(np.sqrt, _F32),
    Op.FRSQ: OpRow(_f1(lambda x: _F32(1.0) / np.sqrt(x)), 1),
    Op.FEXP: _lanewise(np.exp, _F32),
    Op.FLOG: _lanewise(np.log, _F32),
    Op.FSIN: _lanewise(np.sin, _F32),
    Op.FCOS: _lanewise(np.cos, _F32),
    Op.F2I: OpRow(_f2int(-2147483648.0, 2147483647.0), 1),
    Op.F2U: OpRow(_f2int(0.0, 4294967295.0), 1),
    Op.I2F: OpRow(vec_i2f, 1),
    Op.U2F: OpRow(vec_u2f, 1),
    Op.IADD: _lanewise(np.add, _U32),
    Op.ISUB: _lanewise(np.subtract, _U32),
    Op.IMUL: _lanewise(np.multiply, _U32),  # wraps mod 2**32
    Op.IAND: _lanewise(np.bitwise_and, _U32),
    Op.IOR: _lanewise(np.bitwise_or, _U32),
    Op.IXOR: _lanewise(np.bitwise_xor, _U32),
    Op.ISHL: OpRow(lambda a, b: a << (b & _SHIFT_MASK), 2),
    Op.ISHR: OpRow(lambda a, b: a >> (b & _SHIFT_MASK), 2),
    Op.IASHR: OpRow(
        lambda a, b: (a.view(_I32) >> (b & _SHIFT_MASK).view(_I32))
        .view(_U32), 2),
    Op.IMIN: _lanewise(np.minimum, _I32),
    Op.IMAX: _lanewise(np.maximum, _I32),
    Op.UMIN: _lanewise(np.minimum, _U32),
    Op.UMAX: _lanewise(np.maximum, _U32),
    Op.IDIV: OpRow(vec_idiv, 2),
    Op.IREM: OpRow(vec_irem, 2),
    Op.UDIV: OpRow(vec_udiv, 2),
    Op.UREM: OpRow(vec_urem, 2),
    Op.IABS: _lanewise(np.abs, _I32),
    Op.SELECT: OpRow(lambda a, b, c: np.where(c != 0, a, b), 3),
}


# -- CMP ----------------------------------------------------------------------------

_CMP_ARITY = 2  # every mode compares srca with srcb

# a CmpMode name is <operand type><relation>, e.g. FLE, IGT, ULT
_CMP_VIEW = {"F": _F32, "I": _I32, "U": _U32}
_CMP_RELATION = {
    "EQ": np.equal, "NE": np.not_equal, "LT": np.less,
    "LE": np.less_equal, "GT": np.greater, "GE": np.greater_equal,
}


@functools.cache
def _compare_row(mode):
    view = _CMP_VIEW[mode.name[0]]
    relation = _CMP_RELATION[mode.name[1:]]

    def run(a, b):
        with np.errstate(invalid="ignore"):
            return relation(a.view(view), b.view(view)).astype(_U32)
    return OpRow(run, _CMP_ARITY, relation, view)


def compare(mode):
    """Value function of ``CMP`` in *mode*: two uint32 lane vectors read
    as f32/i32/u32 per the mode, result 0/1 as uint32."""
    return _compare_row(mode).fn


# -- lookups ------------------------------------------------------------------------

def arity(op):
    """Source fields (srca first) an ALU op reads."""
    return _CMP_ARITY if op is Op.CMP else OPS[op].arity


def alu(instr):
    """The :class:`OpRow` of the ALU instruction *instr*."""
    if instr.op is Op.CMP:
        return _compare_row(CmpMode(instr.flags))
    return OPS[instr.op]


# -- LDU ----------------------------------------------------------------------------

def uniform_word(uniforms, index):
    """Word *index* of the job's uniform table, checked when the ``LDU``
    slot is issued (the table is bound per job, not per translation)."""
    if not 0 <= index < len(uniforms):
        raise GuestError(f"uniform index {index} out of range")
    return uniforms[index]


# -- ATOM ---------------------------------------------------------------------------

def atomic_apply(mode, current, operand):
    """32-bit atomic update function shared by all engines."""
    if mode == ATOM_ADD:
        return (current + operand) & 0xFFFFFFFF
    if mode == ATOM_SUB:
        return (current - operand) & 0xFFFFFFFF
    if mode == ATOM_MIN:
        a = current - (1 << 32) if current & 0x80000000 else current
        b = operand - (1 << 32) if operand & 0x80000000 else operand
        return min(a, b) & 0xFFFFFFFF
    if mode == ATOM_MAX:
        a = current - (1 << 32) if current & 0x80000000 else current
        b = operand - (1 << 32) if operand & 0x80000000 else operand
        return max(a, b) & 0xFFFFFFFF
    if mode == ATOM_AND:
        return current & operand
    if mode == ATOM_OR:
        return current | operand
    if mode == ATOM_XOR:
        return current ^ operand
    if mode == ATOM_XCHG:
        return operand & 0xFFFFFFFF
    raise GuestError(f"unknown atomic mode {mode}")


def atomic(mem, local, flags, addrs, values, lanes, old):
    """``ATOM`` (mode in *flags*) for the lane indices *lanes*, one after
    another: each updates its word in the slab *local* (None: through
    *mem*'s scalar port) with its operand; ``old[lane]`` gets the word it
    found."""
    mode = (flags >> ATOM_MODE_SHIFT) & 0x7
    for lane in lanes:
        addr = int(addrs[lane])
        operand = int(values[lane])
        if local is None:
            current = mem.load_u32(addr)
            mem.store_u32(addr, atomic_apply(mode, current, operand))
        else:
            current = int(local[addr >> 2])
            local[addr >> 2] = atomic_apply(mode, current, operand)
        old[lane] = current
