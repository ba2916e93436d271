"""Abstract interpretation of register contents for the memory passes.

The domain tracks, per GRF/temporary, a symbolic-linear value

    value  =  base + coeff * sym + X,      X subset-of [lo, hi]

where *base* is a kernel-argument uniform slot (``('u', slot)`` — a
buffer VA, local offset or scalar), *sym* is one of the per-thread id
symbols (``gid``/``lid``/``lane``), and ``[lo, hi]`` bounds the residual
constant part. A ``uniform`` flag records whether the value is identical
for every thread of a workgroup (the property the race detector needs);
``top`` means nothing is known but uniformity may still hold (e.g.
group-id-derived values).

This is exactly expressive enough for the address idioms the code
producers use — ``base + (x & mask)`` windows, ``base + (gid << k)``
per-thread slices, ``lid << k`` local slots — while staying sound:
anything else collapses to ``top`` and the memory passes make no claim.

A sibling pass over the same clause CFG, :func:`stored_slots`, tracks
only *provenance*: which argument slots a register's value may point
into. It survives any offset, ``top`` included, so it names the buffers
a program stores through where the value domain has lost the base.
"""

from dataclasses import dataclass

import numpy as np

from repro.gpu.isa import (
    CONST_BASE,
    REG_GLOBAL_ID,
    REG_GROUP_FLAT,
    REG_GROUP_ID,
    REG_LANE,
    REG_LOCAL_ID,
    TEMP_BASE,
    Op,
    Tail,
    is_const,
    is_grf,
    is_temp,
)
from repro.gpu.ops import OPS
from repro.gpu.verify import model
from repro.gpu.verify.cfg import ClauseCFG

# Interval bounds beyond this collapse to top: 32-bit wraparound would
# otherwise let a "huge" abstract address alias back into mapped VAs.
_BOUND_LIMIT = 1 << 40
_WIDEN_VISITS = 8
_SYMS = ("gid", "lid", "lane")


@dataclass(frozen=True)
class AVal:
    base: tuple = None
    sym: str = None
    coeff: int = 0
    lo: int = 0
    hi: int = 0
    top: bool = False
    uniform: bool = True

    @property
    def is_exact_const(self):
        return (not self.top and self.base is None and self.coeff == 0
                and self.lo == self.hi)

    @property
    def varies_in_group(self):
        """May the value differ between two threads of one workgroup?"""
        if self.top or not self.uniform:
            return not self.uniform
        return self.coeff != 0 and self.sym in _SYMS


def const(value):
    return AVal(lo=value, hi=value)


TOP_UNIFORM = AVal(top=True, uniform=True)
TOP_VARYING = AVal(top=True, uniform=False)
ZERO = const(0)


def top_like(*vals):
    return TOP_UNIFORM if all(v.uniform for v in vals) else TOP_VARYING


def _norm(val):
    if val.top:
        return val
    if abs(val.lo) > _BOUND_LIMIT or abs(val.hi) > _BOUND_LIMIT \
            or abs(val.coeff) > _BOUND_LIMIT:
        return top_like(val)
    if val.coeff == 0 and val.sym is not None:
        return AVal(base=val.base, lo=val.lo, hi=val.hi,
                    uniform=val.uniform)
    return val


def av_add(a, b):
    if a.top or b.top:
        return top_like(a, b)
    if a.base is not None and b.base is not None:
        return top_like(a, b)
    if a.sym and b.sym and a.sym != b.sym:
        return top_like(a, b)
    sym = a.sym or b.sym
    return _norm(AVal(
        base=a.base or b.base, sym=sym,
        coeff=(a.coeff if a.sym == sym else 0)
        + (b.coeff if b.sym == sym else 0),
        lo=a.lo + b.lo, hi=a.hi + b.hi,
        uniform=a.uniform and b.uniform))


def av_neg(a):
    if a.top or a.base is not None:
        return top_like(a)
    return _norm(AVal(sym=a.sym, coeff=-a.coeff, lo=-a.hi, hi=-a.lo,
                      uniform=a.uniform))


def av_sub(a, b):
    return av_add(a, av_neg(b))


def av_scale(a, factor):
    if a.top or a.base is not None:
        return top_like(a)
    lo, hi = a.lo * factor, a.hi * factor
    if factor < 0:
        lo, hi = hi, lo
    return _norm(AVal(sym=a.sym, coeff=a.coeff * factor, lo=lo, hi=hi,
                      uniform=a.uniform))


def av_and_mask(a, mask):
    if mask < 0:
        return top_like(a)
    if a.is_exact_const and a.lo >= 0:
        return const(a.lo & mask)
    # Sound regardless of the input: the result always lies in [0, mask].
    return AVal(lo=0, hi=mask, uniform=a.uniform)


def av_bitor_bound(a, b, xor=False):
    """IOR/IXOR upper bound via bit length (non-negative inputs only)."""
    if a.is_exact_const and b.is_exact_const and a.lo >= 0 and b.lo >= 0:
        return const(a.lo ^ b.lo if xor else a.lo | b.lo)
    if (not a.top and not b.top and a.base is None and b.base is None
            and a.coeff == 0 and b.coeff == 0 and a.lo >= 0 and b.lo >= 0):
        bits = max(a.hi.bit_length(), b.hi.bit_length())
        return AVal(lo=0, hi=(1 << bits) - 1,
                    uniform=a.uniform and b.uniform)
    return top_like(a, b)


def join(a, b, widen=False):
    if a == b:
        return a
    uniform = a.uniform and b.uniform
    if (a.top or b.top or widen or a.base != b.base or a.sym != b.sym
            or a.coeff != b.coeff):
        return TOP_UNIFORM if uniform else TOP_VARYING
    return _norm(AVal(base=a.base, sym=a.sym, coeff=a.coeff,
                      lo=min(a.lo, b.lo), hi=max(a.hi, b.hi),
                      uniform=uniform))


@dataclass(frozen=True)
class MemAccess:
    """One LD/ST/ATOM site with its abstract address."""

    clause: int
    tuple_index: int
    slot: str
    instr: object
    kind: str  # 'ld' | 'st' | 'atom'
    local: bool
    addr: AVal
    width: int


def entry_state():
    """Register state at dispatch: zero-filled GRF/temps plus the
    preloaded thread-state registers."""
    state = {}
    for reg in range(64):
        state[reg] = ZERO
    state[TEMP_BASE] = ZERO
    state[TEMP_BASE + 1] = ZERO
    for reg in (REG_GROUP_ID, REG_GROUP_ID + 1, REG_GROUP_ID + 2,
                REG_GROUP_FLAT):
        state[reg] = TOP_UNIFORM  # uniform within a workgroup
    state[REG_GLOBAL_ID] = AVal(sym="gid", coeff=1, uniform=False)
    state[REG_GLOBAL_ID + 1] = TOP_VARYING
    state[REG_GLOBAL_ID + 2] = TOP_VARYING
    state[REG_LOCAL_ID] = AVal(sym="lid", coeff=1, uniform=False)
    state[REG_LOCAL_ID + 1] = TOP_VARYING
    state[REG_LOCAL_ID + 2] = TOP_VARYING
    state[REG_LANE] = AVal(sym="lane", coeff=1, lo=0, hi=0, uniform=False)
    return state


class AbsintResult:
    def __init__(self):
        self.accesses = []
        self.cond_uniform = {}  # clause -> bool (branch condition)
        self.entry_states = {}


# Integer ops the symbolic domain cannot track but that fold exactly
# when every operand is a known constant (machine mod-2^32 semantics).
_FOLD_OPS = frozenset({Op.ISHR, Op.IASHR, Op.IABS, Op.IDIV, Op.IREM,
                       Op.UDIV, Op.UREM})


def _machine_u32(value):
    return value & 0xFFFFFFFF


def _machine_s32(value):
    """Signed reading of a machine word (the Hypothesis suite's reference
    for the folded shifts and divisions)."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def _fold_int(op, srcs):
    """Machine-exact u32 result of *op* over exact-const operands: the
    op-table row the engines execute, applied to one lane."""
    lanes = [np.array([_machine_u32(src.lo)], dtype=np.uint32)
             for src in srcs]
    return int(OPS[op].fn(*lanes)[0])


def read_aval(state, clause, operand):
    if is_grf(operand) or is_temp(operand):
        return state.get(operand, TOP_VARYING)
    if is_const(operand):
        index = operand - CONST_BASE
        if index < len(clause.constants):
            return const(clause.constants[index])
    return TOP_VARYING


def transfer_slot(state, clause, instr, ctx, accesses, location):
    op = instr.op
    if op is Op.NOP:
        return
    srcs = [read_aval(state, clause, operand)
            for _f, operand in model.required_sources(instr)]

    if op in (Op.LD, Op.ST, Op.ATOM):
        addr = srcs[0] if srcs else TOP_VARYING
        if accesses is not None:
            clause_index, tuple_index, slot_name = location
            accesses.append(MemAccess(
                clause=clause_index, tuple_index=tuple_index,
                slot=slot_name, instr=instr,
                kind={Op.LD: "ld", Op.ST: "st", Op.ATOM: "atom"}[op],
                local=instr.mem_is_local, addr=addr,
                width=instr.mem_width if op in (Op.LD, Op.ST) else 1))
        if op is Op.LD:
            for target in model.written_registers(instr):
                if is_grf(target):
                    state[target] = TOP_VARYING
        elif op is Op.ATOM:
            if is_grf(instr.dst) or is_temp(instr.dst):
                state[instr.dst] = TOP_VARYING
        return

    if op is Op.LDU:
        slot = instr.imm
        known = ctx.uniform_values.get(slot)
        if known is not None and slot not in ctx.buffers:
            result = const(known)
        else:
            result = AVal(base=("u", slot))
    elif op is Op.MOV:
        result = srcs[0]
    elif op is Op.IADD:
        result = av_add(srcs[0], srcs[1])
    elif op is Op.ISUB:
        result = av_sub(srcs[0], srcs[1])
    elif op is Op.ISHL:
        shift = srcs[1]
        result = (av_scale(srcs[0], 1 << shift.lo)
                  if shift.is_exact_const and 0 <= shift.lo < 32
                  else top_like(*srcs))
    elif op is Op.IMUL:
        if srcs[1].is_exact_const:
            result = av_scale(srcs[0], srcs[1].lo)
        elif srcs[0].is_exact_const:
            result = av_scale(srcs[1], srcs[0].lo)
        else:
            result = top_like(*srcs)
    elif op is Op.IAND:
        if srcs[1].is_exact_const:
            result = av_and_mask(srcs[0], srcs[1].lo)
        elif srcs[0].is_exact_const:
            result = av_and_mask(srcs[1], srcs[0].lo)
        else:
            result = top_like(*srcs)
    elif op in (Op.IOR, Op.IXOR):
        result = av_bitor_bound(srcs[0], srcs[1], xor=op is Op.IXOR)
    elif op is Op.CMP:
        result = AVal(lo=0, hi=1,
                      uniform=srcs[0].uniform and srcs[1].uniform)
    elif op is Op.SELECT:
        result = join(srcs[0], srcs[1])
        if not srcs[2].uniform and result.uniform:
            result = top_like(srcs[2]) if result.top else AVal(
                base=result.base, sym=result.sym, coeff=result.coeff,
                lo=result.lo, hi=result.hi, uniform=False)
    elif op in _FOLD_OPS:
        result = (const(_fold_int(op, srcs))
                  if srcs and all(s.is_exact_const for s in srcs)
                  else top_like(*srcs))
    elif op in (Op.IMIN, Op.IMAX, Op.UMIN, Op.UMAX):
        a, b = srcs
        if (not a.top and not b.top and a.base is None and b.base is None
                and a.coeff == 0 and b.coeff == 0):
            if op in (Op.IMIN, Op.UMIN):
                result = AVal(lo=min(a.lo, b.lo), hi=min(a.hi, b.hi),
                              uniform=a.uniform and b.uniform)
            else:
                result = AVal(lo=max(a.lo, b.lo), hi=max(a.hi, b.hi),
                              uniform=a.uniform and b.uniform)
        else:
            result = top_like(a, b)
    else:
        result = top_like(*srcs) if srcs else TOP_UNIFORM

    dst = instr.dst
    if is_grf(dst) or is_temp(dst):
        state[dst] = result


def transfer_clause(clause, clause_index, state, ctx, accesses=None):
    for tuple_index, (fma, add) in enumerate(clause.tuples):
        for slot_name, instr in (("fma", fma), ("add", add)):
            transfer_slot(state, clause, instr, ctx, accesses,
                          (clause_index, tuple_index, slot_name))
    return state


def run(program, cfg, ctx):
    """Fixpoint over the clause CFG; returns an :class:`AbsintResult`."""
    result = AbsintResult()
    if not cfg.reachable:
        return result
    in_states = {0: entry_state()}
    visits = {i: 0 for i in cfg.reachable}
    worklist = [0]
    while worklist:
        index = worklist.pop(0)
        state = dict(in_states[index])
        clause = program.clauses[index]
        transfer_clause(clause, index, state, ctx)
        visits[index] += 1
        widen = visits[index] > _WIDEN_VISITS
        for succ in cfg.successors[index]:
            if succ not in cfg.reachable:
                continue
            if succ not in in_states:
                in_states[succ] = dict(state)
                worklist.append(succ)
                continue
            merged = {}
            changed = False
            target = in_states[succ]
            for reg in target:
                new = join(target[reg], state.get(reg, TOP_VARYING),
                           widen=widen and target[reg] != state.get(reg))
                merged[reg] = new
                if new != target[reg]:
                    changed = True
            if changed:
                in_states[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    # Final walk: record memory accesses and branch-condition uniformity
    # from each clause's stabilized entry state.
    for index in cfg.topo_order():
        if index not in in_states:
            continue
        result.entry_states[index] = in_states[index]
        state = dict(in_states[index])
        clause = program.clauses[index]
        transfer_clause(clause, index, state, ctx, result.accesses)
        if clause.tail in (Tail.BRANCH, Tail.BRANCH_Z):
            if is_grf(clause.cond_reg):
                result.cond_uniform[index] = \
                    state.get(clause.cond_reg, TOP_VARYING).uniform
            else:
                result.cond_uniform[index] = False
    return result


# -- buffer provenance ------------------------------------------------------------

#: ops whose result may still point into the buffer an operand points
#: into: ``base + offset`` whatever the offset, a pointer moved, selected,
#: masked or clamped. Any other result (a product, a shift, a comparison,
#: a float, a converted or loaded word) names no slot.
_POINTER_OPS = frozenset({Op.MOV, Op.IADD, Op.ISUB, Op.SELECT, Op.IAND,
                          Op.IOR, Op.IXOR, Op.IMIN, Op.IMAX, Op.UMIN,
                          Op.UMAX})
_NO_SLOT = frozenset()


def _provenance_clause(clause, state, stores=None):
    """Run *clause* over *state* (register -> slots it may point into;
    a missing register points into none), appending to *stores* the
    slots of each global ``ST`` / ``ATOM`` address."""
    for fma, add in clause.tuples:
        for instr in (fma, add):
            op = instr.op
            if op is Op.NOP:
                continue
            if op in (Op.ST, Op.ATOM) and not instr.mem_is_local \
                    and stores is not None:
                stores.append(state.get(instr.srca, _NO_SLOT))
            if op is Op.LDU:
                slots = frozenset((instr.imm,))
            elif op in _POINTER_OPS:
                slots = _NO_SLOT.union(*(
                    state.get(operand, _NO_SLOT)
                    for _field, operand in model.required_sources(instr)))
            else:  # a loaded word carries no slot, nor does a product
                slots = _NO_SLOT
            for target in model.written_registers(instr):
                if is_grf(target) or is_temp(target):
                    state[target] = slots


def stored_slots(program):
    """The uniform slots (kernel arguments) the global ``ST`` / ``ATOM``
    addresses of *program* may derive from, as a frozenset; None when
    one derives from no slot (a pointer loaded from memory, a constant
    address), so any buffer may be stored to.

    Flow-sensitive over the clause CFG: a register holds the slots of
    the values that reach it along some path, so a register reused for
    another buffer names that buffer from its reuse on. The fact is what
    a buffer's loads may skip, not a proof: a store index past the
    buffer's end reaches another one, and the batch port catches it.
    """
    cfg = ClauseCFG(program)
    if not cfg.reachable:
        return _NO_SLOT
    in_states = {0: {}}
    worklist = [0]
    while worklist:  # a finite lattice under union: no widening
        index = worklist.pop()
        state = dict(in_states[index])
        _provenance_clause(program.clauses[index], state)
        for succ in cfg.successors[index]:
            before = in_states.get(succ)
            merged = state if before is None else {
                reg: before.get(reg, _NO_SLOT) | state.get(reg, _NO_SLOT)
                for reg in before.keys() | state.keys()}
            if merged != before:
                in_states[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    stores = []
    for index in sorted(in_states):
        _provenance_clause(program.clauses[index], dict(in_states[index]),
                           stores)
    if not all(stores):
        return None
    return _NO_SLOT.union(*stores)
