"""The Bifrost-like GPU instruction set.

The execution model follows Arm's Bifrost architecture (Section II of the
paper):

- Instructions are bundled into **clauses** of up to 8 *tuples*; each tuple
  has an **FMA slot** and an **ADD slot**, so a clause holds at most 16
  instruction slots. Unused slots are NOPs ("empty slots" in Fig. 11).
- Clauses execute unconditionally; control flow is a property of the clause
  **tail** and is resolved only at clause boundaries.
- Two **temporary registers** (``t0``, ``t1``) are live only within a clause
  and let the compiler forward values without touching the global register
  file (Fig. 4b).
- Constants are embedded in the clause's constant pool and read through the
  "ROM" port.
- Threads execute in quads of four (the 128-bit datapath vectorization).

This module defines opcodes, operand encodings and the decoded in-memory
representation; :mod:`repro.gpu.encoding` provides the binary format.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

# Threads per quad (the 128-bit datapath width / 4-byte lanes). The warp
# executor re-exports this as WARP_WIDTH; it lives here so decode-time
# clause specialization can pre-broadcast constant vectors.
QUAD_WIDTH = 4


class Op(enum.IntEnum):
    """GPU opcodes. The numeric values are the binary encoding."""

    NOP = 0
    MOV = 1

    # float arithmetic
    FADD = 2
    FSUB = 3
    FMUL = 4
    FMA = 5
    FMIN = 6
    FMAX = 7
    FABS = 8
    FNEG = 9
    FFLOOR = 10
    FRCP = 11
    FSQRT = 12
    FRSQ = 13
    FEXP = 14
    FLOG = 15
    FSIN = 16
    FCOS = 17

    # conversions
    F2I = 18
    F2U = 19
    I2F = 20
    U2F = 21

    # integer arithmetic
    IADD = 22
    ISUB = 23
    IMUL = 24
    IAND = 25
    IOR = 26
    IXOR = 27
    ISHL = 28
    ISHR = 29  # logical
    IASHR = 30  # arithmetic
    IMIN = 31
    IMAX = 32
    UMIN = 33
    UMAX = 34
    IDIV = 35
    IREM = 36
    UDIV = 37
    UREM = 38
    IABS = 39

    # comparison / selection
    CMP = 40  # mode in flags; writes 0/1
    SELECT = 41  # dst = srcC != 0 ? srcA : srcB

    # memory
    LD = 48  # load (flags: width, address space)
    ST = 49  # store
    LDU = 50  # uniform ("Constant Read") load, imm = uniform index
    ATOM = 51  # atomic read-modify-write; mode in flags bits 4-6


class CmpMode(enum.IntEnum):
    """Comparison modes for :attr:`Op.CMP`, stored in the flags field."""

    FEQ = 0
    FNE = 1
    FLT = 2
    FLE = 3
    FGT = 4
    FGE = 5
    IEQ = 6
    INE = 7
    ILT = 8
    ILE = 9
    IGT = 10
    IGE = 11
    ULT = 12
    ULE = 13
    UGT = 14
    UGE = 15


class Tail(enum.IntEnum):
    """Clause tail kinds (control flow at clause boundaries)."""

    FALLTHROUGH = 0
    JUMP = 1  # unconditional, target = clause index
    BRANCH = 2  # taken if cond_reg != 0
    BRANCH_Z = 3  # taken if cond_reg == 0
    BARRIER = 4  # workgroup barrier, then fallthrough
    END = 5  # thread terminates


# -- operand encoding ---------------------------------------------------------
#
# Source/destination fields are 8 bits:
#   0 .. 63    GRF registers r0..r63
#   64 .. 65   clause temporaries t0, t1
#   128 .. 159 clause constant-pool slots c0..c31 (sources only; "ROM" reads)
#   255        unused operand

NUM_GRF = 64
TEMP_BASE = 64
NUM_TEMPS = 2
CONST_BASE = 128
MAX_CONSTS = 32
OPERAND_NONE = 255

# GRF registers preloaded by the dispatcher before a thread starts
# (the paper's thread-state setup performed by the shader core frontend).
REG_GROUP_ID = 53  # r53..r55 = group id x, y, z
REG_GLOBAL_ID = 56  # r56..r58 = global id x, y, z
REG_LOCAL_ID = 59  # r59..r61 = local id x, y, z
REG_GROUP_FLAT = 62  # r62 = flattened group id (x + y*nx + z*nx*ny)
REG_LANE = 63  # r63 = lane index within the quad

# Registers the compiler may allocate freely.
ALLOCATABLE_REGS = REG_GROUP_ID  # r0..r52

# memory-op flags
MEM_WIDTH_MASK = 0x3  # log2 of element count: 0 -> 1, 1 -> 2, 2 -> 4
MEM_SPACE_LOCAL = 0x4  # set for local (workgroup) memory

# atomic modes (ATOM flags bits 4-6); dst receives the old value
ATOM_MODE_SHIFT = 4
ATOM_ADD = 0
ATOM_SUB = 1
ATOM_MIN = 2  # signed
ATOM_MAX = 3  # signed
ATOM_AND = 4
ATOM_OR = 5
ATOM_XOR = 6
ATOM_XCHG = 7


def is_grf(operand):
    return 0 <= operand < NUM_GRF


def is_temp(operand):
    return TEMP_BASE <= operand < TEMP_BASE + NUM_TEMPS


def is_const(operand):
    return CONST_BASE <= operand < CONST_BASE + MAX_CONSTS


# Opcode classes drive the clause scheduler's slot constraints: the FMA pipe
# executes anything; the ADD pipe only executes ADD-class ops. Memory and
# special-function ops must use the FMA slot (they go out through the
# message fabric on real hardware).
_ADD_CLASS = {
    Op.NOP, Op.MOV, Op.FADD, Op.FSUB, Op.FMIN, Op.FMAX, Op.FABS, Op.FNEG,
    Op.FFLOOR, Op.F2I, Op.F2U, Op.I2F, Op.U2F, Op.IADD, Op.ISUB, Op.IAND,
    Op.IOR, Op.IXOR, Op.ISHL, Op.ISHR, Op.IASHR, Op.IMIN, Op.IMAX, Op.UMIN,
    Op.UMAX, Op.IABS, Op.CMP, Op.SELECT,
}

_LS_CLASS = {Op.LD, Op.ST, Op.LDU, Op.ATOM}


def can_use_add_slot(op):
    """True if *op* may be scheduled in a tuple's ADD slot."""
    return op in _ADD_CLASS


def is_memory_op(op):
    return op in _LS_CLASS


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction slot.

    Attributes:
        op: the opcode.
        dst: destination operand (GRF or temp), or OPERAND_NONE.
        srca/srcb/srcc: source operands, or OPERAND_NONE.
        flags: op-specific flags (compare mode, memory width/space).
        imm: 16-bit immediate (uniform index for LDU).
    """

    op: Op
    dst: int = OPERAND_NONE
    srca: int = OPERAND_NONE
    srcb: int = OPERAND_NONE
    srcc: int = OPERAND_NONE
    flags: int = 0
    imm: int = 0

    def sources(self):
        """The operand fields actually read by this instruction."""
        if self.op is Op.NOP:
            return ()
        srcs = []
        if self.srca != OPERAND_NONE:
            srcs.append(self.srca)
        if self.srcb != OPERAND_NONE:
            srcs.append(self.srcb)
        if self.srcc != OPERAND_NONE:
            srcs.append(self.srcc)
        return tuple(srcs)

    @property
    def mem_width(self):
        """Vector width (1, 2 or 4 32-bit elements) of a memory op."""
        return 1 << (self.flags & MEM_WIDTH_MASK)

    @property
    def mem_is_local(self):
        return bool(self.flags & MEM_SPACE_LOCAL)


NOP_INSTR = Instruction(Op.NOP)


def _count_read(metrics, operand):
    if is_grf(operand):
        metrics.grf_reads += 1
    elif is_temp(operand):
        metrics.temp_reads += 1
    elif is_const(operand):
        metrics.rom_reads += 1


def _count_write(metrics, operand):
    if is_grf(operand):
        metrics.grf_writes += 1
    elif is_temp(operand):
        metrics.temp_writes += 1


def _compute_clause_metrics(clause):
    """Static per-clause instrumentation (mirrors the executor's access
    pattern exactly: one read per consumed operand, one write per produced
    value, per-element counting for wide memory ops)."""
    metrics = ClauseMetrics(cf_instrs=int(
        clause.tail in (Tail.JUMP, Tail.BRANCH, Tail.BRANCH_Z)))
    for slot in clause.slots():
        op = slot.op
        if op is Op.NOP:
            metrics.nop_instrs += 1
            continue
        if op is Op.LDU:
            metrics.const_load_instrs += 1
            metrics.const_reads += 1
            metrics.ls_beats += 1
            _count_write(metrics, slot.dst)
            continue
        if op is Op.LD or op is Op.ST:
            width = slot.mem_width
            if slot.mem_is_local:
                metrics.ls_local_instrs += 1
                metrics.local_mem_accesses += width
            else:
                metrics.ls_global_instrs += 1
                metrics.main_mem_accesses += width
            metrics.ls_beats += max(1, width // 2)
            _count_read(metrics, slot.srca)  # address
            if op is Op.LD:
                metrics.grf_writes += width  # wide dsts are GRF by design
            else:
                for element in range(width):
                    _count_read(metrics, slot.srcb + element)
            continue
        if op is Op.ATOM:
            if slot.mem_is_local:
                metrics.ls_local_instrs += 1
                metrics.local_mem_accesses += 2
            else:
                metrics.ls_global_instrs += 1
                metrics.main_mem_accesses += 2
            metrics.ls_beats += 4  # atomics serialize the whole quad
            _count_read(metrics, slot.srca)
            _count_read(metrics, slot.srcb)
            _count_write(metrics, slot.dst)
            continue
        # arithmetic
        metrics.arith_instrs += 1
        for operand in slot.sources():
            _count_read(metrics, operand)
        if slot.dst != OPERAND_NONE:
            _count_write(metrics, slot.dst)
    return metrics


@dataclass
class ClauseMetrics:
    """Decode-time instrumentation metrics for one clause.

    "Each clause is instrumented with detailed metrics at decode time, and
    during execution, we record clause frequency" (paper Section IV-A) —
    every field here is static per clause, so executing an instrumented
    clause costs a handful of integer additions instead of per-instruction
    bookkeeping. Per-lane fields are multiplied by the active lane count
    at execution; per-warp fields are added once per clause issue.
    """

    # per-lane instruction categories
    arith_instrs: int = 0
    nop_instrs: int = 0
    ls_global_instrs: int = 0
    ls_local_instrs: int = 0
    const_load_instrs: int = 0
    cf_instrs: int = 0  # the JUMP/BRANCH tail; one branch event per issue
    # per-lane operand-port traffic
    temp_reads: int = 0
    temp_writes: int = 0
    grf_reads: int = 0
    grf_writes: int = 0
    const_reads: int = 0
    rom_reads: int = 0
    main_mem_accesses: int = 0
    local_mem_accesses: int = 0
    # per-warp issue costs
    ls_beats: int = 0


@dataclass
class Clause:
    """A decoded clause: up to 8 (FMA, ADD) tuples plus a constant pool.

    Attributes:
        tuples: list of (fma_instruction, add_instruction) pairs.
        constants: the embedded constant pool (raw 32-bit values).
        tail: control flow at the clause boundary.
        cond_reg: GRF register tested by BRANCH/BRANCH_Z tails.
        target: target clause index for JUMP/BRANCH tails.
    """

    tuples: list = field(default_factory=list)
    constants: list = field(default_factory=list)
    tail: Tail = Tail.FALLTHROUGH
    cond_reg: int = 0
    target: int = 0

    @property
    def size(self):
        """Clause size in tuples (the Fig. 13 metric, 1-8)."""
        return len(self.tuples)

    def metrics(self):
        """Decode-time metrics (cached; see :class:`ClauseMetrics`)."""
        cached = getattr(self, "_metrics", None)
        if cached is None:
            cached = _compute_clause_metrics(self)
            object.__setattr__(self, "_metrics", cached)
        return cached

    def active_slots(self):
        """The non-NOP instructions in execution order (cached).

        Decode-time specialization: the executor issues straight down this
        list instead of branching on NOP slots for every tuple on every
        clause execution.
        """
        cached = getattr(self, "_active_slots", None)
        if cached is None:
            cached = tuple(slot for slot in self.slots()
                           if slot.op is not Op.NOP)
            object.__setattr__(self, "_active_slots", cached)
        return cached

    def constant_vectors(self):
        """Quad-broadcast constant-pool vectors (cached, read-only).

        Pre-materializing the ``np.full`` broadcast at decode time removes
        a per-issue allocation from every constant-operand read. The
        arrays are marked non-writable because they are shared across all
        warps executing the clause.
        """
        cached = getattr(self, "_const_vectors", None)
        if cached is None:
            cached = []
            for value in self.constants:
                vector = np.full(QUAD_WIDTH, value, dtype=np.uint32)
                vector.flags.writeable = False
                cached.append(vector)
            cached = tuple(cached)
            object.__setattr__(self, "_const_vectors", cached)
        return cached

    def slots(self):
        """Iterate all instruction slots in execution order."""
        for fma, add in self.tuples:
            yield fma
            yield add

    def validate(self):
        """Check structural invariants; raises ValueError on violation."""
        if not 1 <= len(self.tuples) <= 8:
            raise ValueError(f"clause has {len(self.tuples)} tuples (1-8 allowed)")
        if len(self.constants) > MAX_CONSTS:
            raise ValueError(f"clause has {len(self.constants)} constants (max {MAX_CONSTS})")
        for fma, add in self.tuples:
            if add.op is not Op.NOP and not can_use_add_slot(add.op):
                raise ValueError(f"{add.op.name} cannot occupy an ADD slot")
        if self.tail in (Tail.BRANCH, Tail.BRANCH_Z) and not is_grf(self.cond_reg):
            raise ValueError("branch condition must be a GRF register")


@dataclass
class Program:
    """A decoded GPU shader program: an indexed sequence of clauses.

    Attributes:
        clauses: the clause list; branch targets are indices into it.
        meta: optional compiler metadata (register usage, symbol names).
        image: the binary image it was decoded from, None for a program
            built in memory (a copy or a ``replace`` starts with None).
            A decoded program is shared process-wide: never mutate one.
    """

    clauses: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    image: bytes = field(default=None, init=False, repr=False,
                         compare=False)

    def validate(self):
        for index, clause in enumerate(self.clauses):
            clause.validate()
            if clause.tail in (Tail.JUMP, Tail.BRANCH, Tail.BRANCH_Z):
                if not 0 <= clause.target < len(self.clauses):
                    raise ValueError(
                        f"clause {index} branches to invalid clause {clause.target}"
                    )
            if clause.tail is Tail.FALLTHROUGH and index == len(self.clauses) - 1:
                raise ValueError("final clause cannot fall through")

    @property
    def static_slot_count(self):
        return sum(2 * clause.size for clause in self.clauses)

    @property
    def static_nop_count(self):
        return sum(
            1 for clause in self.clauses for slot in clause.slots() if slot.op is Op.NOP
        )
