"""Guest CPU cores: interpretive and DBT execution engines.

Both engines run identical binaries against the system bus. The
:class:`Interpreter` re-fetches and re-decodes every instruction — the
execution model of interpretive CPU simulators (the paper's Multi2Sim
comparison point). The :class:`DBTCore` is a dynamic binary translator:
guest code is translated a region at a time into host (Python) source,
compiled once into one function per region, cached by entry address, and
run without fetch, decode or per-instruction dispatch — the mechanism behind
the paper's ">15x faster CPU-side software stack" result (Fig. 9). Beyond
the paper's DBT, it runs the trips of a counted copy or fill loop (guest
``memcpy`` / ``memset``) as block transfers; both engines still retire the
same instructions and leave the same state.
"""

import struct

from repro.errors import GuestError
from repro.hostcode import BoundedTable, compile_source
from repro.cpu.isa import (
    BLOCK_TERMINATORS,
    BRANCH_OPS,
    MASK64,
    NUM_REGS,
    REG_ZERO,
    CpuOp,
    TWO_WORD_OPS,
    decode,
    sign64,
)
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.state import Stateful


class CPU(Stateful):
    """Architectural state shared by both execution engines."""

    # registers/pc are dead between checkpoints: guest routines run to
    # completion inside one runtime call and every call resets them
    STATE_FIELDS = ("instructions_executed",)

    def __init__(self, bus):
        self.bus = bus
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        self.ecall_pending = False

    def reset(self, pc=0):
        # mutate in place: translated DBT regions hold on to this list
        self.regs[:] = [0] * NUM_REGS
        self.pc = pc
        self.halted = False
        self.ecall_pending = False

    # -- single-instruction semantics (shared by both engines) ----------------

    def execute_decoded(self, op, rd, rs1, rs2, imm, extra=0):
        """Execute one pre-decoded instruction; returns new PC."""
        regs = self.regs
        pc = self.pc
        next_pc = pc + (8 if op in TWO_WORD_OPS else 4)
        a = regs[rs1]
        b = regs[rs2]

        if op is CpuOp.ADD:
            value = (a + b) & MASK64
        elif op is CpuOp.SUB:
            value = (a - b) & MASK64
        elif op is CpuOp.AND:
            value = a & b
        elif op is CpuOp.OR:
            value = a | b
        elif op is CpuOp.XOR:
            value = a ^ b
        elif op is CpuOp.SLL:
            value = (a << (b & 63)) & MASK64
        elif op is CpuOp.SRL:
            value = a >> (b & 63)
        elif op is CpuOp.SRA:
            value = (sign64(a) >> (b & 63)) & MASK64
        elif op is CpuOp.MUL:
            value = (a * b) & MASK64
        elif op is CpuOp.DIVU:
            value = a // b if b else MASK64
        elif op is CpuOp.SLT:
            value = 1 if sign64(a) < sign64(b) else 0
        elif op is CpuOp.SLTU:
            value = 1 if a < b else 0
        elif op is CpuOp.ADDI:
            value = (a + imm) & MASK64
        elif op is CpuOp.ANDI:
            value = a & (imm & MASK64)
        elif op is CpuOp.ORI:
            value = a | (imm & 0xFFF)
        elif op is CpuOp.XORI:
            value = a ^ (imm & 0xFFF)
        elif op is CpuOp.SLLI:
            value = (a << (imm & 63)) & MASK64
        elif op is CpuOp.SRLI:
            value = a >> (imm & 63)
        elif op is CpuOp.SRAI:
            value = (sign64(a) >> (imm & 63)) & MASK64
        elif op is CpuOp.LDI:
            value = extra
        elif op is CpuOp.LDIH:
            value = regs[rd] | (extra << 32)
        elif op is CpuOp.LBU:
            value = self.bus.read_u8((a + imm) & MASK64)
        elif op is CpuOp.LW:
            value = self.bus.read_u32((a + imm) & MASK64)
        elif op is CpuOp.LD:
            value = self.bus.read_u64((a + imm) & MASK64)
        elif op is CpuOp.SB:
            self.bus.write_u8((a + imm) & MASK64, regs[rd] & 0xFF)
            self.pc = next_pc
            return next_pc
        elif op is CpuOp.SW:
            self.bus.write_u32((a + imm) & MASK64, regs[rd] & 0xFFFFFFFF)
            self.pc = next_pc
            return next_pc
        elif op is CpuOp.SD:
            self.bus.write_u64((a + imm) & MASK64, regs[rd])
            self.pc = next_pc
            return next_pc
        elif op is CpuOp.BEQ:
            self.pc = pc + imm * 4 if a == b else next_pc
            return self.pc
        elif op is CpuOp.BNE:
            self.pc = pc + imm * 4 if a != b else next_pc
            return self.pc
        elif op is CpuOp.BLT:
            self.pc = pc + imm * 4 if sign64(a) < sign64(b) else next_pc
            return self.pc
        elif op is CpuOp.BGE:
            self.pc = pc + imm * 4 if sign64(a) >= sign64(b) else next_pc
            return self.pc
        elif op is CpuOp.BLTU:
            self.pc = pc + imm * 4 if a < b else next_pc
            return self.pc
        elif op is CpuOp.BGEU:
            self.pc = pc + imm * 4 if a >= b else next_pc
            return self.pc
        elif op is CpuOp.JAL:
            if rd != REG_ZERO:
                regs[rd] = next_pc
            self.pc = pc + imm * 4
            return self.pc
        elif op is CpuOp.JALR:
            if rd != REG_ZERO:
                regs[rd] = next_pc
            self.pc = (a + imm) & MASK64 & ~3
            return self.pc
        elif op is CpuOp.HALT:
            self.halted = True
            self.pc = next_pc
            return next_pc
        elif op is CpuOp.ECALL:
            self.ecall_pending = True
            self.pc = next_pc
            return next_pc
        elif op is CpuOp.NOP:
            self.pc = next_pc
            return next_pc
        else:  # pragma: no cover - decode() already rejects unknown opcodes
            raise GuestError(f"unimplemented opcode {op!r}")

        if rd != REG_ZERO:
            regs[rd] = value
        self.pc = next_pc
        return next_pc


class Interpreter:
    """Fetch-decode-execute loop; decodes every instruction every time."""

    name = "interpretive"

    def __init__(self, cpu):
        self.cpu = cpu

    def run(self, max_instructions=100_000_000):
        cpu = self.cpu
        bus = cpu.bus
        executed = 0
        while not cpu.halted and not cpu.ecall_pending:
            word = bus.read_u32(cpu.pc)
            op, rd, rs1, rs2, imm = decode(word)
            extra = bus.read_u32(cpu.pc + 4) if op in TWO_WORD_OPS else 0
            cpu.execute_decoded(op, rd, rs1, rs2, imm, extra)
            executed += 1
            if executed > max_instructions:
                raise GuestError("instruction budget exceeded (guest stuck?)")
        cpu.instructions_executed += executed
        return executed


# -- DBT code generation ------------------------------------------------------

#: blocks one region may hold; targets past the cap are left to run()
MAX_REGION_BLOCKS = 32

_SIGN_BIT = 1 << 63
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# rd-writing opcodes whose value is a plain expression of the operands
_ALU_EXPR = {
    CpuOp.ADD: "({a} + {b}) & M",
    CpuOp.SUB: "({a} - {b}) & M",
    CpuOp.AND: "{a} & {b}",
    CpuOp.ADDI: "({a} + {imm}) & M",
    CpuOp.LDI: "{extra}",
}

# XOR-ing the sign bit into both sides turns signed order into unsigned
_BRANCH_COND = {
    CpuOp.BEQ: "{a} == {b}",
    CpuOp.BNE: "{a} != {b}",
    CpuOp.BLTU: "{a} < {b}",
    CpuOp.BGEU: "{a} >= {b}",
    CpuOp.BLT: f"{{a}} ^ {_SIGN_BIT} < {{b}} ^ {_SIGN_BIT}",
    CpuOp.BGE: f"{{a}} ^ {_SIGN_BIT} >= {{b}} ^ {_SIGN_BIT}",
}

# op -> (bus accessor suffix, width, fast-path expression on page p, offset o)
_LOADS = {
    CpuOp.LBU: ("u8", 1, "p[o]"),
    CpuOp.LW: ("u32", 4, "u32(p, o)[0]"),
    CpuOp.LD: ("u64", 8, "u64(p, o)[0]"),
}
# op -> (suffix, width, stored-value expression, fast-path statement)
_STORES = {
    CpuOp.SB: ("u8", 1, "{v} & 255", "p[o] = v"),
    CpuOp.SW: ("u32", 4, "{v} & 4294967295", "p32(p, o, v)"),
    CpuOp.SD: ("u64", 8, "{v}", "p64(p, o, v)"),
}


def _reg(index):
    return f"regs[{index}]" if index else "0"


def _emit_instruction(instr, out):
    """Append the host statements of one non-terminator guest instruction."""
    pc, op, rd, rs1, rs2, imm, extra, _next_pc = instr
    if op in _ALU_EXPR:
        if rd:
            value = _ALU_EXPR[op].format(a=_reg(rs1), b=_reg(rs2), imm=imm,
                                         extra=extra)
            out.append(f"regs[{rd}] = {value}")
    elif op in _LOADS or op in _STORES:
        # `a` is left unmasked: a wrapped or negative sum has no backed
        # page, so only the bus call below needs the architectural value
        out.append(f"a = {_reg(rs1)} + {imm}" if imm else f"a = {_reg(rs1)}")
        if op in _LOADS:
            suffix, width, fast = _LOADS[op]
            slow = f"bus.read_{suffix}(a & M)"
            if not rd:  # the access still happens; nothing to inline
                out += [f"cpu.pc = {pc}", slow]
                return
            fast, slow = f"regs[{rd}] = {fast}", f"regs[{rd}] = {slow}"
        else:
            suffix, width, value, fast = _STORES[op]
            out.append(f"v = {value.format(v=_reg(rd))}")
            slow = f"bus.write_{suffix}(a & M, v)"
        # inline RAM path: a backed page, outside the MMIO envelope, the
        # access inside the page; the bus does everything else (first
        # touch, devices, straddles, range errors), after `cpu.pc` is set
        # so that a fault leaves it at this access
        straddle = f" and o <= {PAGE_SIZE - width}" if width > 1 else ""
        out += [f"p = backed(a >> {PAGE_SHIFT})",
                f"o = a & {PAGE_SIZE - 1}",
                f"if p is not None{straddle} and (a < lo or a >= hi):",
                f"    {fast}",
                "else:",
                f"    cpu.pc = {pc}",
                f"    {slow}"]
    elif op is not CpuOp.NOP:
        # the long tail of rare opcodes keeps the interpreter's semantics
        out += [f"cpu.pc = {pc}",
                f"cpu.execute_decoded(CpuOp.{op.name}, {rd}, {rs1}, {rs2}, "
                f"{imm}, {extra})"]


#: fewest trips a loop summary transfers: below this it costs more than
#: the trips it saves
MIN_SUMMARY_TRIPS = 16

# the complement of each branch condition a loop summary can count
_NEGATED = {CpuOp.BEQ: CpuOp.BNE, CpuOp.BNE: CpuOp.BEQ,
            CpuOp.BLTU: CpuOp.BGEU, CpuOp.BGEU: CpuOp.BLTU}


def _trips(value, step, op, bound, cap):
    """How many trips ``t = 0, 1, ...`` in a row, at most *cap*, find the
    branch condition *op* true of ``value + t * step`` against *bound*
    (exact integers: the caller has ruled out wrap)."""
    x = value - bound
    if op is CpuOp.BEQ:  # true while x stays 0
        return 0 if x else cap if not step else min(cap, 1)
    if op is CpuOp.BNE:  # true until x reaches 0, if it ever does
        if x and step and not x % step and -x // step > 0:
            return min(cap, -x // step)
        return cap if x else 0
    if op is CpuOp.BGEU:  # x >= 0 is -x - 1 < 0
        x, step = -x - 1, -step
    if x >= 0:
        return 0
    return cap if step <= 0 else min(cap, -(x // step))


def _loop_summary(head, blocks, heads, cpu):
    """The prologue of the counted copy or fill loop at *head*, as
    ``(guard, summary)``: a source expression the dispatch arm tests
    inline and the ``summary(n, limit) -> n`` it calls when that holds;
    None when the cycle through *head* is not such a loop.

    The cycle comes back to *head* by ``jal x0`` or a taken branch and
    leaves by exactly one branch; besides those it holds only ``addi r,
    r, k`` (induction registers), loads whose destination a later store
    of the same width writes out, stores of a register the loop never
    writes, and ``nop``. Every access's base is an induction register
    stepping by the access width; the exit test compares an induction
    register with a register the loop never writes (or ``x0``), unsigned
    or for (in)equality. The prologue runs the leading trips whose exit
    test is certain to continue as page-wise block transfers and leaves
    the registers, memory and *n* those trips would have left. It does
    nothing unless the trips fit the budget, no register wraps, every
    byte is RAM below the memory end and outside the MMIO envelope, no
    store overlaps another access, and there are at least
    :data:`MIN_SUMMARY_TRIPS` of them."""
    trip, test = [], None
    position = head
    while True:
        instrs = blocks.get(position)
        if instrs is None or position in heads and trip:
            return None
        trip += instrs
        pc, op, rd, rs1, rs2, imm, _extra, position = instrs[-1]
        back = pc + imm * 4 == head
        if op in _NEGATED and test is None:
            # the condition under which the trip goes round again
            test = op if back else _NEGATED[op]
            if back:
                break
        elif op is CpuOp.JAL and not rd and back and test is not None:
            break
        elif op in BLOCK_TERMINATORS:
            return None
    steps, low, high = {}, {}, {}  # induction register -> offset so far
    loads, accesses, invariant = {}, [], set()
    for _pc, op, rd, rs1, rs2, imm, _extra, _next in trip:
        if op is CpuOp.ADDI and rd == rs1 and rd and rd not in loads:
            at = steps[rd] = steps.get(rd, 0) + imm
            low[rd] = min(low.get(rd, 0), at)
            high[rd] = max(high.get(rd, 0), at)
        elif op in _LOADS and rd and rd not in loads and rd not in steps:
            loads[rd] = [_LOADS[op][1], False]
            accesses.append((rs1, steps.get(rs1, 0) + imm, _LOADS[op][1], rd,
                             False))
        elif op in _STORES:
            width = _STORES[op][1]
            if rd in loads:
                if loads[rd][0] != width:
                    return None
                loads[rd][1] = True
            else:
                invariant.add(rd)
            accesses.append((rs1, steps.get(rs1, 0) + imm, width, rd, True))
        elif op in _NEGATED:
            tested = [(rs1, steps.get(rs1, 0), rs2, 1),
                      (rs2, steps.get(rs2, 0), rs1, -1)]
        elif op is not CpuOp.NOP and op is not CpuOp.JAL:
            return None
    written = steps.keys() | loads.keys()
    # the induction side of the test; a value on the right is mirrored:
    # c < v is -v < -c
    tested = [t for t in tested if t[0] in steps and t[2] not in written]
    if (len(tested) != 1 or invariant & written
            or not all(stored for _width, stored in loads.values())
            or any(steps.get(base) != width
                   for base, _at, width, _reg, _store in accesses)):
        return None
    (reg, at, other, sign), = tested
    step = steps[reg]
    per_trip = len(trip)
    regs, bus, memory = cpu.regs, cpu.bus, cpu.bus.memory
    wraps = [(r, k, low[r], high[r]) for r, k in steps.items()]
    # a store must not overlap any other access
    pairs = [(i, j) for i, access in enumerate(accesses) if access[4]
             for j in range(len(accesses)) if j != i]

    def summary(n, limit):
        trips = _trips(sign * (regs[reg] + at), sign * step, test,
                       sign * regs[other], (limit - n) // per_trip)
        for r, k, lo, hi in wraps:  # stop before a register wraps
            v, last = regs[r], max(trips - 1, 0) * k
            if v + lo + min(last, 0) < 0 or v + hi + max(last, 0) > MASK64:
                trips = _trips(v + lo, k, CpuOp.BGEU, 0,
                               _trips(v + hi, k, CpuOp.BLTU, 1 << 64, trips))
        if trips < MIN_SUMMARY_TRIPS:
            return n
        spans = []
        for base, offset, width, _reg, _store in accesses:
            start = regs[base] + offset
            end = start + trips * width
            if (start < 0 or end > memory.size
                    or start < bus.mmio_hi and end > bus.mmio_lo):
                return n
            spans.append((start, end))
        for i, j in pairs:
            if spans[i][0] < spans[j][1] and spans[j][0] < spans[i][1]:
                return n
        source = {}
        for (start, end), (_base, _at, width, r, store) in zip(spans,
                                                               accesses):
            if not store:
                source[r] = start
            elif r in source:
                memory.copy(start, source[r], end - start)
            else:
                memory.fill(start, end - start, regs[r], width)
        for r, start in source.items():
            width = loads[r][0]
            regs[r] = int.from_bytes(memory.read_block(
                start + (trips - 1) * width, width), "little")
        for r, k, _lo, _hi in wraps:
            regs[r] += trips * k
        return n + trips * per_trip

    # inline, so a short loop pays one comparison: the bound must lie
    # MIN_SUMMARY_TRIPS strides ahead of the tested register, in the
    # direction it moves (a test it moves away from runs trip by trip)
    toward = -1 if step < 0 else 1
    ahead, behind = (_reg(other), _reg(reg))[::toward]
    return (f"{ahead} - {behind} >= "
            f"{MIN_SUMMARY_TRIPS * abs(step) + toward * at}", summary)


def _emit_trace(head, blocks, heads):
    """The body of the dispatch arm of *head*, as unindented lines: its
    block, then every fall-through successor that is not itself a head,
    each followed by its own instruction accounting and budget check.
    The body runs inside a ``while True:`` of its own, so ``continue``
    re-enters *head* and ``break`` returns to the ``pc`` dispatch."""
    def goto(target):
        if target == head:
            code = ["if n <= limit:", "    continue"]
        elif target in heads:
            code = ["if n <= limit:", f"    pc = {target}", "    break"]
        else:
            code = []
        return code + [f"cpu.pc = {target}", "return n"]

    out = []
    position = head
    while True:
        instrs = blocks[position]
        pc, op, rd, rs1, rs2, imm, _extra, next_pc = instrs[-1]
        terminated = op in BLOCK_TERMINATORS
        for instr in instrs[:-1] if terminated else instrs:
            _emit_instruction(instr, out)
        out.append(f"n += {len(instrs)}")
        if op in BRANCH_OPS:
            cond = _BRANCH_COND[op].format(a=_reg(rs1), b=_reg(rs2))
            out.append(f"if {cond}:")
            out += ["    " + line for line in goto(pc + imm * 4)]
        elif op is CpuOp.JAL:
            if rd:
                out.append(f"regs[{rd}] = {next_pc}")
            return out + goto(pc + imm * 4)
        elif op is CpuOp.JALR:
            # base before link: rd may be rs1
            out.append(f"cpu.pc = ({_reg(rs1)} + {imm}) & {MASK64 & ~3}")
            if rd:
                out.append(f"regs[{rd}] = {next_pc}")
            return out + ["return n"]
        elif terminated:  # halt / ecall
            flag = "halted" if op is CpuOp.HALT else "ecall_pending"
            return out + [f"cpu.{flag} = True", f"cpu.pc = {next_pc}",
                          "return n"]
        if next_pc in heads or next_pc not in blocks:
            return out + goto(next_pc)
        out += ["if n > limit:", f"    cpu.pc = {next_pc}", "    return n"]
        position = next_pc


#: Most region code objects one process keeps (oldest out).
REGION_CACHE_SIZE = 256

#: Region source text -> its compiled code, shared by every core of the
#: process: the text determines the code, so a fresh platform running
#: the same guest routine ``exec``'s the code into its own namespace
#: instead of compiling it again.
_region_codes = BoundedTable(REGION_CACHE_SIZE)


class DBTCore:
    """Dynamic-binary-translation engine.

    On a miss the translator follows direct branches and ``jal`` from the
    entry PC, generates Python source for the whole **region** — every
    basic block reachable by static targets, up to
    :data:`MAX_REGION_BLOCKS` — into a single host function, cached on
    the core by entry PC. The source is compiled once per process
    (:data:`_region_codes`) and its code ``exec``'d into each core's own
    namespace, so the function binds that core's CPU, registers and bus.
    Operand indices, immediates and PCs are baked into the source (the
    "early partial evaluation" of the paper's retargetable-simulator
    lineage); blocks chain to each other inside the function, so a hot
    loop never returns to :meth:`run`; and loads and stores index the
    backing page directly when the address is plain backed RAM, leaving
    ``cpu.pc`` at the access when the bus faults.

    A dispatch arm whose head starts a counted copy or fill loop (see
    :func:`_loop_summary`) first runs the trips its exit test is certain
    to take, within the budget, as page-wise block transfers, and adds
    their instructions to the count; the trip-by-trip code then runs
    the rest and the exit.

    A basic block runs from its entry PC to the first terminator or
    ``max_block`` instructions (blocks entered mid-way overlap); executed
    instructions are accounted, and the budget checked, once per block.
    """

    name = "dbt"

    def __init__(self, cpu, max_block=64):
        self.cpu = cpu
        self.max_block = max_block
        self._regions = {}
        self.translations = 0

    def invalidate(self):
        """Drop all translated regions (e.g. after loading new guest code)."""
        self._regions.clear()

    def _decode_block(self, entry_pc, fetch):
        """Decode the basic block at *entry_pc* into instruction tuples
        ``(pc, op, rd, rs1, rs2, imm, extra, next_pc)``."""
        instrs = []
        position = entry_pc
        for _ in range(self.max_block):
            op, rd, rs1, rs2, imm = decode(fetch(position))
            size = 4
            extra = 0
            if op in TWO_WORD_OPS:
                extra = fetch(position + 4)
                size = 8
            instrs.append((position, op, rd, rs1, rs2, imm, extra,
                           position + size))
            position += size
            if op in BLOCK_TERMINATORS:
                break
        return instrs

    def _peek_code(self, addr):
        """The code word at *addr*, for a block the guest may never
        reach: fetching it must not allocate a page or poke a device."""
        bus = self.cpu.bus
        if (addr & 3 or bus.mmio_lo <= addr < bus.mmio_hi
                or bus.memory.backed_page(addr >> PAGE_SHIFT) is None):
            raise ValueError(f"no side-effect-free fetch at 0x{addr:x}")
        return bus.read_u32(addr)

    def _discover(self, entry_pc):
        """Blocks of the region entered at *entry_pc*, by block entry PC,
        and the subset that must be dispatch targets (*heads*): the entry
        and every branch/``jal`` target. Fall-through successors that are
        not heads are emitted inline after their predecessor."""
        blocks = {entry_pc: self._decode_block(entry_pc,
                                               self.cpu.bus.read_u32)}
        heads = {entry_pc}
        pending = [entry_pc]
        while pending:
            pc, op, _rd, _rs1, _rs2, imm, _extra, next_pc = \
                blocks[pending.pop(0)][-1]
            if op in BRANCH_OPS:
                successors = ((pc + imm * 4, True), (next_pc, False))
            elif op is CpuOp.JAL:
                successors = ((pc + imm * 4, True),)
            elif op in BLOCK_TERMINATORS:  # jalr/halt/ecall leave the region
                successors = ()
            else:  # size cap: continue at the fall-through address
                successors = ((next_pc, False),)
            for target, is_head in successors:
                if target not in blocks:
                    if len(blocks) == MAX_REGION_BLOCKS:
                        continue
                    try:
                        blocks[target] = self._decode_block(
                            target, self._peek_code)
                    except ValueError:
                        # unreadable or undecodable for now: if the guest
                        # does get there, run() translates it as an entry
                        continue
                    pending.append(target)
                if is_head:
                    heads.add(target)
        return blocks, heads

    def _translate(self, entry_pc):
        """Translate the region entered at *entry_pc* into one host
        function ``region(n, limit) -> n``: it runs guest blocks, adding
        each block's instruction count to *n*, until the guest leaves the
        region, halts, traps or *n* exceeds *limit*, and returns with
        ``cpu.pc`` set."""
        cpu = self.cpu
        blocks, heads = self._discover(entry_pc)
        namespace = {
            "regs": cpu.regs, "cpu": cpu, "bus": cpu.bus, "M": MASK64,
            "backed": cpu.bus.memory.backed_page, "CpuOp": CpuOp,
            "u32": _U32.unpack_from, "u64": _U64.unpack_from,
            "p32": _U32.pack_into, "p64": _U64.pack_into,
        }
        # the defaults turn the names the hot path uses into fast locals
        out = ["def region(n, limit, regs=regs, cpu=cpu, bus=bus, M=M, "
               "backed=backed, u32=u32, u64=u64, p32=p32, p64=p64):",
               "    lo = bus.mmio_lo",
               "    hi = bus.mmio_hi",
               f"    pc = {entry_pc}",
               "    while True:"]
        for head in sorted(heads):
            out.append(f"        if pc == {head}:")
            prologue = _loop_summary(head, blocks, heads, cpu)
            if prologue is not None:  # the certain trips, as block transfers
                guard, namespace[f"summary_{head}"] = prologue
                out += [f"            if {guard}:",
                        f"                n = summary_{head}(n, limit)"]
            out.append("            while True:")
            out += [" " * 16 + line
                    for line in _emit_trace(head, blocks, heads)]
        compile_source("\n".join(out) + "\n", f"<dbt region 0x{entry_pc:x}>",
                       namespace, _region_codes)
        self.translations += 1
        return namespace["region"]

    def run(self, max_instructions=100_000_000):
        cpu = self.cpu
        regions = self._regions
        executed = 0
        while not cpu.halted and not cpu.ecall_pending:
            region = regions.get(cpu.pc)
            if region is None:
                region = regions[cpu.pc] = self._translate(cpu.pc)
            executed = region(executed, max_instructions)
            if executed > max_instructions:
                raise GuestError("instruction budget exceeded (guest stuck?)")
        cpu.instructions_executed += executed
        return executed
