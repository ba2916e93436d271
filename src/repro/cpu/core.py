"""Guest CPU cores: interpretive and DBT execution engines.

Both engines run identical binaries against the system bus. The
:class:`Interpreter` re-fetches and re-decodes every instruction — the
execution model of interpretive CPU simulators (the paper's Multi2Sim
comparison point). The :class:`DBTCore` mimics dynamic binary translation:
basic blocks are decoded once into pre-decoded instruction tuples, cached by
entry address, and replayed without fetch/decode work — the mechanism behind
the paper's ">15x faster CPU-side software stack" result (Fig. 9).
"""

from repro.errors import GuestError
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
        # mutate in place: translated DBT blocks close over this list
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


class DBTCore:
    """Dynamic-binary-translation engine.

    Basic blocks are translated once into lists of *specialized closures*:
    operand indices, immediates and even the instruction's own PC are baked
    in at translation time (the "early partial evaluation" of the paper's
    retargetable-simulator lineage), so replaying a hot block does no
    fetch, no decode and no operand dispatch.
    """

    name = "dbt"

    def __init__(self, cpu, max_block=64):
        self.cpu = cpu
        self.max_block = max_block
        self._blocks = {}
        self.translations = 0

    def invalidate(self):
        """Drop all translated blocks (e.g. after loading new guest code)."""
        self._blocks.clear()

    def _translate(self, entry_pc):
        """Translate the basic block at *entry_pc* into closures.

        Returns (closures, instruction_count). Every closure mutates the
        shared register list directly; only the final (terminator) closure
        touches ``cpu.pc``.
        """
        cpu = self.cpu
        bus = cpu.bus
        regs = cpu.regs
        closures = []
        position = entry_pc
        count = 0
        terminated = False
        for _ in range(self.max_block):
            word = bus.read_u32(position)
            op, rd, rs1, rs2, imm = decode(word)
            extra = 0
            pc_here = position
            if op in TWO_WORD_OPS:
                extra = bus.read_u32(position + 4)
                position += 8
            else:
                position += 4
            next_pc = position
            count += 1
            closures.append(
                self._compile(op, rd, rs1, rs2, imm, extra, pc_here, next_pc,
                              regs, bus, cpu)
            )
            if op in BLOCK_TERMINATORS:
                terminated = True
                break
        if not terminated:
            # block hit the size cap: continue at the fall-through address
            def continue_block(cpu=cpu, target=position):
                cpu.pc = target
            closures.append(continue_block)
        self.translations += 1
        return closures, count

    @staticmethod
    def _compile(op, rd, rs1, rs2, imm, extra, pc, next_pc, regs, bus, cpu):
        """Build one specialized closure. Falls back to the generic
        interpreter semantics for the long tail of rare opcodes."""
        if op is CpuOp.ADDI:
            if rd:
                def fn():
                    regs[rd] = (regs[rs1] + imm) & MASK64
            else:
                def fn():
                    pass
            return fn
        if op is CpuOp.ADD and rd:
            def fn():
                regs[rd] = (regs[rs1] + regs[rs2]) & MASK64
            return fn
        if op is CpuOp.SUB and rd:
            def fn():
                regs[rd] = (regs[rs1] - regs[rs2]) & MASK64
            return fn
        if op is CpuOp.AND and rd:
            def fn():
                regs[rd] = regs[rs1] & regs[rs2]
            return fn
        if op is CpuOp.LDI and rd:
            def fn():
                regs[rd] = extra
            return fn
        if op is CpuOp.LBU and rd:
            def fn():
                regs[rd] = bus.read_u8((regs[rs1] + imm) & MASK64)
            return fn
        if op is CpuOp.LW and rd:
            def fn():
                regs[rd] = bus.read_u32((regs[rs1] + imm) & MASK64)
            return fn
        if op is CpuOp.LD and rd:
            def fn():
                regs[rd] = bus.read_u64((regs[rs1] + imm) & MASK64)
            return fn
        if op is CpuOp.SB:
            def fn():
                bus.write_u8((regs[rs1] + imm) & MASK64, regs[rd] & 0xFF)
            return fn
        if op is CpuOp.SW:
            def fn():
                bus.write_u32((regs[rs1] + imm) & MASK64,
                              regs[rd] & 0xFFFFFFFF)
            return fn
        if op is CpuOp.SD:
            def fn():
                bus.write_u64((regs[rs1] + imm) & MASK64, regs[rd])
            return fn
        if op in BRANCH_OPS:
            taken = pc + imm * 4
            if op is CpuOp.BEQ:
                def fn():
                    cpu.pc = taken if regs[rs1] == regs[rs2] else next_pc
            elif op is CpuOp.BNE:
                def fn():
                    cpu.pc = taken if regs[rs1] != regs[rs2] else next_pc
            elif op is CpuOp.BLTU:
                def fn():
                    cpu.pc = taken if regs[rs1] < regs[rs2] else next_pc
            elif op is CpuOp.BGEU:
                def fn():
                    cpu.pc = taken if regs[rs1] >= regs[rs2] else next_pc
            elif op is CpuOp.BLT:
                def fn():
                    cpu.pc = (taken if sign64(regs[rs1]) < sign64(regs[rs2])
                              else next_pc)
            else:  # BGE
                def fn():
                    cpu.pc = (taken if sign64(regs[rs1]) >= sign64(regs[rs2])
                              else next_pc)
            return fn
        if op is CpuOp.JAL:
            target = pc + imm * 4

            def fn():
                if rd:
                    regs[rd] = next_pc
                cpu.pc = target
            return fn
        if op is CpuOp.JALR:
            def fn():
                if rd:
                    regs[rd] = next_pc
                cpu.pc = (regs[rs1] + imm) & MASK64 & ~3
            return fn
        if op is CpuOp.HALT:
            def fn():
                cpu.halted = True
                cpu.pc = next_pc
            return fn
        if op is CpuOp.ECALL:
            def fn():
                cpu.ecall_pending = True
                cpu.pc = next_pc
            return fn

        # generic fallback; pc must be synchronized around the call
        def fn():
            cpu.pc = pc
            cpu.execute_decoded(op, rd, rs1, rs2, imm, extra)
        return fn

    def run(self, max_instructions=100_000_000):
        cpu = self.cpu
        blocks = self._blocks
        executed = 0
        while not cpu.halted and not cpu.ecall_pending:
            entry = blocks.get(cpu.pc)
            if entry is None:
                entry = self._translate(cpu.pc)
                blocks[cpu.pc] = entry
            closures, count = entry
            for fn in closures:
                fn()
            executed += count
            if executed > max_instructions:
                raise GuestError("instruction budget exceeded (guest stuck?)")
        cpu.instructions_executed += executed
        return executed
