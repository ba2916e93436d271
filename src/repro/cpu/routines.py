"""Guest routine library: assembly routines run on the simulated CPU.

The OpenCL runtime performs its bulk data movement by invoking these
routines, so CPU-side driver cost is actually *simulated* (instructions
fetched, decoded and executed on the guest CPU) rather than free host work.
This is what makes the Fig. 9 driver-runtime scaling measurable.

Calling convention: arguments in ``x1``-``x3``, results in ``x4``; routines
end with ``halt``.
"""

from repro.cpu.assembler import assemble
from repro.cpu.core import CPU, DBTCore, Interpreter

MEMCPY_ASM = """
# memcpy: x1=dst, x2=src, x3=len (bytes)
    li   x4, 8
loop8:
    bltu x3, x4, tail
    ld   x5, x2, 0
    sd   x5, x1, 0
    addi x1, x1, 8
    addi x2, x2, 8
    addi x3, x3, -8
    jal  x0, loop8
tail:
    beq  x3, x0, done
    lbu  x5, x2, 0
    sb   x5, x1, 0
    addi x1, x1, 1
    addi x2, x2, 1
    addi x3, x3, -1
    jal  x0, tail
done:
    halt
"""

MEMSET_ASM = """
# memset: x1=dst, x2=byte value, x3=len (bytes)
    beq  x3, x0, done
loop:
    sb   x2, x1, 0
    addi x1, x1, 1
    addi x3, x3, -1
    bne  x3, x0, loop
done:
    halt
"""

CHECKSUM_ASM = """
# checksum: x1=addr, x2=len (32-bit words) -> x4 = 32-bit additive checksum
    mov  x4, x0
    beq  x2, x0, done
loop:
    lw   x5, x1, 0
    add  x4, x4, x5
    addi x1, x1, 4
    addi x2, x2, -1
    bne  x2, x0, loop
done:
    ldi  x6, 0xffffffff
    and  x4, x4, x6
    halt
"""

_ROUTINES = {
    "memcpy": MEMCPY_ASM,
    "memset": MEMSET_ASM,
    "checksum": CHECKSUM_ASM,
}


class GuestRoutines:
    """Loads the routine library into guest memory and invokes routines.

    Args:
        bus: the system bus.
        code_base: physical address where routine code is placed.
        engine: ``"dbt"`` (region-translation cache, our simulator's mode) or
            ``"interpretive"`` (per-instruction re-decode, the baseline mode).
    """

    def __init__(self, bus, code_base=0x0010_0000, engine="dbt"):
        self.bus = bus
        self.cpu = CPU(bus)
        if engine == "dbt":
            self.engine = DBTCore(self.cpu)
        elif engine == "interpretive":
            self.engine = Interpreter(self.cpu)
        else:
            raise ValueError(f"unknown CPU engine {engine!r}")
        self._entries = {}
        address = code_base
        for name, source in _ROUTINES.items():
            image = assemble(source)
            bus.write_block(address, image)
            self._entries[name] = address
            address += len(image) + (-len(image)) % 64

    def call(self, name, x1=0, x2=0, x3=0, max_instructions=500_000_000):
        """Run routine *name*; returns the result register ``x4``."""
        cpu = self.cpu
        cpu.reset(pc=self._entries[name])
        cpu.regs[1] = x1
        cpu.regs[2] = x2
        cpu.regs[3] = x3
        self.engine.run(max_instructions=max_instructions)
        return cpu.regs[4]

    def memcpy(self, dst, src, length):
        """Guest-simulated memcpy of *length* bytes."""
        self.call("memcpy", dst, src, length)

    def memset(self, dst, value, length):
        self.call("memset", dst, value, length)

    def checksum(self, addr, words):
        return self.call("checksum", addr, words)

    @property
    def instructions_executed(self):
        return self.cpu.instructions_executed

    def register_stats(self, scope):
        """Register guest-CPU counters under *scope* (``cpu.core``).

        Instruction counts are architectural (engine-invariant); the DBT
        translation count is an engine diagnostic.
        """
        scope.probe("instructions", lambda: self.instructions_executed,
                    desc="guest instructions retired")
        translations = getattr(self.engine, "translations", None)
        if translations is not None:
            scope.probe("dbt_translations",
                        lambda: self.engine.translations,
                        desc="regions translated by the DBT engine",
                        golden=False)
