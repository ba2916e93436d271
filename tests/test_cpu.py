"""Unit tests: guest CPU ISA, assembler, interpreter, DBT engine."""

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint.state import apply_memory, serialize_memory
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.cpu import core as cpu_core
from repro.errors import BusError, GuestError, MemoryError_
from repro.cpu import CPU, DBTCore, GuestRoutines, Interpreter, assemble
from repro.cpu.isa import CpuOp, decode, encode
from repro.mem import Bus, MMIODevice, PhysicalMemory
from repro.mem.physical import PAGE_SHIFT

CODE_BASE = 0x1000
ENGINES = ["dbt", "interpretive"]


def _machine(source, engine="dbt", max_block=64):
    """*source* is assembly text or an already assembled image."""
    memory = PhysicalMemory(1 << 24)
    bus = Bus(memory)
    image = assemble(source) if isinstance(source, str) else source
    bus.write_block(CODE_BASE, image)
    cpu = CPU(bus)
    cpu.reset(pc=CODE_BASE)
    core = DBTCore(cpu, max_block) if engine == "dbt" else Interpreter(cpu)
    return memory, cpu, core


class _Latch(MMIODevice):
    """A device window of plain registers that logs every access."""

    def __init__(self):
        self.values = {}
        self.log = []

    def read_reg(self, offset):
        self.log.append(("r", offset))
        return self.values.get(offset, 0)

    def write_reg(self, offset, value):
        self.log.append(("w", offset, value))
        self.values[offset] = value


class TestEncoding:
    def test_roundtrip(self):
        word = encode(CpuOp.ADD, 3, 4, 5, 0)
        assert decode(word) == (CpuOp.ADD, 3, 4, 5, 0)

    def test_negative_immediate(self):
        word = encode(CpuOp.ADDI, 1, 2, 0, -7)
        assert decode(word)[4] == -7

    def test_immediate_range_checked(self):
        with pytest.raises(ValueError):
            encode(CpuOp.ADDI, 1, 2, 0, 5000)

    @given(rd=st.integers(0, 15), rs1=st.integers(0, 15),
           rs2=st.integers(0, 15), imm=st.integers(-2048, 2047))
    @settings(max_examples=100)
    def test_roundtrip_property(self, rd, rs1, rs2, imm):
        word = encode(CpuOp.LW, rd, rs1, rs2, imm)
        assert decode(word) == (CpuOp.LW, rd, rs1, rs2, imm)


class TestAssembler:
    def test_labels_and_branches(self):
        source = """
            li   x1, 5
            mov  x2, x0
        loop:
            add  x2, x2, x1
            addi x1, x1, -1
            bne  x1, x0, loop
            halt
        """
        _mem, cpu, core = _machine(source)
        core.run()
        assert cpu.regs[2] == 5 + 4 + 3 + 2 + 1

    def test_64bit_li(self):
        _mem, cpu, core = _machine("li x3, 0x123456789abcdef0\nhalt")
        core.run()
        assert cpu.regs[3] == 0x123456789ABCDEF0

    def test_duplicate_label_rejected(self):
        with pytest.raises(GuestError):
            assemble("a:\nnop\na:\nhalt")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(GuestError):
            assemble("frobnicate x1, x2")

    def test_unknown_label_rejected(self):
        with pytest.raises(GuestError):
            assemble("beq x0, x0, nowhere\nhalt")

    def test_register_aliases(self):
        source = "li sp, 100\nli lr, 200\nhalt"
        _mem, cpu, core = _machine(source)
        core.run()
        assert cpu.regs[14] == 100
        assert cpu.regs[15] == 200

    def test_x0_is_hardwired_zero(self):
        _mem, cpu, core = _machine("li x0, 42\naddi x0, x0, 1\nhalt")
        core.run()
        assert cpu.regs[0] == 0


_ALU_PROGRAM = """
    li   x1, 100
    li   x2, 7
    add  x3, x1, x2
    sub  x4, x1, x2
    mul  x5, x1, x2
    divu x6, x1, x2
    and  x7, x1, x2
    or   x8, x1, x2
    xor  x9, x1, x2
    slt  x10, x2, x1
    sltu x11, x1, x2
    halt
"""


@pytest.mark.parametrize("engine", ENGINES)
class TestExecutionEngines:
    def test_alu_operations(self, engine):
        _mem, cpu, core = _machine(_ALU_PROGRAM, engine)
        core.run()
        assert cpu.regs[3] == 107
        assert cpu.regs[4] == 93
        assert cpu.regs[5] == 700
        assert cpu.regs[6] == 14
        assert cpu.regs[7] == 100 & 7
        assert cpu.regs[8] == 100 | 7
        assert cpu.regs[9] == 100 ^ 7
        assert cpu.regs[10] == 1
        assert cpu.regs[11] == 0

    def test_memory_operations(self, engine):
        source = """
            li  x1, 0x8000
            li  x2, 0xdeadbeef
            sw  x2, x1, 0
            lw  x3, x1, 0
            sb  x2, x1, 8
            lbu x4, x1, 8
            li  x5, 0x1122334455667788
            sd  x5, x1, 16
            ld  x6, x1, 16
            halt
        """
        mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[3] == 0xDEADBEEF
        assert cpu.regs[4] == 0xEF
        assert cpu.regs[6] == 0x1122334455667788
        assert mem.read_u32(0x8000) == 0xDEADBEEF

    def test_signed_branches(self, engine):
        source = """
            li   x1, 0
            sub  x1, x1, x2      # x1 = 0 (x2 = 0)
            li   x2, 1
            sub  x3, x0, x2      # x3 = -1
            blt  x3, x0, neg
            li   x4, 111
            halt
        neg:
            li   x4, 222
            halt
        """
        _mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[4] == 222

    def test_subroutine_call(self, engine):
        source = """
            li   x1, 21
            jal  lr, double
            mov  x5, x2
            halt
        double:
            add  x2, x1, x1
            jr   lr
        """
        _mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[5] == 42

    def test_instruction_budget(self, engine):
        _mem, _cpu, core = _machine("loop: jal x0, loop\nhalt", engine)
        with pytest.raises(GuestError):
            core.run(max_instructions=1000)

    def test_budget_is_checked_while_spinning_inside_one_region(self, engine):
        # two-instruction blocks: the DBT stops after block 501 (1002 >
        # 1000), the interpreter after instruction 1001 — the 501st addi
        source = "loop: addi x1, x1, 1\njal x0, loop"
        _mem, cpu, core = _machine(source, engine)
        with pytest.raises(GuestError):
            core.run(max_instructions=1000)
        assert cpu.regs[1] == 501

    def test_budget_is_checked_after_a_fall_through_block(self, engine):
        source = """
        loop:
            addi x1, x1, 1
            beq  x1, x0, never   # block of 2, falls through into ...
            addi x2, x2, 1
            jal  x0, loop        # ... a block of 2
        never:
            halt
        """
        _mem, cpu, core = _machine(source, engine)
        with pytest.raises(GuestError):
            core.run(max_instructions=5)
        # 2 + 2 + 2 > 5: both engines stop between the two blocks
        assert (cpu.regs[1], cpu.regs[2]) == (2, 1)
        assert cpu.pc == CODE_BASE + 8

    def test_budget_starved_memcpy(self, engine):
        routines = GuestRoutines(Bus(PhysicalMemory(1 << 24)), engine=engine)
        with pytest.raises(GuestError):
            routines.call("memcpy", 0x50_0000, 0x40_0000, 64 * 1024,
                          max_instructions=10_000)
        # 7 instructions per 8 bytes: it got some of the way, not all
        assert 0 < routines.cpu.regs[1] - 0x50_0000 < 64 * 1024

    def test_jalr_reads_base_before_writing_link(self, engine):
        source = """
            ldi  x15, 0x1018
            jalr x15, x15, 0     # rd == rs1: the target is the *old* x15
            li   x1, 111
            halt
            li   x1, 222         # 0x1018
            halt
        """
        _mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[1] == 222
        assert cpu.regs[15] == CODE_BASE + 12
        assert cpu.pc == 0x1024

    def test_device_window_access(self, engine):
        source = """
            li  x1, 0x20000
            li  x2, 0xcafef00d
            sw  x2, x1, 8
            lw  x3, x1, 8
            lw  x4, x1, 12
            li  x5, 0x1111111122222222
            sd  x5, x1, 16
            ld  x6, x1, 16
            halt
        """
        mem, cpu, core = _machine(source, engine)
        device = _Latch()
        cpu.bus.map_device("latch", 0x20000, 0x1000, device)
        pages = mem.allocated_pages
        core.run()
        assert cpu.regs[3] == 0xCAFEF00D and cpu.regs[4] == 0
        assert cpu.regs[6] == 0x1111111122222222
        assert device.log == [
            ("w", 8, 0xCAFEF00D), ("r", 8), ("r", 12),
            ("w", 16, 0x22222222), ("w", 20, 0x11111111),
            ("r", 16), ("r", 20)]
        assert mem.allocated_pages == pages  # nothing landed in RAM

    def test_device_mapped_after_translation(self, engine):
        source = """
            li  x1, 0x20000
            sw  x2, x1, 0
            lw  x3, x1, 0
            halt
        """
        mem, cpu, core = _machine(source, engine)
        cpu.regs[2] = 7
        core.run()
        assert mem.read_u32(0x20000) == 7  # plain RAM so far
        device = _Latch()
        cpu.bus.map_device("latch", 0x20000, 0x1000, device)
        cpu.reset(pc=CODE_BASE)
        cpu.regs[2] = 9
        core.run()
        assert device.log == [("w", 0, 9), ("r", 0)]
        assert cpu.regs[3] == 9
        assert mem.read_u32(0x20000) == 7

    def test_accesses_straddling_a_page_boundary(self, engine):
        source = """
            li  x1, 0x9000
            li  x2, 0x1122334455667788
            sd  x2, x1, -3
            ld  x3, x1, -3
            li  x6, 0xa000
            sw  x2, x6, -2
            lw  x4, x6, -2
            lbu x5, x1, 0
            halt
        """
        mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[3] == 0x1122334455667788
        assert cpu.regs[4] == 0x55667788
        assert cpu.regs[5] == 0x55
        assert mem.read_block(0x8FFD, 8) == bytes.fromhex("8877665544332211")
        assert mem.read_block(0x9FFE, 4) == bytes.fromhex("88776655")

    def test_first_touch_allocates_the_page(self, engine):
        source = """
            li  x1, 0x30000
            lbu x2, x1, 0        # a load is a first touch too
            li  x1, 0x40000
            sd  x1, x1, 8
            sd  x1, x1, 16       # second touch: already backed
            halt
        """
        mem, cpu, core = _machine(source, engine)
        before = mem.allocated_pages
        assert mem.backed_page(0x30) is None
        core.run()
        assert mem.allocated_pages == before + 2
        assert mem.backed_page(0x30) is not None
        assert mem.read_u64(0x40010) == 0x40000

    def test_out_of_range_store(self, engine):
        source = """
            li  x1, 0x1000000    # == memory size
            sw  x1, x1, 0
            halt
        """
        mem, cpu, core = _machine(source, engine)
        pages = mem.allocated_pages
        with pytest.raises(MemoryError_):
            core.run()
        assert mem.allocated_pages == pages

    def test_address_wraps_at_64_bits(self, engine):
        source = """
            li  x1, 0xfffffffffffffff8
            li  x2, 0x5a
            sb  x2, x1, 0x20     # wraps to 0x18
            lbu x3, x1, 0x20
            halt
        """
        mem, cpu, core = _machine(source, engine)
        core.run()
        assert cpu.regs[3] == 0x5A
        assert mem.read_u8(0x18) == 0x5A

    def test_straight_line_code_longer_than_a_block(self, engine):
        source = "addi x1, x1, 1\n" * 150 + "halt"
        _mem, cpu, core = _machine(source, engine, max_block=64)
        assert core.run() == 151
        assert cpu.regs[1] == 150
        assert cpu.pc == CODE_BASE + 151 * 4

    def test_invalidate_after_rewriting_guest_code(self, engine):
        mem, cpu, core = _machine("li x1, 1\nhalt", engine)
        core.run()
        assert cpu.regs[1] == 1
        mem.write_block(CODE_BASE, assemble("li x1, 2\nhalt"))
        if engine == "dbt":
            core.invalidate()
        cpu.reset(pc=CODE_BASE)
        core.run()
        assert cpu.regs[1] == 2

    def test_untaken_path_is_not_fetched_ahead_of_time(self, engine):
        # the fall-through of the first branch is not code, and the far
        # target of the second lies in a page nothing has touched
        image = struct.pack(
            "<4I", encode(CpuOp.BEQ, 0, 0, 0, 2), 0xFF000000,
            encode(CpuOp.BNE, 0, 0, 0, 2000), encode(CpuOp.HALT))
        mem, cpu, core = _machine(image, engine)
        pages = mem.allocated_pages
        core.run()
        assert cpu.halted
        assert mem.allocated_pages == pages


class TestEngineEquivalence:
    def test_both_engines_agree_on_full_register_state(self):
        source = """
            li   x1, 12345
            li   x2, 99
        loop:
            mul  x3, x1, x2
            srli x3, x3, 3
            xor  x1, x1, x3
            addi x2, x2, -1
            bne  x2, x0, loop
            halt
        """
        states = []
        for engine in ("dbt", "interpretive"):
            _mem, cpu, core = _machine(source, engine)
            core.run()
            states.append(list(cpu.regs))
        assert states[0] == states[1]

    def test_dbt_caches_blocks(self):
        source = """
            li   x1, 50
        loop:
            addi x1, x1, -1
            bne  x1, x0, loop
            halt
        """
        _mem, cpu, core = _machine(source, "dbt")
        core.run()
        # one region holds the entry, the loop and the exit; the 50
        # iterations chain inside it
        assert core.translations == 1
        cpu.reset(pc=CODE_BASE)
        core.run()
        assert core.translations == 1

    def test_dbt_region_source_is_readable_from_a_traceback(self):
        """Generated region source is registered with linecache under
        its synthetic filename, as the megakernel's is."""
        import linecache

        _mem, cpu, core = _machine("li x1, 7\nhalt\n", "dbt")
        core.run()
        lines = linecache.getlines(f"<dbt region 0x{CODE_BASE:x}>")
        assert lines[0].startswith("def region(n, limit")
        linecache.checkcache()  # no mtime: nothing to invalidate
        assert linecache.getlines(f"<dbt region 0x{CODE_BASE:x}>") == lines

    def test_dbt_instruction_count_matches_interpreter(self):
        source = """
            li   x1, 10
        loop:
            addi x1, x1, -1
            bne  x1, x0, loop
            halt
        """
        counts = []
        for engine in ("dbt", "interpretive"):
            _mem, cpu, core = _machine(source, engine)
            core.run()
            counts.append(cpu.instructions_executed)
        assert counts[0] == counts[1]


class TestGuestRoutines:
    def _bus(self):
        return Bus(PhysicalMemory(1 << 24))

    def test_memcpy(self):
        bus = self._bus()
        routines = GuestRoutines(bus)
        payload = bytes(range(256)) * 5
        bus.write_block(0x40_0000, payload)
        routines.memcpy(0x50_0000, 0x40_0000, len(payload))
        assert bus.read_block(0x50_0000, len(payload)) == payload

    def test_memcpy_unaligned_tail(self):
        bus = self._bus()
        routines = GuestRoutines(bus)
        payload = b"hello, guest memcpy!"  # not a multiple of 8
        bus.write_block(0x40_0000, payload)
        routines.memcpy(0x50_0000, 0x40_0000, len(payload))
        assert bus.read_block(0x50_0000, len(payload)) == payload

    def test_memset(self):
        bus = self._bus()
        routines = GuestRoutines(bus)
        routines.memset(0x40_0000, 0xA5, 100)
        assert bus.read_block(0x40_0000, 100) == b"\xa5" * 100

    def test_checksum(self):
        bus = self._bus()
        routines = GuestRoutines(bus)
        words = [1, 2, 3, 0xFFFFFFFF]
        for index, word in enumerate(words):
            bus.write_u32(0x40_0000 + 4 * index, word)
        expected = sum(words) & 0xFFFFFFFF
        assert routines.checksum(0x40_0000, len(words)) == expected

    def test_interpretive_engine_selectable(self):
        bus = self._bus()
        routines = GuestRoutines(bus, engine="interpretive")
        bus.write_block(0x40_0000, b"xy")
        routines.memcpy(0x50_0000, 0x40_0000, 2)
        assert bus.read_block(0x50_0000, 2) == b"xy"
        assert routines.instructions_executed > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_memcpy_sees_a_restored_memory_image(self, engine):
        platform = MobilePlatform(PlatformConfig(cpu_engine=engine))
        first, second = bytes(range(256)) * 20, bytes(range(255, -1, -1)) * 20
        source = platform.stage_bytes(first)
        target = platform.stage_bytes(bytes(len(first)))
        image = serialize_memory(platform)  # source holds `first`
        platform.memory.write_block(source, second)
        platform.guest.memcpy(target, source, len(first))
        assert platform.memory.read_block(target, len(first)) == second
        apply_memory(platform, image)  # every page is a new bytearray
        platform.guest.memcpy(target, source, len(first))
        assert platform.memory.read_block(target, len(first)) == first

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            GuestRoutines(self._bus(), engine="quantum")

    def test_a_fault_leaves_pc_at_the_faulting_instruction(self):
        outcomes = []
        for engine in ENGINES:
            bus = self._bus()
            bus.map_device("latch", 0x40_0100, 0x100, _Latch())
            routines = GuestRoutines(bus, engine=engine)
            cpu = routines.cpu
            with pytest.raises(BusError):  # a misaligned device read
                routines.memcpy(0x50_0000, 0x40_0003, 0x400)
            outcomes.append((cpu.pc, list(cpu.regs)))
            with pytest.raises(MemoryError_):  # runs off the memory end
                routines.memset((1 << 24) - 100, 1, 200)
            outcomes.append((cpu.pc, list(cpu.regs)))
        assert outcomes[:2] == outcomes[2:]
        entries = routines._entries
        # the `ld` of memcpy's first trip, the `sb` of memset's loop
        assert [pc for pc, _regs in outcomes[:2]] == [
            entries["memcpy"] + 12, entries["memset"] + 4]

    def test_copy_and_fill_loops_are_summarised(self):
        import linecache

        routines = GuestRoutines(self._bus())
        routines.memcpy(0x50_0000, 0x40_0000, 64)
        routines.memset(0x50_0000, 1, 64)
        routines.checksum(0x40_0000, 16)
        # memcpy's 8-byte loop and byte tail and memset's loop; the
        # checksum's loop adds what it loads and is no copy
        for name, loops in (("memcpy", 2), ("memset", 1), ("checksum", 0)):
            source = "".join(linecache.getlines(
                f"<dbt region 0x{routines._entries[name]:x}>"))
            assert source.count(" = summary_") == loops, name

    def test_a_second_fresh_platform_compiles_no_region(self, monkeypatch):
        """Region code is kept per process, keyed by its source: the
        second platform runs the first one's code in a namespace of its
        own, and counts the region as translated all the same."""
        from repro import hostcode

        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(cpu_core, "_region_codes",
                            hostcode.BoundedTable(cpu_core.REGION_CACHE_SIZE))
        monkeypatch.setattr(hostcode, "compile", counting, raising=False)
        payload = bytes(range(256)) * 20
        counts = []
        for _ in range(2):
            platform = MobilePlatform(PlatformConfig())
            source = platform.stage_bytes(payload)
            target = platform.stage_bytes(bytes(len(payload)))
            platform.guest.memcpy(target, source, len(payload))
            assert platform.memory.read_block(target, len(payload)) \
                == payload
            snapshot = platform.stats_registry.snapshot()
            counts.append((snapshot["cpu.core.dbt_translations"],
                           snapshot["cpu.core.instructions"]))
        entry = platform.guest._entries["memcpy"]
        assert compiled == [f"<dbt region 0x{entry:x}>"]
        assert counts[0] == counts[1]
        assert counts[0][0] == 1


# -- generated programs: DBT vs interpreter -----------------------------------

_DATA_BASE = 0x8000 - 24  # the data window straddles a page boundary and
_BASE_REG = 12            # its second page starts out unbacked
_COUNT_REG = 13
_RR_OPS = [CpuOp.ADD, CpuOp.SUB, CpuOp.AND, CpuOp.OR, CpuOp.XOR, CpuOp.SLL,
           CpuOp.SRL, CpuOp.SRA, CpuOp.MUL, CpuOp.DIVU, CpuOp.SLT,
           CpuOp.SLTU]
_RI_OPS = [CpuOp.ADDI, CpuOp.ANDI, CpuOp.ORI, CpuOp.XORI, CpuOp.SLLI,
           CpuOp.SRLI, CpuOp.SRAI]
_BRANCHES = [CpuOp.BEQ, CpuOp.BNE, CpuOp.BLT, CpuOp.BGE, CpuOp.BLTU,
             CpuOp.BGEU]

_WIDTH_OPS = {1: (CpuOp.LBU, CpuOp.SB), 4: (CpuOp.LW, CpuOp.SW),
              8: (CpuOp.LD, CpuOp.SD)}
_reg = st.integers(0, 11)  # never the base or the loop counter
_imm = st.integers(-2048, 2047)
_u32 = st.integers(0, 0xFFFFFFFF)
_offset = st.integers(0, 48)
_straight = st.one_of(
    st.tuples(st.just("rr"), st.sampled_from(_RR_OPS), _reg, _reg, _reg),
    st.tuples(st.just("ri"), st.sampled_from(_RI_OPS), _reg, _reg, _imm),
    st.tuples(st.just("wide"), st.sampled_from([CpuOp.LDI, CpuOp.LDIH]),
              _reg, _u32),
    st.tuples(st.just("mem"),
              st.sampled_from([CpuOp.LBU, CpuOp.LW, CpuOp.LD, CpuOp.SB,
                               CpuOp.SW, CpuOp.SD]), _reg, _offset),
    st.just(("nop",)),
)
_body = st.lists(_straight, max_size=4)
# forward control flow: each skips its body when taken
_forward = st.one_of(
    st.tuples(st.just("branch"), st.sampled_from(_BRANCHES), _reg, _reg,
              _body),
    st.tuples(st.just("jal"), _reg, _body),
    st.tuples(st.just("jalr"), _reg, st.integers(1, 11),
              st.integers(-64, 64), _body),
)
# a memcpy-shaped loop over the data window: spans may overlap
_copy = st.tuples(st.just("copy"), st.sampled_from([1, 8]),
                  st.one_of(_offset, st.integers(600, 648)), _offset,
                  st.one_of(st.integers(0, 20), st.integers(16, 64)))
_item = st.one_of(
    _straight, _forward, _copy,
    st.tuples(st.just("loop"), st.integers(1, 4),
              st.lists(st.one_of(_straight, _forward), max_size=5)))


def _encode_items(items, address):
    """Machine words of *items* laid out from *address*."""
    words = []
    for item in items:
        here = address + 4 * len(words)
        kind = item[0]
        if kind == "rr":
            _, op, rd, rs1, rs2 = item
            words.append(encode(op, rd, rs1, rs2))
        elif kind == "ri":
            _, op, rd, rs1, imm = item
            words.append(encode(op, rd, rs1, 0, imm))
        elif kind == "wide":
            _, op, rd, value = item
            words += [encode(op, rd), value]
        elif kind == "mem":
            _, op, reg, offset = item
            words.append(encode(op, reg, _BASE_REG, 0, offset))
        elif kind == "nop":
            words.append(encode(CpuOp.NOP))
        elif kind == "branch":
            _, op, rs1, rs2, body = item
            skipped = _encode_items(body, here + 4)
            words += [encode(op, 0, rs1, rs2, len(skipped) + 1)] + skipped
        elif kind == "jal":
            _, rd, body = item
            skipped = _encode_items(body, here + 4)
            words += [encode(CpuOp.JAL, rd, 0, 0, len(skipped) + 1)] + skipped
        elif kind == "copy":  # x1 dst, x2 src, x3 trips; x5 carries
            _, width, dst, src, trips = item
            load, store = _WIDTH_OPS[width]
            words += [encode(CpuOp.LDI, 1), _DATA_BASE + dst,
                      encode(CpuOp.LDI, 2), _DATA_BASE + src,
                      encode(CpuOp.LDI, 3), trips,
                      encode(CpuOp.BEQ, 0, 3, 0, 7),
                      encode(load, 5, 2), encode(store, 5, 1),
                      encode(CpuOp.ADDI, 1, 1, 0, width),
                      encode(CpuOp.ADDI, 2, 2, 0, width),
                      encode(CpuOp.ADDI, 3, 3, 0, -1),
                      encode(CpuOp.JAL, 0, 0, 0, -6)]
        elif kind == "jalr":  # rd may be the base register itself
            _, rd, base, imm, body = item
            skipped = _encode_items(body, here + 12)
            target = here + 12 + 4 * len(skipped)
            words += [encode(CpuOp.LDI, base), target - imm,
                      encode(CpuOp.JALR, rd, base, 0, imm)] + skipped
        else:
            _, trips, body = item
            inner = _encode_items(body, here + 8)
            words += [encode(CpuOp.LDI, _COUNT_REG), trips] + inner + [
                encode(CpuOp.ADDI, _COUNT_REG, _COUNT_REG, 0, -1),
                encode(CpuOp.BNE, 0, _COUNT_REG, 0, -(len(inner) + 1))]
    return words


@given(items=st.lists(_item, max_size=12), max_block=st.sampled_from([3, 64]))
@settings(max_examples=150, deadline=None)
def test_dbt_matches_interpreter_on_generated_programs(items, max_block):
    words = [encode(CpuOp.LDI, _BASE_REG), _DATA_BASE]
    words += _encode_items(items, CODE_BASE + 8)
    words.append(encode(CpuOp.HALT))
    image = struct.pack(f"<{len(words)}I", *words)
    outcomes = []
    for engine in ENGINES:
        mem, cpu, core = _machine(image, engine, max_block)
        mem.write_block(_DATA_BASE, bytes(range(1, 25)))  # first page only
        core.run(max_instructions=10_000)
        outcomes.append((list(cpu.regs), cpu.pc, cpu.halted,
                         cpu.instructions_executed, mem.allocated_pages,
                         b"".join(mem.dump_pages())))
    assert outcomes[0] == outcomes[1]


# -- counted copy and fill loops: summarised vs trip by trip ------------------

_LOOP_CODE = 0x10_0000
_LOOP_DATA = 0x20_0000   # two backed pages; the rest starts out unbacked
_LOOP_MEMORY = 0x40_0000
_LOOP_WINDOW = _LOOP_DATA + 0x3000
_M64 = (1 << 64) - 1


def _counted_loop(width, copy, bottom, test, operands, step, offset,
                  stride):
    """A counted loop over x1 (stores), x2 (loads), x3 (a counter) and
    the bound x4, one copy or fill access per trip, tested at the top
    (like memcpy) or at the bottom (like memset); the pointers step by
    *stride*, which only the access width qualifies."""
    load, store = _WIDTH_OPS[width]
    body = [encode(store, 6, 1, 0, offset)]
    if copy:
        body = [encode(load, 5, 2, 0, offset), encode(store, 5, 1, 0, offset)]
    body += [encode(CpuOp.ADDI, 1, 1, 0, stride),
             encode(CpuOp.ADDI, 2, 2, 0, stride),
             encode(CpuOp.ADDI, 3, 3, 0, step), encode(CpuOp.NOP)]
    rs1, rs2 = operands
    if bottom:  # taken: go round again
        return [encode(CpuOp.NOP)] + body + [
            encode(test, 0, rs1, rs2, -len(body)), encode(CpuOp.HALT)]
    return [encode(CpuOp.NOP), encode(test, 0, rs1, rs2, len(body) + 2)] \
        + body + [encode(CpuOp.JAL, 0, 0, 0, -len(body) - 1),
                  encode(CpuOp.HALT)]


_place = st.one_of(
    st.tuples(st.sampled_from([_LOOP_DATA, _LOOP_DATA + 0x1000]),
              st.integers(0, 0x800)),
    st.tuples(st.sampled_from([_LOOP_DATA + 0x2FF0, _LOOP_WINDOW,
                               _LOOP_MEMORY, 1 << 64]),
              st.integers(-400, 40)))
_loop_case = st.fixed_dictionaries({
    "width": st.sampled_from([1, 4, 8]),
    "copy": st.booleans(),
    "bottom": st.booleans(),
    # a test that ends the loop after the bound's trips, or any test
    "test": st.one_of(st.sampled_from(["!=", "order"]), st.sampled_from(
        [CpuOp.BEQ, CpuOp.BNE, CpuOp.BLTU, CpuOp.BGEU])),
    # the induction register tested, against x4 or x0, on either side
    "operands": st.tuples(st.sampled_from([1, 2, 3]),
                          st.sampled_from([4, 4, 0])).flatmap(
        lambda pair: st.sampled_from([pair, pair[::-1]])),
    "step": st.sampled_from([-1, -4, -8, 1]),
    "offset": st.sampled_from([0, -8, 16]),
    "stride": st.sampled_from([1, 1, 1, 2]),  # in access widths
    "dst": _place,
    "src": st.one_of(  # an int is relative to dst
        _place, st.integers(-40, 40), st.sampled_from([-0x1000, 0x1800])),
    "count": st.integers(0, 2500),
    # from the tested register: trips of its step, give or take a byte
    "bound": st.tuples(st.one_of(st.integers(0, 20), st.integers(40, 300)),
                       st.sampled_from([0, 0, 1, -3])),
    "value": st.integers(0, _M64),
    "window": st.booleans(),
    "budget": st.one_of(st.integers(0, 2000), st.just(20_000)),
})


def _run_counted_loop(case, engine):
    operands, bottom = case["operands"], case["bottom"]
    tested = next(reg for reg in operands if reg not in (0, 4))
    stride = case["stride"] * case["width"]
    step = case["step"] if tested == 3 else stride
    test = case["test"]
    if test == "!=":
        test = CpuOp.BNE if bottom else CpuOp.BEQ
    elif test == "order":  # stay while the tested value is short of x4
        stay = CpuOp.BLTU if (step > 0) == (operands[0] == tested) \
            else CpuOp.BGEU
        test = stay if bottom else cpu_core._NEGATED[stay]
    memory = PhysicalMemory(_LOOP_MEMORY)
    bus = Bus(memory)
    device = _Latch()
    if case["window"]:
        bus.map_device("latch", _LOOP_WINDOW, 0x100, device)
    words = _counted_loop(case["width"], case["copy"], bottom, test,
                          operands, case["step"], case["offset"], stride)
    bus.write_block(_LOOP_CODE, struct.pack(f"<{len(words)}I", *words))
    bus.write_block(_LOOP_DATA, bytes(range(1, 256)) * 33)
    cpu = CPU(bus)
    cpu.reset(pc=_LOOP_CODE)
    dst = sum(case["dst"]) & _M64
    src = case["src"]
    src = (dst + src if isinstance(src, int) else sum(src)) & _M64
    cpu.regs[1:7] = [dst, src, case["count"], 0, 0x77, case["value"]]
    trips, jitter = case["bound"]
    cpu.regs[4] = (cpu.regs[tested] + trips * step + jitter) & _M64
    core = DBTCore(cpu) if engine == "dbt" else Interpreter(cpu)
    try:
        core.run(max_instructions=case["budget"])
        fault = None
    except (GuestError, MemoryError_, BusError) as error:
        fault = type(error)
    return (fault, list(cpu.regs), cpu.pc, cpu.halted,
            cpu.instructions_executed, memory.allocated_pages,
            b"".join(memory.dump_pages()), device.log)


@given(case=_loop_case)
# memcpy-like: x5 must end with the last word the loop loaded
@example(case={"width": 8, "copy": True, "bottom": False, "test": "!=",
               "operands": (3, 0), "step": -1, "offset": 0, "stride": 1,
               "dst": (_LOOP_DATA, 8), "src": 0x1800, "count": 100,
               "bound": (0, 0), "value": 0, "window": False,
               "budget": 20_000})
# memset-like, running off the memory end half way
@example(case={"width": 1, "copy": False, "bottom": True, "test": "!=",
               "operands": (3, 4), "step": -1, "offset": 0, "stride": 1,
               "dst": (_LOOP_MEMORY, -100), "src": 0, "count": 200,
               "bound": (200, 0), "value": 0xAB, "window": False,
               "budget": 20_000})
@settings(max_examples=400, deadline=None)
def test_summarised_loops_match_trip_by_trip_execution(case):
    summarised = _run_counted_loop(case, "dbt")
    with mock.patch.object(cpu_core, "_loop_summary", lambda *args: None):
        trip_by_trip = _run_counted_loop(case, "dbt")
    assert summarised == trip_by_trip
    if summarised[0] is None:
        assert _run_counted_loop(case, "interpretive") == summarised


_HOLDS = {CpuOp.BEQ: lambda a, b: a == b, CpuOp.BNE: lambda a, b: a != b,
          CpuOp.BLTU: lambda a, b: a < b, CpuOp.BGEU: lambda a, b: a >= b}


@given(value=st.integers(-60, 60), step=st.integers(-6, 6),
       op=st.sampled_from(sorted(_HOLDS)), bound=st.integers(-60, 60),
       cap=st.integers(0, 50))
@settings(max_examples=300)
def test_trip_count_matches_counting_the_trips(value, step, op, bound, cap):
    expected = next((trip for trip in range(cap)
                     if not _HOLDS[op](value + trip * step, bound)), cap)
    assert cpu_core._trips(value, step, op, bound, cap) == expected
