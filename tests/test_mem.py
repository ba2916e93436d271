"""Unit tests: physical memory and the MMIO bus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BusError, MemoryError_
from repro.mem import Bus, MMIODevice, PAGE_SIZE, PhysicalMemory


class TestPhysicalMemory:
    def test_scalar_roundtrip(self):
        mem = PhysicalMemory(1 << 20)
        mem.write_u32(0x100, 0xDEADBEEF)
        assert mem.read_u32(0x100) == 0xDEADBEEF
        mem.write_u64(0x200, 0x0123456789ABCDEF)
        assert mem.read_u64(0x200) == 0x0123456789ABCDEF
        mem.write_u8(0x300, 0xAB)
        assert mem.read_u8(0x300) == 0xAB

    def test_little_endian_layout(self):
        mem = PhysicalMemory(1 << 20)
        mem.write_u32(0, 0x04030201)
        assert [mem.read_u8(i) for i in range(4)] == [1, 2, 3, 4]

    def test_cross_page_scalar_access(self):
        mem = PhysicalMemory(1 << 20)
        addr = PAGE_SIZE - 2
        mem.write_u32(addr, 0xCAFEBABE)
        assert mem.read_u32(addr) == 0xCAFEBABE
        addr = PAGE_SIZE - 4
        mem.write_u64(addr, 0x1122334455667788)
        assert mem.read_u64(addr) == 0x1122334455667788

    def test_block_roundtrip_spanning_pages(self):
        mem = PhysicalMemory(1 << 20)
        data = bytes(range(256)) * 40  # 10 KiB, crosses pages
        mem.write_block(PAGE_SIZE - 100, data)
        assert mem.read_block(PAGE_SIZE - 100, len(data)) == data

    def test_arrays(self):
        mem = PhysicalMemory(1 << 20)
        values = np.arange(1000, dtype=np.float32)
        mem.write_array(0x4000, values)
        out = mem.read_array(0x4000, 1000, np.float32)
        np.testing.assert_array_equal(out, values)

    def test_fill(self):
        mem = PhysicalMemory(1 << 20)
        mem.fill(10, 5000, 0x7F)
        assert mem.read_block(10, 5000) == b"\x7f" * 5000
        assert mem.read_u8(9) == 0
        assert mem.read_u8(10 + 5000) == 0

    def test_fill_repeats_a_wide_value_across_pages(self):
        mem = PhysicalMemory(1 << 20)
        mem.fill(PAGE_SIZE - 12, 40, 0x1122334455667788, width=8)
        assert mem.read_block(PAGE_SIZE - 12, 40) == \
            bytes.fromhex("8877665544332211") * 5

    @given(dst=st.integers(0, 3 * PAGE_SIZE),
           src=st.integers(0, 3 * PAGE_SIZE),
           length=st.integers(0, 2 * PAGE_SIZE))
    @settings(max_examples=50)
    def test_copy_matches_a_read_and_a_write(self, dst, src, length):
        if dst < src + length and src < dst + length:
            return  # the ranges of a copy must not overlap
        mem = PhysicalMemory(1 << 20)
        mem.write_block(src, bytes(range(251)) * (length // 251 + 1))
        expected = mem.read_block(src, length)
        mem.copy(dst, src, length)
        assert mem.read_block(dst, length) == expected

    def test_block_transfers_out_of_range_touch_nothing(self):
        mem = PhysicalMemory(1 << 20)
        with pytest.raises(MemoryError_):
            mem.fill((1 << 20) - 8, 16, 1)
        with pytest.raises(MemoryError_):
            mem.copy(0, (1 << 20) - 8, 16)
        assert mem.allocated_pages == 0

    def test_lazy_allocation(self):
        mem = PhysicalMemory(1 << 30)
        assert mem.allocated_pages == 0
        mem.write_u32(123 * PAGE_SIZE, 1)
        assert mem.allocated_pages == 1

    def test_out_of_range(self):
        mem = PhysicalMemory(1 << 20)
        with pytest.raises(MemoryError_):
            mem.read_u32(1 << 20)
        with pytest.raises(MemoryError_):
            mem.write_u8(-1, 0)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    @given(addr=st.integers(0, (1 << 20) - 9),
           value=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_u64_roundtrip_property(self, addr, value):
        mem = PhysicalMemory(1 << 20)
        mem.write_u64(addr, value)
        assert mem.read_u64(addr) == value


class _EchoDevice(MMIODevice):
    def __init__(self):
        self.regs = {}

    def read_reg(self, offset):
        return self.regs.get(offset, 0)

    def write_reg(self, offset, value):
        self.regs[offset] = value


class TestBus:
    def test_routes_mmio_and_memory(self):
        mem = PhysicalMemory(1 << 24)
        bus = Bus(mem)
        device = _EchoDevice()
        bus.map_device("echo", 0x10000, 0x1000, device)
        bus.write_u32(0x10004, 42)
        assert device.regs[4] == 42
        assert bus.read_u32(0x10004) == 42
        bus.write_u32(0x2000, 7)
        assert mem.read_u32(0x2000) == 7

    def test_overlapping_windows_rejected(self):
        bus = Bus(PhysicalMemory(1 << 24))
        bus.map_device("a", 0x1000, 0x1000, _EchoDevice())
        with pytest.raises(BusError):
            bus.map_device("b", 0x1800, 0x1000, _EchoDevice())

    def test_misaligned_mmio_rejected(self):
        bus = Bus(PhysicalMemory(1 << 24))
        bus.map_device("a", 0x1000, 0x1000, _EchoDevice())
        with pytest.raises(BusError):
            bus.read_u32(0x1002)
        with pytest.raises(BusError):
            bus.write_u32(0x1003, 1)

    def test_u64_mmio_split_into_two_reads(self):
        bus = Bus(PhysicalMemory(1 << 24))
        device = _EchoDevice()
        bus.map_device("a", 0x1000, 0x1000, device)
        device.regs[0] = 0x11111111
        device.regs[4] = 0x22222222
        assert bus.read_u64(0x1000) == 0x22222222_11111111

    def test_byte_read_from_mmio(self):
        bus = Bus(PhysicalMemory(1 << 24))
        device = _EchoDevice()
        bus.map_device("a", 0x1000, 0x1000, device)
        device.regs[0] = 0x04030201
        assert bus.read_u8(0x1001) == 2

    def test_unaligned_region_rejected(self):
        bus = Bus(PhysicalMemory(1 << 24))
        with pytest.raises(ValueError):
            bus.map_device("bad", 0x1001, 0x1000, _EchoDevice())
