"""System bus with MMIO routing.

Device registers (the GPU's Job Manager and MMU registers, the UART, timers,
the interrupt controller) live in dedicated physical address windows. The bus
routes 32-bit register accesses in those windows to the owning device and
everything else to :class:`~repro.mem.physical.PhysicalMemory`.

This mirrors the paper's platform model: "The GPU interfaces with the CPU via
memory mapped registers, hardware interrupts, and memory."
"""

from repro.errors import BusError


class MMIODevice:
    """Interface for memory-mapped devices.

    Subclasses implement :meth:`read_reg` / :meth:`write_reg`, which receive
    the *offset* of the accessed register within the device window.
    """

    def read_reg(self, offset):
        raise NotImplementedError

    def write_reg(self, offset, value):
        raise NotImplementedError


class MMIORegion:
    """A device window on the bus: ``[base, base + size)``."""

    def __init__(self, name, base, size, device):
        if base & 3 or size & 3:
            raise ValueError("MMIO regions must be 4-byte aligned")
        self.name = name
        self.base = base
        self.size = size
        self.device = device

    def contains(self, addr):
        return self.base <= addr < self.base + self.size

    def __repr__(self):
        return f"MMIORegion({self.name!r}, 0x{self.base:x}, 0x{self.size:x})"


class Bus:
    """Routes physical accesses to memory or MMIO devices.

    Scalar 32-bit accesses check the MMIO map first; bulk/array accessors
    bypass it (devices are not valid DMA targets on this platform).

    The RAM-vs-MMIO decision is the **MMIO envelope** ``[mmio_lo,
    mmio_hi)``: every device window lies inside it, so an address outside
    it is RAM without looking at a single window. It is empty (``0, 0``)
    until the first :meth:`map_device`, which is also the only place that
    moves it; clients that decide for themselves (the DBT's inline RAM
    path) read the two attributes live instead of caching them.
    """

    def __init__(self, memory):
        self.memory = memory
        self._regions = []
        self.mmio_lo = 0
        self.mmio_hi = 0

    def map_device(self, name, base, size, device):
        """Register *device* at physical window ``[base, base+size)``."""
        region = MMIORegion(name, base, size, device)
        for existing in self._regions:
            if base < existing.base + existing.size and existing.base < base + size:
                raise BusError(f"MMIO window {name} overlaps {existing.name}")
        self._regions.append(region)
        self.mmio_lo = min(window.base for window in self._regions)
        self.mmio_hi = max(window.base + window.size
                           for window in self._regions)
        return region

    def _find_region(self, addr):
        if addr < self.mmio_lo or addr >= self.mmio_hi:
            return None
        for region in self._regions:
            if region.contains(addr):
                return region
        return None

    # -- scalar access (MMIO-aware) -----------------------------------------

    def read_u32(self, addr):
        region = self._find_region(addr)
        if region is not None:
            if addr & 3:
                raise BusError(f"misaligned MMIO read at 0x{addr:x}")
            return region.device.read_reg(addr - region.base) & 0xFFFFFFFF
        return self.memory.read_u32(addr)

    def write_u32(self, addr, value):
        region = self._find_region(addr)
        if region is not None:
            if addr & 3:
                raise BusError(f"misaligned MMIO write at 0x{addr:x}")
            region.device.write_reg(addr - region.base, value & 0xFFFFFFFF)
            return
        self.memory.write_u32(addr, value)

    def read_u64(self, addr):
        region = self._find_region(addr)
        if region is not None:
            low = self.read_u32(addr)
            high = self.read_u32(addr + 4)
            return low | (high << 32)
        return self.memory.read_u64(addr)

    def write_u64(self, addr, value):
        region = self._find_region(addr)
        if region is not None:
            self.write_u32(addr, value & 0xFFFFFFFF)
            self.write_u32(addr + 4, (value >> 32) & 0xFFFFFFFF)
            return
        self.memory.write_u64(addr, value)

    def read_u8(self, addr):
        region = self._find_region(addr)
        if region is not None:
            word = self.read_u32(addr & ~3)
            return (word >> ((addr & 3) * 8)) & 0xFF
        return self.memory.read_u8(addr)

    def write_u8(self, addr, value):
        region = self._find_region(addr)
        if region is not None:
            raise BusError(f"byte MMIO writes unsupported at 0x{addr:x}")
        self.memory.write_u8(addr, value)

    # -- bulk access (memory only) -------------------------------------------

    def read_block(self, addr, length):
        return self.memory.read_block(addr, length)

    def write_block(self, addr, data):
        self.memory.write_block(addr, data)
