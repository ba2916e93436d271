"""AArch64-LPAE-like page tables shared by the CPU and GPU MMUs.

The paper's Bifrost GPU "features a built-in MMU supporting AArch64 and LPAE
address modes"; the vendor driver hands the GPU page-table pointers into the
same physical memory the CPU uses. We model a 3-level table with 4 KiB pages
and 512-entry levels (9 bits per level, 39-bit VA space — the Linux default
for 4K pages on arm64 with 3 levels).

Entry format (64-bit little-endian words in physical memory):

====== =====================================================
bits    meaning
====== =====================================================
0       valid
1       readable
2       writable
3       executable
12+     physical page number (address of next level or page)
====== =====================================================

Both the :class:`PageTableBuilder` (driver side — writes entries) and the
:class:`PageTableWalker` (MMU side — reads entries) operate on *physical
memory*, so tables built by the driver are literally walked by the GPU,
as on real hardware.
"""

from repro.errors import MMUFault
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE
from repro.state import Stateful

PTE_VALID = 1 << 0
PTE_READ = 1 << 1
PTE_WRITE = 1 << 2
PTE_EXEC = 1 << 3

_LEVEL_BITS = 9
_LEVEL_ENTRIES = 1 << _LEVEL_BITS
_LEVELS = 3
VA_BITS = PAGE_SHIFT + _LEVELS * _LEVEL_BITS  # 39
_ADDR_MASK = ~0xFFF & ((1 << 52) - 1)


def _index(vaddr, level):
    """Table index of *vaddr* at *level* (0 = root)."""
    shift = PAGE_SHIFT + (_LEVELS - 1 - level) * _LEVEL_BITS
    return (vaddr >> shift) & (_LEVEL_ENTRIES - 1)


class PageTableBuilder(Stateful):
    """Driver-side page-table construction.

    Allocates table pages from a physical-frame allocator callback and
    writes entries directly into simulated physical memory.

    Args:
        memory: the :class:`~repro.mem.physical.PhysicalMemory`.
        alloc_frame: zero-argument callable returning the physical address
            of a fresh, zeroed 4 KiB frame for intermediate tables.
    """

    # the tables themselves live in physical memory
    STATE_FIELDS = ("root", "_table_frames")

    def __init__(self, memory, alloc_frame):
        self._memory = memory
        self._alloc_frame = alloc_frame
        self.root = alloc_frame()
        self._table_frames = [self.root]

    def map_page(self, vaddr, paddr, flags=PTE_READ | PTE_WRITE):
        """Map the 4 KiB virtual page containing *vaddr* to *paddr*."""
        if vaddr >> VA_BITS:
            raise MMUFault(vaddr, "w", f"VA 0x{vaddr:x} exceeds {VA_BITS}-bit space")
        if paddr & (PAGE_SIZE - 1):
            raise ValueError(f"unaligned physical page 0x{paddr:x}")
        table = self.root
        for level in range(_LEVELS - 1):
            entry_addr = table + 8 * _index(vaddr, level)
            entry = self._memory.read_u64(entry_addr)
            if not entry & PTE_VALID:
                frame = self._alloc_frame()
                self._table_frames.append(frame)
                entry = (frame & _ADDR_MASK) | PTE_VALID
                self._memory.write_u64(entry_addr, entry)
            table = entry & _ADDR_MASK
        leaf_addr = table + 8 * _index(vaddr, _LEVELS - 1)
        self._memory.write_u64(leaf_addr, (paddr & _ADDR_MASK) | flags | PTE_VALID)

    def map_range(self, vaddr, paddr, length, flags=PTE_READ | PTE_WRITE):
        """Map a contiguous virtual range onto a contiguous physical range."""
        offset = 0
        while offset < length:
            self.map_page(vaddr + offset, paddr + offset, flags)
            offset += PAGE_SIZE

    def unmap_page(self, vaddr):
        """Invalidate the leaf entry for *vaddr* (no-op if unmapped)."""
        table = self.root
        for level in range(_LEVELS - 1):
            entry = self._memory.read_u64(table + 8 * _index(vaddr, level))
            if not entry & PTE_VALID:
                return
            table = entry & _ADDR_MASK
        self._memory.write_u64(table + 8 * _index(vaddr, _LEVELS - 1), 0)


class PageTableWalker:
    """MMU-side table walk with a software TLB.

    The TLB caches (virtual page -> (physical page, flags)); it must be
    flushed (:meth:`flush_tlb`) when the driver changes mappings, exactly as
    a real driver issues TLB invalidations.
    """

    def __init__(self, memory, root):
        self._memory = memory
        self.root = root
        self._tlb = {}
        self.walks = 0
        self.tlb_hits = 0

    def flush_tlb(self):
        self._tlb.clear()

    def lookup_page(self, vaddr):
        """Resolve the page containing *vaddr* without permission checks.

        Returns ``(physical page base, PTE flags)`` or ``None`` when the
        page is unmapped (no exception — callers that need fault semantics
        use :meth:`translate`). Successful lookups populate the TLB.
        """
        vpage = vaddr >> PAGE_SHIFT
        cached = self._tlb.get(vpage)
        if cached is not None:
            self.tlb_hits += 1
            return cached
        if vaddr >> VA_BITS:
            return None
        self.walks += 1
        table = self.root
        for level in range(_LEVELS - 1):
            entry = self._memory.read_u64(table + 8 * _index(vaddr, level))
            if not entry & PTE_VALID:
                return None
            table = entry & _ADDR_MASK
        entry = self._memory.read_u64(table + 8 * _index(vaddr, _LEVELS - 1))
        if not entry & PTE_VALID:
            return None
        cached = (entry & _ADDR_MASK, entry & 0xFFF)
        self._tlb[vpage] = cached
        return cached

    def translate(self, vaddr, access="r"):
        """Translate *vaddr*; returns the physical address.

        Raises:
            MMUFault: if the page is unmapped or *access* ('r'/'w'/'x')
                is not permitted.
        """
        cached = self.lookup_page(vaddr)
        if cached is None:
            raise MMUFault(vaddr, access)
        ppage, flags = cached
        self._check(vaddr, access, flags)
        return ppage | (vaddr & (PAGE_SIZE - 1))

    @staticmethod
    def _check(vaddr, access, flags):
        required = {"r": PTE_READ, "w": PTE_WRITE, "x": PTE_EXEC}[access]
        if not flags & required:
            raise MMUFault(vaddr, access, f"permission denied at 0x{vaddr:x} ({access})")
