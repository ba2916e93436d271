"""Sparse physical memory.

The simulated platform has a single physical address space shared by the CPU
and the GPU (the paper's "shared main memory tightly couples the GPU and CPU
memory systems"). Memory is allocated lazily in 4 KiB pages so multi-GiB
guest address spaces cost only what is touched.

All accessors take *physical* addresses; virtual addressing is layered on
top by the CPU and GPU MMUs (:mod:`repro.mem.pagetable`).

Named **carve-outs** (:meth:`PhysicalMemory.register_carveout`) delimit
non-overlapping physical windows — one per tenant in the multi-tenant
driver — and support accounting (:meth:`carveout_allocated_pages`) and a
content digest (:meth:`carveout_digest`) over the window, which is how
the isolation tests prove one tenant's faults never perturbed another
tenant's memory image.
"""

import hashlib
import struct

import numpy as np

from repro.errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class PhysicalMemory:
    """Lazily-allocated paged physical memory.

    Pages are ``bytearray`` objects created on first touch. Bulk transfers
    (:meth:`write_block`, :meth:`read_block`, :meth:`copy`, :meth:`fill`)
    operate page-by-page and are the backing for host staging, the DBT's
    summarised copy and fill loops and GPU vector accesses.

    Args:
        size: total physical memory size in bytes. Accesses beyond this
            raise :class:`~repro.errors.MemoryError_`.
    """

    def __init__(self, size=1 << 32):
        if size <= 0 or size & _PAGE_MASK:
            raise ValueError(f"memory size must be a positive multiple of {PAGE_SIZE}")
        self.size = size
        self._pages = {}
        #: ``backed_page(index)`` is page *index*'s ``bytearray`` (4 KiB,
        #: guest-little-endian, shared with every other accessor) or None
        #: while nothing has touched it; it never allocates. It is the
        #: page table's own ``get`` and the table is never replaced
        #: (:meth:`load_pages` refills it), so a client may keep it.
        self.backed_page = self._pages.get
        self._views = {}  # page index -> np.uint32 view sharing the bytearray
        self._carveouts = {}  # name -> (base, size), non-overlapping

    # -- page management ----------------------------------------------------

    def _page(self, addr):
        """Return (page bytearray, offset) for *addr*, allocating the page."""
        if not 0 <= addr < self.size:
            raise MemoryError_(f"physical access out of range: 0x{addr:x}")
        index = addr >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page, addr & _PAGE_MASK

    def page_u32_view(self, index):
        """Writable ``np.uint32`` view of page *index*, allocating it.

        Views share storage with the page ``bytearray``, so byte-level and
        vector accessors stay coherent. Pages are never reallocated, so the
        views are cached for the lifetime of the memory.
        """
        view = self._views.get(index)
        if view is None:
            page, _ = self._page(index << PAGE_SHIFT)
            view = np.frombuffer(page, dtype=np.uint32)
            self._views[index] = view
        return view

    @property
    def allocated_pages(self):
        """Number of physical pages actually backed by host memory."""
        return len(self._pages)

    # -- checkpoint image ----------------------------------------------------

    def dump_pages(self):
        """Every backed page, as the chunks of one blob (integers u64
        little-endian; the caller joins them, once, with whatever else
        shares its file)::

            page_count, then page_count x (page_index, 4096 raw bytes)

        All-zero backed pages are included, so a reload reproduces
        ``allocated_pages`` (and every carve-out digest, which walks
        backed pages) exactly.
        """
        chunks = [_U64.pack(len(self._pages))]
        for index in sorted(self._pages):
            chunks.append(_U64.pack(index))
            chunks.append(self._pages[index])
        return chunks

    def load_pages(self, blob):
        """Replace the whole memory image with the :meth:`dump_pages`
        blob at the head of *blob*; returns the bytes consumed. Raises
        ``ValueError``, nothing replaced, when *blob* is too short."""
        record = _U64.size + PAGE_SIZE
        end = _U64.size + int.from_bytes(blob[:_U64.size], "little") * record
        if len(blob) < end:
            raise ValueError("truncated page payload")
        pages = {
            _U64.unpack_from(blob, pos)[0]:
                bytearray(blob[pos + _U64.size:pos + record])
            for pos in range(_U64.size, end, record)}
        # in place: backed_page is bound to this very dict
        self._pages.clear()
        self._pages.update(pages)
        self._views.clear()
        return end

    # -- carve-out accounting ------------------------------------------------

    def register_carveout(self, name, base, size):
        """Register a named, page-aligned physical window.

        Carve-outs must not overlap each other; re-registering the same
        name with the same extent is a no-op (the driver re-registers on
        re-initialization). The window is purely an accounting overlay —
        accessors are unaffected.
        """
        if base & _PAGE_MASK or size & _PAGE_MASK or size <= 0:
            raise ValueError(
                f"carveout {name!r} must be page-aligned and non-empty")
        if base < 0 or base + size > self.size:
            raise ValueError(f"carveout {name!r} outside physical memory")
        existing = self._carveouts.get(name)
        if existing is not None:
            if existing != (base, size):
                raise ValueError(
                    f"carveout {name!r} re-registered with a different "
                    f"extent")
            return
        for other, (obase, osize) in self._carveouts.items():
            if base < obase + osize and obase < base + size:
                raise ValueError(
                    f"carveout {name!r} overlaps {other!r}")
        self._carveouts[name] = (base, size)

    def carveout(self, name):
        """Return the ``(base, size)`` of a registered carve-out."""
        return self._carveouts[name]

    @property
    def carveout_names(self):
        return sorted(self._carveouts)

    def _carveout_page_range(self, name):
        base, size = self._carveouts[name]
        return base >> PAGE_SHIFT, (base + size) >> PAGE_SHIFT

    def carveout_allocated_pages(self, name):
        """Backed pages inside carve-out *name*."""
        first, last = self._carveout_page_range(name)
        return sum(1 for index in self._pages if first <= index < last)

    def carveout_digest(self, name):
        """sha256 over the carve-out's logical content.

        Hashes ``(page index, page bytes)`` for every backed page with
        any nonzero byte, in page order. All-zero backed pages hash the
        same as untouched ones — sparse allocation is an implementation
        detail, the *logical* image is what isolation compares.
        """
        first, last = self._carveout_page_range(name)
        digest = hashlib.sha256()
        for index in sorted(self._pages):
            if not first <= index < last:
                continue
            page = self._pages[index]
            if not any(page):
                continue
            digest.update(index.to_bytes(8, "little"))
            digest.update(page)
        return digest.hexdigest()

    # -- scalar accessors ---------------------------------------------------

    def read_u8(self, addr):
        page, off = self._page(addr)
        return page[off]

    def write_u8(self, addr, value):
        page, off = self._page(addr)
        page[off] = value & 0xFF

    def read_u32(self, addr):
        page, off = self._page(addr)
        if off <= PAGE_SIZE - 4:
            return _U32.unpack_from(page, off)[0]
        return int.from_bytes(self.read_block(addr, 4), "little")

    def write_u32(self, addr, value):
        page, off = self._page(addr)
        if off <= PAGE_SIZE - 4:
            _U32.pack_into(page, off, value & 0xFFFFFFFF)
        else:
            self.write_block(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u64(self, addr):
        page, off = self._page(addr)
        if off <= PAGE_SIZE - 8:
            return _U64.unpack_from(page, off)[0]
        return int.from_bytes(self.read_block(addr, 8), "little")

    def write_u64(self, addr, value):
        page, off = self._page(addr)
        if off <= PAGE_SIZE - 8:
            _U64.pack_into(page, off, value & 0xFFFFFFFFFFFFFFFF)
        else:
            self.write_block(addr, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    # -- bulk accessors -----------------------------------------------------

    def read_block(self, addr, length):
        """Read *length* bytes starting at *addr* as ``bytes``."""
        out = bytearray(length)
        pos = 0
        while pos < length:
            page, off = self._page(addr + pos)
            chunk = min(length - pos, PAGE_SIZE - off)
            out[pos:pos + chunk] = page[off:off + chunk]
            pos += chunk
        return bytes(out)

    def write_block(self, addr, data):
        """Write the buffer *data* starting at physical address *addr*."""
        data = memoryview(data).cast("B")
        length = len(data)
        pos = 0
        while pos < length:
            page, off = self._page(addr + pos)
            chunk = min(length - pos, PAGE_SIZE - off)
            page[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    def read_array(self, addr, count, dtype=np.uint32):
        """Read *count* elements of *dtype* starting at *addr*."""
        raw = self.read_block(addr, count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def write_array(self, addr, array):
        """Write a NumPy array's bytes starting at *addr*."""
        self.write_block(addr, np.ascontiguousarray(array).tobytes())

    # -- vector accessors (the GPU quad fast path) --------------------------

    def gather_u32(self, addrs):
        """Read one u32 per physical address in *addrs* (quad gather).

        When every address is 4-byte aligned and all land in the same page
        — the common case for a coalesced GPU quad — the whole gather is a
        single NumPy fancy-index on the page's u32 view. Stragglers
        (cross-page or unaligned) fall back to scalar :meth:`read_u32` per
        element, which keeps page-straddling words bit-exact.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        count = len(addrs)
        if count == 0:
            return np.empty(0, dtype=np.uint32)
        first = int(addrs[0])
        page_index = first >> PAGE_SHIFT
        if ((addrs >> PAGE_SHIFT) == page_index).all() and not (addrs & 3).any():
            if not 0 <= first < self.size:
                raise MemoryError_(f"physical access out of range: 0x{first:x}")
            view = self.page_u32_view(page_index)
            return view[(addrs & _PAGE_MASK) >> 2]
        out = np.empty(count, dtype=np.uint32)
        for position in range(count):
            out[position] = self.read_u32(int(addrs[position]))
        return out

    def scatter_u32(self, addrs, values, mask=None):
        """Write one u32 per physical address in *addrs* (quad scatter).

        *mask*, when given, suppresses inactive elements. Duplicate
        addresses resolve in element order (the last element wins), which
        matches the scalar lane-ordered store loop. Same-page aligned
        scatters are one NumPy fancy-index store; stragglers fall back to
        scalar :meth:`write_u32`.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint32)
        if mask is not None:
            addrs = addrs[mask]
            values = values[mask]
        count = len(addrs)
        if count == 0:
            return
        first = int(addrs[0])
        page_index = first >> PAGE_SHIFT
        if ((addrs >> PAGE_SHIFT) == page_index).all() and not (addrs & 3).any():
            if not 0 <= first < self.size:
                raise MemoryError_(f"physical access out of range: 0x{first:x}")
            view = self.page_u32_view(page_index)
            view[(addrs & _PAGE_MASK) >> 2] = values
            return
        for position in range(count):
            self.write_u32(int(addrs[position]), int(values[position]))

    def _span_pages(self, addr, length):
        """The pages under ``[addr, addr + length)`` in address order,
        allocated; nothing is touched unless all of it is in range. The
        block transfers below make no call per page they walk."""
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(
                f"physical access out of range: 0x{addr:x}+{length}")
        pages = self._pages
        indices = range(addr >> PAGE_SHIFT,
                        ((addr + length - 1) >> PAGE_SHIFT) + 1)
        for index in indices:
            if index not in pages:
                pages[index] = bytearray(PAGE_SIZE)
        return [pages[index] for index in indices]

    def fill(self, addr, length, value=0, width=1):
        """Set *length* bytes from *addr* to the *width*-byte
        little-endian *value*, repeated (one byte by default)."""
        pattern = (value & ((1 << 8 * width) - 1)).to_bytes(
            width, "little") * (PAGE_SIZE // width + 1)
        pos = 0
        for page in self._span_pages(addr, length):
            off = (addr + pos) & _PAGE_MASK
            chunk = PAGE_SIZE - off
            if chunk > length - pos:
                chunk = length - pos
            phase = pos % width
            page[off:off + chunk] = pattern[phase:phase + chunk]
            pos += chunk

    def copy(self, dst, src, length):
        """Copy *length* bytes from *src* to *dst*, page by page; the two
        ranges must not overlap."""
        sources = self._span_pages(src, length)
        targets = self._span_pages(dst, length)
        pos = 0
        while pos < length:
            s_off = (src + pos) & _PAGE_MASK
            d_off = (dst + pos) & _PAGE_MASK
            chunk = PAGE_SIZE - (s_off if s_off > d_off else d_off)
            if chunk > length - pos:
                chunk = length - pos
            target = targets[((dst & _PAGE_MASK) + pos) >> PAGE_SHIFT]
            source = sources[((src & _PAGE_MASK) + pos) >> PAGE_SHIFT]
            target[d_off:d_off + chunk] = source[s_off:s_off + chunk]
            pos += chunk
