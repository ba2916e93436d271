"""Fast memory path: gather/scatter, software TLB, bit-exactness.

The vector tiers (the GPUMMU software TLB and page-view cache behind
load_quad_u32/store_quad_u32 and the workgroup-wide port, the per-lane
replay of what they refuse, and the interpreter's quad LD/ST) must be
observationally identical to the scalar reference path: same register
files, same JobStats, same pages-accessed set, same divergence CFG, and
the exact same faults. These tests pin that contract at every layer,
PhysicalMemory.gather_u32/scatter_u32 included.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.errors import MMUFault
from repro.gpu.device import GPUConfig
from repro.gpu.mmu import GPUMMU, replay_load, replay_store
from repro.kernels import get_workload
from repro.mem import (
    PAGE_SIZE,
    PTE_READ,
    PTE_WRITE,
    PageTableBuilder,
    PhysicalMemory,
)

VA = 0x4000_0000
PA = 0x0020_0000


# -- physical-memory gather/scatter ------------------------------------------


class TestGatherScatter:
    def _filled(self):
        mem = PhysicalMemory(1 << 20)
        rng = np.random.default_rng(3)
        words = rng.integers(0, 1 << 32, 4 * PAGE_SIZE // 4,
                             dtype=np.uint64).astype(np.uint32)
        mem.write_block(0, words.tobytes())
        return mem, words

    def test_gather_same_page_matches_scalar(self):
        mem, _ = self._filled()
        addrs = [16, 20, 24, 28]
        expected = [mem.read_u32(a) for a in addrs]
        np.testing.assert_array_equal(mem.gather_u32(addrs), expected)

    def test_gather_lanes_split_across_two_pages(self):
        mem, _ = self._filled()
        addrs = [PAGE_SIZE - 8, PAGE_SIZE - 4, PAGE_SIZE, PAGE_SIZE + 4]
        expected = [mem.read_u32(a) for a in addrs]
        np.testing.assert_array_equal(mem.gather_u32(addrs), expected)

    def test_gather_unaligned_and_straddling(self):
        mem, _ = self._filled()
        # PAGE_SIZE - 2 straddles the page boundary itself
        addrs = [2, 10, PAGE_SIZE - 2, PAGE_SIZE + 6]
        expected = [mem.read_u32(a) for a in addrs]
        np.testing.assert_array_equal(mem.gather_u32(addrs), expected)

    def test_scatter_same_page_and_cross_page(self):
        mem = PhysicalMemory(1 << 20)
        values = np.array([1, 2, 3, 4], dtype=np.uint32)
        mem.scatter_u32([8, 12, 16, 20], values)
        assert [mem.read_u32(a) for a in (8, 12, 16, 20)] == [1, 2, 3, 4]
        split = [PAGE_SIZE - 4, PAGE_SIZE, PAGE_SIZE + 4, PAGE_SIZE + 8]
        mem.scatter_u32(split, values + 10)
        assert [mem.read_u32(a) for a in split] == [11, 12, 13, 14]

    def test_scatter_mask_and_duplicate_lane_order(self):
        mem = PhysicalMemory(1 << 20)
        mem.scatter_u32([0, 4, 8, 12], np.arange(1, 5, dtype=np.uint32),
                        mask=np.array([True, False, True, False]))
        assert [mem.read_u32(a) for a in (0, 4, 8, 12)] == [1, 0, 3, 0]
        # duplicate addresses: the highest lane wins, as in lane-order
        # scalar stores
        mem.scatter_u32([16, 16, 16, 20], np.arange(5, 9, dtype=np.uint32))
        assert mem.read_u32(16) == 7
        assert mem.read_u32(20) == 8

    def test_word_write_at_page_size_minus_two(self):
        mem = PhysicalMemory(1 << 20)
        mem.write_u32(PAGE_SIZE - 2, 0xAABBCCDD)
        assert mem.read_u32(PAGE_SIZE - 2) == 0xAABBCCDD
        # the two halves landed on the two adjacent pages
        assert mem.read_block(PAGE_SIZE - 2, 2) == b"\xdd\xcc"
        assert mem.read_block(PAGE_SIZE, 2) == b"\xbb\xaa"

    def test_u64_straddling_page_boundary(self):
        mem = PhysicalMemory(1 << 20)
        mem.write_u64(PAGE_SIZE - 2, 0x1122334455667788)
        assert mem.read_u64(PAGE_SIZE - 2) == 0x1122334455667788
        assert mem.read_u32(PAGE_SIZE - 2) == 0x55667788

    def test_page_view_shares_storage_with_byte_accessors(self):
        mem = PhysicalMemory(1 << 20)
        view = mem.page_u32_view(1)
        mem.write_u32(PAGE_SIZE + 8, 0x1234)
        assert view[2] == 0x1234
        view[3] = 0x5678
        assert mem.read_u32(PAGE_SIZE + 12) == 0x5678


# -- GPU MMU quad translation -------------------------------------------------


def _mmu(npages=4, flags=PTE_READ | PTE_WRITE):
    mem = PhysicalMemory(1 << 22)
    next_frame = [0x0010_0000]

    def alloc():
        frame = next_frame[0]
        next_frame[0] += PAGE_SIZE
        return frame

    builder = PageTableBuilder(mem, alloc)
    for i in range(npages):
        # deliberately map adjacent VA pages to *non*-adjacent frames so
        # cross-page quads cannot accidentally pass on physical adjacency
        builder.map_page(VA + i * PAGE_SIZE, PA + 2 * i * PAGE_SIZE,
                         flags=flags)
    mmu = GPUMMU(mem)
    mmu.set_page_table(builder.root)
    mmu.enabled = True
    return mem, builder, mmu


class TestQuadTranslation:
    def test_load_quad_matches_scalar_load(self):
        mem, _b, mmu = _mmu()
        for i in range(8):
            mem.write_u32(PA + i * 4, 100 + i)
            mem.write_u32(PA + 2 * PAGE_SIZE + i * 4, 200 + i)
        addrs = [VA + 4, VA + 8, VA + PAGE_SIZE + 4, VA + 16]
        quad = mmu.load_quad_u32(addrs)
        scalar = [mmu.load_u32(a) for a in addrs]
        np.testing.assert_array_equal(quad, scalar)

    def test_quad_stats_identical_to_scalar(self):
        addrs = [VA + 4, VA + 8, VA + PAGE_SIZE + 4, VA + 16]
        _m, _b, quad_mmu = _mmu()
        assert quad_mmu.load_quad_u32(addrs) is not None
        _m, _b, scalar_mmu = _mmu()
        for a in addrs:
            scalar_mmu.load_u32(a)
        assert quad_mmu.translations == scalar_mmu.translations == 4
        assert quad_mmu.pages_accessed == scalar_mmu.pages_accessed

    def test_faulting_lane_records_nothing(self):
        _m, _b, mmu = _mmu(npages=1)
        addrs = [VA + 4, VA + 8, VA + PAGE_SIZE + 4, VA + 16]
        assert mmu.load_quad_u32(addrs) is None
        assert mmu.store_quad_u32(addrs, np.arange(4, dtype=np.uint32)) \
            is None
        assert mmu.translations == 0
        assert mmu.pages_accessed == set()
        # the scalar replay then reproduces the exact fault
        with pytest.raises(MMUFault) as info:
            for a in addrs:
                mmu.translate(a, "r")
        assert info.value.vaddr == VA + PAGE_SIZE + 4

    def test_permission_failure_falls_back(self):
        mem, _b, mmu = _mmu(flags=PTE_READ)
        addrs = [VA, VA + 4, VA + 8, VA + 12]
        assert mmu.load_quad_u32(addrs) is not None
        before = mem.read_u32(PA)
        values = np.arange(4, dtype=np.uint32) + 7
        assert mmu.store_quad_u32(addrs, values) is None
        assert mem.read_u32(PA) == before

    def test_quad_load_lanes_split_across_pages(self):
        mem, _b, mmu = _mmu()
        for i in range(8):
            mem.write_u32(PA + i * 4, 100 + i)
            mem.write_u32(PA + 2 * PAGE_SIZE + i * 4, 200 + i)
        addrs = [VA + PAGE_SIZE - 8, VA + PAGE_SIZE - 4,
                 VA + PAGE_SIZE, VA + PAGE_SIZE + 4]
        values = mmu.load_quad_u32(addrs)
        expected = [mmu.load_u32(a) for a in addrs]
        np.testing.assert_array_equal(values, expected)

    def test_quad_store_then_scalar_read(self):
        mem, _b, mmu = _mmu()
        addrs = [VA + 16, VA + 20, VA + PAGE_SIZE + 8, VA + 24]
        values = np.array([5, 6, 7, 8], dtype=np.uint32)
        assert mmu.store_quad_u32(addrs, values) is True
        assert [mmu.load_u32(a) for a in addrs] == [5, 6, 7, 8]

    def test_unmap_requires_flush_for_quad_path_too(self):
        _m, builder, mmu = _mmu()
        addrs = [VA, VA + 4, VA + 8, VA + 12]
        assert mmu.load_quad_u32(addrs) is not None
        builder.unmap_page(VA)
        # stale TLB and view cache still answer, as on real hardware...
        assert mmu.load_quad_u32(addrs) is not None
        mmu.flush_tlb()
        # ...until the driver invalidates
        assert mmu.load_quad_u32(addrs) is None

    def test_ablation_knob_forces_scalar(self):
        _m, _b, mmu = _mmu()
        addrs = [VA, VA + 4, VA + 8, VA + 12]
        mmu.fast_path_enabled = False
        assert mmu.load_quad_u32(addrs) is None
        assert mmu.store_quad_u32(addrs, np.arange(4, dtype=np.uint32)) \
            is None
        mmu.fast_path_enabled = True
        assert mmu.load_quad_u32(addrs) is not None

    def test_load_block_spanning_unmapped_page_faults(self):
        _m, _b, mmu = _mmu(npages=1)
        assert len(mmu.load_block(VA, 16)) == 16
        with pytest.raises(MMUFault) as info:
            mmu.load_block(VA + PAGE_SIZE - 8, 16)
        assert info.value.vaddr == VA + PAGE_SIZE


# -- workgroup-wide port: the one-page tier against the general tier ----------


class _Armed:
    """Injector stub: *pages* are armed, nothing ever fires here."""

    def __init__(self, *pages):
        self.pages = set(pages)

    def armed(self, site, key):
        return key in self.pages

    def fire_page(self, key):
        raise AssertionError("the wide port must not reach _miss")


@contextlib.contextmanager
def _tier(general):
    """Pin the wide port to one tier: the general one by making the
    one-page test unpassable (every bit of a lane's offset counts as
    outside the word-offset field), the one-page one by taking
    ``np.unique`` — the general tier's first step — away."""
    from repro.gpu import mmu as mmu_module

    def no_unique(_values):
        raise AssertionError("the one-page tier must serve this access")

    with pytest.MonkeyPatch.context() as patch:
        if general:
            patch.setattr(mmu_module, "_NOT_WORD_IN_PAGE", -1)
        else:
            patch.setattr(np, "unique", no_unique)
        yield


def _wide_counters(mmu):
    return (mmu.translations, sorted(mmu.pages_accessed), mmu.wide_accesses,
            mmu.wide_fallbacks, mmu.quad_accesses)


_ONE_PAGE_SHAPES = {
    "broadcast": np.full(64, VA + 40, dtype=np.int64),
    "contiguous": VA + 256 + 4 * np.arange(64, dtype=np.int64),
    "reversed": VA + 256 + 4 * np.arange(63, -1, -1, dtype=np.int64),
    "one-lane": np.array([VA + PAGE_SIZE - 4], dtype=np.int64),
    "duplicates": VA + 4 * (np.arange(64, dtype=np.int64) % 5),
}


class TestWideOnePageTier:
    @pytest.mark.parametrize("shape", sorted(_ONE_PAGE_SHAPES))
    def test_same_values_and_counters_as_the_general_tier(self, shape):
        vaddrs = _ONE_PAGE_SHAPES[shape]
        values = np.arange(len(vaddrs), dtype=np.uint32) + 1000
        outcomes = []
        for general in (False, True):
            mem, _b, mmu = _mmu()
            for word in range(PAGE_SIZE // 4):
                mem.write_u32(PA + 4 * word, word)
            with _tier(general):
                loaded = mmu.load_wide_u32(vaddrs)
                assert mmu.store_wide_u32(vaddrs, values) is True
                after = mmu.load_wide_u32(vaddrs)
            outcomes.append((loaded.tolist(), after.tolist(),
                             mem.read_block(PA, PAGE_SIZE),
                             _wide_counters(mmu)))
            # the scalar reference reads the same words
            assert loaded.tolist() == [((a - VA) >> 2) for a in
                                       vaddrs.tolist()]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3][0] == 3 * len(vaddrs)
        if shape == "duplicates":  # last lane wins, as lane by lane
            assert outcomes[0][1][:5] == [1060, 1061, 1062, 1063, 1059]

    def test_page_straddle_takes_the_general_tier(self):
        vaddrs = VA + PAGE_SIZE - 16 + 4 * np.arange(8, dtype=np.int64)
        mem, _b, mmu = _mmu()
        for lane, vaddr in enumerate(vaddrs.tolist()):
            page, offset = divmod(vaddr - VA, PAGE_SIZE)
            mem.write_u32(PA + 2 * page * PAGE_SIZE + offset, 500 + lane)
        with pytest.raises(AssertionError, match="one-page tier"), \
                _tier(general=False):
            mmu.load_wide_u32(vaddrs)
        assert _wide_counters(mmu) == (0, [], 0, 0, 0)
        assert mmu.load_wide_u32(vaddrs).tolist() == list(range(500, 508))
        assert _wide_counters(mmu)[:4] == (8, [VA >> 12, (VA >> 12) + 1],
                                           1, 0)

    @pytest.mark.parametrize("refusal", [
        "armed", "unmapped", "read-only-store", "unaligned-lane"])
    def test_refusals_record_nothing(self, refusal):
        vaddrs = VA + PAGE_SIZE + 4 * np.arange(16, dtype=np.int64)
        if refusal == "unaligned-lane":
            vaddrs[7] += 2  # lane 0 stays aligned
        values = np.arange(16, dtype=np.uint32)
        grown = []
        outcomes = []
        for general in (False, True):
            mem, _b, mmu = _mmu(
                npages=1 if refusal == "unmapped" else 4,
                flags=PTE_READ if refusal == "read-only-store"
                else PTE_READ | PTE_WRITE)
            mmu.set_fault_handler(lambda va, access: grown.append(va))
            if refusal == "armed":
                mmu.set_injector(_Armed((VA + PAGE_SIZE) >> 12))
            # the one-page tier refuses first; what it hands on is then
            # refused by the general tier, which records the fallback
            with _tier(general) if general else contextlib.nullcontext():
                if refusal != "read-only-store":
                    assert mmu.load_wide_u32(vaddrs) is None
                assert mmu.store_wide_u32(vaddrs, values) is None
            outcomes.append(_wide_counters(mmu))
            assert mem.read_block(PA + 2 * PAGE_SIZE, 64) == bytes(64)
        assert outcomes[0] == outcomes[1]
        translations, pages, accesses, fallbacks, _quads = outcomes[0]
        assert (translations, pages, accesses) == (0, [], 0)
        assert fallbacks == (1 if refusal == "read-only-store" else 2)
        assert not grown  # growth belongs to the scalar replay

    def test_empty_vector_is_served_empty(self):
        _mem, _b, mmu = _mmu()
        empty = np.zeros(0, dtype=np.int64)
        loaded = mmu.load_wide_u32(empty)
        assert loaded.dtype == np.uint32 and loaded.shape == (0,)
        assert mmu.store_wide_u32(empty, np.zeros(0, np.uint32)) is True
        assert _wide_counters(mmu) == (0, [], 2, 0, 0)

    def test_ablation_knob_still_forces_the_replay(self):
        _mem, _b, mmu = _mmu()
        mmu.fast_path_enabled = False
        assert mmu.load_wide_u32(_ONE_PAGE_SHAPES["contiguous"]) is None
        assert _wide_counters(mmu) == (0, [], 0, 1, 0)


# -- uint32 lane rows, as the megakernel hands them over ----------------------


def _mapped_mmu(*vpages):
    """A GPU MMU over the virtual pages *vpages*, each on a frame of its
    own, every word holding its own address >> 2 (mod 2^32)."""
    mem = PhysicalMemory(1 << 22)
    frames = iter(range(0x0010_0000, PA, PAGE_SIZE))
    builder = PageTableBuilder(mem, lambda: next(frames))
    for n, vpage in enumerate(vpages):
        frame = PA + 2 * n * PAGE_SIZE
        builder.map_page(vpage * PAGE_SIZE, frame, flags=PTE_READ | PTE_WRITE)
        words = (vpage << 10) + np.arange(PAGE_SIZE // 4, dtype=np.uint64)
        mem.write_block(frame, words.astype(np.uint32).tobytes())
    mmu = GPUMMU(mem)
    mmu.set_page_table(builder.root)
    mmu.enabled = True
    return mmu


_PAGES = (VA >> 12, (VA >> 12) + 1)


def _scalar_counters(vaddrs):
    """Words, translations and pages of *vaddrs* read lane by lane."""
    mmu = _mapped_mmu(*_PAGES)
    words = [mmu.load_u32(int(vaddr)) for vaddr in vaddrs]
    return words, mmu.translations, sorted(mmu.pages_accessed)


class TestWideUint32Lanes:
    def test_a_lane_below_lane_0_s_page_wraps_high(self):
        """Lane 0 on the second page, the rest on the first: the one-page
        test fails on the wrapped offsets, and the general tier serves
        every lane with the scalar path's counters."""
        vaddrs = (VA + 4096 + 4 * np.array([0, 1, -1, -2, -1024, 2])
                  ).astype(np.uint32)
        mmu = _mapped_mmu(*_PAGES)
        loaded = mmu.load_wide_u32(vaddrs)
        assert (loaded.tolist(), mmu.translations,
                sorted(mmu.pages_accessed)) == _scalar_counters(vaddrs)
        assert (mmu.wide_accesses, mmu.wide_fallbacks) == (1, 0)

    @pytest.mark.parametrize("lanes", [
        VA + 64 + 4 * np.arange(8),                  # one page
        VA + 4096 - 16 + 4 * np.arange(8)])          # two pages
    def test_a_gather_into_its_own_address_row(self, lanes):
        row = lanes.astype(np.uint32)
        expected = _scalar_counters(row)
        mmu = _mapped_mmu(*_PAGES)
        assert mmu.load_wide_u32(row, None, row) is row
        assert (row.tolist(), mmu.translations,
                sorted(mmu.pages_accessed)) == expected

    def test_an_unaligned_lane_writes_nothing_and_falls_back_once(self):
        vaddrs = (VA + 64 + 4 * np.arange(8)).astype(np.uint32)
        vaddrs[5] += 2
        mmu = _mapped_mmu(*_PAGES)
        out = np.full(8, 7, dtype=np.uint32)
        assert mmu.load_wide_u32(vaddrs, None, out) is None
        assert mmu.store_wide_u32(vaddrs, out) is None
        assert out.tolist() == [7] * 8
        assert (mmu.translations, mmu.pages_accessed, mmu.wide_accesses,
                mmu.wide_fallbacks) == (0, set(), 0, 2)

    @pytest.mark.parametrize("lanes", [
        np.full(4, 0xFFFF_FFFC),                     # every lane wraps
        0xFFFF_FFF0 + 4 * np.arange(4)])             # the high lanes do
    def test_an_element_past_2_32_is_left_to_the_scalar_path(self, lanes):
        """``row + 4`` of a uint32 row wraps past 2^32 onto page 0: mapped
        or not, the wide tier does not serve it."""
        mmu = _mapped_mmu(0, 0xF_FFFF, 0x10_0000)
        element = lanes.astype(np.uint32) + 4
        assert element.min() < 4096
        assert mmu.load_wide_u32(element) is None
        assert (mmu.translations, mmu.wide_fallbacks) == (0, 1)
        assert [mmu.load_u32(int(vaddr) + 4) for vaddr in lanes] \
            == [(int(vaddr) + 4) >> 2 for vaddr in lanes]


# -- quad port against the scalar reference (property) ----------------------


class _Injecting(_Armed):
    """Injector stub whose armed pages fault on the scalar path."""

    def fire_page(self, key):
        return {"kind": "translation"} if key in self.pages else None


#: virtual pages of :func:`_mixed_mmu`, by what a lane there meets
_RW, _RW_NEXT, _RO, _UNMAPPED, _ARMED = range(5)


def _mixed_mmu():
    """Pages ``_RW`` and ``_RW_NEXT`` read-write (adjacent virtual pages,
    non-adjacent frames), ``_RO`` read-only, ``_UNMAPPED`` unmapped,
    ``_ARMED`` read-write but armed for injection; every mapped frame
    holds distinct words."""
    mem, builder, mmu = _mmu(npages=2)
    builder.map_page(VA + _RO * PAGE_SIZE, PA + 2 * _RO * PAGE_SIZE,
                     flags=PTE_READ)
    builder.map_page(VA + _ARMED * PAGE_SIZE, PA + 2 * _ARMED * PAGE_SIZE,
                     flags=PTE_READ | PTE_WRITE)
    mmu.set_injector(_Injecting(VA // PAGE_SIZE + _ARMED))
    words = PAGE_SIZE // 4
    for page in (_RW, _RW_NEXT, _RO, _ARMED):
        mem.write_block(PA + 2 * page * PAGE_SIZE, (
            np.arange(words, dtype=np.uint32) + page * words).tobytes())
    return mem, mmu


# a few words at each end of a page, so lanes repeat and straddle pages
_WORDS = st.one_of(st.sampled_from([0, 1, 2, PAGE_SIZE // 4 - 2,
                                    PAGE_SIZE // 4 - 1]),
                   st.integers(0, PAGE_SIZE // 4 - 1))
# the two pages a quad's lanes are on: mostly the two read-write ones
_PAGE_PAIRS = st.sampled_from([
    (_RW, _RW_NEXT), (_RW_NEXT, _RW), (_RW, _RW_NEXT), (_RW, _RO),
    (_RO, _RW_NEXT), (_RW, _UNMAPPED), (_ARMED, _RW_NEXT), (_RO, _RO)])


@st.composite
def _quad_lanes(draw):
    """1-4 lane addresses on two pages: contiguous, broadcast, or drawn
    lane by lane (same-page, cross-page, duplicated); one lane in five
    quads off its word."""
    count = draw(st.integers(1, 4))
    pages = draw(_PAGE_PAIRS)
    address = st.builds(lambda page, word: VA + page * PAGE_SIZE + 4 * word,
                        st.sampled_from(pages), _WORDS)
    shape = draw(st.sampled_from(["contiguous", "broadcast", "lanes",
                                  "lanes"]))
    if shape == "contiguous":
        base = draw(address)
        lanes = [base + 4 * lane for lane in range(count)]
    elif shape == "broadcast":
        lanes = [draw(address)] * count
    else:
        lanes = draw(st.lists(address, min_size=count, max_size=count))
    if draw(st.integers(0, 4)) == 0:
        lanes[draw(st.integers(0, count - 1))] += draw(st.integers(1, 3))
    return lanes


def _counts(mmu):
    return (mmu.translations, sorted(mmu.pages_accessed),
            mmu.quad_accesses, mmu.quad_fallbacks)


def _lane_by_lane(mmu, lanes, values):
    """The scalar reference: ``(words loaded, fault)``."""
    loaded = []
    try:
        for lane, vaddr in enumerate(lanes):
            if values is None:
                loaded.append(mmu.load_u32(vaddr))
            else:
                mmu.store_u32(vaddr, int(values[lane]))
    except MMUFault as fault:
        return loaded, (fault.vaddr, fault.access)
    return loaded, None


def _through_the_port(mmu, lanes, values):
    """``load_quad_u32`` / ``store_quad_u32``, and the per-lane replay
    when it refuses: ``(words the replay loaded, fault, what the port
    served)``."""
    before = _counts(mmu)
    if values is None:
        got = mmu.load_quad_u32(lanes)
    else:
        got = mmu.store_quad_u32(lanes, values)
    translations, pages, accesses, fallbacks = before
    if got is not None:
        assert _counts(mmu)[2:] == (accesses + 1, fallbacks)
        return None, None, got
    # a refused call moves nothing but quad_fallbacks
    assert _counts(mmu) == (translations, pages, accesses, fallbacks + 1)
    row = np.zeros(len(lanes), dtype=np.uint32)
    try:
        if values is None:
            replay_load(mmu, lanes, None, row, 0)
        else:
            replay_store(mmu, lanes, None, values, 0)
    except MMUFault as fault:
        return row, (fault.vaddr, fault.access), None
    return row, None, None


class TestQuadPortProperty:
    @settings(max_examples=300, deadline=None)
    @given(lanes=_quad_lanes(), store=st.booleans())
    def test_port_or_replay_equals_lane_by_lane(self, lanes, store):
        values = None if not store else \
            np.arange(len(lanes), dtype=np.uint32) + 0xABC0
        ref_mem, ref_mmu = _mixed_mmu()
        want, want_fault = _lane_by_lane(ref_mmu, lanes, values)
        mem, mmu = _mixed_mmu()
        row, fault, served = _through_the_port(mmu, lanes, values)
        assert fault == want_fault
        if served is not None:
            assert want_fault is None  # the port serves no faulting quad
            if values is None:  # a broadcast is served as one word
                assert np.broadcast_to(served, len(lanes)).tolist() == want
        elif values is None:
            assert row[:len(want)].tolist() == want
        assert (mmu.translations, mmu.pages_accessed) == \
            (ref_mmu.translations, ref_mmu.pages_accessed)
        assert mem.read_block(PA, 2 * (_ARMED + 1) * PAGE_SIZE) == \
            ref_mem.read_block(PA, 2 * (_ARMED + 1) * PAGE_SIZE)

    def test_unaligned_lane_is_refused_and_replayed(self):
        """A quad of neither hot shape with an unaligned lane is refused
        (the scalar path defines sub-word semantics); the replay reads
        the words the per-lane loop reads, with its counts."""
        lanes = [VA + 8, VA + 2, VA + 16, VA + 40]
        mem, mmu = _mixed_mmu()
        assert mmu.load_quad_u32(lanes) is None
        assert _counts(mmu) == (0, [], 0, 1)
        row = np.zeros(4, dtype=np.uint32)
        replay_load(mmu, lanes, None, row, 0)
        assert row.tolist() == [mem.read_u32(PA + a - VA) for a in lanes]
        assert _counts(mmu) == (4, [VA >> 12], 0, 1)


# -- end-to-end differential: fast path vs scalar reference ------------------


DIVERGENT = """
__kernel void divergent(__global int* data, __global int* out) {
    int i = get_global_id(0);
    int v = data[i];
    int acc = 0;
    if (v % 2 == 0) {
        for (int j = 0; j < (v & 7); j += 1) {
            acc += j * v;
        }
    } else {
        acc = v * 3 - out[i];
    }
    out[i] = acc;
}
"""

HISTOGRAM = """
__kernel void histogram(__global int* values, __global int* bins, int nbins) {
    int i = get_global_id(0);
    int bin = values[i] % nbins;
    atomic_add(&bins[bin], 1);
}
"""


def _run_kernel(source, name, gsize, lsize, arrays, scalars=(), fast=True):
    config = PlatformConfig(
        gpu=GPUConfig(engine="interpreter", instrument=True)
    )
    context = Context(MobilePlatform(config))
    mmu = context.platform.gpu.mmu
    mmu.fast_path_enabled = fast
    queue = CommandQueue(context)
    buffers = [context.buffer_from_array(a) for a in arrays]
    kernel = context.build_program(source).kernel(name)
    kernel.set_args(*buffers, *scalars)
    result = queue.enqueue_nd_range(kernel, gsize, lsize)
    outputs = [queue.enqueue_read_buffer(b, a.dtype)
               for b, a in zip(buffers, arrays)]
    return {
        "outputs": outputs,
        "stats": dict(vars(result.stats)),
        "cfg_edges": result.cfg.edges,
        "cfg_divergences": result.cfg.divergences,
        "pages": set(mmu.pages_accessed),
        "translations": mmu.translations,
        "quad_accesses": mmu.quad_accesses,
    }


def _assert_bit_exact(fast, scalar):
    for got, want in zip(fast["outputs"], scalar["outputs"]):
        np.testing.assert_array_equal(got, want)
    assert fast["stats"] == scalar["stats"]
    assert fast["cfg_edges"] == scalar["cfg_edges"]
    assert fast["cfg_divergences"] == scalar["cfg_divergences"]
    assert fast["pages"] == scalar["pages"]
    assert fast["translations"] == scalar["translations"]


class TestFastPathBitExact:
    def test_divergent_kernel(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 64, 64).astype(np.int32)
        out = np.zeros(64, dtype=np.int32)
        args = (DIVERGENT, "divergent", (64,), (16,), [data, out])
        fast = _run_kernel(*args, fast=True)
        scalar = _run_kernel(*args, fast=False)
        _assert_bit_exact(fast, scalar)
        assert fast["quad_accesses"] > 0
        assert scalar["quad_accesses"] == 0

    def test_atomics_kernel(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 1000, 128).astype(np.int32)
        bins = np.zeros(8, dtype=np.int32)
        args = (HISTOGRAM, "histogram", (128,), (16,), [values, bins])
        fast = _run_kernel(*args, scalars=[8], fast=True)
        scalar = _run_kernel(*args, scalars=[8], fast=False)
        _assert_bit_exact(fast, scalar)
        expected = np.bincount(values % 8, minlength=8)
        np.testing.assert_array_equal(fast["outputs"][1], expected)

    def test_sgemm_workload(self):
        def run(fast):
            config = PlatformConfig(
                gpu=GPUConfig(engine="interpreter", instrument=True)
            )
            context = Context(MobilePlatform(config))
            mmu = context.platform.gpu.mmu
            mmu.fast_path_enabled = fast
            result = get_workload("sgemm").run(context=context, verify=True)
            assert result.verified
            return (dict(vars(result.stats)), set(mmu.pages_accessed),
                    mmu.translations, mmu.quad_accesses)

        f_stats, f_pages, f_trans, f_quads = run(True)
        s_stats, s_pages, s_trans, s_quads = run(False)
        assert f_stats == s_stats
        assert f_pages == s_pages
        assert f_trans == s_trans
        assert f_quads > 0 and s_quads == 0
