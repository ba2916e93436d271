"""GPU Memory Management Unit.

"Our simulator incorporates a complete software implementation of the GPU's
MMU. The driver provides the MMU with page table pointers, and the MMU
reports errors (permissions violations, faults) to the driver through memory
mapped registers and interrupts." (Section III-B5)

The MMU walks the *same* page tables the driver built in simulated physical
memory (:mod:`repro.mem.pagetable`) and records every distinct GPU-VA page
touched — the paper's "pages accessed by the GPU" system statistic.

Three translation tiers exist:

- the scalar path (:meth:`GPUMMU.translate` / :meth:`GPUMMU.load_u32`),
  one walk-or-TLB-probe per 32-bit word — the reference semantics;
- the quad tier (``load_quad_u32`` / ``store_quad_u32``), the
  interpreter's port: contiguous and broadcast lanes served inline, any
  other quad by ``_quad_views``;
- the wide tier (``load_wide_u32`` / ``store_wide_u32``), the megakernel
  engine's workgroup-wide gather/scatter.

Both vector tiers find pages through one lookup, ``_probe`` behind the
page-view cache (``_resolve_view``): one probe per distinct page. They are
bit-exact with the scalar path (same ``pages_accessed`` set, same
``translations`` count) and *side-effect-free on failure*: a lane that is
unaligned, or on a page only the scalar path may decide (unmapped, armed
for injection, permission failure), makes the whole access return
``None``, and the engine replays it lane by lane (:func:`replay_load` /
:func:`replay_store`) to reproduce the exact per-lane fault behaviour.

A *lockstep batch* of workgroups (the megakernel running several groups
side by side) goes through none of them while it runs: :class:`BatchPort`
serves it from a snapshot, buffers its stores and decides, access by
access, whether running the groups one after another could have told the
difference; the MMU sees the batch's counts and stores at its commit, or
nothing.
"""

import numpy as np

from repro.errors import MMUFault
from repro.mem.pagetable import PTE_EXEC, PTE_READ, PTE_WRITE, PageTableWalker
from repro.mem.physical import PAGE_SHIFT
from repro.state import Stateful

_PAGE_MASK = (1 << PAGE_SHIFT) - 1
# what is left of (address - page base) for a word in that page: zero
_NOT_WORD_IN_PAGE = ~(_PAGE_MASK & ~3)
_REQUIRED = {"r": PTE_READ, "w": PTE_WRITE, "x": PTE_EXEC}

# Address-space tag folded into every recorded/armed VA page number.
# VA_BITS=39 keeps vpage below 2^27, so tagging at bit 32 never collides;
# address space 0 (the default tenant) tags as 0, preserving the
# single-tenant page numbering bit-for-bit.
AS_TAG_SHIFT = 32


class GPUMMU(Stateful):
    """Translation front-end shared by the Job Manager and shader cores."""

    # registers, AS tagging and counters. The TLB and the load/store view
    # caches are pure accelerators (``translations`` and ``pages_accessed``
    # count on every access, hit or miss) and are dropped.
    STATE_FIELDS = (
        "_enabled", "_as_id", "_as_tag", "fault_addr", "fault_status",
        "translations", "page_faults_resolved", "injected_faults",
        "quad_accesses", "quad_fallbacks", "wide_accesses", "wide_fallbacks",
        "_fast_path_enabled",
    )
    # the batch port keeps only window layouts between batches: the
    # first batch after a restore makes a new one
    TRANSIENT = ("_batch_port",)

    def __init__(self, memory):
        self._memory = memory
        self._walker = None
        self._enabled = False
        # active address-space id (MMU_AS register); tags every entry of
        # pages_accessed and every injector page key so per-tenant VA
        # spaces that reuse the same numeric VAs never alias
        self._as_id = 0
        self._as_tag = 0
        self.pages_accessed = set()
        self.fault_addr = 0
        self.fault_status = 0
        self.translations = 0
        # fault-recovery hooks, both consulted only on the TLB-miss path
        # (cold), so the translation hot path pays nothing when unused:
        # - _fault_handler: driver page-fault worker; returns True when it
        #   resolved the fault (grow-on-fault region growth) and the walk
        #   should be retried — the faulting access is *resumed*, exactly
        #   like a parked bus transaction on real hardware.
        # - _injector: deterministic fault injection (repro.inject); armed
        #   pages raise spurious/permission MMUFaults on first touch.
        self._fault_handler = None
        self._injector = None
        self.page_faults_resolved = 0
        self.injected_faults = 0
        # Software TLB in front of the walker: VA page -> (PA page, PTE
        # flags). The walker keeps its own TLB for the table-walk cache;
        # this one makes a whole vector access cost a single dict probe
        # per distinct page. `fast_path_enabled` is the scalar ablation
        # knob of benchmarks/bench_hotpath.py and the system benchmark's
        # engine ladder.
        self._tlb = {}
        # permission-checked page views for the vector tiers: VA page ->
        # u32 view of its physical page. Subsets of the TLB, flushed
        # with it.
        self._rview = {}
        self._wview = {}
        self._fast_path_enabled = True
        self.quad_accesses = 0
        self.quad_fallbacks = 0
        self.wide_accesses = 0
        self.wide_fallbacks = 0
        self._page_view = getattr(memory, "page_u32_view", None)
        self._fast = False
        self._batch_port = None  # made by the first batch
        # first page -> end of the mapped run mapped_runs found from it;
        # dropped whenever a mapping may have changed, with the TLB
        self._runs = {}

    def _update_fast(self):
        self._fast = (self._fast_path_enabled and self._enabled
                      and self._walker is not None
                      and self._page_view is not None)

    @property
    def enabled(self):
        return self._enabled

    @enabled.setter
    def enabled(self, value):
        self._enabled = value
        self._update_fast()

    @property
    def address_space(self):
        """Active address-space id (the MMU_AS register)."""
        return self._as_id

    @address_space.setter
    def address_space(self, value):
        if value != self._as_id:
            self._as_id = value
            self._as_tag = value << AS_TAG_SHIFT
            self.flush_tlb()

    def pages_accessed_in(self, as_id):
        """Distinct pages touched under address space *as_id*."""
        return sum(1 for page in self.pages_accessed
                   if page >> AS_TAG_SHIFT == as_id)

    @property
    def fast_path_enabled(self):
        """Ablation knob: False forces every access onto the scalar path."""
        return self._fast_path_enabled

    @fast_path_enabled.setter
    def fast_path_enabled(self, value):
        self._fast_path_enabled = value
        self._update_fast()

    def set_page_table(self, root):
        """Driver handing over the page-table base (MMU_PGD register)."""
        self._walker = PageTableWalker(self._memory, root)
        self._tlb = {}
        self._rview = {}
        self._wview = {}
        self._runs = {}
        self._update_fast()

    def get_state(self):
        state = super().get_state()
        state["root"] = (self._walker.root
                         if self._walker is not None else None)
        state["pages_accessed"] = sorted(self.pages_accessed)
        return state

    def set_state(self, state):
        """Rebuild the walker from the saved root (the tables live in the
        already-restored memory), then re-apply registers and counters
        as plain attributes: the ``address_space``/``enabled`` setters
        and the MMU_* registers are off-limits here — they flush TLBs
        and bump golden register-traffic counters."""
        if state["root"] is not None:
            self.set_page_table(state["root"])
        super().set_state(state)
        self.pages_accessed = set(state["pages_accessed"])
        self._update_fast()

    def set_fault_handler(self, handler):
        """Install the driver's page-fault worker.

        *handler* is called as ``handler(vaddr, access)`` on a translation
        miss and returns True when it resolved the fault (mapped the page)
        so the walk can be retried and the access resumed. Pass None to
        detach."""
        self._fault_handler = handler

    def set_injector(self, injector):
        """Attach a :class:`~repro.inject.FaultInjector` (None detaches).

        Flushes the TLB so pages armed for injection are guaranteed to
        take the miss path on their next access."""
        self._injector = injector
        self.flush_tlb()

    def flush_tlb(self):
        self._tlb = {}
        self._rview = {}
        self._wview = {}
        self._runs = {}
        if self._walker is not None:
            self._walker.flush_tlb()

    def translate(self, vaddr, access="r"):
        """Translate a GPU virtual address, recording the touched page.

        Raises:
            MMUFault: translation failure; the caller (job manager) latches
                fault registers and raises the MMU IRQ.
        """
        if not self.enabled or self._walker is None:
            raise MMUFault(vaddr, access, "GPU MMU not enabled")
        vpage = vaddr >> PAGE_SHIFT
        self.translations += 1
        self.pages_accessed.add(vpage | self._as_tag)
        entry = self._tlb.get(vpage)
        if entry is None:
            entry = self._miss(vaddr, vpage, access)
        ppage, flags = entry
        if not flags & _REQUIRED[access]:
            raise MMUFault(vaddr, access,
                           f"permission denied at 0x{vaddr:x} ({access})")
        return ppage | (vaddr & _PAGE_MASK)

    def _miss(self, vaddr, vpage, access):
        """TLB-miss path: injection hook, table walk, page-fault worker.

        Returns the resolved ``(physical page, flags)`` entry (now cached)
        or raises :class:`MMUFault`. Only the scalar path resolves misses;
        the vector tiers return ``None`` where :meth:`_probe` cannot, so
        their scalar replay funnels every fault — injected, grown, or
        real — through here.
        """
        injector = self._injector
        if injector is not None:
            params = injector.fire_page(vpage | self._as_tag)
            if params is not None:
                self.injected_faults += 1
                kind = params.get("kind", "translation")
                fault_access = params.get("access", access)
                raise MMUFault(
                    vaddr, fault_access,
                    f"injected {kind} fault at 0x{vaddr:x} ({fault_access})")
        entry = self._walker.lookup_page(vaddr)
        if entry is None and self._fault_handler is not None:
            if self._fault_handler(vaddr, access):
                self.page_faults_resolved += 1
                self._runs = {}  # a region grew
                entry = self._walker.lookup_page(vaddr)
        if entry is None:
            raise MMUFault(vaddr, access)
        self._tlb[vpage] = entry
        return entry

    def latch_fault(self, fault):
        self.fault_addr = fault.vaddr
        self.fault_status = {"r": 1, "w": 2, "x": 3}[fault.access]

    # -- guest memory access through translation -----------------------------

    def load_u32(self, vaddr):
        return self._memory.read_u32(self.translate(vaddr, "r"))

    def store_u32(self, vaddr, value):
        self._memory.write_u32(self.translate(vaddr, "w"), value)

    def _probe(self, vpage):
        """``(physical page, PTE flags)`` of *vpage*, or ``None`` where
        only the scalar path may decide: unmapped (so grow-on-fault
        growth goes through :meth:`_miss`) or armed for injection (so the
        injected fault fires once, in :meth:`_miss`). The one page lookup
        of every vector tier: fills the TLB, moves no counter, backs no
        page."""
        entry = self._tlb.get(vpage)
        if entry is None:
            injector = self._injector
            if injector is not None \
                    and injector.armed("mmu.page", vpage | self._as_tag):
                return None
            entry = self._walker.lookup_page(vpage << PAGE_SHIFT)
            if entry is None:
                return None
            self._tlb[vpage] = entry
        return entry

    def _resolve_view(self, vpage, required, cache):
        """Slow half of the view caches: probe, perm-check, cache the view."""
        entry = self._probe(vpage)
        if entry is None or not entry[1] & required:
            return None
        view = self._page_view(entry[0] >> PAGE_SHIFT)
        cache[vpage] = view
        return view

    def load_quad_u32(self, vaddrs):
        """Gather one u32 per lane address, or ``None`` for scalar replay.

        ``vaddrs`` may be a list of ints or an integer ndarray. The two
        dominant lane shapes are recognized with pure Python-int
        arithmetic and served without any NumPy fancy indexing:

        - *contiguous* (lane i at base + 4i, e.g. row-major image and
          matrix rows): one view-cache probe, one slice of the page view;
        - *broadcast* (all lanes at one address, e.g. a shared matrix
          element): one view-cache probe, one scalar read.

        Any other quad goes to :meth:`_quad_views`. A quad that cannot be
        served whole returns ``None`` with nothing recorded but
        ``quad_fallbacks``, so the caller's :func:`replay_load`
        reproduces the exact reference fault semantics and statistics.
        """
        if not self._fast:
            return None
        lanes = vaddrs.tolist() if isinstance(vaddrs, np.ndarray) \
            else vaddrs
        a0 = lanes[0]
        if len(lanes) == 4 and not a0 & 3:
            offset = a0 & _PAGE_MASK
            if lanes[1] == a0 + 4 and lanes[2] == a0 + 8 \
                    and lanes[3] == a0 + 12:
                if offset <= _PAGE_MASK - 15:
                    vpage = a0 >> PAGE_SHIFT
                    view = self._rview.get(vpage)
                    if view is None:
                        view = self._resolve_view(vpage, PTE_READ, self._rview)
                    if view is not None:
                        self.translations += 4
                        self.pages_accessed.add(vpage | self._as_tag)
                        self.quad_accesses += 1
                        word = offset >> 2
                        return view[word:word + 4]
            elif lanes[1] == a0 and lanes[2] == a0 and lanes[3] == a0:
                vpage = a0 >> PAGE_SHIFT
                view = self._rview.get(vpage)
                if view is None:
                    view = self._resolve_view(vpage, PTE_READ, self._rview)
                if view is not None:
                    self.translations += 4
                    self.pages_accessed.add(vpage | self._as_tag)
                    self.quad_accesses += 1
                    return view[offset >> 2]
        hit = self._quad_views(lanes, PTE_READ, self._rview)
        if hit is None:
            self.quad_fallbacks += 1
            return None
        self.quad_accesses += 1
        view, words = hit
        if view is not None:
            return view[words]
        return np.array([page[word] for page, word in words],
                        dtype=np.uint32)

    def store_quad_u32(self, vaddrs, values):
        """Scatter one u32 per lane address; ``None`` -> scalar replay.

        The contiguous lane shape is served as one slice assignment on
        the page view; see :meth:`load_quad_u32` for the rest.
        """
        if not self._fast:
            return None
        lanes = vaddrs.tolist() if isinstance(vaddrs, np.ndarray) \
            else vaddrs
        a0 = lanes[0]
        if len(lanes) == 4 and not a0 & 3 \
                and lanes[1] == a0 + 4 and lanes[2] == a0 + 8 \
                and lanes[3] == a0 + 12:
            offset = a0 & _PAGE_MASK
            if offset <= _PAGE_MASK - 15:
                vpage = a0 >> PAGE_SHIFT
                view = self._wview.get(vpage)
                if view is None:
                    view = self._resolve_view(vpage, PTE_WRITE, self._wview)
                if view is not None:
                    self.translations += 4
                    self.pages_accessed.add(vpage | self._as_tag)
                    self.quad_accesses += 1
                    word = offset >> 2
                    view[word:word + 4] = values
                    return True
        hit = self._quad_views(lanes, PTE_WRITE, self._wview)
        if hit is None:
            self.quad_fallbacks += 1
            return None
        self.quad_accesses += 1
        view, words = hit
        if view is not None:
            view[words] = values
        else:
            for (page, word), value in zip(words, values):
                page[word] = value
        return True

    def _quad_views(self, lanes, required, cache):
        """A quad of neither hot shape: ``(view, words)`` when its lanes
        share a page, else ``(None, [(view, word), ...])`` lane by lane,
        each page's view from the view cache; the counters move by what
        the scalar path would add.

        ``None``, recording nothing, for an unaligned lane (the scalar
        path defines sub-word semantics) or a page only the scalar path
        may decide (unmapped, armed, permission failure) — the wide
        tier's rule — so the caller's per-lane replay reproduces the
        reference semantics and statistics.
        """
        views = {}
        words = []
        for vaddr in lanes:
            if vaddr & 3:
                return None
            vpage = vaddr >> PAGE_SHIFT
            if vpage not in views:
                view = cache.get(vpage)
                if view is None:
                    view = self._resolve_view(vpage, required, cache)
                    if view is None:
                        return None
                views[vpage] = view
            words.append((vaddr & _PAGE_MASK) >> 2)
        self.translations += len(lanes)
        tag = self._as_tag
        if len(views) == 1:
            self.pages_accessed.add(vpage | tag)
            return view, words
        self.pages_accessed.update([vpage | tag for vpage in views])
        return None, [(views[vaddr >> PAGE_SHIFT], word)
                      for vaddr, word in zip(lanes, words)]

    # -- workgroup-wide (megakernel) gather/scatter ---------------------------

    def _wide_groups(self, vaddrs, required, cache):
        """Resolve a workgroup-wide access (*vaddrs*: int64 ndarray of
        lane byte addresses) to ``(page view, word offsets, lanes)``
        groups, one per page touched, and move the counters.

        ``None`` — only the fallback recorded — when the fast path is
        off, a lane is unaligned (the reference path defines sub-word
        semantics) or a page cannot be served (unmapped, armed for
        injection, permission failure), so the caller's per-lane scalar
        replay reproduces the reference fault semantics and statistics.
        Every view is resolved before any other counter moves.
        """
        if self._fast and len(vaddrs):
            # one-page tier — every broadcast and contiguous access of
            # every kernel: nothing of (address - lane 0's page base)
            # outside the word-offset bits means word-aligned lanes on
            # one page, served by one probe and one fancy index
            vpage = int(vaddrs[0]) >> PAGE_SHIFT
            within = vaddrs - (vpage << PAGE_SHIFT)
            if not np.count_nonzero(within & _NOT_WORD_IN_PAGE):
                view = cache.get(vpage)
                if view is None:
                    view = self._resolve_view(vpage, required, cache)
                if view is not None:
                    self.translations += len(vaddrs)
                    self.pages_accessed.add(vpage | self._as_tag)
                    self.wide_accesses += 1
                    return ((view, within >> 2, slice(None)),)
        if not self._fast or (vaddrs & 3).any():
            self.wide_fallbacks += 1
            return None
        vpages = vaddrs >> PAGE_SHIFT
        unique_pages = np.unique(vpages).tolist()
        views = []
        for vpage in unique_pages:
            view = cache.get(vpage)
            if view is None:
                view = self._resolve_view(vpage, required, cache)
                if view is None:
                    self.wide_fallbacks += 1
                    return None
            views.append(view)
        self.translations += len(vaddrs)
        tag = self._as_tag
        self.pages_accessed.update([page | tag for page in unique_pages])
        self.wide_accesses += 1
        offsets = (vaddrs & _PAGE_MASK) >> 2
        groups = []
        for vpage, view in zip(unique_pages, views):
            lanes = vpages == vpage
            groups.append((view, offsets[lanes], lanes))
        return groups

    def load_wide_u32(self, vaddrs, lanes=None):
        """Gather one u32 per lane address for a whole workgroup.

        Returns the gathered uint32 vector, or ``None`` for per-lane
        scalar replay — with nothing recorded but ``wide_fallbacks`` in
        that case, exactly like the quad tier. *lanes* (which lanes of
        the row a masked access is for) matters to a :class:`BatchPort`
        only.
        """
        groups = self._wide_groups(vaddrs, PTE_READ, self._rview)
        if groups is None:
            return None
        if len(groups) == 1:
            return groups[0][0][groups[0][1]]
        out = np.empty(len(vaddrs), dtype=np.uint32)
        for view, offsets, lanes in groups:
            out[lanes] = view[offsets]
        return out

    def store_wide_u32(self, vaddrs, values, lanes=None):
        """Scatter one u32 per lane address; ``None`` -> scalar replay.

        Lane order is preserved within each page, so duplicate addresses
        resolve last-lane-wins exactly as the per-lane reference path
        does (duplicates always share a page).
        """
        groups = self._wide_groups(vaddrs, PTE_WRITE, self._wview)
        if groups is None:
            return None
        for view, offsets, lanes in groups:
            view[offsets] = values[lanes]
        return True

    def mapped_runs(self, vaddrs):
        """``(first page, end page)`` of the run of pages from each of
        *vaddrs*' page up to the first page :meth:`_probe` refuses
        (unmapped, or armed): a buffer, as the driver leaves a guard page
        after each region. The probes fill the TLB and move no counter;
        a run is kept until the TLB is flushed or a fault maps a page."""
        if not self._fast:
            return None
        runs = []
        for vaddr in vaddrs:
            first = vaddr >> PAGE_SHIFT
            end = self._runs.get(first)
            if end is None:
                end = first
                while self._probe(end) is not None:
                    end += 1
                self._runs[first] = end
            if end > first:
                runs.append((first, end))
        return tuple(runs)

    def begin_batch(self, count, lanes, stored=None):
        """Start a lockstep batch of *count* workgroups of *lanes* lanes
        each; returns the port that is its memory until it commits.
        *stored*: the ``(first, end)`` page runs the job may store to
        (None: any page)."""
        if not self._fast \
                or getattr(self._memory, "backed_page", None) is None:
            raise BatchAbandoned("port")
        if self._batch_port is None:
            self._batch_port = BatchPort(self)
        self._batch_port.begin(count, lanes, stored)
        return self._batch_port

    def load_block(self, vaddr, length):
        """Read a byte range page-by-page through translation."""
        out = bytearray()
        remaining = length
        position = vaddr
        while remaining:
            page_room = (1 << PAGE_SHIFT) - (position & ((1 << PAGE_SHIFT) - 1))
            chunk = min(remaining, page_room)
            paddr = self.translate(position, "r")
            out += self._memory.read_block(paddr, chunk)
            position += chunk
            remaining -= chunk
        return bytes(out)


# -- per-lane replay of a refused vector access (both engines) ----------------


def replay_load(mem, addrs, lanes, row, offset):
    """Per-lane replay of an element a vector tier refused: lanes
    ascending (*lanes*: their indices, None for all of *addrs*) through
    the scalar port, with the reference fault semantics and statistics.
    ``row[lane]`` receives the word at ``addrs[lane] + offset``."""
    for lane in range(len(addrs)) if lanes is None else lanes:
        row[lane] = mem.load_u32(int(addrs[lane]) + offset)


def replay_store(mem, addrs, lanes, values, offset):
    """The store twin of :func:`replay_load`: ``values[lane]`` to
    ``addrs[lane] + offset``, lanes ascending (the last lane wins)."""
    for lane in range(len(addrs)) if lanes is None else lanes:
        mem.store_u32(int(addrs[lane]) + offset, int(values[lane]))


# -- lockstep batches of workgroups (megakernel) ------------------------------

_PAGE_WORDS_SHIFT = PAGE_SHIFT - 2
#: pages of window space (content + two shadows) one batch may use
_PORT_PAGES = 256
#: bytes of buffered store vectors (addresses + values) one batch may hold
_STORE_BUFFER_BYTES = 1 << 20
_READ_WRITE = PTE_READ | PTE_WRITE
_ZERO_PAGE = bytes(1 << PAGE_SHIFT)


#: reasons a batch of fewer groups may not meet: the port ran out of
#: window pages or of store buffer
_CAPACITY = frozenset({"port-full", "store-bound"})


def _pages_touched(index):
    """The window pages the words at *index* lie in, ascending."""
    return np.flatnonzero(np.bincount(index >> _PAGE_WORDS_SHIFT)).tolist()


class BatchAbandoned(Exception):
    """A lockstep batch cannot promise the result of running its groups
    one after another. Nothing it did has left the port: the same groups
    run again, in narrower batches or one at a time. ``reason``:
    ``load-after-store``, ``store-after-load``, ``store-order`` (the
    conflict rules), ``unshadowed`` (a store into a window whose loads
    went unshadowed), ``port`` (an access the wide tier would not serve
    whole), ``port-full`` (no window space left), ``store-bound``,
    ``exception``. :attr:`capacity` tells the two a narrower batch may
    avoid (``port-full``, ``store-bound``) from the rest."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
        self.capacity = reason in _CAPACITY


class _Window:
    """A power-of-two run of virtual pages at pool page ``at``, kept
    across batches. A batch's first access to a page (``stamps``) probes
    it (``frames``), reads it into ``words`` and zeroes its ``loaded`` /
    ``stored`` shadows (highest slot + 1 that loaded / stored a word).
    ``used`` / ``ready`` / ``dirty``: the last batch that touched it /
    had all its pages / stored into it; ``fresh``: a ``(first, end)``
    span of its pages all fresh in batch ``used``. ``shadowed`` /
    ``unshadowed``: the last batch whose loads into it were shadowed (it
    holds a page the job may store to, or was stored into) / a load
    into it was not."""

    __slots__ = ("first", "pages", "base", "mask", "at", "words", "loaded",
                 "stored", "frames", "stamps", "used", "ready", "dirty",
                 "fresh", "shadowed", "unshadowed")


class BatchPort:
    """``state.mem`` of a lockstep batch: lanes in slot order, slot ``s``
    the ``s``-th workgroup of the batch.

    Loads read the memory the batch started from; stores are buffered and
    applied in program order by :meth:`commit`. Three rules make that
    equal to running the groups one after another, where a group sees the
    stores of lower groups and its own earlier ones: a load of a word the
    batch has stored abandons (L), and so does a store to a word a higher
    slot has loaded (S) or stored (W). (L) and (S) rule out every load
    that would have missed a store it had to see; under (W) the buffered
    writers of a word are non-decreasing in slot, so the last scatter
    wins as the last group would. Whatever the wide tier answers ``None``
    to (an unmapped, armed or not read-write page, an unaligned lane)
    abandons too: the scalar replay is the reference's to do.

    Rule (S) needs a shadow of every load, one ``np.maximum.at``, but
    only where a store may follow. The job names the pages it may store
    to (*stored* of :meth:`begin`: the buffers its program stores
    through); a window that holds none of them and has not been stored
    into is *store-free*, and a load into it skips the shadow and the
    (L) check. The guard is the port's, not the job's: a store into a
    window whose loads went unshadowed in this batch abandons
    (``unshadowed``), and so does one into a window merged from such a
    window, whose shadows are incomplete. A wrong *stored* — an index
    past a buffer's end, a buffer bound twice, a pointer loaded from
    memory — can cost a batch, never change a result.

    Window layouts outlive their batch; the pages in them do not, as
    memory and mappings change between batches: a batch re-reads a page
    at its first access to it, and checks, counts or backs no other.

    Until :meth:`commit` the batch has only read: the MMU's counters
    have not moved and no physical page was backed (its TLB fills, as
    any probe fills it).
    """

    def __init__(self, mmu):
        self._mmu = mmu
        # content and the two shadows, each page touched when a batch
        # first reads it; ``_bytes``: the byte views of the three rows
        self._pool = np.empty((3, _PORT_PAGES << _PAGE_WORDS_SHIFT),
                              np.uint32)
        self._bytes = [memoryview(row).cast("B") for row in self._pool]
        self._windows = {}  # virtual page -> the window it lies in
        self._live = []     # every window, in pool order
        self._batch = 0
        self.close()

    def begin(self, count, lanes, stored=None):
        """Start batch *count* x *lanes*; *stored*: the ``(first, end)``
        page runs its job may store to, None for any page."""
        self._batch += 1
        self._slots = np.repeat(
            np.arange(1, count + 1, dtype=np.uint32), lanes)
        self._stored = stored
        self._translations = self._accesses = 0

    def close(self):
        """Let go of what the batch held; the window layouts stay."""
        self._pages = []    # virtual pages the batch touched
        self._stores = []   # (lane addresses, values) in program order
        self._buffered = 0
        self._slots = None

    # -- the two accesses ------------------------------------------------------

    def load_wide_u32(self, vaddrs, lanes=None):
        window, index = self._locate(vaddrs)
        if window.shadowed == self._batch:
            self._shadow(window, index, lanes)
        else:  # store-free: a store into it now abandons
            window.unshadowed = self._batch
        self._translations += len(vaddrs)
        self._accesses += 1
        return window.words.take(index)

    def _shadow(self, window, index, lanes):
        """Rule (L), then the load's slots into the ``loaded`` shadow."""
        if window.dirty == self._batch \
                and np.count_nonzero(window.stored.take(index)):
            raise BatchAbandoned("load-after-store")
        np.maximum.at(window.loaded, index,
                      self._slots if lanes is None else self._slots[lanes])

    def store_wide_u32(self, vaddrs, values, lanes=None):
        window, index = self._locate(vaddrs)
        batch = self._batch
        if window.unshadowed == batch:
            raise BatchAbandoned("unshadowed")
        slots = self._slots if lanes is None else self._slots[lanes]
        if np.count_nonzero(window.loaded.take(index) > slots):
            raise BatchAbandoned("store-after-load")
        if window.dirty == batch \
                and np.count_nonzero(window.stored.take(index) > slots):
            raise BatchAbandoned("store-order")
        self._buffered += vaddrs.nbytes + values.nbytes
        if self._buffered > _STORE_BUFFER_BYTES:
            raise BatchAbandoned("store-bound")
        window.stored[index] = slots
        window.dirty = window.shadowed = batch
        self._stores.append((vaddrs, values.copy()))
        self._translations += len(vaddrs)
        self._accesses += 1
        return True

    def commit(self):
        """Every lane has retired: apply the buffered stores in program
        order and hand the MMU what the batch counted: the pages it
        touched are the ones it refreshed (``_pages``), elided loads'
        included, and a page of a window it stored into with a nonzero
        store shadow is written back."""
        windows = self._windows
        for vaddrs, values in self._stores:
            window = windows[int(vaddrs[0]) >> PAGE_SHIFT]
            window.words[(vaddrs - window.base) >> 2] = values
        mmu = self._mmu
        words, _, stored = self._bytes
        for vpage in self._pages:
            window = windows[vpage]
            frame = window.frames[vpage - window.first]
            # the reference would have backed the page at that access
            mmu._page_view(frame)
            at = window.at + vpage - window.first << PAGE_SHIFT
            span = slice(at, at + len(_ZERO_PAGE))
            if window.dirty == self._batch \
                    and stored[span].tobytes() != _ZERO_PAGE:
                mmu._memory.backed_page(frame)[:] = words[span]
        tag = mmu._as_tag
        mmu.pages_accessed.update([vpage | tag for vpage in self._pages])
        mmu.translations += self._translations
        mmu.wide_accesses += self._accesses

    # -- windows ---------------------------------------------------------------

    def _locate(self, vaddrs):
        """``(window, word index per lane)`` of an access, its pages read."""
        window = self._windows.get(int(vaddrs[0]) >> PAGE_SHIFT)
        within = None if window is None else vaddrs - window.base
        # nothing outside the word-offset bits of the window: every lane
        # word-aligned and inside it
        if within is None or np.count_nonzero(within & window.mask):
            window = self._window(vaddrs)
            within = vaddrs - window.base
        index = within >> 2
        if window.ready != self._batch:
            self._refresh(window, index)
        return window, index

    def _window(self, vaddrs):
        """Miss path: a window over the pages of this access and of every
        window this batch touched that it overlaps (their pages move in);
        the earlier batches' it overlaps go, lest windows grow unbounded."""
        if np.count_nonzero(vaddrs & 3):
            raise BatchAbandoned("port")
        first = int(vaddrs.min()) >> PAGE_SHIFT
        last = int(vaddrs.max()) >> PAGE_SHIFT
        batch = self._batch
        merged = []
        while True:
            pages = 1 << (last - first).bit_length()
            if pages > _PORT_PAGES:
                raise BatchAbandoned("port-full")
            overlapped = [old for old in self._live if old not in merged
                          and old.first < first + pages
                          and first < old.first + old.pages]
            for old in overlapped:
                if old.used != batch:
                    self._drop(old)
            overlapped = [old for old in overlapped if old.used == batch]
            if not overlapped:
                break
            merged += overlapped
            first = min(first, *(old.first for old in overlapped))
            last = max(last, *(old.first + old.pages - 1
                               for old in overlapped))
        at = self._room(pages)
        if at is None:
            self._reclaim()  # the windows of earlier batches go first
            at = self._room(pages)
            if at is None:
                raise BatchAbandoned("port-full")
        window = _Window()
        window.first, window.pages = first, pages
        window.base = first << PAGE_SHIFT
        window.mask = ~((pages << PAGE_SHIFT) - 4)
        self._place(window, at)
        window.frames, window.stamps = [None] * pages, [0] * pages
        window.used, window.ready, window.fresh = batch, 0, (0, 0)
        window.dirty = window.unshadowed = 0
        for old in merged:
            at = old.first - first
            self._rows(window.at + at, old.pages)[:] = \
                self._rows(old.at, old.pages)
            window.frames[at:at + old.pages] = old.frames
            window.stamps[at:at + old.pages] = old.stamps
            # a window merged from an unshadowed one stays unshadowed
            window.dirty = max(window.dirty, old.dirty)
            window.unshadowed = max(window.unshadowed, old.unshadowed)
            self._live.remove(old)
        window.shadowed = batch if window.dirty == batch \
            or self._may_store(window) else 0
        self._live.insert(sum(w.at < window.at for w in self._live), window)
        self._windows.update(dict.fromkeys(range(first, first + pages),
                                           window))
        return window

    def _rows(self, at, pages):
        """The three pool rows of *pages* pages from pool page *at*."""
        return self._pool[:, at << _PAGE_WORDS_SHIFT:
                          at + pages << _PAGE_WORDS_SHIFT]

    def _place(self, window, at):
        window.at = at
        window.words, window.loaded, window.stored = \
            self._rows(at, window.pages)

    def _drop(self, window):
        self._live.remove(window)
        for vpage in range(window.first, window.first + window.pages):
            del self._windows[vpage]

    def _room(self, pages):
        """The first pool page of the lowest free run of *pages*, or None."""
        at = 0
        for window in self._live:
            if window.at - at >= pages:
                return at
            at = window.at + window.pages
        return at if at + pages <= _PORT_PAGES else None

    def _reclaim(self):
        """Drop every window this batch has not touched and move the rest
        to the front of the pool, in order."""
        at = 0
        for window in list(self._live):
            if window.used != self._batch:
                self._drop(window)
                continue
            self._rows(at, window.pages)[:] = self._rows(window.at,
                                                         window.pages)
            self._place(window, at)
            at += window.pages

    def _may_store(self, window):
        """Does *window* hold a page the batch's job may store to?"""
        if self._stored is None:
            return True
        first = window.first
        end = first + window.pages
        for low, high in self._stored:
            if low < end and first < high:
                return True
        return False

    def _refresh(self, window, index):
        """Make fresh the pages of *window* the lanes at *index* touch.
        A batch takes read-write pages only: which access of which group
        a lesser one refuses is the reference's to find out."""
        batch = self._batch
        if window.used != batch:  # its first access in this batch
            window.used = batch
            window.fresh = (0, 0)
            window.shadowed = batch if self._may_store(window) else 0
        if window.pages == 1:
            touched, fresh = (0,), (0, 1)
        else:
            fresh = window.fresh
            if fresh[0] < fresh[1] \
                    and fresh[0] <= int(index.min()) >> _PAGE_WORDS_SHIFT \
                    and int(index.max()) >> _PAGE_WORDS_SHIFT < fresh[1]:
                return
            touched = _pages_touched(index)
            first, end = touched[0], touched[-1] + 1
            # pages first to end all touched: the span grows over them
            # where the two meet
            if len(touched) == end - first:
                fresh = (min(first, fresh[0]), max(end, fresh[1])) \
                    if fresh[0] < fresh[1] and first <= fresh[1] \
                    and fresh[0] <= end else (first, end)
        mmu = self._mmu
        words, loaded, stored = self._bytes
        stamps = window.stamps
        for page in touched:
            if stamps[page] == batch:
                continue
            entry = mmu._probe(window.first + page)
            if entry is None or entry[1] & _READ_WRITE != _READ_WRITE:
                raise BatchAbandoned("port")
            frame = entry[0] >> PAGE_SHIFT
            at = window.at + page << PAGE_SHIFT
            span = slice(at, at + len(_ZERO_PAGE))
            # unbacked reads as zeros, and stays unbacked until commit
            words[span] = mmu._memory.backed_page(frame) or _ZERO_PAGE
            loaded[span] = stored[span] = _ZERO_PAGE
            window.frames[page] = frame
            stamps[page] = batch
            self._pages.append(window.first + page)
        window.fresh = fresh
        if min(stamps) == batch:
            window.ready = batch
