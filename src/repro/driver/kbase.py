"""The GPU device driver.

Modelled on Arm's Mali "kbase" kernel module: it manages a GPU VA zone,
builds the page tables the GPU MMU walks, allocates physical memory for
buffers/binaries/descriptors, performs the power-up sequence, submits job
chains through the doorbell registers and waits for completion by reading
the interrupt controller and the GPU's IRQ status registers.

The fault paths are modelled alongside the happy path, the way kbase is
actually structured:

- **grow-on-fault regions** (`alloc_region(grow_on_fault=True)`) reserve
  their full GPU-VA/physical extent but commit only a small initial
  window; the driver's page-fault worker (:meth:`KBaseDriver.
  handle_page_fault`, installed into the GPU MMU) maps fresh pages on
  demand and the faulting access *resumes* — the paper's demand-grown
  heap regions.
- **the recovery ladder**: a faulted or watchdog-parked job is retried
  with deterministic escalation — soft-stop, hard-stop, then a full GPU
  reset (``GPU_COMMAND`` soft reset + re-running the power-up sequence
  and reinstalling the page tables) — with bounded retries and a
  deterministic progress-unit backoff (never wall-clock time).
  Unrecoverable jobs surface as a clean :class:`~repro.errors.JobFault`
  that leaves the driver, its regions and the GPU usable.
- **IRQ cross-checking**: the completion poll reads the interrupt
  controller's pending lines *and* the GPU raw status, tells a *lost*
  IRQ (rawstat with no pending line) from a *spurious* one (a pending
  line with nothing behind it), and recovers from and counts both.

The ladder, the grow-on-fault sizes and the scheduler's bounds are the
vendor driver's, not the user's: they are the module constants below
(:data:`MAX_RETRIES`, :data:`GROW_INITIAL_PAGES`,
:data:`GROW_CHUNK_PAGES`, :data:`BACKOFF_BASE`,
:data:`STARVATION_BOUND`, :data:`MAX_PREEMPTIONS`, :data:`GPU_VA_BASE`),
read when used, and count deterministic events — retries, pages,
progress units, dispatch ticks — never wall-clock time, so identical
fault plans produce identical recovery and scheduling run to run.

Multi-tenancy (kbase's per-process GPU contexts): the driver can host N
client :class:`TenantContext` instances over the one GPU. Each tenant
owns a private GPU VA space (its own page tables, installed via the
``MMU_AS`` address-space register on dispatch), a private physical
carve-out of the driver heap (a :class:`PhysAllocator` over a
registered :class:`~repro.mem.physical.PhysicalMemory` carve-out, so a
tenant physically *cannot* allocate into a neighbour's pages), and its
own descriptor page, counters and completed-job statistics. Every job
reaches the GPU through one envelope, :meth:`KBaseDriver._dispatch`
(address space, ``JOB_SLICE``, injector/translation scope, the
doorbell-and-recovery ladder, accounting, then the ``on_job_retired``
hook): a synchronous submission hands it one job directly, queued
submissions come to it from a :class:`JobSlotArbiter` — per-QoS-class
priority with round-robin across tenants inside a class, a starvation
promotion bound, and soft-stop preemption of long jobs via the GPU's
``JOB_SLICE`` workgroup budget (preempted jobs requeue at the tail and
replay from scratch, so completed-job statistics stay
preemption-invariant for replayable kernels). A driver constructed
without a :class:`TenancyConfig` hosts a single default tenant spanning
the whole heap and behaves bit-identically to the pre-tenancy driver.

Every register access the driver makes lands in the GPU's
:class:`~repro.instrument.stats.SystemStats` — these are the Table III
"Ctrl. Reg Reads/Writes".
"""

import struct
import threading
from collections import deque
from dataclasses import asdict, dataclass

from repro.errors import DriverError, JobFault, SimError
from repro.cpu.devices import IRQC_ACK, IRQC_PENDING, InterruptController
from repro.gpu import regs
from repro.gpu.jobmanager import (
    DESCRIPTOR_FORMAT,
    DESCRIPTOR_SIZE,
    JOB_TYPE_COMPUTE,
    ClauseLedger,
)
from repro.mem.pagetable import PTE_EXEC, PTE_READ, PTE_WRITE
from repro.mem.pagetable import PageTableBuilder, PageTableWalker
from repro.mem.physical import PAGE_SIZE
from repro.state import Stateful


def _round_up(value, alignment):
    return (value + alignment - 1) & ~(alignment - 1)


#: start of the GPU virtual address zone (every tenant's, each over its
#: own page tables)
GPU_VA_BASE = 0x0100_0000
#: job resubmissions before a fault is declared unrecoverable (the ladder
#: escalates soft-stop → hard-stop → GPU reset across these attempts)
MAX_RETRIES = 3
#: committed window of a fresh grow-on-fault region, in pages
GROW_INITIAL_PAGES = 1
#: pages mapped per page fault beyond the faulting page (the heap grow
#: chunk)
GROW_CHUNK_PAGES = 4
#: progress units of backoff before the first retry; doubles per attempt
BACKOFF_BASE = 8
#: dispatch ticks a queued job may wait before it is promoted over every
#: class (oldest first), bounding cross-class starvation
STARVATION_BOUND = 8
#: soft-stop preemptions per job; its slice budget doubles per preemption
#: up to this count, then the job runs to completion
MAX_PREEMPTIONS = 2

#: sentinel returned by the submission path when the GPU parked a sliced
#: job with ``REASON_SOFT_STOPPED`` (arbiter preemption, not a fault)
PREEMPTED = object()


@dataclass
class Region:
    """A GPU-mapped memory region.

    Attributes:
        gpu_va: base GPU virtual address.
        phys: base physical address (regions are physically contiguous;
            grow-on-fault regions reserve their whole physical extent up
            front — simulated physical memory is sparse, so uncommitted
            pages cost nothing — and only the *mapping* grows on demand).
        size: reserved size in bytes (page-aligned).
        committed: bytes actually mapped into the GPU VA zone (== size
            for ordinary regions; the demand-grown window otherwise).
        growable: True for grow-on-fault regions.
    """

    gpu_va: int
    phys: int
    size: int
    committed: int = -1
    growable: bool = False

    def __post_init__(self):
        if self.committed < 0:
            self.committed = self.size


# -- multi-tenancy configuration ----------------------------------------------


@dataclass(frozen=True)
class QoSClass:
    """One quality-of-service class the arbiter schedules by.

    Attributes:
        name: class label ("rt"/"fg"/"bg").
        priority: higher dispatches first (strict across classes).
        slice_workgroups: ``JOB_SLICE`` workgroup budget applied when
            other tenants are waiting; 0 runs jobs to completion
            (real-time jobs are never soft-stopped).
    """

    name: str
    priority: int
    slice_workgroups: int


#: default QoS classes: real-time (never sliced), foreground, background
DEFAULT_QOS_CLASSES = {
    "rt": QoSClass("rt", priority=3, slice_workgroups=0),
    "fg": QoSClass("fg", priority=2, slice_workgroups=64),
    "bg": QoSClass("bg", priority=1, slice_workgroups=16),
}


@dataclass(frozen=True)
class TenantSpec:
    """Configuration for one tenant: a name and a QoS class key."""

    name: str
    qos: str = "fg"


@dataclass
class TenancyConfig:
    """Multi-tenant driver configuration.

    Attributes:
        tenants: one :class:`TenantSpec` per client context; tenant ids
            (== MMU address-space ids) are assigned in list order; each
            names a class of :data:`DEFAULT_QOS_CLASSES`.
    """

    tenants: list

    def __post_init__(self):
        if not self.tenants:
            raise DriverError("tenancy config needs at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise DriverError(f"duplicate tenant names: {names}")
        for spec in self.tenants:
            if spec.qos not in DEFAULT_QOS_CLASSES:
                raise DriverError(
                    f"tenant {spec.name!r}: unknown QoS class {spec.qos!r}; "
                    f"known: {sorted(DEFAULT_QOS_CLASSES)}")

    @classmethod
    def from_plain(cls, plain):
        """Inverse of ``dataclasses.asdict`` on a :class:`TenancyConfig`."""
        return cls([TenantSpec(**spec) for spec in plain["tenants"]])

    @classmethod
    def symmetric(cls, count, qos="fg"):
        """*count* identical tenants named ``tenant0..tenantN-1``."""
        return cls([TenantSpec(f"tenant{i}", qos=qos) for i in range(count)])


# -- physical allocator --------------------------------------------------------


class PhysAllocator(Stateful):
    """First-fit physical allocator over one contiguous extent.

    Frees coalesce onto a sorted free list that the allocator prefers
    over the bump pointer, so long fault campaigns and reset/retry loops
    never leak the heap. Recycled frames are handed out zeroed, like a
    real allocator. One instance per tenant carve-out.
    """

    STATE_FIELDS = ("_next", "bytes_recycled", "_free_extents")

    def __init__(self, memory, base, size):
        self.memory = memory
        self.base = base
        self._next = base
        self._end = base + size
        self.size = size
        self.bytes_recycled = 0
        # sorted, coalesced [base, size] extents returned by free()
        self._free_extents = []

    def alloc(self, size):
        size = _round_up(size, PAGE_SIZE)
        # first fit from the free list (lowest base first — deterministic)
        for index, (base, extent) in enumerate(self._free_extents):
            if extent >= size:
                if extent == size:
                    del self._free_extents[index]
                else:
                    self._free_extents[index] = (base + size, extent - size)
                self.memory.fill(base, size, 0)
                self.bytes_recycled += size
                return base
        if self._next + size > self._end:
            raise DriverError("driver heap exhausted")
        base = self._next
        self._next += size
        return base

    def free(self, base, size):
        """Return a physical extent to the free list, coalescing."""
        extents = self._free_extents
        extents.append((base, size))
        extents.sort()
        merged = [extents[0]]
        for nbase, nsize in extents[1:]:
            pbase, psize = merged[-1]
            if pbase + psize == nbase:
                merged[-1] = (pbase, psize + nsize)
            else:
                merged.append((nbase, nsize))
        self._free_extents = merged

    def set_state(self, state):
        super().set_state(state)
        # free() sorts the list, so its elements must stay one type
        self._free_extents = [tuple(extent)
                              for extent in self._free_extents]

    @property
    def free_bytes(self):
        return sum(size for _base, size in self._free_extents)

    @property
    def used(self):
        """Bytes claimed from the bump pointer (recycling excluded)."""
        return self._next - self.base


# -- job-slot arbiter ----------------------------------------------------------


class JobSlotArbiter(Stateful):
    """Deterministic job-slot scheduler.

    Queues are keyed (priority, tenant): strict priority across QoS
    classes, round-robin across tenants inside a class, FIFO per
    (class, tenant). A job whose head-of-queue wait exceeds
    :data:`STARVATION_BOUND` dispatch ticks is promoted over
    everything, oldest first (ties broken by global submission order),
    bounding starvation of background classes.

    The arbiter is self-contained — jobs only need ``tenant_id`` and
    ``priority`` attributes plus the bookkeeping fields of
    :class:`PendingJob` — so scheduling properties are testable without
    a driver or GPU behind it. Time is the dispatch tick (one per
    :meth:`next_job` call); nothing reads a wall clock.
    """

    STATE_FIELDS = ("tick", "submitted", "dispatched", "promotions",
                    "_order", "_cursor")

    def __init__(self):
        self.tick = 0
        self.submitted = 0
        self.dispatched = 0
        self.promotions = 0
        self._queues = {}  # priority -> {tenant_id: deque}
        self._order = {}  # priority -> [tenant_id, first-seen order]
        self._cursor = {}  # priority -> index of last-served tenant

    @property
    def waiting(self):
        return sum(len(q) for per in self._queues.values()
                   for q in per.values())

    def queued_jobs(self):
        """Every waiting job, in queue (not dispatch) order."""
        return [job for per in self._queues.values()
                for queue in per.values() for job in queue]

    def get_state(self):
        """A job the GPU soft-stopped at its ``JOB_SLICE`` budget is
        already requeued as preempted, so between dispatches the queues
        are the whole scheduling state."""
        state = super().get_state()
        state["queues"] = [
            [priority, [[tenant_id, [job.get_state() for job in queue]]
                        for tenant_id, queue in per.items()]]
            for priority, per in self._queues.items()]
        return state

    def set_state(self, state):
        """Restored jobs carry ``tenant=None``; a driver rebinds them by
        ``tenant_id`` (:meth:`KBaseDriver.set_state`)."""
        super().set_state(state)
        self._queues = {
            priority: {tenant_id: deque(PendingJob(**job) for job in jobs)
                       for tenant_id, jobs in per}
            for priority, per in state["queues"]}

    def submit(self, job):
        """Queue *job* (stamps ``seq`` and ``queued_tick``)."""
        job.seq = self.submitted
        self.submitted += 1
        job.queued_tick = self.tick
        per = self._queues.setdefault(job.priority, {})
        if job.tenant_id not in per:
            per[job.tenant_id] = deque()
            self._order.setdefault(job.priority, []).append(job.tenant_id)
        per[job.tenant_id].append(job)

    def requeue(self, job):
        """Return a preempted job to the tail of its queue."""
        job.preemptions += 1
        job.queued_tick = self.tick
        self._queues[job.priority][job.tenant_id].append(job)

    def next_job(self):
        """Pop the next job to dispatch, or None when idle."""
        if self.waiting == 0:
            return None
        self.tick += 1
        job = self._pop_starved() or self._pop_round_robin()
        job.wait_ticks = self.tick - job.queued_tick
        job.dispatch_count += 1
        self.dispatched += 1
        return job

    def _pop_starved(self):
        starved = None
        for per in self._queues.values():
            for queue in per.values():
                if not queue:
                    continue
                head = queue[0]
                if self.tick - head.queued_tick <= STARVATION_BOUND:
                    continue
                if starved is None or ((head.queued_tick, head.seq)
                                       < (starved.queued_tick, starved.seq)):
                    starved = head
        if starved is None:
            return None
        self.promotions += 1
        queue = self._queues[starved.priority][starved.tenant_id]
        assert queue[0] is starved
        return queue.popleft()

    def _pop_round_robin(self):
        for priority in sorted(self._queues, reverse=True):
            per = self._queues[priority]
            order = self._order[priority]
            cursor = self._cursor.get(priority, -1)
            count = len(order)
            for step in range(1, count + 1):
                position = (cursor + step) % count
                queue = per[order[position]]
                if queue:
                    self._cursor[priority] = position
                    return queue.popleft()
        raise AssertionError("next_job called with empty queues")


@dataclass
class PendingJob(Stateful):
    """One queued/dispatched submission, with scheduling bookkeeping.

    ``tenant_id``/``priority`` are what the arbiter schedules by (a bare
    PendingJob with ``tenant=None`` is enough to drive
    :class:`JobSlotArbiter` in isolation); the driver's dispatch loop
    additionally uses ``tenant`` (a :class:`TenantContext`),
    ``descriptor_va`` and ``workgroups`` (the slice-budget denominator).
    """

    tenant_id: int
    priority: int
    descriptor_va: int = 0
    workgroups: int = 0  # total flat workgroups; 0 = unknown (never sliced)
    tenant: object = None
    label: str = ""
    # arbiter bookkeeping
    seq: int = -1
    queued_tick: int = 0
    wait_ticks: int = 0
    preemptions: int = 0
    dispatch_count: int = 0
    # completion state
    done: bool = False
    status: int = None
    error: object = None

    # not checkpointed: ``tenant`` is rebound by id on restore, and the
    # completion state of a job still in the queue is its default
    TRANSIENT = ("tenant", "done", "status", "error")


# -- per-tenant context --------------------------------------------------------


class TenantContext(Stateful):
    """One client context: private VA space, carve-out, stats.

    Duck-types the driver surface the CL runtime uses (``alloc_region``,
    ``free_region``, ``build_descriptor``, ``submit_and_wait``,
    ``run_job``), so a runtime context can be pointed at a tenant
    instead of the raw driver without code changes. All tenants share
    the same :data:`GPU_VA_BASE`, each over its own page tables — identical
    allocation sequences produce identical GPU VAs in every tenant,
    which is what makes solo-vs-multi memory images comparable
    byte-for-byte.
    """

    STATE_FIELDS = (
        "_va_next", "_next_slot", "regions_allocated", "regions_freed",
        "bytes_mapped", "page_faults", "pages_grown", "alloc_failures",
        "jobs_submitted", "jobs_completed", "jobs_failed", "dispatches",
        "preemptions", "wait_ticks", "translations",
    )
    STATE_CHILDREN = ("allocator", "_page_table", "ledger")

    def __init__(self, driver, tenant_id, spec, qos, carveout_base,
                 carveout_size):
        self.driver = driver
        self.tenant_id = tenant_id
        self.as_id = tenant_id  # MMU address-space slot
        self.name = spec.name
        self.qos = qos
        self.allocator = PhysAllocator(driver.bus.memory, carveout_base,
                                       carveout_size)
        self._page_table = PageTableBuilder(driver.bus.memory,
                                            self._alloc_frame)
        self._va_next = GPU_VA_BASE
        self.live_regions = []
        self._descriptor_region = None
        self._descriptor_slots = PAGE_SIZE // DESCRIPTOR_SIZE
        self._next_slot = 0
        # allocation counters (the driver aggregates these)
        self.regions_allocated = 0
        self.regions_freed = 0
        self.bytes_mapped = 0
        self.page_faults = 0
        self.pages_grown = 0
        self.alloc_failures = 0
        # submission counters and fairness probes
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.dispatches = 0
        self.preemptions = 0
        self.wait_ticks = 0
        # per-tenant architectural stats: the clause ledger of *completed*
        # jobs only (preempted partial runs are discarded and replayed,
        # keeping this preemption-invariant), plus the tenant's share of
        # MMU translations captured around its dispatch windows
        self.ledger = ClauseLedger()
        self.translations = 0

    # -- physical / virtual allocators ------------------------------------

    def _alloc_frame(self):
        frame = self._alloc_phys(PAGE_SIZE)
        self.driver.bus.memory.fill(frame, PAGE_SIZE, 0)
        return frame

    def _alloc_phys(self, size):
        injector = self.driver.injector
        if injector is not None:
            previous = injector.current_tenant
            injector.current_tenant = self.tenant_id
            try:
                params = injector.fire("alloc.phys")
            finally:
                injector.current_tenant = previous
            if params is not None:
                self.alloc_failures += 1
                raise DriverError("injected transient allocation failure")
        return self.allocator.alloc(size)

    @property
    def heap_used(self):
        return self.allocator.used

    @property
    def free_bytes(self):
        return self.allocator.free_bytes

    @property
    def bytes_recycled(self):
        return self.allocator.bytes_recycled

    def alloc_region(self, size, executable=False, grow_on_fault=False):
        """Allocate and GPU-map a region of at least *size* bytes.

        With ``grow_on_fault`` the region reserves its full extent but
        commits only :data:`GROW_INITIAL_PAGES` pages; the
        remainder is mapped on demand by :meth:`handle_fault`.
        """
        if grow_on_fault and executable:
            raise DriverError("grow-on-fault regions cannot be executable")
        size = _round_up(max(size, 1), PAGE_SIZE)
        phys = self._alloc_phys(size)
        gpu_va = self._va_next
        self._va_next += size + PAGE_SIZE  # guard page between regions
        flags = PTE_READ | PTE_WRITE | (PTE_EXEC if executable else 0)
        if grow_on_fault:
            committed = min(size, GROW_INITIAL_PAGES * PAGE_SIZE)
        else:
            committed = size
        self._page_table.map_range(gpu_va, phys, committed, flags)
        self.driver._write(regs.MMU_FLUSH, 1)
        self.regions_allocated += 1
        self.bytes_mapped += committed
        region = Region(gpu_va=gpu_va, phys=phys, size=size,
                        committed=committed, growable=grow_on_fault)
        self.live_regions.append(region)
        return region

    def free_region(self, region):
        """Unmap a region and recycle its physical extent."""
        offset = 0
        while offset < region.committed:
            self._page_table.unmap_page(region.gpu_va + offset)
            offset += PAGE_SIZE
        self.driver._write(regs.MMU_FLUSH, 1)
        self.allocator.free(region.phys, region.size)
        self.bytes_mapped -= region.committed
        region.committed = 0
        self.regions_freed += 1
        self.live_regions = [r for r in self.live_regions if r is not region]

    def handle_fault(self, vaddr, access):
        """Grow-on-fault resolver for this tenant's VA space (see
        :meth:`KBaseDriver.handle_page_fault`)."""
        for region in self.live_regions:
            if not (region.growable
                    and region.gpu_va <= vaddr < region.gpu_va + region.size):
                continue
            offset = vaddr - region.gpu_va
            if offset < region.committed:
                return True  # a sibling unit grew the window already
            fault_page_end = _round_up(offset + 1, PAGE_SIZE)
            target = min(
                region.size,
                fault_page_end + GROW_CHUNK_PAGES * PAGE_SIZE)
            grow = target - region.committed
            self._page_table.map_range(
                region.gpu_va + region.committed,
                region.phys + region.committed,
                grow, PTE_READ | PTE_WRITE)
            region.committed = target
            self.page_faults += 1
            self.pages_grown += grow // PAGE_SIZE
            self.bytes_mapped += grow
            if self.driver.events is not None:
                self.driver.events.instant(
                    "page_fault_grow", "driver", "kbase",
                    args={"vaddr": vaddr, "access": access,
                          "tenant": self.tenant_id,
                          "grown_pages": grow // PAGE_SIZE})
            return True
        return False

    # -- job submission ----------------------------------------------------

    def _ensure_descriptor_region(self):
        if self._descriptor_region is None:
            self._descriptor_region = self.alloc_region(PAGE_SIZE)
        return self._descriptor_region

    def build_descriptor(self, global_size, local_size, binary_region,
                         binary_size, uniform_region, uniform_count,
                         local_mem_size=0, slot=0, next_va=0):
        """Write a compute-job descriptor; returns its GPU VA.

        Multiple descriptors can share the descriptor page via *slot* to
        form job chains or to keep several submissions in flight.
        """
        if not self.driver.initialized:
            raise DriverError("driver not initialized")
        descriptor_region = self._ensure_descriptor_region()
        offset = slot * DESCRIPTOR_SIZE
        if offset + DESCRIPTOR_SIZE > descriptor_region.size:
            raise DriverError(f"descriptor slot {slot} out of range")
        blob = struct.pack(
            DESCRIPTOR_FORMAT,
            JOB_TYPE_COMPUTE,
            0,  # flags
            global_size[0], global_size[1], global_size[2],
            local_size[0], local_size[1], local_size[2],
            binary_region.gpu_va,
            binary_size,
            local_mem_size,
            uniform_region.gpu_va if uniform_region is not None else 0,
            uniform_count,
            0,  # reserved
            next_va,
        )
        self.driver.bus.write_block(descriptor_region.phys + offset, blob)
        return descriptor_region.gpu_va + offset

    def submit_and_wait(self, descriptor_va):
        """Synchronous submission: one job handed straight to
        :meth:`KBaseDriver._dispatch`, not through the arbiter's queue —
        it stays ahead of anything queued and (``workgroups=0``: never
        sliced) runs to completion. Returns the completion status or
        raises what the ladder raised."""
        job = PendingJob(tenant_id=self.tenant_id,
                         priority=self.qos.priority,
                         descriptor_va=descriptor_va, tenant=self)
        self.jobs_submitted += 1
        self.driver._dispatch(job)
        if job.error is not None:
            raise job.error
        return job.status

    def submit_job_async(self, global_size, local_size, binary_region,
                         binary_size, uniform_region, uniform_count,
                         local_mem_size=0, label=""):
        """Queue a job with the arbiter; returns a :class:`PendingJob`.

        The descriptor lands in this tenant's next cycling descriptor
        slot (up to ``PAGE_SIZE // DESCRIPTOR_SIZE`` submissions can be
        in flight per tenant). Run the queue with
        :meth:`KBaseDriver.drain`.
        """
        slot = self._next_slot
        self._next_slot = (self._next_slot + 1) % self._descriptor_slots
        descriptor_va = self.build_descriptor(
            global_size, local_size, binary_region, binary_size,
            uniform_region, uniform_count, local_mem_size, slot=slot)
        workgroups = 1
        for dim in range(3):
            size = max(global_size[dim], 1)
            local = max(local_size[dim], 1)
            workgroups *= -(-size // local)
        job = PendingJob(tenant_id=self.tenant_id,
                         priority=self.qos.priority,
                         descriptor_va=descriptor_va,
                         workgroups=workgroups, tenant=self, label=label)
        self.jobs_submitted += 1
        self.driver.arbiter.submit(job)
        return job

    def run_job(self, global_size, local_size, binary_region, binary_size,
                uniform_region, uniform_count, local_mem_size=0):
        """Convenience: build a single-job descriptor, submit it, wait."""
        descriptor_va = self.build_descriptor(
            global_size, local_size, binary_region, binary_size,
            uniform_region, uniform_count, local_mem_size,
        )
        return self.submit_and_wait(descriptor_va)

    def read_va(self, va, size):
        """*size* bytes at GPU VA *va* of this tenant's address space,
        or None when any page is unmapped. Walks the page tables with a
        private walker registered nowhere, so no MMU counter moves —
        the checkpoint restore rewarms the decode cache through this."""
        memory = self.driver.bus.memory
        walker = PageTableWalker(memory, self._page_table.root)
        out = bytearray()
        while len(out) < size:
            vaddr = va + len(out)
            entry = walker.lookup_page(vaddr)
            if entry is None:
                return None
            offset = vaddr & (PAGE_SIZE - 1)
            out += memory.read_block(
                entry[0] + offset,
                min(size - len(out), PAGE_SIZE - offset))
        return bytes(out)

    def get_state(self):
        state = super().get_state()
        state["live_regions"] = [asdict(region)
                                 for region in self.live_regions]
        state["descriptor_region"] = next(
            (index for index, region in enumerate(self.live_regions)
             if region is self._descriptor_region), None)
        return state

    def set_state(self, state):
        super().set_state(state)
        self.live_regions = [Region(**region)
                             for region in state["live_regions"]]
        # free_region filters by identity: the descriptor region must be
        # the live_regions object itself, so it is saved as an index
        index = state["descriptor_region"]
        self._descriptor_region = (None if index is None
                                   else self.live_regions[index])

    def register_stats(self, scope):
        """Register this tenant's subtree under *scope* (``tenant{i}``).

        The architectural stats (the JobStats of completed jobs, derived
        from the tenant's clause ledger when read; MMU translation share,
        distinct pages in this address space, allocation shape) are
        golden — identical across engines and schedulers for
        replayable workloads. The scheduling probes (waits, preemptions,
        dispatches) are diagnostics.
        """
        from repro.instrument.registry import register_job_stats

        register_job_stats(scope.scope("gpu.job"), self.ledger.stats)
        mmu_scope = scope.scope("gpu.mmu")
        mmu_scope.probe("translations", lambda: self.translations,
                        desc="MMU translations in this tenant's windows")
        gpu = self.driver._gpu
        if gpu is not None:
            mmu_scope.probe(
                "pages_accessed",
                (lambda mmu=gpu.mmu: mmu.pages_accessed_in(self.as_id)),
                desc="distinct pages touched in this address space")
        mem_scope = scope.scope("mem")
        mem_scope.probe("regions_allocated", lambda: self.regions_allocated,
                        desc="regions allocated by this tenant")
        mem_scope.probe("regions_freed", lambda: self.regions_freed,
                        desc="regions freed by this tenant")
        mem_scope.probe("bytes_mapped", lambda: self.bytes_mapped,
                        desc="bytes mapped in this tenant's VA space")
        mem_scope.probe("page_faults", lambda: self.page_faults,
                        desc="grow-on-fault page faults")
        mem_scope.probe("pages_grown", lambda: self.pages_grown,
                        desc="pages mapped by the page-fault worker")
        mem_scope.probe("heap_used", lambda: self.heap_used,
                        desc="carve-out bytes claimed", golden=False)
        job_scope = scope.scope("job")
        job_scope.probe("jobs_submitted", lambda: self.jobs_submitted,
                        desc="jobs submitted by this tenant")
        job_scope.probe("jobs_completed", lambda: self.jobs_completed,
                        desc="jobs completed for this tenant")
        job_scope.probe("jobs_failed", lambda: self.jobs_failed,
                        desc="jobs surfaced to this tenant as faults")
        sched_scope = scope.scope("sched")
        sched_scope.probe("dispatches", lambda: self.dispatches,
                          desc="job-slot dispatches (incl. replays)",
                          golden=False)
        sched_scope.probe("preemptions", lambda: self.preemptions,
                          desc="soft-stop preemptions of this tenant",
                          golden=False)
        sched_scope.probe("wait_ticks", lambda: self.wait_ticks,
                          desc="dispatch ticks spent queued", golden=False)


class KBaseDriver(Stateful):
    """Kernel-side GPU driver.

    Args:
        bus: the system bus (registers are accessed through it, so every
            access is routed to — and counted by — the GPU device).
        irqc: the platform interrupt controller.
        gpu_mmio_base: physical base of the GPU register window.
        heap_base/heap_size: physical carve-out the driver allocates
            buffers, page tables and descriptors from.
        tenancy: a :class:`TenancyConfig`; None hosts a single default
            tenant spanning the whole heap (the pre-tenancy behaviour).
    """

    STATE_FIELDS = (
        "jobs_submitted", "retries", "resets", "soft_stops", "hard_stops",
        "irq_mismatches", "spurious_irqs", "backoff_ticks",
        "faults_unrecovered", "as_switches", "initialized", "_job_slice",
    )
    STATE_CHILDREN = ("arbiter",)

    def __init__(self, bus, irqc, gpu_mmio_base, heap_base, heap_size,
                 tenancy=None):
        self.bus = bus
        self.irqc = irqc
        self.gpu_mmio_base = gpu_mmio_base
        self.heap_base = heap_base
        self.heap_size = heap_size
        self.events = None  # optional EventTracer (ioctl-level spans)
        self.injector = None  # optional FaultInjector (repro.inject)
        self._gpu = None  # optional GPUDevice (attach_gpu), for stats
        self.initialized = False
        self._grow_lock = threading.Lock()
        # submission/recovery counters (deterministic under a fault plan)
        self.jobs_submitted = 0
        self.retries = 0
        self.resets = 0
        self.soft_stops = 0
        self.hard_stops = 0
        self.irq_mismatches = 0
        self.spurious_irqs = 0
        self.backoff_ticks = 0
        self.faults_unrecovered = 0
        self.as_switches = 0
        # tenants: carve the heap into equal per-tenant extents (the
        # degenerate single-tenant config spans the whole heap, making
        # the legacy surface bit-identical to the pre-tenancy driver)
        self.tenancy = tenancy or TenancyConfig([TenantSpec("default")])
        self.arbiter = JobSlotArbiter()
        count = len(self.tenancy.tenants)
        quota = (heap_size // count) & ~(PAGE_SIZE - 1)
        if quota < 8 * PAGE_SIZE:
            raise DriverError(
                f"heap too small for {count} tenants ({quota} bytes each)")
        self.tenants = []
        for index, spec in enumerate(self.tenancy.tenants):
            base = heap_base + index * quota
            bus.memory.register_carveout(f"tenant{index}", base, quota)
            self.tenants.append(TenantContext(
                self, index, spec, DEFAULT_QOS_CLASSES[spec.qos], base,
                quota))
        self._default_tenant = self.tenants[0]
        # the tenant whose page tables the GPU MMU currently walks
        self._mmu_tenant = self._default_tenant
        self._job_slice = 0  # shadow of the GPU's JOB_SLICE register
        # zero-arg hook _dispatch calls last, once per settled (completed
        # or failed) job — the auto-checkpoint wiring attaches here
        self.on_job_retired = None

    def tenant(self, tenant_id):
        return self.tenants[tenant_id]

    @property
    def default_tenant(self):
        """The tenant behind the legacy single-client surface."""
        return self._default_tenant

    def get_state(self):
        state = super().get_state()
        state["mmu_tenant"] = self._mmu_tenant.tenant_id
        state["tenants"] = [tenant.get_state() for tenant in self.tenants]
        return state

    def set_state(self, state):
        if len(state["tenants"]) != len(self.tenants):
            raise ValueError(
                "saved tenant set does not match the tenancy config")
        super().set_state(state)
        for tenant, saved in zip(self.tenants, state["tenants"]):
            tenant.set_state(saved)
        self._mmu_tenant = self.tenants[state["mmu_tenant"]]
        for job in self.arbiter.queued_jobs():
            job.tenant = self.tenants[job.tenant_id]

    def register_stats(self, scope):
        """Register driver counters under *scope* (``driver.kbase``)."""
        scope.probe("jobs_submitted", lambda: self.jobs_submitted,
                    desc="job chains rung through the doorbell")
        scope.probe("regions_allocated", lambda: self.regions_allocated,
                    desc="GPU-mapped memory regions allocated")
        scope.probe("regions_freed", lambda: self.regions_freed,
                    desc="regions unmapped and recycled")
        scope.probe("bytes_mapped", lambda: self.bytes_mapped,
                    desc="bytes currently mapped into the GPU VA zone")
        scope.probe("bytes_recycled", lambda: self.bytes_recycled,
                    desc="freed bytes handed back by the allocator")
        scope.probe("free_bytes", lambda: self.free_bytes,
                    desc="bytes sitting on the physical free list")
        scope.probe("page_faults", lambda: self.page_faults,
                    desc="GPU page faults resolved by growing a region")
        scope.probe("pages_grown", lambda: self.pages_grown,
                    desc="pages mapped by the page-fault worker")
        scope.probe("retries", lambda: self.retries,
                    desc="job resubmissions by the recovery ladder")
        scope.probe("resets", lambda: self.resets,
                    desc="full GPU resets (power-up sequence re-run)")
        scope.probe("soft_stops", lambda: self.soft_stops,
                    desc="JOB_COMMAND soft-stops issued")
        scope.probe("hard_stops", lambda: self.hard_stops,
                    desc="JOB_COMMAND hard-stops issued")
        scope.probe("irq_mismatches", lambda: self.irq_mismatches,
                    desc="lost IRQs recovered from rawstat cross-check")
        scope.probe("spurious_irqs", lambda: self.spurious_irqs,
                    desc="spurious IRQ lines acknowledged")
        scope.probe("backoff_ticks", lambda: self.backoff_ticks,
                    desc="deterministic backoff units between retries")
        scope.probe("alloc_failures", lambda: self.alloc_failures,
                    desc="allocation failures (injected or heap pressure)",
                    golden=False)
        scope.probe("faults_unrecovered", lambda: self.faults_unrecovered,
                    desc="jobs surfaced as JobFault after retry exhaustion")
        scope.probe("as_switches", lambda: self.as_switches,
                    desc="MMU address-space installs (tenant switches)",
                    golden=False)
        scope.probe("preemptions", lambda: self.preemptions,
                    desc="soft-stop preemptions issued by the arbiter",
                    golden=False)

    # -- low-level register access -------------------------------------------

    def _read(self, offset):
        return self.bus.read_u32(self.gpu_mmio_base + offset)

    def _write(self, offset, value):
        self.bus.write_u32(self.gpu_mmio_base + offset, value)

    def attach_gpu(self, gpu):
        """Give the driver a direct handle on the GPU device (used only
        for statistics capture: per-tenant clause ledgers and MMU
        translation deltas — never for control, which stays MMIO)."""
        self._gpu = gpu

    # -- default-tenant surface: what a tenant-less client calls; with
    # run_job (below) it delegates to tenant 0. The e2e tracer patches
    # these names on the driver ----------------------------------------------

    @property
    def _free_extents(self):
        return self._default_tenant.allocator._free_extents

    @property
    def heap_used(self):
        """Bytes claimed from the bump pointers (recycling excluded)."""
        return sum(t.heap_used for t in self.tenants)

    @property
    def free_bytes(self):
        return sum(t.free_bytes for t in self.tenants)

    @property
    def bytes_recycled(self):
        return sum(t.bytes_recycled for t in self.tenants)

    @property
    def regions_allocated(self):
        return sum(t.regions_allocated for t in self.tenants)

    @property
    def regions_freed(self):
        return sum(t.regions_freed for t in self.tenants)

    @property
    def bytes_mapped(self):
        return sum(t.bytes_mapped for t in self.tenants)

    @property
    def page_faults(self):
        return sum(t.page_faults for t in self.tenants)

    @property
    def pages_grown(self):
        return sum(t.pages_grown for t in self.tenants)

    @property
    def alloc_failures(self):
        return sum(t.alloc_failures for t in self.tenants)

    @property
    def preemptions(self):
        return sum(t.preemptions for t in self.tenants)

    def alloc_region(self, size, executable=False, grow_on_fault=False):
        return self._default_tenant.alloc_region(size, executable,
                                                 grow_on_fault)

    def free_region(self, region):
        return self._default_tenant.free_region(region)

    def build_descriptor(self, global_size, local_size, binary_region,
                         binary_size, uniform_region, uniform_count,
                         local_mem_size=0, slot=0, next_va=0):
        return self._default_tenant.build_descriptor(
            global_size, local_size, binary_region, binary_size,
            uniform_region, uniform_count, local_mem_size, slot, next_va)

    # -- page-fault worker (grow-on-fault) ------------------------------------

    def handle_page_fault(self, vaddr, access):
        """The MMU's parked-transaction resolver (kbase page-fault worker).

        Returns True when *vaddr* fell inside a grow-on-fault region of
        the tenant whose address space is installed and fresh pages were
        mapped (or another unit already grew past it), so the MMU
        retries the walk and the access resumes. Any other address
        returns False and faults normally.
        """
        with self._grow_lock:
            return self._mmu_tenant.handle_fault(vaddr, access)

    # -- initialization -----------------------------------------------------------

    def _power_up(self):
        """Probe and power the GPU; install IRQ masks and page tables.

        Shared by first bring-up and post-reset recovery, exactly like
        kbase re-running its init sequence after a GPU reset. Reinstalls
        the *current* tenant's address space — a mid-campaign GPU reset
        must not leak another tenant's page tables into the restart.
        """
        gpu_id = self._read(regs.GPU_ID)
        if gpu_id != regs.GPU_ID_VALUE:
            raise DriverError(f"unexpected GPU id 0x{gpu_id:08x}")
        present = self._read(regs.SHADER_PRESENT)
        self._write(regs.PWR_ON, present)
        ready = self._read(regs.SHADER_READY)
        if ready != present:
            raise DriverError("shader cores failed to power up")
        self._write(regs.JOB_IRQ_MASK, regs.JOB_IRQ_DONE | regs.JOB_IRQ_FAULT)
        self._write(regs.MMU_IRQ_MASK, regs.MMU_IRQ_FAULT)
        tenant = self._mmu_tenant
        if tenant.as_id:
            self._write(regs.MMU_AS, tenant.as_id)
        root = tenant._page_table.root
        self._write(regs.MMU_PGD_LO, root & 0xFFFFFFFF)
        self._write(regs.MMU_PGD_HI, root >> 32)
        self._write(regs.MMU_ENABLE, 1)
        self._job_slice = 0  # the reset cleared the device's register

    def initialize_gpu(self):
        """Probe and power up the GPU; install page tables and IRQ masks.

        Every tenant gets its descriptor page as the first allocation in
        its carve-out, so tenant layouts are symmetric."""
        self._power_up()
        for tenant in self.tenants:
            tenant._ensure_descriptor_region()
        self.initialized = True

    def reset_gpu(self):
        """GPU reset and re-bring-up (the top of the recovery ladder).

        Issues a ``GPU_COMMAND`` soft reset — the device returns to its
        power-on state, losing IRQ masks, the page-table base and the
        decode cache — then re-runs the power-up sequence and reinstalls
        the page tables. Mapped regions survive: the tables live in
        memory and the reset only cleared the GPU's pointer to them.
        """
        self._write(regs.GPU_COMMAND, regs.GPU_COMMAND_SOFT_RESET)
        self.resets += 1
        self._power_up()
        if self.events is not None:
            self.events.instant("gpu_reset", "driver", "kbase",
                                args={"resets": self.resets})

    # -- tenant switching ------------------------------------------------------

    def _install_address_space(self, tenant):
        """Point the GPU MMU at *tenant*'s page tables (no-op when they
        are already installed, so the single-tenant register traffic is
        unchanged from the pre-tenancy driver)."""
        if tenant is self._mmu_tenant:
            return
        self._write(regs.MMU_AS, tenant.as_id)
        root = tenant._page_table.root
        self._write(regs.MMU_PGD_LO, root & 0xFFFFFFFF)
        self._write(regs.MMU_PGD_HI, root >> 32)
        self._write(regs.MMU_ENABLE, 1)
        self._mmu_tenant = tenant
        self.as_switches += 1
        if self.events is not None:
            self.events.instant("as_switch", "driver", "kbase",
                                args={"tenant": tenant.tenant_id})

    # -- arbitrated dispatch ---------------------------------------------------

    def _slice_budget(self, job):
        """Workgroup budget for this dispatch; 0 runs to completion.

        A job is sliced only when its class says so, other work is
        waiting, and it has not exhausted :data:`MAX_PREEMPTIONS` (the
        budget doubles per preemption, then the job runs unbounded —
        guaranteed forward progress).
        """
        if job.tenant is None or job.workgroups <= 0:
            return 0
        slice_workgroups = job.tenant.qos.slice_workgroups
        if not slice_workgroups or not self.arbiter.waiting:
            return 0
        if job.preemptions >= MAX_PREEMPTIONS:
            return 0
        budget = slice_workgroups << job.preemptions
        return budget if budget < job.workgroups else 0

    def _dispatch(self, job):
        """Run *job* on the GPU as its tenant: the one envelope around
        the ladder, for queued and synchronous submissions alike.

        In order: install the tenant's address space; arm or clear
        ``JOB_SLICE``; scope the injector and the tenant's share of MMU
        translations around :meth:`submit_and_wait`; settle the job. A
        preempted slice requeues. A settled job — completed, or failed
        with the error left on ``job.error`` — is accounted on its
        tenant, and only then does ``on_job_retired`` run: once, outside
        the scope, so a checkpoint taken from the hook holds the job.
        """
        tenant = job.tenant
        self._install_address_space(tenant)
        tenant.dispatches += 1
        tenant.wait_ticks += job.wait_ticks
        budget = self._slice_budget(job)
        if budget != self._job_slice:
            self._write(regs.JOB_SLICE, budget)
            self._job_slice = budget
        injector, gpu = self.injector, self._gpu
        if injector is not None:
            previous = injector.current_tenant
            injector.current_tenant = tenant.tenant_id
        if gpu is not None:
            translations = gpu.mmu.translations
        try:
            result = self.submit_and_wait(job.descriptor_va)
        except SimError as exc:
            job.error = exc
        finally:
            if injector is not None:
                injector.current_tenant = previous
            if gpu is not None:
                tenant.translations += gpu.mmu.translations - translations
        if job.error is None and result is PREEMPTED:
            tenant.preemptions += 1
            self.arbiter.requeue(job)
            if self.events is not None:
                self.events.instant(
                    "job_preempted", "driver", "kbase",
                    args={"tenant": tenant.tenant_id, "budget": budget,
                          "preemptions": job.preemptions})
            return
        job.done = True
        if job.error is not None:
            tenant.jobs_failed += 1
        else:
            job.status = result
            tenant.jobs_completed += 1
            if gpu is not None:
                for result in gpu.last_results:
                    tenant.ledger.add(result)
        if self.on_job_retired is not None:
            self.on_job_retired()

    def drain(self, max_dispatches=None):
        """Dispatch queued jobs until the queue is dry.

        Faulted jobs record their error on the :class:`PendingJob`
        (``job.error``) instead of raising — one tenant's fault must not
        tear down the dispatch loop the others are being served from.

        *max_dispatches* bounds how many arbiter picks this call makes
        and then returns with the rest still queued — a clean checkpoint
        boundary: a job the GPU soft-stopped at its ``JOB_SLICE`` budget
        is already requeued as preempted, so the whole dispatch state is
        in the arbiter and serializes with it.
        """
        dispatched = 0
        while max_dispatches is None or dispatched < max_dispatches:
            job = self.arbiter.next_job()
            if job is None:
                return
            self._dispatch(job)
            dispatched += 1

    # -- job submission ----------------------------------------------------------

    def submit_and_wait(self, descriptor_va):
        """Ring the doorbell; wait, recover if possible, acknowledge —
        the doorbell and the recovery ladder, in whatever address space
        is installed. Called from :meth:`_dispatch`, which picks the
        tenant and does the accounting; nothing is accounted here.

        Returns the completion status, or :data:`PREEMPTED` when the GPU
        parked a ``JOB_SLICE``-budgeted job with ``REASON_SOFT_STOPPED``
        (only a queued dispatch arms a budget).

        Raises:
            JobFault: the job faulted and the recovery ladder (bounded
                retries escalating soft-stop → hard-stop → GPU reset)
                could not complete it. The driver and GPU remain usable.
        """
        if not self.initialized:
            raise DriverError("driver not initialized")
        if self.events is not None:
            with self.events.span("kbase_ioctl(job_submit)", "driver",
                                  "kbase", args={"descriptor_va":
                                                 descriptor_va}):
                return self._submit_and_wait(descriptor_va)
        return self._submit_and_wait(descriptor_va)

    def _submit_and_wait(self, descriptor_va):
        attempt = 0
        while True:
            if self.injector is not None:
                params = self.injector.fire("irq.spurious")
                if params is not None:
                    # assert an IRQ line with no device state behind it;
                    # the completion path detects and acknowledges it
                    line = (InterruptController.SRC_GPU_JOB
                            if params.get("line") == "job"
                            else InterruptController.SRC_GPU_MMU)
                    self.irqc.raise_irq(line)
            self._write(regs.JOB_SUBMIT_LO, descriptor_va & 0xFFFFFFFF)
            self._write(regs.JOB_SUBMIT_HI, descriptor_va >> 32)
            self.jobs_submitted += 1
            done, value = self._complete_one()
            if done:
                return value
            reason, info = value
            if reason == regs.REASON_SOFT_STOPPED:
                # arbiter preemption: the budgeted prefix ran, the slot
                # parked cleanly — not a fault, the dispatcher requeues
                return PREEMPTED
            attempt += 1
            if attempt > MAX_RETRIES:
                self.faults_unrecovered += 1
                raise JobFault(
                    f"unrecoverable job fault after {attempt - 1} "
                    f"retries: {info}")
            # deterministic escalation: a hung slot is soft-stopped, then
            # hard-stopped; the final attempt is preceded by a full GPU
            # reset whatever the fault class
            if reason == regs.REASON_HANG and attempt == 1:
                self._write(regs.JOB_COMMAND, regs.JOB_COMMAND_SOFT_STOP)
                self.soft_stops += 1
            elif reason == regs.REASON_HANG and attempt == 2:
                self._write(regs.JOB_COMMAND, regs.JOB_COMMAND_HARD_STOP)
                self.hard_stops += 1
            elif attempt == MAX_RETRIES:
                self.reset_gpu()
            self.retries += 1
            # progress-unit backoff, doubling per attempt — deterministic,
            # no wall clock involved
            self.backoff_ticks += BACKOFF_BASE << (attempt - 1)
            if self.events is not None:
                self.events.instant(
                    "job_retry", "driver", "kbase",
                    args={"attempt": attempt, "reason": reason})

    def _poll_completion(self):
        """Cross-check the IRQC pending lines against GPU rawstat.

        Returns ``(pending, rawstat, mismatch)``: ``mismatch`` is None
        when the two agree, ``'lost'`` for rawstat with no pending line
        and ``'spurious'`` for a pending line with nothing behind it.
        """
        pending = self.irqc.read_reg(IRQC_PENDING)
        rawstat = self._read(regs.JOB_IRQ_RAWSTAT)
        if rawstat and not pending & InterruptController.SRC_GPU_JOB:
            return pending, rawstat, "lost"
        if pending & InterruptController.SRC_GPU_JOB and not rawstat:
            return pending, rawstat, "spurious"
        if not rawstat:
            raise DriverError("job submitted but no completion IRQ")
        return pending, rawstat, None

    def _complete_one(self):
        """Wait for one submission; returns ``(True, status)`` on
        completion or ``(False, (reason, info))`` on a fault the ladder
        may retry. IRQ mismatches are recovered here (and counted)."""
        pending, rawstat, mismatch = self._poll_completion()
        if mismatch == "lost":
            # the GPU finished but the line never latched: trust the
            # rawstat we already read, acknowledge everything below
            self.irq_mismatches += 1
        elif mismatch == "spurious":
            # pending line with no work behind it: acknowledge the
            # ghost and look again
            self.spurious_irqs += 1
            self.irqc.write_reg(IRQC_ACK, InterruptController.SRC_GPU_JOB)
            pending = self.irqc.read_reg(IRQC_PENDING)
            rawstat = self._read(regs.JOB_IRQ_RAWSTAT)
            if not rawstat:
                raise DriverError("spurious completion IRQ with idle GPU")
        status = self._read(regs.JOB_STATUS)
        self._write(regs.JOB_IRQ_CLEAR, rawstat)
        ack_mask = InterruptController.SRC_GPU_JOB
        if rawstat & regs.JOB_IRQ_FAULT:
            reason = self._read(regs.JOB_FAULT_REASON)
            mmu_raw = self._read(regs.MMU_IRQ_RAWSTAT)
            fault_lo = self._read(regs.MMU_FAULT_ADDR_LO)
            fault_hi = self._read(regs.MMU_FAULT_ADDR_HI)
            fault_status = self._read(regs.MMU_FAULT_STATUS)
            self._write(regs.MMU_IRQ_CLEAR, mmu_raw)
            ack_mask |= InterruptController.SRC_GPU_MMU
            self.irqc.write_reg(IRQC_ACK, ack_mask)
            fault_addr = fault_lo | (fault_hi << 32)
            info = (f"reason={reason} status={status} "
                    f"mmu_status={fault_status} addr=0x{fault_addr:x}")
            return False, (reason, info)
        # clean completion; a pending MMU line with empty rawstat behind
        # it is a spurious interrupt — acknowledge and count it
        if pending & InterruptController.SRC_GPU_MMU:
            mmu_raw = self._read(regs.MMU_IRQ_RAWSTAT)
            if not mmu_raw:
                self.spurious_irqs += 1
            else:
                self._write(regs.MMU_IRQ_CLEAR, mmu_raw)
            ack_mask |= InterruptController.SRC_GPU_MMU
        self.irqc.write_reg(IRQC_ACK, ack_mask)
        return True, status

    def run_job(self, global_size, local_size, binary_region, binary_size,
                uniform_region, uniform_count, local_mem_size=0):
        """Convenience: build a single-job descriptor, submit it, wait."""
        descriptor_va = self.build_descriptor(
            global_size, local_size, binary_region, binary_size,
            uniform_region, uniform_count, local_mem_size,
        )
        return self._default_tenant.submit_and_wait(descriptor_va)
