"""The Job Manager.

"The Job Manager receives jobs from the GPU device driver, and schedules
them for execution on the GPU. The jobs contain information specific to the
shader being executed, including job dependences, dimensions, and pointers
to the shader binary, which is then used to map jobs onto SCs."

The driver writes a job descriptor into GPU-visible memory and rings the
doorbell register with its GPU VA. The Job Manager parses the descriptor
*through the GPU MMU* (so descriptor pages count as GPU page traffic),
decodes the shader binary once (the decode cache of Section III-B3: per
platform by binary address, behind it one process-wide table by image
bytes, so a fresh platform still fetches each binary but decodes
nothing the process has decoded before), splits
the NDRange into thread-groups and runs them on its one compute unit, in
lockstep batches where the unit's engine can. The unit persists, so a
decoded program is also translated once, and dropped with it.

The paper maps thread-groups onto host threads (Fig. 10). Under CPython a
pool of host threads only ever slowed a job down, so the simulator runs
one unit and spends workgroup independence on vector width instead.
"""

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DecodeError,
    JobFault,
    JobHang,
    JobPreempted,
    MMUFault,
    WatchdogTimeout,
)
from repro.gpu.encoding import decode_program
from repro.gpu.shadercore import ComputeUnit, WorkgroupShape
from repro.hostcode import BoundedTable
from repro.instrument.cfg import DivergenceCFG
from repro.instrument.stats import JobStats
from repro.state import Stateful

JOB_TYPE_COMPUTE = 1

# Progress-budget watchdog: scheduler rounds one workgroup may consume
# before the job is parked as hung. A round retires whole warp batches, so
# real kernels use a handful of rounds (one per barrier epoch); the budget
# is generous while still bounding injected clause-budget stalls and
# barrier livelocks. Progress units, never wall-clock time.
WATCHDOG_ROUND_BUDGET = 4096

# descriptor field offsets (bytes)
_OFF_TYPE = 0x00
_OFF_FLAGS = 0x04
_OFF_GLOBAL = 0x08  # 3 x u32
_OFF_LOCAL = 0x14  # 3 x u32
_OFF_BINARY_VA = 0x20  # u64
_OFF_BINARY_SIZE = 0x28  # u32
_OFF_LOCAL_MEM = 0x2C  # u32
_OFF_UNIFORM_VA = 0x30  # u64
_OFF_UNIFORM_COUNT = 0x38  # u32
_OFF_NEXT = 0x40  # u64
DESCRIPTOR_SIZE = 0x48

#: The process-wide decode table: binary image -> the program decoded
#: from it, shared by every platform (a decoded program is read-only). A
#: failed decode stores nothing, so a corrupt image raises every time.
DECODE_TABLE_SIZE = 256
_programs = BoundedTable(DECODE_TABLE_SIZE)


def _decoded(image):
    return _programs.lookup(image, lambda: decode_program(image))


@dataclass
class JobDescriptor:
    """Parsed compute-job descriptor."""

    job_type: int
    flags: int
    global_size: tuple
    local_size: tuple
    binary_va: int
    binary_size: int
    local_mem_size: int
    uniform_va: int
    uniform_count: int
    next_va: int


@dataclass
class JobResult:
    """Outcome of one retired job."""

    descriptor: JobDescriptor
    stats: JobStats
    program: object
    clause_counts: dict

    @property
    def cfg(self):
        """The divergence CFG (None without instrumentation)."""
        if self.clause_counts is not None:
            return DivergenceCFG.from_clause_counts(self.program.clauses,
                                                    self.clause_counts)


class JobManager(Stateful):
    """Parses descriptors, owns the decode cache, dispatches thread-groups."""

    STATE_FIELDS = (
        "decode_count", "jobs_retired", "watchdog_timeouts",
        "jobs_preempted", "descriptor_corruptions", "decode_cache_enabled",
    )
    STATE_CHILDREN = ("total_stats",)

    def __init__(self, mmu, instrument=True, tracer=None,
                 engine="interpreter", events=None,
                 watchdog_budget=WATCHDOG_ROUND_BUDGET):
        self.mmu = mmu
        self.instrument = instrument
        self.tracer = tracer
        self.engine = engine
        self.events = events  # optional EventTracer (job-lifecycle spans)
        self.injector = None  # optional FaultInjector (repro.inject)
        self.watchdog_budget = watchdog_budget
        self.watchdog_timeouts = 0
        self.jobs_preempted = 0
        self.descriptor_corruptions = 0
        self.decode_cache_enabled = True  # ablation knob (Section III-B3)
        self._decode_cache = {}
        self.decode_count = 0
        self.results = []
        # persists across jobs: its local slab and kernel translations
        self.unit = ComputeUnit()
        # running totals across retired jobs, observed by the StatsRegistry
        self.jobs_retired = 0
        self.total_stats = JobStats()

    def register_stats(self, gpu_scope):
        """Register Job Manager counters under the GPU's scope: the
        ``jobmanager`` group, the retired-``job`` JobStats view, and the
        ``core0.warp`` group of the one execution unit (every job runs
        there, so it reads the same totals)."""
        from repro.instrument.registry import register_job_stats

        unit = self.unit
        jm = gpu_scope.scope("jobmanager")
        jm.probe("jobs_retired", lambda: self.jobs_retired,
                 desc="compute jobs run to completion")
        jm.probe("descriptor_decodes", lambda: self.decode_count,
                 desc="shader binaries decoded (cache misses)",
                 golden=False)
        jm.probe("kernel_translations", lambda: unit.translations_built,
                 desc="mega translations built (by this process)",
                 golden=False)
        jm.probe("batches_run", lambda: unit.batches_run,
                 desc="mega lockstep batches of workgroups started",
                 golden=False)
        jm.probe("batches_abandoned", lambda: unit.batches_abandoned,
                 desc="lockstep batches abandoned (their groups rerun singly)",
                 golden=False)
        jm.probe("jobs_preempted", lambda: self.jobs_preempted,
                 desc="jobs parked at their JOB_SLICE workgroup budget",
                 golden=False)
        register_job_stats(gpu_scope.scope("job"), lambda: self.total_stats)
        warp_scope = gpu_scope.scope("core0.warp")
        for field_name in ("clauses_executed", "branch_events",
                           "divergent_branches", "warps_launched",
                           "threads_launched"):
            warp_scope.probe(
                field_name,
                (lambda f=field_name: getattr(self.total_stats, f)))

    def invalidate_decode_cache(self):
        """Forget every decoded program, and with it what the unit
        translated from it."""
        self._decode_cache.clear()
        self.unit.drop_translations()

    def get_state(self):
        """Counters, JobStats and the decode cache's keys. A restore sets
        the first two; the cache stays cold until
        :meth:`rewarm_decode_cache`, which needs the driver's restored
        page tables. Kernel translations stay cold for good: rebuilding
        one on first use reads no guest memory and moves no counter."""
        state = super().get_state()
        state["decode_cache_keys"] = [list(key)
                                      for key in self._decode_cache]
        return state

    def rewarm_decode_cache(self, keys, read_binary):
        """Re-decode the cached kernel binaries named by *keys*.

        The decode cache is not droppable on restore: a cold cache would
        re-fetch each binary through ``mmu.load_block`` on first use and
        inflate the golden translation count relative to an
        uninterrupted run. *read_binary* is called as ``(as_id, va,
        size)`` and must read guest memory without moving any counter;
        it returns ``None`` for a binary whose pages are no longer
        mapped (its region was freed after the program last ran), and
        that entry is skipped — it can never be hit again at the same
        key with the same content.
        """
        for as_id, binary_va, binary_size in keys:
            image = read_binary(as_id, binary_va, binary_size)
            if image is not None:
                self._decode_cache[(as_id, binary_va, binary_size)] = \
                    _decoded(bytes(image))

    # -- descriptor parsing (through the MMU) ---------------------------------

    def parse_descriptor(self, descriptor_va):
        raw = self.mmu.load_block(descriptor_va, DESCRIPTOR_SIZE)
        if self.injector is not None:
            params = self.injector.fire("descriptor.read")
            if params is not None:
                # transient read corruption: the in-memory descriptor is
                # intact, so the driver's resubmission re-reads it clean
                self.descriptor_corruptions += 1
                offset = params.get("offset", 0) % DESCRIPTOR_SIZE
                corrupted = bytearray(raw)
                corrupted[offset] ^= params.get("mask", 0xFF) & 0xFF
                raw = bytes(corrupted)

        def u32(offset):
            return struct.unpack_from("<I", raw, offset)[0]

        def u64(offset):
            return struct.unpack_from("<Q", raw, offset)[0]

        return JobDescriptor(
            job_type=u32(_OFF_TYPE),
            flags=u32(_OFF_FLAGS),
            global_size=(u32(_OFF_GLOBAL), u32(_OFF_GLOBAL + 4), u32(_OFF_GLOBAL + 8)),
            local_size=(u32(_OFF_LOCAL), u32(_OFF_LOCAL + 4), u32(_OFF_LOCAL + 8)),
            binary_va=u64(_OFF_BINARY_VA),
            binary_size=u32(_OFF_BINARY_SIZE),
            local_mem_size=u32(_OFF_LOCAL_MEM),
            uniform_va=u64(_OFF_UNIFORM_VA),
            uniform_count=u32(_OFF_UNIFORM_COUNT),
            next_va=u64(_OFF_NEXT),
        )

    def _decode_binary(self, descriptor):
        # the address-space id is part of the key: tenants share the same
        # GPU VA layout over different page tables, so the same (va, size)
        # in two address spaces can name two different binaries
        key = (self.mmu.address_space,
               descriptor.binary_va, descriptor.binary_size)
        program = (self._decode_cache.get(key)
                   if self.decode_cache_enabled else None)
        if program is None:
            # fetched on every miss: the page traffic is the platform's
            image = self.mmu.load_block(descriptor.binary_va, descriptor.binary_size)
            if self.decode_cache_enabled:
                program = self._decode_cache[key] = _decoded(image)
            else:
                program = decode_program(image)
                # no Program decoded so far is ever handed out again
                self.invalidate_decode_cache()
            self.decode_count += 1
        return program

    def _load_uniforms(self, descriptor):
        if descriptor.uniform_count == 0:
            return np.zeros(1, dtype=np.uint32)
        raw = self.mmu.load_block(descriptor.uniform_va, 4 * descriptor.uniform_count)
        return np.frombuffer(raw, dtype=np.uint32).copy()

    # -- execution ----------------------------------------------------------------

    def run_job_chain(self, descriptor_va, workgroup_budget=None):
        """Run a descriptor chain; returns the list of JobResults.

        *workgroup_budget* (the JOB_SLICE register) caps the flat
        workgroups any one job may run this submission; a job over budget
        runs exactly the first ``workgroup_budget`` flat groups and is
        parked with :class:`~repro.errors.JobPreempted` — deterministic
        progress units, never a wall-clock cut.

        Raises:
            JobFault: on MMU faults or malformed descriptors/binaries; the
                device latches the corresponding IRQ state before re-raising.
        """
        results = []
        current = descriptor_va
        while current:
            results.append(self.run_job(current, workgroup_budget))
            current = results[-1].descriptor.next_va
        return results

    def run_job(self, descriptor_va, workgroup_budget=None):
        events = self.events
        if events is not None:
            events.begin("job", "gpu", "jobmanager",
                         args={"descriptor_va": descriptor_va})
        try:
            return self._run_job(descriptor_va, workgroup_budget)
        finally:
            if events is not None:
                events.end("job", "gpu", "jobmanager")

    def _fault_instant(self, exc):
        if self.events is not None:
            self.events.instant("mmu_fault", "gpu", "mmu",
                                args={"fault": str(exc)})

    def _run_job(self, descriptor_va, workgroup_budget=None):
        events = self.events
        try:
            descriptor = self.parse_descriptor(descriptor_va)
            if descriptor.job_type != JOB_TYPE_COMPUTE:
                fault = JobFault(
                    f"unsupported job type {descriptor.job_type}")
                fault.fault_class = "descriptor"
                raise fault
            program = self._decode_binary(descriptor)
            uniforms = self._load_uniforms(descriptor)
            shape = WorkgroupShape(descriptor.global_size,
                                   descriptor.local_size)
        except JobFault:
            raise
        except (MMUFault, DecodeError, ValueError) as exc:
            if isinstance(exc, MMUFault):
                self.mmu.latch_fault(exc)
                self._fault_instant(exc)
            fault = JobFault(f"job setup failed: {exc}")
            fault.fault_class = ("mmu" if isinstance(exc, MMUFault)
                                 else "descriptor")
            raise fault from exc
        unit = self.unit
        unit.prepare(descriptor.local_mem_size, self.instrument,
                     tracer=self.tracer,
                     engine=self.engine, events=events,
                     injector=self.injector,
                     watchdog_budget=self.watchdog_budget)

        total_groups = shape.total_groups
        sliced = (workgroup_budget is not None
                  and 0 < workgroup_budget < total_groups)
        limit = workgroup_budget if sliced else total_groups
        try:
            # lockstep batches where the unit's engine runs them
            for _ in unit.run_groups(program, uniforms, self.mmu, shape,
                                     limit):
                pass
        except MMUFault as exc:
            self.mmu.latch_fault(exc)
            self._fault_instant(exc)
            fault = JobFault(f"job faulted: {exc}")
            fault.fault_class = "mmu"
            raise fault from exc
        except WatchdogTimeout as exc:
            # the slot is parked; the driver reads REASON_HANG and walks
            # the soft-stop -> hard-stop -> reset ladder
            self.watchdog_timeouts += 1
            if self.events is not None:
                self.events.instant("watchdog_timeout", "gpu", "jobmanager",
                                    args={"flat_group": exc.flat_group,
                                          "consumed": exc.consumed})
            raise JobHang(f"job hung: {exc}") from exc

        if sliced:
            # the budgeted prefix ran to completion; park the slot so the
            # driver soft-stops and requeues. Partial stats are discarded
            # (only completed attempts merge), keeping golden job stats
            # preemption-invariant for replayable kernels.
            self.jobs_preempted += 1
            if self.events is not None:
                self.events.instant("job_sliced", "gpu", "jobmanager",
                                    args={"completed": limit,
                                          "total": total_groups})
            raise JobPreempted(limit, total_groups)

        stats = unit.stats if unit.stats is not None else JobStats()
        result = JobResult(descriptor, stats, program, unit.clause_counts)
        self.results.append(result)
        self.jobs_retired += 1
        self.total_stats.merge(stats)
        return result
