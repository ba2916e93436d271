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
lockstep batches where the unit's engine can. The unit records which
clauses a job ran; the retired job's :class:`JobResult` keeps that
table, and its statistics are multiplied out of it only when read, as
are the totals of a :class:`ClauseLedger`.

The paper maps thread-groups onto host threads (Fig. 10). Under CPython a
pool of host threads only ever slowed a job down, so the simulator runs
one unit and spends workgroup independence on vector width instead.
"""

import struct
from dataclasses import dataclass
from functools import cached_property

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
from repro.instrument.stats import derive_stats, merge_clause_counts
from repro.state import Stateful

JOB_TYPE_COMPUTE = 1

# Progress-budget watchdog: scheduler rounds one workgroup may consume
# before the job is parked as hung. A round retires whole warp batches, so
# real kernels use a handful of rounds (one per barrier epoch); the budget
# is generous while still bounding injected clause-budget stalls and
# barrier livelocks. Progress units, never wall-clock time.
WATCHDOG_ROUND_BUDGET = 4096

#: The compute-job descriptor the driver packs and the Job Manager
#: unpacks: type, flags, global and local size (3 x u32 each), binary VA
#: (u64) and size, local-memory size, uniform VA (u64) and count, a
#: reserved word, next-job VA (u64) — 0x48 bytes
DESCRIPTOR_FORMAT = "<IIIIIIIIQIIQIIQ"
DESCRIPTOR_SIZE = struct.calcsize(DESCRIPTOR_FORMAT)

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
    """One retired job: descriptor, program, clause table (None:
    uninstrumented) and shape; its JobStats and CFG are derived when read."""

    descriptor: JobDescriptor
    program: object
    clause_counts: dict
    shape: WorkgroupShape

    @property
    def launched(self):
        """Workgroups, warps and threads: a job that retired ran every
        group of its shape (a sliced or hung one raises instead)."""
        shape = self.shape
        groups = shape.total_groups
        return (groups, groups * shape.warps_per_group,
                groups * shape.threads_per_group)

    @cached_property
    def stats(self):
        """The job's JobStats (all zero if it ran uninstrumented)."""
        if self.clause_counts is None:
            return derive_stats(())
        return derive_stats(((self.program.clauses, self.clause_counts),),
                            *self.launched)

    @property
    def cfg(self):
        """The divergence CFG (None without instrumentation)."""
        if self.clause_counts is not None:
            return DivergenceCFG.from_clause_counts(self.program.clauses,
                                                    self.clause_counts)


class ClauseLedger(Stateful):
    """A scope's retired jobs: a clause table per program image, and the
    workgroups, warps and threads launched. Its JobStats is derived from
    the tables once per change, when read (Section IV-A: record clause
    frequencies, multiply the clause metrics out afterwards)."""

    STATE_FIELDS = ("workgroups", "warps_launched", "threads_launched")

    def __init__(self):
        self.tables = {}
        self.workgroups = self.warps_launched = self.threads_launched = 0
        self._stats = None

    def add(self, result):
        """Count the retired job *result*, unless it ran uninstrumented."""
        if result.clause_counts is not None:
            merge_clause_counts(
                self.tables.setdefault(result.program.image, {}),
                result.clause_counts)
            groups, warps, threads = result.launched
            self.workgroups += groups
            self.warps_launched += warps
            self.threads_launched += threads
            self._stats = None

    def programs(self):
        """``(program, clause table)`` pairs; a restored ledger decodes
        its images through the process-wide table, not guest memory."""
        return [(_decoded(image), counts)
                for image, counts in self.tables.items()]

    def stats(self):
        if self._stats is None:
            self._stats = derive_stats(
                ((program.clauses, counts)
                 for program, counts in self.programs()),
                self.workgroups, self.warps_launched, self.threads_launched)
        return self._stats

    def get_state(self):
        return {**super().get_state(),
                "tables": [[image.hex(), list(counts.items())]
                           for image, counts in self.tables.items()]}

    def set_state(self, state):
        super().set_state(state)
        self.tables = {bytes.fromhex(image): dict(counts)
                       for image, counts in state["tables"]}


class JobManager(Stateful):
    """Parses descriptors, owns the decode cache, dispatches thread-groups."""

    STATE_FIELDS = (
        "decode_count", "jobs_retired", "watchdog_timeouts",
        "jobs_preempted", "descriptor_corruptions", "decode_cache_enabled",
    )
    STATE_CHILDREN = ("ledger",)

    def __init__(self, mmu, engine, instrument=True, tracer=None):
        self.mmu = mmu
        self.instrument = instrument
        self.tracer = tracer
        self.events = None  # optional EventTracer (job-lifecycle spans)
        self.injector = None  # optional FaultInjector (repro.inject)
        self.watchdog_timeouts = 0
        self.jobs_preempted = 0
        self.descriptor_corruptions = 0
        self.decode_cache_enabled = True  # ablation knob (Section III-B3)
        self._decode_cache = {}
        self.decode_count = 0
        # persists across jobs, and with it its local slab
        self.unit = ComputeUnit(engine)
        self.jobs_retired = 0
        self.ledger = ClauseLedger()

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
        jm.probe("batches_run", lambda: unit.batches_run,
                 desc="mega lockstep batches of workgroups started",
                 golden=False)
        jm.probe("batches_abandoned", lambda: unit.batches_abandoned,
                 desc="lockstep batches abandoned (their groups rerun singly)",
                 golden=False)
        jm.probe("jobs_preempted", lambda: self.jobs_preempted,
                 desc="jobs parked at their JOB_SLICE workgroup budget",
                 golden=False)
        stats = self.ledger.stats
        register_job_stats(gpu_scope.scope("job"), stats)
        warp_scope = gpu_scope.scope("core0.warp")
        for field_name in ("clauses_executed", "branch_events",
                           "divergent_branches", "warps_launched",
                           "threads_launched"):
            warp_scope.probe(field_name,
                             lambda f=field_name: getattr(stats(), f))

    def invalidate_decode_cache(self):
        """Forget every decoded program."""
        self._decode_cache.clear()

    def get_state(self):
        """Counters, the ledger and the decode cache's keys. A restore sets
        the first two; the cache stays cold until
        :meth:`rewarm_decode_cache`, which needs the driver's restored
        page tables."""
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
        (job_type, flags, gx, gy, gz, lx, ly, lz, binary_va, binary_size,
         local_mem_size, uniform_va, uniform_count, _reserved,
         next_va) = struct.unpack_from(DESCRIPTOR_FORMAT, raw)
        return JobDescriptor(job_type, flags, (gx, gy, gz), (lx, ly, lz),
                             binary_va, binary_size, local_mem_size,
                             uniform_va, uniform_count, next_va)

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
        if self.events is not None:
            with self.events.span("job", "gpu", "jobmanager",
                                  args={"descriptor_va": descriptor_va}):
                return self._run_job(descriptor_va, workgroup_budget)
        return self._run_job(descriptor_va, workgroup_budget)

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
                     tracer=self.tracer, events=events,
                     injector=self.injector,
                     watchdog_budget=WATCHDOG_ROUND_BUDGET)

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
            # (only completed attempts are counted), keeping golden job
            # stats preemption-invariant for replayable kernels.
            self.jobs_preempted += 1
            if self.events is not None:
                self.events.instant("job_sliced", "gpu", "jobmanager",
                                    args={"completed": limit,
                                          "total": total_groups})
            raise JobPreempted(limit, total_groups)

        result = JobResult(descriptor, program, unit.clause_counts, shape)
        self.jobs_retired += 1
        self.ledger.add(result)
        return result
