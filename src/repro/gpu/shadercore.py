"""Shader-core / compute-unit simulation.

A :class:`ComputeUnit` executes one thread-group (OpenCL workgroup) at a
time, as the hardware shader cores do. The dispatcher (Section III-B2)
iterates over the job dimensions, groups threads into quads ("warps") that
execute in lockstep, and groups warps into thread-groups. The Job Manager
runs every job on one unit; its workgroup-local storage is a slab the
simulator allocates outside the guest system, and local accesses are
served from it — each group of a batch from its own zeroed part. The mega
tier runs every program, atomics and traced jobs included
(:mod:`repro.gpu.megakernel`).

On the mega tier a unit may take several consecutive thread-groups in
one call (:meth:`ComputeUnit.run_groups` walks a job that way): they run in
lockstep, side by side in the unit's one register file, and commit only
if that cannot be told from running them one after another — otherwise
the batch is abandoned, having changed nothing, and the unit runs the
same groups, and the rest of that job, one at a time; the next job starts
batched again. A group's ``__local`` bytes are its own, so they batch as
registers do; only programs with an ``ATOM`` and groups with a partial
last quad run one at a time. The independence of thread-groups that the
paper maps onto host threads (Fig. 10) is spent here on vector width
instead: under CPython it is the form this host can measure.
"""

import numpy as np

from repro.errors import GuestError, WatchdogTimeout
from repro.gpu.mmu import BatchAbandoned
from repro.gpu.isa import (
    REG_GLOBAL_ID,
    REG_GROUP_FLAT,
    REG_GROUP_ID,
    REG_LANE,
    REG_LOCAL_ID,
)
from repro.gpu.warp import WARP_WIDTH, ClauseInterpreter, QuadWarp
from repro.instrument.stats import JobStats, merge_clause_counts


class WorkgroupShape:
    """NDRange geometry helpers shared by the dispatcher and the units."""

    def __init__(self, global_size, local_size):
        if len(global_size) != 3 or len(local_size) != 3:
            raise ValueError("global/local size must be 3-dimensional")
        for gdim, ldim in zip(global_size, local_size):
            if ldim <= 0 or gdim <= 0:
                raise ValueError("NDRange dimensions must be positive")
            if gdim % ldim:
                raise ValueError(
                    f"global size {global_size} not divisible by local size {local_size}"
                )
        self.global_size = tuple(global_size)
        self.local_size = tuple(local_size)
        self.num_groups = tuple(g // l for g, l in zip(global_size, local_size))
        self.threads_per_group = local_size[0] * local_size[1] * local_size[2]
        self.warps_per_group = -(-self.threads_per_group // WARP_WIDTH)
        self.total_groups = self.num_groups[0] * self.num_groups[1] * self.num_groups[2]

    def group_coords(self, flat_group):
        nx, ny, _ = self.num_groups
        gx = flat_group % nx
        gy = (flat_group // nx) % ny
        gz = flat_group // (nx * ny)
        return gx, gy, gz

    def local_coords(self, linear):
        lx_size, ly_size, _ = self.local_size
        lx = linear % lx_size
        ly = (linear // lx_size) % ly_size
        lz = linear // (lx_size * ly_size)
        return lx, ly, lz


class ComputeUnit:
    """One execution unit (a shader core).

    Counts the running job into its own
    :class:`~repro.instrument.stats.JobStats`, totalled at job completion
    (Section IV-A), and :attr:`clause_counts`, its divergence CFG. A unit
    outlives jobs and keeps its local slab and kernel translations;
    everything a job can observe is reset by :meth:`prepare`. A job sees
    exactly the local bytes it declares: an access past them is a
    :class:`~repro.errors.GuestError` however large the slab has grown.
    """

    def __init__(self):
        self.stats = None
        self.clause_counts = None
        self.tracer = None
        self.events = None
        self.injector = None
        self.watchdog_budget = None
        # grows to the most local words a job or batch needed; a group
        # sees its job's declared words of it
        self._slab = np.zeros(0, dtype=np.uint32)
        self._words = 0
        self._translations = {}  # id(program) -> (MegaKernel, program)
        self.translations_built = 0
        self._job = self._mega = self._quad = None
        self._abandoned = False  # this job has abandoned a batch
        self._register_file = None  # the mega tier's, made with its first kernel
        #: lockstep batches this unit started / abandoned (never reset)
        self.batches_run = 0
        self.batches_abandoned = 0

    def prepare(self, local_mem_bytes, instrument, tracer=None,
                engine="interpreter", events=None, injector=None,
                watchdog_budget=None):
        self.stats = JobStats() if instrument else None
        self.clause_counts = {} if instrument else None
        self.tracer = tracer
        self.events = events
        self.engine = engine
        self.injector = injector
        self.watchdog_budget = watchdog_budget
        self._job = self._mega = self._quad = None
        self._words = local_mem_bytes // 4

    def _slabs(self, count):
        """Zeroed local slabs for *count* groups side by side, ``(count,
        words)``, cut from the unit's one slab (grown if it is short)."""
        words = count * self._words
        if len(self._slab) < words:
            self._slab = np.zeros(words, dtype=np.uint32)
        slabs = self._slab[:words].reshape(count, self._words)
        slabs.fill(0)
        return slabs

    def drop_translations(self):
        """Forget every cached translation (with the decoded programs
        they were made from)."""
        self._translations.clear()

    def _mega_executor(self, program, uniforms, mem):
        """Workgroup-wide (megakernel) engine bound to this job, or None
        on the interpreter.

        The translation is made once per program and kept across jobs.
        The key uses ``id()`` for hashability; the entry holds the
        program itself, so its id cannot be recycled while the key is
        live.
        """
        if self.engine != "mega":
            return None
        entry = self._translations.get(id(program))
        if entry is None:
            from repro.gpu.megakernel import MegaKernel, RegisterFile

            if self._register_file is None:
                self._register_file = RegisterFile()
            entry = self._translations[id(program)] = (
                MegaKernel(program, mem, self._register_file), program)
            self.translations_built += 1
        mega = entry[0]
        mega.bind(uniforms, self.tracer is not None)
        return mega

    def _bound(self, program, uniforms, mem):
        """This job's mega engine (or None). Engines are looked up and
        bound once per job, by whoever asks first after prepare() (or
        after the arguments change)."""
        job = self._job
        if job is None or job[0] is not program or job[1] is not uniforms:
            self._job = (program, uniforms)
            self._mega = self._mega_executor(program, uniforms, mem)
            self._quad = None
            self._abandoned = False
        return self._mega

    def batch_groups(self, program, uniforms, mem, shape, flat_group,
                     left):
        """How many of the *left* consecutive workgroups from
        *flat_group* on the next :meth:`run_workgroup` call should take:
        the mega tier's lockstep batch where it can run one, else 1 — and
        1 for the rest of a job that abandoned a batch: what conflicted is
        its data. A batch ends before a group with an armed ``core.hang``
        key (an armed page abandons the batch it lands in)."""
        mega = self._bound(program, uniforms, mem)
        if mega is None or not mega.batching or self._abandoned:
            return 1
        count = min(mega.batch_groups(shape), left)
        if self.injector is not None:
            for group in range(flat_group, flat_group + count):
                if self.injector.armed("core.hang", group):
                    return max(1, group - flat_group)
        return count

    def run_groups(self, program, uniforms, mem, shape, limit):
        """Run flat groups ``[0, limit)`` in order, in as few
        :meth:`run_workgroup` calls as :meth:`batch_groups` allows;
        yields each call's retired warps. The Job Manager's group loop
        and the conformance harness's are this one."""
        job = (program, uniforms, mem, shape)
        flat_group = 0
        while flat_group < limit:
            count = self.batch_groups(*job, flat_group, limit - flat_group)
            yield self.run_workgroup(*job, flat_group, count)
            flat_group += count

    def run_workgroup(self, program, uniforms, mem, shape, flat_group,
                      count=1):
        """Execute one thread-group to completion (including barriers) —
        or, on the mega tier, *count* consecutive ones from *flat_group*
        on as one lockstep batch (at most :meth:`batch_groups`).

        Returns the groups' warps so callers (the conformance harness)
        can inspect the retired architectural state.
        """
        if count > 1:
            warps = self._run_batch(program, uniforms, mem, shape,
                                    flat_group, count)
            if warps is not None:
                return warps
            from repro.gpu.megakernel import RetiredWarps

            # abandoned, nothing changed: the reference order instead,
            # retired as a committed batch is (nothing transposed unread)
            return RetiredWarps.joined([
                self.run_workgroup(program, uniforms, mem, shape, group)
                for group in range(flat_group, flat_group + count)])
        local = self._slabs(1)
        # progress-budget watchdog: each scheduler round is one progress
        # unit; a workgroup that burns its budget without finishing is a
        # hang (injected clause-budget stalls, barrier livelocks)
        budget = self.watchdog_budget
        rounds = 0
        if self.injector is not None:
            hang = self.injector.fire("core.hang", key=flat_group)
            if hang is not None:
                # the injected stall charges the whole budget up front:
                # the core spins in place without retiring a warp
                rounds = hang.get("stall_rounds", (budget or 0) + 1)
        mega = self._bound(program, uniforms, mem)
        if mega is None:
            interp = self._quad
            if interp is None:
                # its job never batches: every group's slab is these words
                interp = self._quad = ClauseInterpreter(
                    program, uniforms, mem, local=local[0],
                    stats=self.stats, counts=self.clause_counts,
                    tracer=self.tracer)
            warps = self._spawn_warps(shape, flat_group)
        if self.stats is not None:
            self.stats.workgroups += 1
            self.stats.warps_launched += shape.warps_per_group
            self.stats.threads_launched += shape.threads_per_group
        events = self.events
        track = "core0"
        if events is not None:
            events.begin("workgroup", "gpu", track,
                         args={"group": flat_group,
                               "warps": shape.warps_per_group})
        try:
            if mega is not None:
                # the kernel owns scheduling, barrier releases included,
                # with the same round accounting as the loop below
                return mega.run_workgroup(
                    shape, flat_group, self.stats, budget,
                    counts=self.clause_counts, stalled=rounds,
                    tracer=self.tracer, local=local)
            while True:
                rounds += 1
                if budget is not None and rounds > budget:
                    raise WatchdogTimeout(flat_group, rounds)
                for warp in [w for w in warps
                             if not w.finished and not w.blocked]:
                    interp.run_warp(warp)
                if all(warp.finished for warp in warps):
                    return warps
                if all(warp.finished or warp.blocked for warp in warps):
                    # every live warp reached the barrier: release together
                    for warp in warps:
                        warp.release_barrier()
        except IndexError as exc:
            # NumPy's bounds check of the job's local view
            raise GuestError(
                f"workgroup {flat_group}: local memory access outside the "
                f"{4 * self._words} bytes the job declared") from exc
        finally:
            if events is not None:
                events.end("workgroup", "gpu", track)

    def _run_batch(self, program, uniforms, mem, shape, flat_group, count):
        """One lockstep batch on the mega tier (*count* is what
        :meth:`batch_groups` answered for this job): the retired warps of
        its groups, or None if it was abandoned — memory, the MMU's
        counters and this unit's stats then are as if it had never
        started."""
        mega = self._bound(program, uniforms, mem)
        self.batches_run += 1
        # counted and traced on the side: an abandoned batch's are dropped
        stats, counts = (None, None) if self.stats is None \
            else (JobStats(), {})
        tracer = None if self.tracer is None else type(self.tracer)()
        events = self.events
        track = "core0"
        if events is not None:
            events.begin("workgroup", "gpu", track,
                         args={"group": flat_group, "groups": count,
                               "warps": count * shape.warps_per_group})
        try:
            warps = mega.run_workgroup(
                shape, flat_group, stats, self.watchdog_budget, count,
                counts=counts, tracer=tracer, local=self._slabs(count))
        except BatchAbandoned as abandoned:
            self.batches_abandoned += 1
            self._abandoned = True
            if events is not None:
                events.instant("batch_abandoned", "gpu", "jobmanager",
                               args={"reason": abandoned.reason,
                                     "group": flat_group})
            return None
        finally:
            if events is not None:
                events.end("workgroup", "gpu", track)
        if stats is not None:
            stats.workgroups += count
            stats.warps_launched += count * shape.warps_per_group
            stats.threads_launched += count * shape.threads_per_group
            self.stats.merge(stats)
            merge_clause_counts(self.clause_counts, counts)
        if tracer is not None:
            self.tracer.merge(tracer)
        return warps

    def _spawn_warps(self, shape, flat_group):
        gx, gy, gz = shape.group_coords(flat_group)
        lx_size, ly_size, lz_size = shape.local_size
        warps = []
        for warp_index in range(shape.warps_per_group):
            first = warp_index * WARP_WIDTH
            active = min(WARP_WIDTH, shape.threads_per_group - first)
            warp = QuadWarp(active_lanes=active)
            for lane in range(active):
                lx, ly, lz = shape.local_coords(first + lane)
                warp.regs[lane, REG_GLOBAL_ID + 0] = gx * lx_size + lx
                warp.regs[lane, REG_GLOBAL_ID + 1] = gy * ly_size + ly
                warp.regs[lane, REG_GLOBAL_ID + 2] = gz * lz_size + lz
                warp.regs[lane, REG_LOCAL_ID + 0] = lx
                warp.regs[lane, REG_LOCAL_ID + 1] = ly
                warp.regs[lane, REG_LOCAL_ID + 2] = lz
                warp.regs[lane, REG_GROUP_ID + 0] = gx
                warp.regs[lane, REG_GROUP_ID + 1] = gy
                warp.regs[lane, REG_GROUP_ID + 2] = gz
                warp.regs[lane, REG_GROUP_FLAT] = flat_group
                warp.regs[lane, REG_LANE] = lane
            warps.append(warp)
        return warps
