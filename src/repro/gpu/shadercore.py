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
lockstep, side by side in the register file, and commit only
if that cannot be told from running them one after another — otherwise
the batch is abandoned, having changed nothing, and the unit runs the
same groups, and the rest of that job, one at a time; the next job starts
batched again. A batch that only ran out of port capacity is retried at
half the width, the rest of its job's batches no wider. A group's
``__local`` bytes are its own, so they batch as
registers do; only programs with an ``ATOM`` and groups with a partial
last quad run one at a time. The independence of thread-groups that the
paper maps onto host threads (Fig. 10) is spent here on vector width
instead: under CPython it is the form this host can measure.
"""

from contextlib import nullcontext

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
    """One execution unit (a shader core) running *engine*: ``"mega"``
    or ``"interp"``, the quad interpreter.

    Records the running job in :attr:`clause_counts`, its per-clause
    table; the job's :class:`~repro.instrument.stats.JobStats` and
    divergence CFG are derived from it and the job's shape when read
    (Section IV-A). A unit
    outlives jobs and keeps its local slab; on the mega tier it runs in
    its host thread's one register file
    (:func:`~repro.gpu.megakernel.register_file`). Everything a job can
    observe is reset by :meth:`prepare`. A job sees exactly
    the local bytes it declares: an access past them is a
    :class:`~repro.errors.GuestError` however large the slab has grown.
    """

    def __init__(self, engine):
        self.engine = engine
        self.prepare(0, instrument=False)
        # grows to the most local words a job or batch needed; a group
        # sees its job's declared words of it
        self._slab = np.zeros(0, dtype=np.uint32)
        self._cap = None  # most groups this job's calls take, if capped
        #: lockstep batches this unit started / abandoned (never reset)
        self.batches_run = 0
        self.batches_abandoned = 0

    def prepare(self, local_mem_bytes, instrument, tracer=None, events=None,
                injector=None, watchdog_budget=None):
        self.clause_counts = {} if instrument else None
        self.tracer = tracer
        self.events = events
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

    def _bound(self, program, uniforms, mem):
        """This job's mega engine (None on the interpreter), built by
        whoever asks first after prepare() (or after the arguments
        change); its code comes from the process-wide table."""
        job = self._job
        if job is None or job[0] is not program or job[1] is not uniforms:
            self._job = (program, uniforms)
            self._mega = self._quad = None
            self._cap = None
            if self.engine == "mega":
                from repro.gpu.megakernel import MegaKernel, register_file

                self._mega = MegaKernel(program, mem, register_file(),
                                        uniforms, self.tracer)
        return self._mega

    def batch_groups(self, program, uniforms, mem, shape, flat_group,
                     left):
        """How many of the *left* consecutive workgroups from
        *flat_group* on the next :meth:`run_workgroup` call should take:
        the mega tier's lockstep batch where it can run one, else 1 — no
        more than the job's cap (see :meth:`_run_batch`). A batch ends
        before a group with an armed ``core.hang`` key (an armed page
        abandons the batch it lands in)."""
        mega = self._bound(program, uniforms, mem)
        if mega is None or not mega.batching:
            return 1
        count = min(mega.batch_groups(shape), left)
        if self._cap is not None:
            count = min(count, self._cap)
        if self.injector is not None:
            for group in range(flat_group, flat_group + count):
                if self.injector.armed("core.hang", group):
                    return max(1, group - flat_group)
        return count

    def run_groups(self, program, uniforms, mem, shape, limit):
        """Run flat groups ``[0, limit)`` in order, in as few
        :meth:`run_workgroup` calls as :meth:`batch_groups` allows
        (the groups of an abandoned batch run again, narrower); yields
        each call's retired warps, valid until the generator resumes.
        The Job Manager's group loop, which reads none, and the
        conformance harness's, which reads each batch before the next,
        are this one."""
        job = (program, uniforms, mem, shape)
        flat_group = 0
        while flat_group < limit:
            count = self.batch_groups(*job, flat_group, limit - flat_group)
            warps = self.run_workgroup(*job, flat_group, count)
            if len(warps):  # an abandoned batch retired none
                yield warps
                flat_group += count

    def run_workgroup(self, program, uniforms, mem, shape, flat_group,
                      count=1):
        """Execute one thread-group to completion (including barriers) —
        or, on the mega tier, *count* consecutive ones from *flat_group*
        on as one lockstep batch (at most :meth:`batch_groups`).

        Returns the groups' warps so callers (the conformance harness)
        can inspect the retired architectural state; on the mega tier
        they are read from the register file, valid until a unit of this
        host thread runs again. An abandoned batch ran no group and
        returns no warps.
        """
        if count > 1:
            return self._run_batch(program, uniforms, mem, shape,
                                   flat_group, count)
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
                    counts=self.clause_counts, tracer=self.tracer)
            warps = self._spawn_warps(shape, flat_group)
        with self._span({"group": flat_group,
                         "warps": shape.warps_per_group}):
            try:
                if mega is not None:
                    # the kernel owns scheduling, barrier releases
                    # included, with the same round accounting as below
                    return mega.run_workgroup(
                        shape, flat_group, budget, counts=self.clause_counts,
                        stalled=rounds, local=local)
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
                        # every live warp is at the barrier: release all
                        for warp in warps:
                            warp.release_barrier()
            except IndexError as exc:
                # NumPy's bounds check of the job's local view
                raise GuestError(
                    f"workgroup {flat_group}: local memory access outside "
                    f"the {4 * self._words} bytes the job declared") from exc

    def _span(self, args):
        """A ``workgroup`` span on the core's track (no-op untraced)."""
        events = self.events
        if events is None:
            return nullcontext()
        return events.span("workgroup", "gpu", "core0", args)

    def _run_batch(self, program, uniforms, mem, shape, flat_group, count):
        """One lockstep batch on the mega tier (*count* is what
        :meth:`batch_groups` answered for this job): the retired warps of
        its groups, over the register file's rows, or none if it was
        abandoned — memory, the MMU's counters, this job's records and
        its trace then are as if it had never started, and the job's cap
        is lowered: to half of *count* if the port only ran out of
        capacity, which fewer groups may not, else to one group for the
        rest of the job (what conflicted is its data)."""
        mega = self._bound(program, uniforms, mem)
        self.batches_run += 1
        tracer = self.tracer
        recorded = None if tracer is None else tracer.total_events
        with self._span({"group": flat_group, "groups": count,
                         "warps": count * shape.warps_per_group}):
            try:
                return mega.run_workgroup(
                    shape, flat_group, self.watchdog_budget, count,
                    counts=self.clause_counts, local=self._slabs(count))
            except BatchAbandoned as abandoned:
                self.batches_abandoned += 1
                self._cap = count // 2 if abandoned.capacity else 1
                if tracer is not None:
                    tracer.rollback(recorded)
                if self.events is not None:
                    self.events.instant(
                        "batch_abandoned", "gpu", "jobmanager",
                        args={"reason": abandoned.reason,
                              "group": flat_group})
                return ()

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
