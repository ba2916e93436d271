"""Quad-warp execution of clauses.

Threads execute in quads of four — the paper's 128-bit datapath
vectorization scheme ("Threads are grouped into bundles of four (a 'quad'),
which fill the width of a 128-bit data processing unit"). Lane state is held
in NumPy vectors so each instruction issue operates on the whole quad, like
the hardware datapath.

Divergence is handled by minimum-PC scheduling at clause granularity: each
lane carries its own next-clause index; on every step the warp executes the
lanes positioned at the numerically smallest clause index. Because the
compiler lays out clauses in forward order, diverged lanes naturally
reconverge at the join clause. Each clause's issues, lanes and branch
split are counted in the job's per-clause table, which the job's
statistics and its Fig. 6 CFG are computed from when it retires.
"""

import numpy as np

from repro.errors import GuestError
from repro.gpu.isa import (
    CONST_BASE,
    NUM_GRF,
    NUM_TEMPS,
    QUAD_WIDTH,
    REG_LANE,
    TEMP_BASE,
    Op,
    Tail,
    is_const,
    is_grf,
    is_temp,
)
from repro.gpu.mmu import replay_load, replay_store
from repro.gpu.ops import alu, atomic, uniform_word

WARP_WIDTH = QUAD_WIDTH
_END_PC = 1 << 30


class QuadWarp:
    """Architectural state of one quad: registers, temps, per-lane PCs."""

    __slots__ = ("regs", "temps", "pcs", "live", "at_barrier", "clause_steps")

    def __init__(self, active_lanes=WARP_WIDTH):
        self.regs = np.zeros((WARP_WIDTH, NUM_GRF), dtype=np.uint32)
        self.regs[:, REG_LANE] = np.arange(WARP_WIDTH, dtype=np.uint32)
        self.temps = np.zeros((WARP_WIDTH, NUM_TEMPS), dtype=np.uint32)
        self.pcs = np.zeros(WARP_WIDTH, dtype=np.int64)
        self.live = np.zeros(WARP_WIDTH, dtype=bool)
        self.live[:active_lanes] = True
        self.pcs[~self.live] = _END_PC
        self.at_barrier = np.zeros(WARP_WIDTH, dtype=bool)
        self.clause_steps = 0

    @property
    def finished(self):
        return bool((self.pcs >= _END_PC).all())

    @property
    def blocked(self):
        """True when every still-running lane waits at a barrier."""
        running = self.pcs < _END_PC
        return bool(running.any() and (self.at_barrier | ~running).all())

    def release_barrier(self):
        self.at_barrier[:] = False


class ClauseInterpreter:
    """Executes decoded clauses for quad warps.

    Args:
        program: decoded :class:`~repro.gpu.isa.Program`.
        uniforms: uint32 vector backing the uniform ("Constant Read") port.
        mem: object with ``load_u32(vaddr)`` / ``store_u32(vaddr, value)``
            for global (main) memory, going through the GPU MMU. It may
            also have the quad API, ``load_quad_u32(lane addresses)`` /
            ``store_quad_u32(lane addresses, values)`` (the GPU MMU's),
            which serves one element of a LD/ST for the active lanes or
            returns ``None`` for the per-lane replay; without it every
            element is replayed lane by lane.
        local: uint32 NumPy array backing workgroup-local memory
            (byte offsets are divided by 4), or None when the kernel uses
            no local memory.
        counts: the job's per-clause table to count into (see
            :func:`~repro.instrument.stats.derive_stats`), or None to
            run without instrumentation (the Fig. 8 "w/o instrum." mode).
        tracer: an instruction tracer (:mod:`repro.validate`) whose
            ``record_quad(warp, mask, instr, values, element=0)`` is called
            with every result an instruction writes (each element of a
            LD/ST once it landed), or None.
    """

    def __init__(self, program, uniforms, mem, local=None, counts=None,
                 tracer=None):
        self.program = program
        self.uniforms = uniforms
        self.mem = mem
        self.local = local
        self.counts = counts
        self.tracer = tracer
        # quad-wide memory port: the GPU MMU over PhysicalMemory has the
        # vector API; a port without it (test stubs) declines every quad,
        # so each goes through the per-lane replay of a declined quad
        self._quad_load = getattr(mem, "load_quad_u32", None)
        self._quad_store = getattr(mem, "store_quad_u32", None)
        if self._quad_load is None or self._quad_store is None:
            self._quad_load = _decline
            self._quad_store = _decline
        # per-interpreter scratch: uniform broadcasts are materialized
        # once per slot instead of one np.full per issue
        self._uniform_vectors = {}

    # -- warp scheduling ------------------------------------------------------

    def run_warp(self, warp, max_clauses=1_000_000):
        """Run *warp* until it finishes or blocks at a barrier.

        Returns ``"done"`` or ``"barrier"``.
        """
        pcs = warp.pcs
        at_barrier = warp.at_barrier
        while True:
            running = pcs < _END_PC
            if not running.any():
                return "done"
            runnable = running & ~at_barrier
            if not runnable.any():
                return "barrier"
            current = int(pcs[runnable].min())
            mask = runnable & (pcs == current)
            self._execute_clause(warp, current, mask)
            warp.clause_steps += 1
            if warp.clause_steps > max_clauses:
                raise GuestError(
                    f"warp exceeded {max_clauses} clauses; "
                    f"kernel is likely stuck"
                )

    # -- clause execution -------------------------------------------------------

    def _execute_clause(self, warp, clause_index, mask):
        clause = self.program.clauses[clause_index]
        lanes = int(mask.sum())
        if self.counts is not None:
            # execution only records clause frequency and active lanes
            # (paper Section IV-A); the decode-time clause metrics are
            # multiplied out when the job's statistics are read
            entry = self.counts.setdefault(clause_index, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += lanes
        for instr in clause.active_slots():
            self._execute_instr(warp, clause, instr, mask, lanes)
        self._apply_tail(warp, clause, clause_index, mask, lanes)

    def _apply_tail(self, warp, clause, clause_index, mask, lanes):
        tail = clause.tail
        if tail is Tail.BRANCH or tail is Tail.BRANCH_Z:
            cond = warp.regs[:, clause.cond_reg] != 0
            if tail is Tail.BRANCH_Z:
                cond = ~cond
            taken = mask & cond
            warp.pcs[mask] = clause_index + 1
            warp.pcs[taken] = clause.target
            if self.counts is not None:
                # the split, for the stats and the divergence CFG
                entry = self.counts[clause_index]
                count = int(np.count_nonzero(taken))
                entry[2] += count
                if 0 < count < lanes:
                    entry[3] += 1
        elif tail is Tail.BARRIER:
            warp.pcs[mask] = clause_index + 1
            warp.at_barrier |= mask
        else:
            # one successor for every lane of the mask
            successor = clause.target if tail is Tail.JUMP else \
                _END_PC if tail is Tail.END else clause_index + 1
            if lanes == WARP_WIDTH:
                warp.pcs[:] = successor
            else:
                warp.pcs[mask] = successor

    # -- operand access ---------------------------------------------------------

    def _read(self, warp, clause, operand, lanes):
        if is_grf(operand):
            return warp.regs[:, operand]
        if is_temp(operand):
            return warp.temps[:, operand - TEMP_BASE]
        if is_const(operand):
            # decode-time pre-broadcast constant vector (shared, read-only)
            return clause.constant_vectors()[operand - CONST_BASE]
        raise GuestError(f"invalid source operand {operand}")

    def _write(self, warp, operand, values, mask, lanes):
        # full-warp writes skip the masked copyto: distinct register
        # columns never overlap in storage, so a plain slice assignment
        # is equivalent (and MOV r, r is the identity either way)
        if is_grf(operand):
            if lanes == WARP_WIDTH:
                warp.regs[:, operand] = values
            else:
                np.copyto(warp.regs[:, operand], values, where=mask)
        elif is_temp(operand):
            if lanes == WARP_WIDTH:
                warp.temps[:, operand - TEMP_BASE] = values
            else:
                np.copyto(warp.temps[:, operand - TEMP_BASE], values,
                          where=mask)
        else:
            raise GuestError(f"invalid destination operand {operand}")

    # -- instruction execution ----------------------------------------------------

    def _execute_instr(self, warp, clause, instr, mask, lanes):
        op = instr.op
        if op is Op.LD or op is Op.ST:
            self._execute_memory(warp, clause, instr, mask, lanes)
            return
        if op is Op.ATOM:
            self._execute_atomic(warp, clause, instr, mask, lanes)
            return
        if op is Op.LDU:
            values = self._uniform_vectors.get(instr.imm)
            if values is None:
                values = np.full(WARP_WIDTH,
                                 uniform_word(self.uniforms, instr.imm),
                                 dtype=np.uint32)
                values.flags.writeable = False
                self._uniform_vectors[instr.imm] = values
            self._write(warp, instr.dst, values, mask, lanes)
            if self.tracer is not None:
                self.tracer.record_quad(warp, mask, instr, values)
            return
        # one row of repro.gpu.ops: read exactly the sources the op has
        # (a missing one raises in _read), apply its value function
        fn, arity = alu(instr)[:2]
        a = self._read(warp, clause, instr.srca, lanes)
        if arity == 1:
            result = fn(a)
        else:
            b = self._read(warp, clause, instr.srcb, lanes)
            if arity == 2:
                result = fn(a, b)
            else:
                result = fn(a, b,
                            self._read(warp, clause, instr.srcc, lanes))
        self._write(warp, instr.dst, result, mask, lanes)
        if self.tracer is not None:
            self.tracer.record_quad(warp, mask, instr, result)

    def _execute_memory(self, warp, clause, instr, mask, lanes):
        width = instr.mem_width
        addrs = self._read(warp, clause, instr.srca, lanes)
        if instr.mem_is_local:
            self._memory_local_quad(warp, clause, instr, addrs, mask, lanes,
                                    width)
        else:
            self._memory_global_quad(warp, clause, instr, addrs, mask,
                                     lanes, width)

    def _memory_local_quad(self, warp, clause, instr, addrs, mask, lanes,
                           width):
        """Workgroup-local LD/ST as NumPy fancy indexing on the local slab."""
        local = self.local
        tracer = self.tracer
        full = lanes == WARP_WIDTH
        if full:
            indices = addrs >> 2
        else:
            active = np.flatnonzero(mask)
            indices = addrs[active].astype(np.int64) >> 2
        if instr.op is Op.LD:
            base = instr.dst
            for element in range(width):
                idx = indices if element == 0 else indices + element
                if full:
                    warp.regs[:, base + element] = local[idx]
                else:
                    warp.regs[active, base + element] = local[idx]
                if tracer is not None:
                    tracer.record_quad(warp, mask, instr,
                                       warp.regs[:, base + element],
                                       element=element)
        else:
            base = instr.srcb
            for element in range(width):
                values = self._read(warp, clause, base + element,
                                    lanes).view(np.uint32)
                idx = indices if element == 0 else indices + element
                local[idx] = values if full else values[active]
                if tracer is not None:
                    tracer.record_quad(warp, mask, instr, values,
                                       element=element)

    def _memory_global_quad(self, warp, clause, instr, addrs, mask, lanes,
                            width):
        """Global LD/ST through the MMU quad gather/scatter port.

        Lane addresses travel as Python ints (one ``tolist`` per
        instruction) so the MMU's same-page probe stays off the NumPy
        small-array overhead. Each element row tries the coalesced path
        first; a quad the port declines (fault, permissions, an unaligned
        lane, the scalar ablation, no vector API) is replayed lane by
        lane through the scalar port (:func:`~repro.gpu.mmu.replay_load`,
        mega's replay too), which reproduces the exact scalar-mode fault
        semantics and statistics.
        """
        tracer = self.tracer
        full = lanes == WARP_WIDTH
        if full:
            active = None
            addr_list = addrs.tolist()
        else:
            active = np.flatnonzero(mask)
            addr_list = addrs[active].tolist()
        if instr.op is Op.LD:
            base = instr.dst
            for element in range(width):
                elem_addrs = addr_list if element == 0 else \
                    [a + 4 * element for a in addr_list]
                values = self._quad_load(elem_addrs)
                if values is None:
                    replay_load(self.mem, addrs, active,
                                warp.regs[:, base + element], 4 * element)
                elif full:
                    warp.regs[:, base + element] = values
                else:
                    warp.regs[active, base + element] = values
                if tracer is not None:
                    tracer.record_quad(warp, mask, instr,
                                       warp.regs[:, base + element],
                                       element=element)
        else:
            base = instr.srcb
            for element in range(width):
                values = self._read(warp, clause, base + element, lanes)
                u32 = values.view(np.uint32)
                elem_addrs = addr_list if element == 0 else \
                    [a + 4 * element for a in addr_list]
                lane_values = u32 if full else u32[active]
                if self._quad_store(elem_addrs, lane_values) is None:
                    replay_store(self.mem, addrs, active, u32, 4 * element)
                if tracer is not None:
                    tracer.record_quad(warp, mask, instr, u32,
                                       element=element)

    def _execute_atomic(self, warp, clause, instr, mask, lanes):
        """Atomic read-modify-write (:func:`~repro.gpu.ops.atomic`, mega's
        too): dst receives each lane's old value."""
        addrs = self._read(warp, clause, instr.srca, lanes)
        values = self._read(warp, clause, instr.srcb, lanes)
        old = np.zeros(WARP_WIDTH, dtype=np.uint32)
        atomic(self.mem, self.local if instr.mem_is_local else None,
               instr.flags, addrs, values, np.flatnonzero(mask), old)
        self._write(warp, instr.dst, old, mask, lanes)
        if self.tracer is not None:
            self.tracer.record_quad(warp, mask, instr, old)


def _decline(*_args):
    """The quad call of a port without the vector API: every quad is
    declined."""
    return None

