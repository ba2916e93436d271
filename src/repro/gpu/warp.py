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
reconverge at the join clause. Divergent branches are recorded for the
Fig. 6 CFG.
"""

import numpy as np

from repro.errors import GuestError
from repro.instrument.stats import apply_clause_stats
from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
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
from repro.gpu.ops import alu, atomic_apply, uniform_word

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
            for global (main) memory, going through the GPU MMU.
        local: uint32 NumPy array backing workgroup-local memory
            (byte offsets are divided by 4), or None when the kernel uses
            no local memory.
        stats: a :class:`~repro.instrument.stats.JobStats` to fill, or None
            to run without instrumentation (the Fig. 8 "w/o instrum." mode).
        cfg: a :class:`~repro.instrument.cfg.DivergenceCFG` or None.
    """

    def __init__(self, program, uniforms, mem, local=None, stats=None,
                 cfg=None, tracer=None):
        self.program = program
        self.uniforms = uniforms
        self.mem = mem
        self.local = local
        self.stats = stats
        self.cfg = cfg
        self.tracer = tracer
        # quad-wide memory fast path: available when the memory port
        # exposes the vector API (the GPU MMU over PhysicalMemory does;
        # bus-routed or test stub ports fall back to per-word accesses).
        # Tracing needs per-word visibility, so it pins the scalar path.
        self._quad_load = getattr(mem, "load_quad_u32", None)
        self._quad_store = getattr(mem, "store_quad_u32", None)
        if tracer is not None or self._quad_load is None \
                or self._quad_store is None:
            self._quad_load = None
            self._quad_store = None
        # per-interpreter scratch: uniform broadcasts are materialized
        # once per slot instead of one np.full per issue
        self._uniform_vectors = {}
        # deferred per-clause stat accumulation: clause index ->
        # [issue count, total active lanes], flushed by run_warp
        self._pending_stats = {}

    # -- warp scheduling ------------------------------------------------------

    def run_warp(self, warp, max_clauses=1_000_000):
        """Run *warp* until it finishes or blocks at a barrier.

        Returns ``"done"`` or ``"barrier"``.
        """
        pcs = warp.pcs
        at_barrier = warp.at_barrier
        try:
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
        finally:
            self._flush_clause_stats()

    def _flush_clause_stats(self):
        """Apply the deferred per-clause counters to the JobStats
        (shared with the megakernel so both produce identical counts)."""
        if self._pending_stats:
            apply_clause_stats(self.stats, self.program.clauses,
                               self._pending_stats)

    # -- clause execution -------------------------------------------------------

    def _execute_clause(self, warp, clause_index, mask):
        clause = self.program.clauses[clause_index]
        lanes = int(mask.sum())
        if self.stats is not None:
            # decode-time clause metrics: execution only records clause
            # frequency and scales by active lanes (paper Section IV-A);
            # the actual additions are deferred to _flush_clause_stats
            entry = self._pending_stats.get(clause_index)
            if entry is None:
                self._pending_stats[clause_index] = [1, lanes]
            else:
                entry[0] += 1
                entry[1] += lanes
        for instr in clause.active_slots():
            self._execute_instr(warp, clause, instr, mask, lanes)
        self._apply_tail(warp, clause, clause_index, mask, lanes)

    def _apply_tail(self, warp, clause, clause_index, mask, lanes):
        tail = clause.tail
        stats = self.stats
        full = lanes == WARP_WIDTH
        if tail is Tail.FALLTHROUGH:
            if full:
                warp.pcs[:] = clause_index + 1
            else:
                warp.pcs[mask] = clause_index + 1
            next_pcs = None
        elif tail is Tail.END:
            if full:
                warp.pcs[:] = _END_PC
            else:
                warp.pcs[mask] = _END_PC
            next_pcs = None
        elif tail is Tail.JUMP:
            if full:
                warp.pcs[:] = clause.target
            else:
                warp.pcs[mask] = clause.target
            next_pcs = None
            if stats is not None:
                stats.cf_instrs += lanes
                stats.branch_events += 1
        elif tail is Tail.BARRIER:
            warp.pcs[mask] = clause_index + 1
            warp.at_barrier |= mask
            next_pcs = None
        else:  # BRANCH / BRANCH_Z
            cond = warp.regs[:, clause.cond_reg] != 0
            if tail is Tail.BRANCH_Z:
                cond = ~cond
            taken = mask & cond
            not_taken = mask & ~cond
            warp.pcs[taken] = clause.target
            warp.pcs[not_taken] = clause_index + 1
            next_pcs = warp.pcs
            if stats is not None:
                stats.cf_instrs += lanes
                stats.branch_events += 1
                if taken.any() and not_taken.any():
                    stats.divergent_branches += 1
                    if self.cfg is not None:
                        self.cfg.record_divergence(clause_index)
        if self.cfg is not None:
            self.cfg.record_execution(clause_index, lanes)
            if next_pcs is None:
                # uniform successor for all masked lanes
                if tail is Tail.END:
                    self.cfg.record_edge(clause_index, DivergenceCFGEnd, lanes)
                else:
                    successor = clause.target if tail is Tail.JUMP else clause_index + 1
                    self.cfg.record_edge(clause_index, successor, lanes)
            else:
                for lane in np.flatnonzero(mask):
                    pc = int(warp.pcs[lane])
                    dst = DivergenceCFGEnd if pc >= _END_PC else pc
                    self.cfg.record_edge(clause_index, dst, 1)

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
        local = instr.mem_is_local
        addrs = self._read(warp, clause, instr.srca, lanes)
        if self.tracer is None:
            if local:
                self._memory_local_quad(warp, clause, instr, addrs, mask,
                                        lanes, width)
                return
            if self._quad_load is not None:
                self._memory_global_quad(warp, clause, instr, addrs, mask,
                                         lanes, width)
                return
        self._execute_memory_scalar(warp, clause, instr, addrs, mask,
                                    lanes, width, local)

    def _memory_local_quad(self, warp, clause, instr, addrs, mask, lanes,
                           width):
        """Workgroup-local LD/ST as NumPy fancy indexing on the local slab."""
        local = self.local
        if lanes == WARP_WIDTH:
            indices = addrs >> 2
            if instr.op is Op.LD:
                base = instr.dst
                for element in range(width):
                    idx = indices if element == 0 else indices + element
                    warp.regs[:, base + element] = local[idx]
            else:
                base = instr.srcb
                for element in range(width):
                    values = self._read(warp, clause, base + element, lanes)
                    idx = indices if element == 0 else indices + element
                    local[idx] = values.view(np.uint32)
            return
        active = np.flatnonzero(mask)
        indices = (addrs[active].astype(np.int64) >> 2)
        if instr.op is Op.LD:
            base = instr.dst
            for element in range(width):
                warp.regs[active, base + element] = local[indices + element]
        else:
            base = instr.srcb
            for element in range(width):
                values = self._read(warp, clause, base + element, lanes)
                local[indices + element] = values.view(np.uint32)[active]

    def _memory_global_quad(self, warp, clause, instr, addrs, mask, lanes,
                            width):
        """Global LD/ST through the MMU quad gather/scatter fast path.

        Lane addresses travel as Python ints (one ``tolist`` per
        instruction) so the MMU's same-page probe stays off the NumPy
        small-array overhead. Each element row tries the coalesced path
        first; a quad the MMU cannot serve whole (fault, permissions,
        disabled fast path) is replayed lane-by-lane through the scalar
        port, which reproduces the exact scalar-mode fault semantics and
        statistics.
        """
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
                    if active is None:
                        active = np.flatnonzero(mask)
                    self._scalar_load_element(warp, addrs, active,
                                              base + element, element, False)
                elif full:
                    warp.regs[:, base + element] = values
                else:
                    warp.regs[active, base + element] = values
        else:
            base = instr.srcb
            for element in range(width):
                values = self._read(warp, clause, base + element, lanes)
                u32 = values.view(np.uint32)
                elem_addrs = addr_list if element == 0 else \
                    [a + 4 * element for a in addr_list]
                lane_values = u32 if full else u32[active]
                if self._quad_store(elem_addrs, lane_values) is None:
                    if active is None:
                        active = np.flatnonzero(mask)
                    self._scalar_store_element(addrs, active, u32,
                                               element, False)

    def _scalar_load_element(self, warp, addrs, active, reg, element, local):
        for lane in active:
            addr = int(addrs[lane]) + 4 * element
            if local:
                warp.regs[lane, reg] = self.local[addr >> 2]
            else:
                warp.regs[lane, reg] = self.mem.load_u32(addr)

    def _scalar_store_element(self, addrs, active, values, element, local):
        for lane in active:
            addr = int(addrs[lane]) + 4 * element
            if local:
                self.local[addr >> 2] = values[lane]
            else:
                self.mem.store_u32(addr, int(values[lane]))

    def _execute_memory_scalar(self, warp, clause, instr, addrs, mask,
                               lanes, width, local):
        """Reference per-word path (tracer mode / non-vector memory ports)."""
        lanes_index = np.flatnonzero(mask)
        if instr.op is Op.LD:
            base = instr.dst
            for element in range(width):
                values = warp.regs[:, base + element].copy()
                for lane in lanes_index:
                    addr = int(addrs[lane]) + 4 * element
                    if local:
                        values[lane] = self.local[addr >> 2]
                    else:
                        values[lane] = self.mem.load_u32(addr)
                self._write_vector_reg(warp, base + element, values, mask, lanes)
                if self.tracer is not None:
                    self.tracer.record_quad(warp, mask, instr, values,
                                            element=element)
        else:  # ST
            base = instr.srcb
            for element in range(width):
                values = self._read(warp, clause, base + element, lanes)
                for lane in lanes_index:
                    addr = int(addrs[lane]) + 4 * element
                    if local:
                        self.local[addr >> 2] = values[lane]
                    else:
                        self.mem.store_u32(addr, int(values[lane]))
                if self.tracer is not None:
                    self.tracer.record_quad(warp, mask, instr,
                                            values.view(np.uint32),
                                            element=element)

    def _execute_atomic(self, warp, clause, instr, mask, lanes):
        """Atomic read-modify-write: lanes apply in lane order (the
        machine's serialization point); dst receives each lane's old value."""
        local = instr.mem_is_local
        addrs = self._read(warp, clause, instr.srca, lanes)
        values = self._read(warp, clause, instr.srcb, lanes)
        mode = (instr.flags >> ATOM_MODE_SHIFT) & 0x7
        old = warp.regs[:, instr.dst].copy() if is_grf(instr.dst) else \
            np.zeros(WARP_WIDTH, dtype=np.uint32)
        for lane in np.flatnonzero(mask):
            addr = int(addrs[lane])
            if local:
                current = int(self.local[addr >> 2])
            else:
                current = self.mem.load_u32(addr)
            old[lane] = current
            updated = atomic_apply(mode, current, int(values[lane]))
            if local:
                self.local[addr >> 2] = updated
            else:
                self.mem.store_u32(addr, updated)
        self._write(warp, instr.dst, old, mask, lanes)
        if self.tracer is not None:
            self.tracer.record_quad(warp, mask, instr, old)

    def _write_vector_reg(self, warp, reg, values, mask, lanes):
        np.copyto(warp.regs[:, reg], values, where=mask)


DivergenceCFGEnd = "END"
