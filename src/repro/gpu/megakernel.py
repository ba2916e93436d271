"""Megakernel engine: workgroup-wide structure-of-arrays execution.

The third execution tier. The interpreter and the JIT both schedule one
*quad* (4 lanes) at a time, so a 64-thread workgroup pays the Python
clause-dispatch overhead 16 times per clause. This engine holds the whole
workgroup's architectural state as a structure of arrays — one contiguous
``width``-lane vector per register — and executes each clause *once* over
every lane, with NumPy boolean lane masks carrying divergence. Memory
traffic goes through the MMU's workgroup-wide gather/scatter tier
(:meth:`~repro.gpu.mmu.GPUMMU.load_wide_u32`), which serves all lanes with
one TLB probe per distinct page.

The fast-path/slow-path contract mirrors the quad tier's: the wide path
either serves an element access *whole* or returns ``None`` having
recorded nothing, and the engine replays that access per lane through the
scalar port — so armed injection pages, unmapped (grow-on-fault) pages,
permission failures and unaligned lanes all funnel through the exact
reference fault semantics with bit-identical golden statistics.

Scheduling is global minimum-PC at clause granularity over all lanes.
Restricted to any one quad's lanes, the global min-PC order executes
exactly the same (clause, mask) sequence as the per-warp scheduler, so
deferring ``(issues, lanes)`` per clause — where one *issue* is counted
per quad with at least one active lane — reproduces the interpreter's
:class:`~repro.instrument.stats.JobStats` bit-for-bit through the shared
:func:`~repro.instrument.stats.apply_clause_stats` flush. Barriers need no
fallback: when every running lane waits, releasing them all reproduces the
compute unit's release protocol.

The engine punts statically (the compute unit falls back to the
interpreter/JIT tiers for the whole workgroup) when the program contains
``ATOM`` (the interpreter serializes atomics warp-by-warp, so a
workgroup-wide interleaving could not be bit-exact), when CFG collection
or per-word memory tracing is requested, when the memory port has no wide
vector API, or when a core-hang injection must reproduce the watchdog's
stall accounting.
"""

import numpy as np

from repro.errors import GuestError, WatchdogTimeout
from repro.instrument.stats import apply_clause_stats
from repro.gpu.isa import (
    CONST_BASE,
    NUM_GRF,
    NUM_TEMPS,
    REG_GLOBAL_ID,
    REG_GROUP_FLAT,
    REG_GROUP_ID,
    REG_LANE,
    REG_LOCAL_ID,
    TEMP_BASE,
    Op,
    Tail,
    is_const,
    is_grf,
    is_temp,
)
from repro.gpu.ops import OPS, alu
from repro.gpu.warp import QUAD_WIDTH, QuadWarp

_END_PC = 1 << 30

#: every op the SoA translation handles; programs using anything else
#: (today: ATOM) are statically ineligible and run on the quad tiers
SUPPORTED_OPS = frozenset(OPS) | {Op.NOP, Op.LDU, Op.LD, Op.ST, Op.CMP}


def mega_supported(program, mem):
    """Static eligibility: every op translatable and a wide memory port."""
    if getattr(mem, "load_wide_u32", None) is None \
            or getattr(mem, "store_wide_u32", None) is None:
        return False
    for clause in program.clauses:
        for fma, add in clause.tuples:
            if fma.op not in SUPPORTED_OPS or add.op not in SUPPORTED_OPS:
                return False
    return True


class MegaState:
    """SoA architectural state of one workgroup: row-per-register."""

    __slots__ = ("regs", "temps", "pcs", "live", "at_barrier")

    def __init__(self, width):
        self.regs = np.zeros((NUM_GRF, width), dtype=np.uint32)
        self.temps = np.zeros((NUM_TEMPS, width), dtype=np.uint32)
        self.pcs = None          # materialized on divergence
        self.live = None
        self.at_barrier = None


class MegaKernel:
    """Workgroup-wide translated form of one program.

    Translations are cached by the compute unit per
    ``(program, uniforms, width)`` — counters are rebound per job, state
    is rebuilt per workgroup.
    """

    def __init__(self, program, uniforms, mem, local, width):
        if width % QUAD_WIDTH:
            raise ValueError("width must be a whole number of quads")
        self.program = program
        self.uniforms = uniforms
        self.mem = mem
        self.local = local
        self.width = width
        self._wide_load = mem.load_wide_u32
        self._wide_store = mem.store_wide_u32
        self._constants = {}
        self._compiled = [self._translate(c) for c in program.clauses]
        self._tails = [(c.tail, c.target, c.cond_reg)
                       for c in program.clauses]

    # -- operand binding -------------------------------------------------------

    def _reader(self, clause, operand):
        if is_grf(operand):
            def read(state, column=operand):
                return state.regs[column]
            return read
        if is_temp(operand):
            slot = operand - TEMP_BASE

            def read(state, column=slot):
                return state.temps[column]
            return read
        if is_const(operand):
            value = clause.constants[operand - CONST_BASE]
            vector = self._constants.get(value)
            if vector is None:
                vector = np.full(self.width, value, dtype=np.uint32)
                vector.flags.writeable = False
                self._constants[value] = vector

            def read(_state, v=vector):
                return v
            return read

        # same error as the interpreter's _read, raised when the slot is
        # issued: an unreachable clause with a bad operand stays harmless
        def read(_state):
            raise GuestError(f"invalid source operand {operand}")
        return read

    @staticmethod
    def _writer(operand):
        if is_grf(operand):
            def write(state, mask, values, column=operand):
                if mask is None:
                    state.regs[column] = values
                else:
                    np.copyto(state.regs[column], values, where=mask)
            return write
        slot = operand - TEMP_BASE

        def write(state, mask, values, column=slot):
            if mask is None:
                state.temps[column] = values
            else:
                np.copyto(state.temps[column], values, where=mask)
        return write

    # -- clause translation ------------------------------------------------------

    def _translate(self, clause):
        slots = []
        for fma, add in clause.tuples:
            for instr in (fma, add):
                if instr.op is Op.NOP:
                    continue
                slots.append(self._translate_slot(clause, instr))
        return slots

    def _translate_slot(self, clause, instr):
        op = instr.op
        if op is Op.LDU:
            write = self._writer(instr.dst)
            vector = np.full(self.width, self.uniforms[instr.imm],
                             dtype=np.uint32)
            vector.flags.writeable = False

            def run_ldu(state, mask, v=vector):
                write(state, mask, v)
            return run_ldu
        if op is Op.LD or op is Op.ST:
            if instr.mem_is_local:
                return self._translate_local(clause, instr)
            return self._translate_global(clause, instr)
        # one row of repro.gpu.ops, with only the sources the op has bound
        fn, arity = alu(instr)
        read_a = self._reader(clause, instr.srca)
        write = self._writer(instr.dst)
        if arity == 1:
            def run(state, mask):
                write(state, mask, fn(read_a(state)))
            return run
        read_b = self._reader(clause, instr.srcb)
        if arity == 2:
            def run(state, mask):
                write(state, mask, fn(read_a(state), read_b(state)))
            return run
        read_c = self._reader(clause, instr.srcc)

        def run(state, mask):
            write(state, mask,
                  fn(read_a(state), read_b(state), read_c(state)))
        return run

    def _translate_local(self, clause, instr):
        width_e = instr.mem_width
        read_addr = self._reader(clause, instr.srca)
        local = self.local
        if instr.op is Op.LD:
            base = instr.dst

            def run_ld_local(state, mask):
                addrs = read_addr(state)
                if mask is None:
                    indices = addrs.astype(np.int64) >> 2
                    for element in range(width_e):
                        state.regs[base + element] = local[indices + element]
                else:
                    active = np.flatnonzero(mask)
                    indices = addrs[active].astype(np.int64) >> 2
                    for element in range(width_e):
                        state.regs[base + element][active] = \
                            local[indices + element]
            return run_ld_local
        data_base = instr.srcb
        read_data = [self._reader(clause, data_base + e)
                     for e in range(width_e)]

        def run_st_local(state, mask):
            addrs = read_addr(state)
            if mask is None:
                indices = addrs.astype(np.int64) >> 2
                for element in range(width_e):
                    local[indices + element] = read_data[element](state)
            else:
                active = np.flatnonzero(mask)
                indices = addrs[active].astype(np.int64) >> 2
                for element in range(width_e):
                    local[indices + element] = \
                        read_data[element](state)[active]
        return run_st_local

    def _translate_global(self, clause, instr):
        """Global LD/ST: workgroup-wide gather/scatter with per-lane
        scalar replay on any element the wide tier cannot serve whole
        (the replay reproduces the reference fault semantics and
        statistics, exactly like the quad tier's fallback)."""
        width_e = instr.mem_width
        read_addr = self._reader(clause, instr.srca)
        wide_load = self._wide_load
        wide_store = self._wide_store
        mem = self.mem
        full_width = self.width
        if instr.op is Op.LD:
            base = instr.dst

            def run_ld(state, mask):
                addrs = read_addr(state)
                active = None if mask is None else np.flatnonzero(mask)
                addrs64 = (addrs if active is None else
                           addrs[active]).astype(np.int64)
                for element in range(width_e):
                    ea = addrs64 if element == 0 else addrs64 + 4 * element
                    values = wide_load(ea)
                    row = state.regs[base + element]
                    if values is None:
                        lanes = (range(full_width) if active is None
                                 else active)
                        for lane in lanes:
                            row[lane] = mem.load_u32(
                                int(addrs[lane]) + 4 * element)
                    elif active is None:
                        state.regs[base + element] = values
                    else:
                        row[active] = values
            return run_ld
        data_base = instr.srcb
        read_data = [self._reader(clause, data_base + e)
                     for e in range(width_e)]

        def run_st(state, mask):
            addrs = read_addr(state)
            active = None if mask is None else np.flatnonzero(mask)
            addrs64 = (addrs if active is None else
                       addrs[active]).astype(np.int64)
            for element in range(width_e):
                values = read_data[element](state)
                lane_values = values if active is None else values[active]
                ea = addrs64 if element == 0 else addrs64 + 4 * element
                if wide_store(ea, lane_values) is None:
                    lanes = (range(full_width) if active is None
                             else active)
                    for lane in lanes:
                        mem.store_u32(int(addrs[lane]) + 4 * element,
                                      int(values[lane]))
        return run_st

    # -- workgroup scheduling ----------------------------------------------------

    def run_workgroup(self, shape, flat_group, stats, watchdog_budget=None):
        """Execute one whole thread-group; returns its retired warps.

        Faults raised by the scalar replay propagate exactly as from the
        quad tiers; the deferred clause stats recorded so far are flushed
        either way, matching the interpreter's ``finally`` contract.
        """
        state = self._init_state(shape, flat_group)
        pending = {}
        # progress-budget watchdog, same accounting as the compute unit's
        # generic loop: round 1 starts now, and every barrier release
        # opens a new round (checked before any further progress)
        rounds = [1]
        if watchdog_budget is not None and rounds[0] > watchdog_budget:
            raise WatchdogTimeout(flat_group, rounds[0])
        try:
            if shape.threads_per_group == self.width:
                done = self._run_uniform(state, pending, stats, flat_group,
                                         watchdog_budget, rounds)
            else:
                self._diverge_from(state, shape, 0)
                done = False
            if not done:
                self._run_masked(state, pending, stats, flat_group,
                                 watchdog_budget, rounds)
        finally:
            if stats is not None and pending:
                apply_clause_stats(stats, self.program.clauses, pending)
        return self._materialize(state, shape)

    def _init_state(self, shape, flat_group):
        width = self.width
        state = MegaState(width)
        regs = state.regs
        regs[REG_LANE] = np.tile(
            np.arange(QUAD_WIDTH, dtype=np.uint32), width // QUAD_WIDTH)
        n = shape.threads_per_group
        gx, gy, gz = shape.group_coords(flat_group)
        lx_size, ly_size, _ = shape.local_size
        linear = np.arange(n, dtype=np.uint32)
        lx = linear % lx_size
        ly = (linear // lx_size) % ly_size
        lz = linear // (lx_size * ly_size)
        regs[REG_LOCAL_ID, :n] = lx
        regs[REG_LOCAL_ID + 1, :n] = ly
        regs[REG_LOCAL_ID + 2, :n] = lz
        regs[REG_GLOBAL_ID, :n] = gx * lx_size + lx
        regs[REG_GLOBAL_ID + 1, :n] = gy * ly_size + ly
        regs[REG_GLOBAL_ID + 2, :n] = gz * shape.local_size[2] + lz
        regs[REG_GROUP_ID, :n] = gx
        regs[REG_GROUP_ID + 1, :n] = gy
        regs[REG_GROUP_ID + 2, :n] = gz
        regs[REG_GROUP_FLAT, :n] = flat_group
        return state

    def _diverge_from(self, state, shape, pc):
        """Materialize per-lane scheduling state (entering masked mode)."""
        width = self.width
        state.pcs = np.full(width, _END_PC, dtype=np.int64)
        state.live = np.zeros(width, dtype=bool)
        state.live[:shape.threads_per_group] = True
        state.pcs[state.live] = pc
        state.at_barrier = np.zeros(width, dtype=bool)

    def _run_uniform(self, state, pending, stats, flat_group, budget,
                     rounds):
        """Converged fast path: every lane live at one shared PC.

        Returns True when the workgroup retired entirely converged;
        False after handing a divergent branch over to the masked
        scheduler (per-lane pcs already materialized).
        """
        compiled = self._compiled
        tails = self._tails
        width = self.width
        quads = width // QUAD_WIDTH
        max_steps = 1_000_000
        pc = 0
        steps = 0
        while True:
            if stats is not None:
                entry = pending.get(pc)
                if entry is None:
                    pending[pc] = [quads, width]
                else:
                    entry[0] += quads
                    entry[1] += width
            for slot in compiled[pc]:
                slot(state, None)
            tail, target, cond_reg = tails[pc]
            if tail is Tail.FALLTHROUGH:
                pc += 1
            elif tail is Tail.END:
                return True
            elif tail is Tail.JUMP:
                if stats is not None:
                    stats.cf_instrs += width
                    stats.branch_events += quads
                pc = target
            elif tail is Tail.BARRIER:
                # all lanes reach the barrier together: the compute
                # unit's release protocol fires immediately
                rounds[0] += 1
                if budget is not None and rounds[0] > budget:
                    raise WatchdogTimeout(flat_group, rounds[0])
                pc += 1
            else:  # BRANCH / BRANCH_Z
                cond = state.regs[cond_reg] != 0
                if tail is Tail.BRANCH_Z:
                    cond = ~cond
                if stats is not None:
                    stats.cf_instrs += width
                    stats.branch_events += quads
                    taken_q = cond.reshape(-1, QUAD_WIDTH).any(axis=1)
                    split_q = (~cond).reshape(-1, QUAD_WIDTH).any(axis=1)
                    stats.divergent_branches += int(
                        (taken_q & split_q).sum())
                if cond.all():
                    pc = target
                elif not cond.any():
                    pc += 1
                else:
                    state.pcs = np.where(cond, np.int64(target),
                                         np.int64(pc + 1))
                    state.live = np.ones(width, dtype=bool)
                    state.at_barrier = np.zeros(width, dtype=bool)
                    return False
            steps += 1
            if steps > max_steps:
                raise GuestError(
                    f"workgroup exceeded {max_steps} clauses; "
                    f"kernel is likely stuck")

    def _run_masked(self, state, pending, stats, flat_group, budget,
                    rounds):
        """General scheduler: global min-PC with per-lane masks."""
        compiled = self._compiled
        tails = self._tails
        width = self.width
        pcs = state.pcs
        live = state.live
        at_barrier = state.at_barrier
        max_steps = 1_000_000 * (width // QUAD_WIDTH)
        steps = 0
        while True:
            running = live & (pcs < _END_PC)
            if not running.any():
                return
            runnable = running & ~at_barrier
            if not runnable.any():
                # every running lane waits: the unit releases them all
                at_barrier[:] = False
                rounds[0] += 1
                if budget is not None and rounds[0] > budget:
                    raise WatchdogTimeout(flat_group, rounds[0])
                continue
            current = int(pcs[runnable].min())
            mask = runnable & (pcs == current)
            lanes = int(mask.sum())
            if stats is not None:
                quads = int(mask.reshape(-1, QUAD_WIDTH).any(axis=1).sum())
                entry = pending.get(current)
                if entry is None:
                    pending[current] = [quads, lanes]
                else:
                    entry[0] += quads
                    entry[1] += lanes
            issue_mask = None if lanes == width else mask
            for slot in compiled[current]:
                slot(state, issue_mask)
            tail, target, cond_reg = tails[current]
            if tail is Tail.FALLTHROUGH:
                pcs[mask] = current + 1
            elif tail is Tail.END:
                pcs[mask] = _END_PC
            elif tail is Tail.JUMP:
                pcs[mask] = target
                if stats is not None:
                    stats.cf_instrs += lanes
                    stats.branch_events += quads
            elif tail is Tail.BARRIER:
                pcs[mask] = current + 1
                at_barrier |= mask
            else:  # BRANCH / BRANCH_Z
                cond = state.regs[cond_reg] != 0
                if tail is Tail.BRANCH_Z:
                    cond = ~cond
                taken = mask & cond
                not_taken = mask & ~cond
                pcs[taken] = target
                pcs[not_taken] = current + 1
                if stats is not None:
                    stats.cf_instrs += lanes
                    stats.branch_events += quads
                    taken_q = taken.reshape(-1, QUAD_WIDTH).any(axis=1)
                    split_q = not_taken.reshape(-1, QUAD_WIDTH).any(axis=1)
                    stats.divergent_branches += int(
                        (taken_q & split_q).sum())
            steps += 1
            if steps > max_steps:
                raise GuestError(
                    f"workgroup exceeded {max_steps} clauses; "
                    f"kernel is likely stuck")

    def _materialize(self, state, shape):
        """Transpose the SoA state back into retired :class:`QuadWarp`\\ s
        (the compute unit's return contract, used by the conformance
        harness to inspect architectural state)."""
        warps = []
        n = shape.threads_per_group
        for index in range(shape.warps_per_group):
            first = index * QUAD_WIDTH
            warp = QuadWarp(active_lanes=min(QUAD_WIDTH, n - first))
            warp.regs[:] = state.regs[:, first:first + QUAD_WIDTH].T
            warp.temps[:] = state.temps[:, first:first + QUAD_WIDTH].T
            warp.pcs[:] = _END_PC
            warps.append(warp)
        return warps
