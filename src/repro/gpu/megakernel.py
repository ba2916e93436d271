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

A translation depends on the program, not on the job or the launch shape:
``LDU`` slots read the uniform table bound at job start and constant
operands read vectors of the launch's width, so the compute unit keeps one
translation per program (the paper's decode cache, one level down).

The engine punts statically (the compute unit falls back to the
interpreter/JIT tiers for the whole workgroup) when the program contains
``ATOM`` (the interpreter serializes atomics warp-by-warp, so a
workgroup-wide interleaving could not be bit-exact), when CFG collection
or per-word memory tracing is requested, when the memory port has no wide
vector API, or when a core-hang injection must reproduce the watchdog's
stall accounting.
"""

from collections.abc import Sequence

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
)
from repro.gpu.ops import OPS, alu, uniform_word
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


#: rows of the SoA register file: operand number == row, for GRF
#: registers and (from TEMP_BASE) clause temporaries alike
_ROWS = TEMP_BASE + NUM_TEMPS


def _row_access(row):
    def read(state):
        return state.regs[row]

    def write(state, mask, values):
        if mask is None:
            state.regs[row] = values
        else:
            np.copyto(state.regs[row], values, where=mask)
    return read, write


#: operand -> (read, write), one pair per register shared by every slot of
#: every translation (a pair per operand *use* is most of what a retained
#: translation would weigh)
_ACCESS = {row: _row_access(row)
           for row in (*range(NUM_GRF), *range(TEMP_BASE, _ROWS))}


class MegaState:
    """SoA architectural state of one workgroup (row-per-register) and
    the two read-only ports of its launch: the job's uniform table and
    the program's constants broadcast to the launch's width."""

    __slots__ = ("regs", "uniforms", "consts", "pcs", "live", "at_barrier")

    def __init__(self, regs, uniforms, consts):
        self.regs = regs
        self.uniforms = uniforms
        self.consts = consts
        self.pcs = None          # materialized on divergence
        self.live = None
        self.at_barrier = None


class RetiredWarps(Sequence):
    """The retired warps of one workgroup, each transposed out of the SoA
    state only when read: the Job Manager never looks, the conformance
    harness inspects every lane."""

    def __init__(self, state, shape):
        self._state = state
        self._shape = shape

    def __len__(self):
        return self._shape.warps_per_group

    def __getitem__(self, index):
        first = range(len(self))[index] * QUAD_WIDTH
        warp = QuadWarp(active_lanes=min(
            QUAD_WIDTH, self._shape.threads_per_group - first))
        lanes = self._state.regs[:, first:first + QUAD_WIDTH].T
        warp.regs[:] = lanes[:, :NUM_GRF]
        warp.temps[:] = lanes[:, TEMP_BASE:]
        warp.pcs[:] = _END_PC
        return warp


class MegaKernel:
    """Workgroup-wide translated form of one program, kept by the compute
    unit across jobs and launch shapes: uniforms are bound per job,
    counters passed and state rebuilt per workgroup.
    """

    def __init__(self, program, mem, local):
        self.program = program
        self.uniforms = None
        self.mem = mem
        self.local = local
        self._constants = {}   # constant value -> index into state.consts
        self._launches = {}    # local size -> (preloaded rows, consts)
        self._compiled = [self._translate(c) for c in program.clauses]
        self._tails = [(c.tail, c.target, c.cond_reg)
                       for c in program.clauses]

    def bind(self, uniforms):
        """Install the uniform table of the job about to run."""
        self.uniforms = uniforms

    # -- operand binding -------------------------------------------------------

    def _reader(self, clause, operand):
        access = _ACCESS.get(operand)
        if access is not None:
            return access[0]
        if is_const(operand):
            index = self._constants.setdefault(
                clause.constants[operand - CONST_BASE], len(self._constants))

            def read(state):
                return state.consts[index]
            return read

        # same error as the interpreter's _read, raised when the slot is
        # issued: an unreachable clause with a bad operand stays harmless
        def read(_state):
            raise GuestError(f"invalid source operand {operand}")
        return read

    @staticmethod
    def _writer(operand):
        access = _ACCESS.get(operand)
        if access is not None:
            return access[1]

        def write(_state, _mask, _values):
            raise GuestError(f"invalid destination operand {operand}")
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
            index = instr.imm

            def run_ldu(state, mask):
                write(state, mask, uniform_word(state.uniforms, index))
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
        mem = self.mem
        wide_load = mem.load_wide_u32
        wide_store = mem.store_wide_u32
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
                        lanes = (range(len(addrs)) if active is None
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
                    lanes = (range(len(addrs)) if active is None
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
            if shape.threads_per_group == state.regs.shape[1]:
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
        return RetiredWarps(state, shape)

    def _launch(self, shape):
        """What every workgroup of one launch shape starts from: the
        dispatcher-preloaded rows (``REG_GROUP_ID`` and up) of group
        (0, 0, 0) — lane and local ids, global ids equal to them — and
        the constants broadcast to the launch's width."""
        launch = self._launches.get(shape.local_size)
        if launch is None:
            width = shape.warps_per_group * QUAD_WIDTH
            regs = np.zeros((NUM_GRF, width), dtype=np.uint32)
            regs[REG_LANE] = np.tile(
                np.arange(QUAD_WIDTH, dtype=np.uint32), width // QUAD_WIDTH)
            lx_size, ly_size, _ = shape.local_size
            n = shape.threads_per_group
            linear = np.arange(n, dtype=np.uint32)
            local_ids = (linear % lx_size, (linear // lx_size) % ly_size,
                         linear // (lx_size * ly_size))
            for axis, ids in enumerate(local_ids):
                regs[REG_LOCAL_ID + axis, :n] = ids
                regs[REG_GLOBAL_ID + axis, :n] = ids
            consts = [np.full(width, value, dtype=np.uint32)
                      for value in self._constants]
            for vector in consts:
                vector.flags.writeable = False
            launch = self._launches[shape.local_size] = (
                regs[REG_GROUP_ID:].copy(), consts)
        return launch

    def _init_state(self, shape, flat_group):
        preloaded, consts = self._launch(shape)
        regs = np.zeros((_ROWS, preloaded.shape[1]), dtype=np.uint32)
        regs[REG_GROUP_ID:NUM_GRF] = preloaded
        n = shape.threads_per_group
        group = shape.group_coords(flat_group)
        for axis in range(3):
            if group[axis]:
                regs[REG_GLOBAL_ID + axis, :n] += \
                    group[axis] * shape.local_size[axis]
                regs[REG_GROUP_ID + axis, :n] = group[axis]
        regs[REG_GROUP_FLAT, :n] = flat_group
        return MegaState(regs, self.uniforms, consts)

    def _diverge_from(self, state, shape, pc):
        """Materialize per-lane scheduling state (entering masked mode)."""
        width = state.regs.shape[1]
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
        width = state.regs.shape[1]
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
        width = state.regs.shape[1]
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
