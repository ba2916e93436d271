"""JIT-compiled GPU clause execution (the paper's stated future work).

"Future work will include ... further performance optimizations, e.g.
JIT-compiled execution of GPU code" (Section VII-A). This module provides
that mode: instead of dispatching each instruction through the interpretive
executor's opcode table on every execution, each clause is *translated
once* into a list of specialized closures. Operand locations (GRF column,
temporary slot, or a pre-materialized constant vector) and the operation
itself are bound at translation time, so replaying a hot clause does no
decode, no dispatch and no operand-kind branching — the GPU-side analogue
of the CPU DBT engine.

The JIT engine is functionally identical to the interpreter (the test
suite runs both and compares bit-for-bit) and reports identical
:class:`~repro.instrument.stats.JobStats`: clause metrics are static at
decode time, so the scheduling loop only records ``(issues, lanes)`` per
clause plus tail branch events, and the same deferred flush the
interpreter uses multiplies them out. It is selected with
``GPUConfig(engine="jit")`` and falls back to the interpreter only when
CFG collection or memory tracing is requested (those need per-issue /
per-word visibility the translated closures deliberately avoid).
"""

import numpy as np

from repro.errors import GuestError
from repro.instrument.stats import apply_clause_stats
from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
    CONST_BASE,
    TEMP_BASE,
    Op,
    Tail,
    is_const,
    is_grf,
    is_temp,
)
from repro.gpu.ops import alu, atomic_apply, uniform_word
from repro.gpu.warp import WARP_WIDTH

_END_PC = 1 << 30


class ClauseJIT:
    """Clause-translating GPU execution engine."""

    def __init__(self, program, uniforms, mem, local=None, stats=None):
        self.program = program
        self.uniforms = uniforms
        self.mem = mem
        self.local = local
        # uniforms and stats are rebound per job by the compute unit
        # (translations are cached across jobs, tables and counters are
        # not)
        self.stats = stats
        # deferred per-clause stat accumulation, same scheme (and same
        # flush helper) as the interpreter: clause index -> [issues, lanes]
        self._pending_stats = {}
        # translate every clause once (the decode cache already guarantees
        # programs are decoded once; this caches the *execution* form too)
        self._compiled = [self._translate(c) for c in program.clauses]

    # -- operand binding -------------------------------------------------------

    def _reader(self, clause, operand):
        if is_grf(operand):
            def read(warp, column=operand):
                return warp.regs[:, column]
            return read
        if is_temp(operand):
            slot = operand - TEMP_BASE

            def read(warp, column=slot):
                return warp.temps[:, column]
            return read
        if is_const(operand):
            vector = np.full(WARP_WIDTH, clause.constants[operand - CONST_BASE],
                             dtype=np.uint32)

            def read(_warp, value=vector):
                return value
            return read

        # same error as the interpreter's _read, raised when the slot is
        # issued: an unreachable clause with a bad operand stays harmless
        def read(_warp):
            raise GuestError(f"invalid source operand {operand}")
        return read

    @staticmethod
    def _writer(operand):
        if is_grf(operand):
            def write(warp, mask, values, column=operand):
                np.copyto(warp.regs[:, column], values, where=mask)
            return write
        slot = operand - TEMP_BASE

        def write(warp, mask, values, column=slot):
            np.copyto(warp.temps[:, column], values, where=mask)
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
            value = np.full(WARP_WIDTH, 0, dtype=np.uint32)
            index = instr.imm

            def run_ldu(warp, mask, lanes):
                value.fill(uniform_word(self.uniforms, index))
                write(warp, mask, value)
            return run_ldu
        if op is Op.LD or op is Op.ST:
            return self._translate_memory(clause, instr)
        if op is Op.ATOM:
            return self._translate_atomic(clause, instr)
        # one row of repro.gpu.ops, with only the sources the op has bound
        fn, arity = alu(instr)[:2]
        read_a = self._reader(clause, instr.srca)
        write = self._writer(instr.dst)
        if arity == 1:
            def run(warp, mask, lanes):
                write(warp, mask, fn(read_a(warp)))
            return run
        read_b = self._reader(clause, instr.srcb)
        if arity == 2:
            def run(warp, mask, lanes):
                write(warp, mask, fn(read_a(warp), read_b(warp)))
            return run
        read_c = self._reader(clause, instr.srcc)

        def run(warp, mask, lanes):
            write(warp, mask, fn(read_a(warp), read_b(warp), read_c(warp)))
        return run

    def _translate_atomic(self, clause, instr):
        read_addr = self._reader(clause, instr.srca)
        read_val = self._reader(clause, instr.srcb)
        write = self._writer(instr.dst)
        mode = (instr.flags >> ATOM_MODE_SHIFT) & 0x7
        local = instr.mem_is_local
        mem = self.mem
        local_mem = self.local

        def run_atom(warp, mask, lanes):
            addrs = read_addr(warp)
            values = read_val(warp)
            old = np.zeros(WARP_WIDTH, dtype=np.uint32)
            for lane in np.flatnonzero(mask):
                addr = int(addrs[lane])
                if local:
                    current = int(local_mem[addr >> 2])
                else:
                    current = mem.load_u32(addr)
                old[lane] = current
                updated = atomic_apply(mode, current, int(values[lane]))
                if local:
                    local_mem[addr >> 2] = updated
                else:
                    mem.store_u32(addr, updated)
            write(warp, mask, old)
        return run_atom

    def _translate_memory(self, clause, instr):
        width = instr.mem_width
        local = instr.mem_is_local
        read_addr = self._reader(clause, instr.srca)
        mem = self.mem
        local_mem = self.local
        quad_load = getattr(mem, "load_quad_u32", None)
        quad_store = getattr(mem, "store_quad_u32", None)
        if instr.op is Op.LD:
            base = instr.dst
            if local:
                def run_ld_local(warp, mask, lanes):
                    active = np.flatnonzero(mask)
                    indices = read_addr(warp)[active].astype(np.int64) >> 2
                    for element in range(width):
                        warp.regs[active, base + element] = \
                            local_mem[indices + element]
                return run_ld_local

            def run_ld(warp, mask, lanes):
                addrs = read_addr(warp)
                active = np.flatnonzero(mask)
                addr_list = addrs[active].tolist()
                regs = warp.regs
                for element in range(width):
                    column = base + element
                    elem_addrs = addr_list if element == 0 else \
                        [a + 4 * element for a in addr_list]
                    values = quad_load(elem_addrs) \
                        if quad_load is not None else None
                    if values is not None:
                        regs[active, column] = values
                        continue
                    for lane, addr in zip(active, elem_addrs):
                        regs[lane, column] = mem.load_u32(addr)
            return run_ld
        data_base = instr.srcb
        read_data = [self._reader(clause, data_base + e) for e in range(width)]
        if local:
            def run_st_local(warp, mask, lanes):
                active = np.flatnonzero(mask)
                indices = read_addr(warp)[active].astype(np.int64) >> 2
                for element in range(width):
                    values = read_data[element](warp)
                    local_mem[indices + element] = values[active]
            return run_st_local

        def run_st(warp, mask, lanes):
            addrs = read_addr(warp)
            active = np.flatnonzero(mask)
            addr_list = addrs[active].tolist()
            for element in range(width):
                values = read_data[element](warp)
                elem_addrs = addr_list if element == 0 else \
                    [a + 4 * element for a in addr_list]
                if quad_store is not None and quad_store(
                        elem_addrs, values[active]) is not None:
                    continue
                for lane, addr in zip(active, elem_addrs):
                    mem.store_u32(addr, int(values[lane]))
        return run_st

    # -- warp scheduling (same contract as ClauseInterpreter) ----------------------

    def run_warp(self, warp, max_clauses=1_000_000):
        program = self.program
        compiled = self._compiled
        stats = self.stats
        pending = self._pending_stats
        try:
            while True:
                if warp.finished:
                    return "done"
                if warp.blocked:
                    return "barrier"
                runnable = (warp.pcs < _END_PC) & ~warp.at_barrier
                current = int(warp.pcs[runnable].min())
                mask = runnable & (warp.pcs == current)
                lanes = int(mask.sum())
                if stats is not None:
                    entry = pending.get(current)
                    if entry is None:
                        pending[current] = [1, lanes]
                    else:
                        entry[0] += 1
                        entry[1] += lanes
                for slot in compiled[current]:
                    slot(warp, mask, lanes)
                self._apply_tail(warp, program.clauses[current], current,
                                 mask, lanes)
                warp.clause_steps += 1
                if warp.clause_steps > max_clauses:
                    raise GuestError(
                        "warp exceeded clause budget (stuck kernel?)")
        finally:
            if stats is not None and pending:
                apply_clause_stats(stats, program.clauses, pending)

    def _apply_tail(self, warp, clause, clause_index, mask, lanes):
        tail = clause.tail
        stats = self.stats
        if tail is Tail.FALLTHROUGH:
            warp.pcs[mask] = clause_index + 1
        elif tail is Tail.END:
            warp.pcs[mask] = _END_PC
        elif tail is Tail.JUMP:
            warp.pcs[mask] = clause.target
            if stats is not None:
                stats.cf_instrs += lanes
                stats.branch_events += 1
        elif tail is Tail.BARRIER:
            warp.pcs[mask] = clause_index + 1
            warp.at_barrier |= mask
        else:
            cond = warp.regs[:, clause.cond_reg] != 0
            if tail is Tail.BRANCH_Z:
                cond = ~cond
            taken = mask & cond
            not_taken = mask & ~cond
            warp.pcs[taken] = clause.target
            warp.pcs[not_taken] = clause_index + 1
            if stats is not None:
                stats.cf_instrs += lanes
                stats.branch_events += 1
                if taken.any() and not_taken.any():
                    stats.divergent_branches += 1
