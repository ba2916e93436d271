"""Megakernel engine: workgroup-wide structure-of-arrays execution.

The translating execution tier. The interpreter schedules one
*quad* (4 lanes) at a time, so a 64-thread workgroup pays the Python
clause-dispatch overhead 16 times per clause. This engine holds the whole
workgroup's architectural state as a structure of arrays — one contiguous
``width``-lane vector per register — and executes each clause *once* over
every lane, with NumPy boolean lane masks carrying divergence. Memory
traffic goes through the MMU's workgroup-wide gather/scatter tier
(:meth:`~repro.gpu.mmu.GPUMMU.load_wide_u32`), which serves all lanes with
one TLB probe per distinct page.

The fast-path/slow-path contract is the quad tier's, over the same page
lookup (:mod:`repro.gpu.mmu`): the wide path either serves an element
access *whole* or returns ``None`` having recorded nothing but the
fallback, and the engine replays that access per lane through the scalar
port with the interpreter's own :func:`~repro.gpu.mmu.replay_load` /
``replay_store`` — so armed injection pages, unmapped (grow-on-fault)
pages, permission failures and unaligned lanes all funnel through the
exact reference fault semantics with bit-identical golden statistics.

Scheduling is global minimum-PC at clause granularity over all lanes.
Restricted to any one quad's lanes, the global min-PC order executes
exactly the same (clause, mask) sequence as the per-warp scheduler, so
counting ``(issues, lanes, taken, split)`` per clause — where one
*issue* is counted per quad with at least one active lane — into the
job's per-clause table gives the interpreter's table, and with it the
interpreter's :class:`~repro.instrument.stats.JobStats` and CFG,
bit-for-bit (both are derived from the table when read,
:func:`~repro.instrument.stats.derive_stats`). Barriers need no
fallback: when every running lane waits, releasing them all reproduces the
compute unit's release protocol. Two loops share a workgroup: while every
lane sits at one PC the *converged* loop dispatches chain functions with
no mask at all; a branch that splits the lanes hands over to the *masked*
scheduler, which hands back as soon as every lane of the row has met at a
chain head again (a converged issue and a full-mask step account alike).

None of this depends on the row being one workgroup: the same argument,
restricted to the lanes of one *slot*, makes a row of several workgroups
side by side schedule and account each of them as it would alone. A
*lockstep batch* is that row — ``BATCH_LANES`` lanes of consecutive flat
groups in the host thread's one register file — and what it cannot know
beforehand, whether the groups are independent through memory, is decided
while it runs by the MMU's batch port (``state.mem`` of a batch; see
:class:`~repro.gpu.mmu.BatchPort`): stores are buffered, every word
remembers the highest slot that loaded and that stored it — a load
remembers nothing outside the pages of the buffers the program stores
through, which its code names (``_Code.stored``), and a store there
abandons — and the first access that running the groups one after
another would have answered differently abandons the batch — nothing has reached memory, and the
caller runs the same groups one at a time for the rest of that job (what
conflicted is the job's data: the next job starts batched again). A
batch that ran out of port capacity (window pages or store buffer) is
retried at half the width instead, which the rest of its job keeps.
``__local`` memory is private to a group, so the port never sees it: each
slot of a batch has its own zeroed slab, and a local access indexes the
slab of its lane's slot, bounds-checked per slot (an access past the
declared bytes abandons the batch, and the group that made it raises
when it runs alone). Programs with an ``ATOM`` and groups with a partial
last quad are never batched.

Clauses are translated to host *source* (docs/internals.md §9): one
generated function per chain of fall-through clauses on the converged
path, one per clause on the masked path. A slot whose row of
:mod:`repro.gpu.ops` is one ufunc in one lane type is that ufunc, ``out=``
the destination row; any other row calls the table's own value function.
The functions take everything of a platform, job or launch from their
``state`` argument, so they depend on the program's bytes alone and live
in one bounded process-wide table (:func:`emitted_code`).

The engine runs every program it is given. One with an ``ATOM`` runs
*warp-serially* — masked functions only, one quad at a time in the
interpreter's order, never batched — through the interpreter's own
:func:`~repro.gpu.ops.atomic`, so every old value is the interpreter's.
A traced job runs a *traced* variant of the source, which records every
result; the untraced source is unchanged by it.
"""

import binascii
import re
import threading
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from repro.errors import GuestError, SimError, WatchdogTimeout
from repro.hostcode import BoundedTable, compile_source, forget_source
from repro.instrument.stats import merge_clause_counts
from repro.gpu.encoding import encode_program
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
from repro.gpu.mmu import BatchAbandoned, replay_load, replay_store
from repro.gpu.ops import OPS, alu, atomic, uniform_word
from repro.gpu.warp import QUAD_WIDTH, QuadWarp

_END_PC = 1 << 30
#: or-ed into the PC of a lane waiting at a barrier (above any real PC)
_WAIT = 1 << 29
#: clauses one converged workgroup (one quad of a diverged one) may issue
#: before it is declared stuck
_MAX_STEPS = 1_000_000
#: lanes of one lockstep batch: consecutive workgroups that fill them run
#: side by side in one register file. The widest of 1024 / 2048 / 4096 /
#: 8192 that keeps every system-benchmark workload's peak RSS within 2%
#: of 1024's (docs/internals.md §9)
BATCH_LANES = 4096

#: register rows of the SoA register file: operand number == row, for GRF
#: registers and (from TEMP_BASE) clause temporaries alike. The program's
#: distinct constants follow as further rows, broadcast to every lane.
_ROWS = TEMP_BASE + NUM_TEMPS


# -- emitter ---------------------------------------------------------------------

#: lane type -> the name generated code gives the register rows seen as it
_VIEW = {np.uint32: "R", np.float32: "F", np.int32: "I"}

#: name in generated code -> the line binding it from `state` (or the
#: mask), emitted only in the functions that use the name
_BIND = {
    "R": "R = state.R",
    "F": "F = state.F",
    "I": "I = state.I",
    "U": "U = state.uniforms",
    "L": "L = state.local",
    "S": "S = state.slot",
    "mem": "mem = state.mem",
    "act": "act = np.flatnonzero(mask)",
    "trace": "trace = state.trace",
}
_NAMES = re.compile(r"\b(%s)\b" % "|".join(_BIND))


#: what generated code may call: the table's own value functions (for
#: the rows that are not one ufunc), never a second copy of a semantics
_GLOBALS = {
    "np": np, "i64": np.int64, "GuestError": GuestError,
    "uniform_word": uniform_word,
    "replay_load": replay_load, "replay_store": replay_store,
    "atomic": atomic,
    **{f"fn_{op.name}": row.fn for op, row in OPS.items()},
}


#: the shift rows emitted as one ufunc when the amount is a constant
#: (their value functions mask a lane amount to its low 5 bits)
_SHIFTS = {Op.ISHL: "left_shift", Op.ISHR: "right_shift"}


def _invalid(kind, operand):
    # the interpreter's error, raised where the slot is issued: an
    # unreachable clause with a bad operand stays harmless
    return f"raise GuestError('invalid {kind} operand {operand}')"


class _Emitter:
    """Host source of one program. One emitter, two bodies per clause:
    *converged* (every lane) and *masked* (the lanes of ``mask``); the
    *traced* variant follows every result with a ``trace`` call."""

    def __init__(self, program, traced=False):
        self.clauses = program.clauses
        self.traced = traced
        self.constants = {}  # value -> row

    def _source_row(self, clause, operand):
        if 0 <= operand < _ROWS:
            return operand
        if is_const(operand):
            return self.constants.setdefault(
                clause.constants[operand - CONST_BASE],
                _ROWS + len(self.constants))
        return None

    def clause(self, pc, masked):
        """The slots of clause *pc*, in issue order."""
        clause = self.clauses[pc]
        lines = []
        for instr in clause.active_slots():
            if instr.op is Op.LD or instr.op is Op.ST:
                lines += self._memory(clause, instr, masked)
                continue
            lines += self._atomic(clause, instr) if instr.op is Op.ATOM \
                else self._value(clause, instr, masked)
            if not lines[-1].startswith("raise"):
                lines += self._trace(instr, instr.dst, masked)
        return lines

    def _trace(self, instr, row, masked, element=0):
        """The traced variant's record of what the slot wrote (or
        stored) in *row*, lane by lane; nothing in the untraced one."""
        if not self.traced:
            return []
        lanes = "act" if masked else "None"
        return [f"trace(R, {lanes}, {instr.op.name!r}, {instr.dst}, "
                f"R[{row}], {element})"]

    def _value(self, clause, instr, masked):
        """LDU, CMP or a row of :data:`repro.gpu.ops.OPS`."""
        dst = instr.dst
        dst_ok = 0 <= dst < _ROWS
        if instr.op is Op.LDU:
            value = f"uniform_word(U, {instr.imm})"
            if not dst_ok:  # the range check still comes first
                return [value, _invalid("destination", dst)]
        else:
            row = alu(instr)
            rows = []
            for operand in (instr.srca, instr.srcb, instr.srcc)[:row.arity]:
                rows.append(self._source_row(clause, operand))
                if rows[-1] is None:
                    return [_invalid("source", operand)]
            if not dst_ok:
                return [_invalid("destination", dst)]
            shift = _SHIFTS.get(instr.op)
            if shift is not None and is_const(instr.srcb):
                # the amount is the clause's: one ufunc, into the row
                amount = clause.constants[instr.srcb - CONST_BASE] & 31
                where = ", where=mask" if masked else ""
                return [f"np.{shift}(R[{rows[0]}], {amount}, "
                        f"out=R[{dst}]{where})"]
            if row.ufunc is None:
                args = ", ".join(f"R[{r}]" for r in rows)
                value = f"fn_{instr.op.name}({args})"
            else:
                view = _VIEW[row.lane]
                args = ", ".join(f"{view}[{r}]" for r in rows)
                value = f"np.{row.ufunc.__name__}({args}"
                if instr.op is not Op.CMP:
                    # the result has the sources' lane type: straight
                    # into the row (in == out is exact for one ufunc)
                    where = ", where=mask" if masked else ""
                    return [f"{value}, out={view}[{dst}]{where})"]
                value += ")"  # a bool, stored as 0/1
        if masked:
            return [f"np.copyto(R[{dst}], {value}, where=mask)"]
        return [f"R[{dst}][:] = {value}"]

    def _memory(self, clause, instr, masked):
        """Local LD/ST as fancy indexing on the slabs — ``L[S, a]``: the
        row of each lane's slot, bounds-checked per slot; global LD/ST
        as a workgroup-wide gather/scatter of the uint32 lane addresses
        as the row holds them (a masked one tells the port which lanes
        it is for, a converged load gathers straight into its row), with
        per-lane replay of any element the wide port returns None for.
        An element's ``a + 4k`` wraps past 2^32 onto page 0, which only
        the scalar replay serves (:meth:`~repro.gpu.mmu.GPUMMU._probe`)."""
        addr = self._source_row(clause, instr.srca)
        if addr is None:
            return [_invalid("source", instr.srca)]
        pick, lanes, of = ("[act]", "act", ", act") if masked \
            else ("", "None", "")
        local = instr.mem_is_local
        if local:
            lines = [f"a = R[{addr}]{pick}.astype(i64) >> 2"]
            if masked:
                lines.append("s = S[act]")
        else:
            # converged, `a` is the row itself: a vector load that
            # overwrites it before its last element reads from a copy
            copy = not masked and instr.op is Op.LD \
                and instr.dst <= addr < instr.dst + instr.mem_width - 1
            lines = [f"a = R[{addr}]{pick}" + ".copy()" * copy]
        for element in range(instr.mem_width):
            if local:
                slot = "s" if masked else "S"
                at = f"L[{slot}, a + {element}]" if element \
                    else f"L[{slot}, a]"
            else:
                at = f"a + {4 * element}" if element else "a"
            if instr.op is Op.LD:
                dst = instr.dst + element
                if not 0 <= dst < _ROWS:  # the elements before it land
                    lines.append(_invalid("destination", dst))
                    break
                trace = self._trace(instr, dst, masked, element)
                if local:
                    lines += [f"R[{dst}]{pick or '[:]'} = {at}", *trace]
                    continue
                replay = f"    replay_load(mem, R[{addr}], {lanes}, " \
                    f"R[{dst}], {4 * element})"
                if masked:
                    lines += [f"v = mem.load_wide_u32({at}, act)",
                              "if v is None:", replay,
                              "else:", f"    R[{dst}][act] = v", *trace]
                else:
                    lines += [f"if mem.load_wide_u32({at}, None, R[{dst}])"
                              " is None:", replay, *trace]
                continue
            data = self._source_row(clause, instr.srcb + element)
            if data is None:  # the elements before it are stored
                lines.append(_invalid("source", instr.srcb + element))
                break
            trace = self._trace(instr, data, masked, element)
            if local:
                lines += [f"{at} = R[{data}]{pick}", *trace]
                continue
            lines += [
                f"if mem.store_wide_u32({at}, R[{data}]{pick}{of}) is None:",
                f"    replay_store(mem, R[{addr}], {lanes}, R[{data}], "
                f"{4 * element})", *trace]
        return lines

    def _atomic(self, clause, instr):
        """ATOM through the interpreter's own :func:`~repro.gpu.ops.atomic`
        over the lanes of ``mask``: a program with one runs masked only,
        never batched, so its flat slab is slot 0's."""
        rows = []
        for operand in (instr.srca, instr.srcb):
            rows.append(self._source_row(clause, operand))
            if rows[-1] is None:
                return [_invalid("source", operand)]
        port = "None, L[0]" if instr.mem_is_local else "mem, None"
        call = f"atomic({port}, {instr.flags}, R[{rows[0]}], R[{rows[1]}], " \
            f"act, "
        if 0 <= instr.dst < _ROWS:
            return [f"{call}R[{instr.dst}])"]
        # as on the interpreter, the lanes' updates land before it raises
        return [f"{call}np.empty_like(R[0]))",
                _invalid("destination", instr.dst)]

    def chains(self):
        """``{head: [clause, ...]}``: the maximal runs of clauses joined
        by FALLTHROUGH with no way in but the head. Every clause the
        converged scheduler can be at is a head."""
        heads = {0}
        for pc, clause in enumerate(self.clauses):
            if clause.tail in (Tail.JUMP, Tail.BRANCH, Tail.BRANCH_Z):
                heads.add(clause.target)
            if clause.tail in (Tail.BRANCH, Tail.BRANCH_Z, Tail.BARRIER):
                heads.add(pc + 1)
        heads.discard(len(self.clauses))  # running off the end
        chains = {}
        for head in sorted(heads):
            chain = chains[head] = [head]
            while self.clauses[chain[-1]].tail is Tail.FALLTHROUGH \
                    and chain[-1] + 1 not in heads:
                chain.append(chain[-1] + 1)
        return chains


def _function(name, parameters, body):
    used = set(_NAMES.findall("\n".join(body)))
    return [f"def {name}({parameters}):",
            *(f"    {line}" for key, line in _BIND.items() if key in used),
            *(f"    {line}" for line in body or ["pass"])]


#: What one program's bytes translate to. chains: head -> (run, length,
#: last clause, *that clause's tail), none for a program with an ATOM (it
#: runs warp-serially); masked: clause -> (run, tail, target, cond_reg);
#: constants: the rows from _ROWS up as one uint32 column each, broadcast
#: over the lanes of whatever width runs; typed: (F, I used); stored: the
#: uniform slots its global stores go through, None for any
#: (:func:`repro.gpu.verify.absint.stored_slots`)
_Code = namedtuple("_Code", "chains masked constants typed filename stored")


def _emit(program, filename, traced):
    # the verifier loads with the first program this process translates
    from repro.gpu.verify.absint import stored_slots

    emitter = _Emitter(program, traced)
    chains = {} if any(instr.op is Op.ATOM for clause in program.clauses
                       for instr in clause.active_slots()) \
        else emitter.chains()
    lines = []
    for head, clauses in chains.items():
        # each clause of a chain counts its issue before its slots run and
        # is one step of the stuck-kernel guard: with `room` steps left,
        # clause k runs only if the k before it fit — a fault or the guard
        # mid-chain leaves the counts of exactly the clauses issued
        body = []
        for done, pc in enumerate(clauses):
            if done:
                body.append(f"if room < {done}: return True")
            body.append(f"hits[{pc}] = hits.get({pc}, 0) + 1")
            body += emitter.clause(pc, masked=False)
        lines += _function(f"chain_{head}", "state, hits, room", body)
    for pc in range(len(program.clauses)):
        lines += _function(f"masked_{pc}", "state, mask",
                           emitter.clause(pc, masked=True))
    source = "\n".join(lines) + "\n"
    functions = compile_source(source, filename, dict(_GLOBALS))
    tails = [(c.tail, c.target, c.cond_reg) for c in program.clauses]
    return _Code(
        {head: (functions[f"chain_{head}"], len(clauses), clauses[-1],
                *tails[clauses[-1]])
         for head, clauses in chains.items()},
        [(functions[f"masked_{pc}"], *tail) for pc, tail in enumerate(tails)],
        np.array(tuple(emitter.constants), dtype=np.uint32)[:, None],
        ("F[" in source, "I[" in source),
        filename,
        stored_slots(program))


#: The process-wide code cache: binary image (paired with "traced", the
#: traced variant) -> :class:`_Code`. The exact bytes are the key: every
#: field the emitter reads is an encoded field. A program decoded from an
#: image is keyed by that image, one built in memory by its encoding.
CODE_CACHE_SIZE = 256
_code_cache = BoundedTable(CODE_CACHE_SIZE,
                           evicted=lambda code: forget_source(code.filename))


def emitted_code(program, traced=False):
    """The :class:`_Code` of *program*, or of its *traced* variant."""
    key = program.image or encode_program(program)
    return _code_cache.lookup(
        (key, "traced") if traced else key,
        lambda: _emit(program, f"<mega {binascii.crc32(key):08x}"
                      f"{' traced' * traced}>", traced))


class MegaState:
    """SoA architectural state of one workgroup, or of a batch of them
    side by side — ``regs``, one row per register and per constant, and
    the row lists generated code indexes (``R``/``F``/``I``: each row as
    uint32/float32/int32) — with the ports of the run in progress:
    uniform table, memory port, local slabs (``(groups, words)``: one
    row per slot), trace recorder — and ``slot``, each lane's slot (its
    row of the slabs)."""

    __slots__ = ("regs", "arch", "R", "F", "I", "uniforms", "mem", "local",
                 "slot", "trace")

    def __init__(self, regs, typed, slot):
        self.regs = regs
        self.slot = slot
        self.arch = regs[:_ROWS]  # the rows a workgroup retires with
        # row views of a C-contiguous array: contiguous lane vectors
        self.R = list(regs)
        self.F = list(regs.view(np.float32)) if typed[0] else None
        self.I = list(regs.view(np.int32)) if typed[1] else None


#: layouts a register file keeps (each a ``MegaState``: row views and
#: the lanes' slot indices) before it drops the oldest. Distinct layouts
#: per iteration of the system benchmark at 4096 lanes: gemm_mega 1,
#: bfs_mega 2, slam_mega 15, farm_sweep 32 with every case in one process
LAYOUTS = 32


class RegisterFile:
    """An SoA register file: every program, launch shape and batch width
    runs in (a reshaped prefix of) the same words, one workgroup or
    batch at a time. What is kept beside the words is small: per layout
    the row views of a ``(rows, width)`` prefix (no lanes of their own),
    per launch shape what the architectural rows of one workgroup start
    from. A run rewrites its layout's views and words, so a file is one
    host thread's: the compute units of a thread all run in
    :func:`register_file`."""

    def __init__(self):
        self._words = np.empty(0, dtype=np.uint32)
        self._layouts = {}    # (local size, rows, count, typed) -> layout
        self._templates = {}  # local size -> (_ROWS, lanes) start rows

    def layout(self, shape, rows, count, typed):
        """``(state, template)`` for *count* workgroups of *shape* side
        by side in *rows* rows: the state they run in, and the
        architectural rows each of them starts from."""
        key = (shape.local_size, rows, count, typed)
        layout = self._layouts.get(key)
        if layout is None:
            lanes = shape.warps_per_group * QUAD_WIDTH
            words = rows * count * lanes
            if words > len(self._words):
                self._layouts.clear()  # views of the words replaced here
                self._words = np.empty(words, dtype=np.uint32)
            elif len(self._layouts) >= LAYOUTS:
                del self._layouts[next(iter(self._layouts))]  # the oldest
            layout = self._layouts[key] = (
                MegaState(self._words[:words].reshape(rows, count * lanes),
                          typed, np.repeat(np.arange(count), lanes)),
                self._template(shape, lanes))
        return layout

    def _template(self, shape, lanes):
        """Group (0, 0, 0): dispatcher-preloaded lane and local ids,
        global ids equal to them, every other register zero."""
        template = self._templates.get(shape.local_size)
        if template is None:
            template = np.zeros((_ROWS, lanes), dtype=np.uint32)
            template[REG_LANE] = np.tile(
                np.arange(QUAD_WIDTH, dtype=np.uint32), lanes // QUAD_WIDTH)
            lx_size, ly_size, _ = shape.local_size
            n = shape.threads_per_group
            linear = np.arange(n, dtype=np.uint32)
            local_ids = (linear % lx_size, (linear // lx_size) % ly_size,
                         linear // (lx_size * ly_size))
            for axis, ids in enumerate(local_ids):
                template[REG_LOCAL_ID + axis, :n] = ids
                template[REG_GLOBAL_ID + axis, :n] = ids
            self._templates[shape.local_size] = template
        return template


_files = threading.local()


def register_file():
    """The register file of the calling host thread, made at its first
    mega run. A run starts over and runs to completion before the next
    one on its thread, wherever it comes from, so units need no words
    of their own — and a platform that is dropped leaves none behind
    until the cycle collector finds it. Threads never share one."""
    file = getattr(_files, "file", None)
    if file is None:
        file = _files.file = RegisterFile()
    return file


class RetiredWarps(Sequence):
    """The retired warps of one workgroup — of a batch, its groups' in
    order — each transposed out of the architectural rows only when
    read. The rows are the register file's own until :meth:`snapshot`
    copies them: the Job Manager never looks, the conformance harness
    inspects every lane."""

    def __init__(self, rows, shape):
        self._rows = rows
        self._shape = shape

    def snapshot(self):
        """These warps on a copy of their rows, which the register file's
        next run leaves as they are."""
        return RetiredWarps(self._rows.copy(), self._shape)

    def __len__(self):
        return self._rows.shape[1] // QUAD_WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):  # a list, as the quad tiers return
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]
        first = index * QUAD_WIDTH
        warp = QuadWarp(active_lanes=min(
            QUAD_WIDTH, self._shape.threads_per_group
            - index % self._shape.warps_per_group * QUAD_WIDTH))
        lanes = self._rows[:, first:first + QUAD_WIDTH].T
        warp.regs[:] = lanes[:, :NUM_GRF]
        warp.temps[:] = lanes[:, TEMP_BASE:]
        warp.pcs[:] = _END_PC
        return warp


def _stuck(max_steps):
    return GuestError(f"workgroup exceeded {max_steps} clauses; "
                      f"kernel is likely stuck")


class MegaKernel:
    """One job's program on the workgroup-wide engine: the code comes
    from the process-wide cache, the job brings its uniform table
    (*uniforms*) and memory port (*mem*), and every workgroup or batch
    starts over in the register file *file*. With a
    *tracer* the job runs the traced code, which records every result in
    it."""

    def __init__(self, program, mem, file, uniforms=None, tracer=None):
        self.program = program
        self.uniforms = uniforms
        self.mem = mem
        self.file = file
        self._trace = None if tracer is None else tracer.record
        self._code = emitted_code(program, tracer is not None)
        self._rows = _ROWS + len(self._code.constants)
        #: may consecutive workgroups share a row? Static: never with an
        #: ATOM (warp-serial) or a port without batches; each slot has
        #: its own local slab. Whether a batch of them commits depends on
        #: a job's data, and is the compute unit's to remember for that job
        self.batching = getattr(mem, "begin_batch", None) is not None \
            and bool(self._code.chains)
        #: the pages this job may store to, as ``(first, end)`` page runs
        #: of the mapped memory from each argument the program stores
        #: through (None: any page): a batch's loads elsewhere go
        #: unshadowed, and the port abandons a store that meets one
        self.stored_pages = None
        if self.batching and self._code.stored is not None:
            self.stored_pages = mem.mapped_runs(
                int(uniforms[slot]) for slot in sorted(self._code.stored)
                if slot < len(uniforms))

    def batch_groups(self, shape):
        """Workgroups of *shape* one :meth:`run_workgroup` call may take
        while this kernel is :attr:`batching`: as many as fill
        ``BATCH_LANES``, one if they cannot share a row (dead lanes in
        the last quad stay masked to the end)."""
        lanes = shape.warps_per_group * QUAD_WIDTH
        if shape.threads_per_group != lanes:
            return 1
        return max(1, BATCH_LANES // lanes)

    # -- workgroup scheduling ----------------------------------------------------

    def run_workgroup(self, shape, flat_group, watchdog_budget=None,
                      count=1, counts=None, stalled=0, local=None):
        """Execute *count* whole thread-groups from *flat_group* on;
        returns their retired warps over the rows of the register file,
        which the next run overwrites.

        Faults raised by the scalar replay propagate exactly as from the
        quad tiers. The clauses the groups issued are added to the job's
        per-clause table *counts* (None: nothing is counted): one group's
        even when it faults, as the interpreter's are. A batch (*count* >
        1, at most :meth:`batch_groups`) either commits as if its groups
        had run one after another, and counts then, or raises
        :class:`~repro.gpu.mmu.BatchAbandoned` having changed nothing.
        *stalled* is the watchdog rounds an injected hang charged the
        group up front. *local* is the groups' zeroed ``__local`` slabs,
        ``(count, words)``; an access past *words* raises
        :class:`IndexError` from one group (the compute unit's to report)
        and abandons a batch.
        """
        state = self._init_state(shape, flat_group, count)
        state.local = local
        width = state.regs.shape[1]
        port = None
        if count == 1:
            # one converged workgroup, or one quad of a diverged one
            limits = (_MAX_STEPS, _MAX_STEPS * shape.warps_per_group)
        else:
            # whatever a group alone would raise, the batch raises first:
            # every barrier release of a group is one of the batch, and a
            # group that trips its stuck guard issues more than _MAX_STEPS
            # clauses, each a step of the batch in one loop or the other
            limits = (_MAX_STEPS // 2, _MAX_STEPS // 2)
        hits = {}  # converged: clause -> issues, each of every lane
        # converged branches' [taken, split quads], masked clauses'
        # [issues, lanes, taken, split quads]; None when nothing counts
        splits, pending = (None, None) if counts is None else ({}, {})
        # progress-budget watchdog, same accounting as the compute unit's
        # generic loop: round 1 starts now, after any injected stall, and
        # every barrier release opens a new round (checked before any
        # further progress)
        rounds = [1 + stalled]
        # steps: the stuck guard's converged clauses and masked steps so
        # far (bounded by *limits*), each counted across the hand-overs
        # between the two loops
        job = (flat_group, watchdog_budget, rounds, [0, 0], limits)
        try:
            if count > 1:
                port = state.mem = self.mem.begin_batch(
                    count, width // count, self.stored_pages)
            if watchdog_budget is not None and rounds[0] > watchdog_budget:
                raise WatchdogTimeout(flat_group, rounds[0])
            # float traps are silenced once for the whole workgroup, not
            # per slot; where= forms also compute on dead lanes' garbage
            with np.errstate(all="ignore"):
                if shape.threads_per_group \
                        == shape.warps_per_group * QUAD_WIDTH \
                        and self._code.chains:
                    pcs = self._run_uniform(state, 0, hits, splits, *job)
                else:  # dead lanes in the last quad, or warp-serial
                    pcs = np.full(width, _END_PC, dtype=np.int64)
                    pcs[:shape.threads_per_group] = 0
                # split lanes run masked until all meet again at a chain head
                while pcs is not None:
                    pc = self._run_masked(state, pcs, pending, *job)
                    if pc is None:
                        break
                    pcs = self._run_uniform(state, pc, hits, splits, *job)
            if port is not None:
                port.commit()
        except (SimError, IndexError) as exc:
            if count == 1:
                raise
            raise BatchAbandoned("exception") from exc
        finally:
            # the register file outlives the job: it keeps no port of it
            state.uniforms = state.mem = state.local = state.trace = None
            if port is not None:
                port.close()
            elif counts is not None:
                _count(counts, hits, splits, pending, width)
        if port is not None and counts is not None:  # a committed batch
            _count(counts, hits, splits, pending, width)
        return RetiredWarps(state.arch, shape)

    def _init_state(self, shape, flat_group, count=1):
        """The kernel's register file laid out for *count* workgroups of
        *shape* and started over: nothing survives from the run before.
        Slot ``s`` (lanes ``s * lanes`` on) is flat group
        ``flat_group + s``."""
        lanes = shape.warps_per_group * QUAD_WIDTH
        state, template = self.file.layout(shape, self._rows, count,
                                           self._code.typed)
        regs = state.regs
        if count == 1:
            np.copyto(state.arch, template)
            flat = flat_group
        else:
            np.copyto(state.arch.reshape(_ROWS, count, lanes),
                      template[:, None])
            flat = np.repeat(np.arange(flat_group, flat_group + count,
                                       dtype=np.uint32), lanes)
        if self._rows > _ROWS:
            # every run: another program's rows may have been these words
            regs[_ROWS:] = self._code.constants
        # a batch has no dead lanes: its groups fill their last quad
        live = (count - 1) * lanes + shape.threads_per_group
        group = shape.group_coords(flat)
        for axis in range(3):
            if count > 1 or group[axis]:
                regs[REG_GLOBAL_ID + axis, :live] += \
                    group[axis] * shape.local_size[axis]
                regs[REG_GROUP_ID + axis, :live] = group[axis]
        regs[REG_GROUP_FLAT, :live] = flat
        state.uniforms = self.uniforms
        state.mem = self.mem
        state.trace = self._trace
        return state

    def _run_uniform(self, state, pc, hits, splits, flat_group, budget,
                     rounds, steps, limits):
        """Converged fast path: every lane live at the chain head *pc*,
        one generated function per chain of clauses. Returns None when
        the workgroup retired converged, else the per-lane PCs after the
        branch that split the lanes, for the masked scheduler."""
        chains = self._code.chains
        rows = state.R
        width = state.regs.shape[1]
        max_steps = limits[0]
        issued = steps[0]
        while True:
            if issued > max_steps:
                raise _stuck(max_steps)
            # from here on pc is the chain's last clause: its tail decides
            run, length, pc, tail, target, cond_reg = chains[pc]
            if run(state, hits, max_steps - issued):
                raise _stuck(max_steps)
            issued += length
            if tail is Tail.FALLTHROUGH:
                pc += 1
            elif tail is Tail.END:
                return None
            elif tail is Tail.JUMP:
                pc = target
            elif tail is Tail.BARRIER:
                # all lanes reach the barrier together: the compute
                # unit's release protocol fires immediately
                rounds[0] += 1
                if budget is not None and rounds[0] > budget:
                    raise WatchdogTimeout(flat_group, rounds[0])
                pc += 1
            else:  # BRANCH / BRANCH_Z
                taken = int(np.count_nonzero(rows[cond_reg]))
                if tail is Tail.BRANCH_Z:
                    taken = width - taken
                if splits is not None:
                    entry = splits.setdefault(pc, [0, 0])
                    entry[0] += taken
                # all or none taken: no quad can have split
                if taken == width:
                    pc = target
                elif taken == 0:
                    pc += 1
                else:
                    cond = rows[cond_reg] == 0 if tail is Tail.BRANCH_Z \
                        else rows[cond_reg] != 0
                    if splits is not None:
                        entry[1] += _split_quads(cond, ~cond)
                    steps[0] = issued
                    return np.where(cond, np.int64(target), np.int64(pc + 1))

    def _run_masked(self, state, pcs, pending, flat_group, budget,
                    rounds, steps, limits):
        """General scheduler: global min-PC over the per-lane *pcs* with
        lane masks, one generated function per clause. Waiting lanes carry
        ``_WAIT``, dead and retired ones sit at ``_END_PC``: the minimum
        alone says what is next. Returns None when the workgroup retired,
        else the chain head every lane of the row has met at again. A
        warp-serial program runs the interpreter's order instead: the first
        quad with a runnable lane alone, at its own minimum PC."""
        masked = self._code.masked
        chains = self._code.chains
        rows = state.R
        width = len(pcs)
        max_steps = limits[1]
        issued = steps[1]
        while True:
            current = int(pcs.min())
            if current >= _WAIT:
                if current >= _END_PC:
                    return None
                # every running lane waits: the unit releases them all
                pcs &= ~_WAIT
                rounds[0] += 1
                if budget is not None and rounds[0] > budget:
                    raise WatchdogTimeout(flat_group, rounds[0])
                continue
            if not chains:  # warp-serial: one quad, its own minimum PC
                first = int(np.argmax(pcs < _WAIT)) & -QUAD_WIDTH
                current = int(pcs[first:first + QUAD_WIDTH].min())
            mask = pcs == current
            if not chains:
                mask[:first] = mask[first + QUAD_WIDTH:] = False
            lanes = int(np.count_nonzero(mask))
            if lanes == width and current in chains:
                steps[1] = issued
                return current
            if pending is not None:
                entry = pending.setdefault(current, [0, 0, 0, 0])
                entry[0] += int(np.count_nonzero(mask.view(np.uint32)))
                entry[1] += lanes
            run, tail, target, cond_reg = masked[current]
            run(state, mask)
            if tail is Tail.FALLTHROUGH:
                pcs[mask] = current + 1
            elif tail is Tail.END:
                pcs[mask] = _END_PC
            elif tail is Tail.JUMP:
                pcs[mask] = target
            elif tail is Tail.BARRIER:
                pcs[mask] = (current + 1) | _WAIT
            else:  # BRANCH / BRANCH_Z
                cond = rows[cond_reg] == 0 if tail is Tail.BRANCH_Z \
                    else rows[cond_reg] != 0
                taken = mask & cond
                pcs[mask] = current + 1
                pcs[taken] = target
                if pending is not None:
                    count = int(np.count_nonzero(taken))
                    entry[2] += count
                    # a quad can only have split if the lanes did
                    if 0 < count < lanes:
                        entry[3] += _split_quads(taken, mask & ~cond)
            issued += 1
            if issued > max_steps:
                raise _stuck(max_steps)


def _count(counts, hits, splits, pending, width):
    """Add what a row *width* lanes wide issued to the job's table
    *counts*: the converged issues of each clause (*hits*, every quad
    and lane of the row each), with its branch's *splits*, then the
    masked clauses' records (*pending*)."""
    quads = width // QUAD_WIDTH
    converged = {pc: [issues * quads, issues * width, *splits.get(pc, (0, 0))]
                 for pc, issues in hits.items()}
    for table in (converged, pending):
        merge_clause_counts(counts, table)


def _split_quads(taken, not_taken):
    """Quads with lanes on both sides of a branch. Both are contiguous
    bool rows of a multiple of four lanes: one uint32 word per quad."""
    return int(np.count_nonzero(np.logical_and(
        taken.view(np.uint32), not_taken.view(np.uint32))))
