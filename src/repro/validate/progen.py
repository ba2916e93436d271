"""Constrained random whole-program generation (conformance fuzzing).

Emits valid Bifrost-like :class:`~repro.gpu.isa.Program` objects — multi-
clause CFGs with branches at clause boundaries, embedded constant pools,
clause temporaries, and LD/ST/LDU/ATOM over pre-seeded buffers — together
with a launch shape and deterministic input data. Programs are correct by
construction in three ways that matter for N-way differential execution:

- **Termination**: control flow only ever targets *forward* clause indices,
  so every lane reaches an END tail in at most ``len(clauses)`` steps.
- **Address safety**: memory operands are computed by masking an arbitrary
  32-bit value into a power-of-two-sized window of the pre-mapped buffer
  (``addr = base + (x & (window - 4 * width))``), so no access can fault.
- **Race freedom**: loads read a shared read-only input region; stores and
  atomics target per-thread slices/words. The scalar baseline executes
  threads one at a time while the quad engines interleave lanes, so any
  shared-address write would make final memory schedule-dependent and the
  engines incomparable.

Coverage is tracked over (op × slot × operand-kind) triples plus clause-
shape buckets, and the generator biases its choices toward uncovered
triples (coverage-guided generation).

Every generated program is gated through the shared static verifier
(:mod:`repro.gpu.verify`) instead of bespoke well-formedness assertions:
an error-severity finding in a freshly generated program is a generator
bug and raises immediately. :func:`generate_defect_case` is the inverse
mode — it deliberately plants exactly one defect from
:data:`DEFECT_CATEGORIES` so the verifier's detection (and the dynamic
must-fault contract) can be tested end to end.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
    MAX_CONSTS,
    MEM_SPACE_LOCAL,
    NOP_INSTR,
    OPERAND_NONE,
    REG_GLOBAL_ID,
    REG_GROUP_FLAT,
    REG_LANE,
    REG_LOCAL_ID,
    TEMP_BASE,
    Clause,
    CmpMode,
    Instruction,
    Op,
    Program,
    Tail,
    can_use_add_slot,
    is_const,
    is_grf,
    is_memory_op,
    is_temp,
)
from repro.gpu.launch import U_FIRST_ARG
from repro.gpu.ops import arity as op_arity
from repro.gpu.verify import VerifyContext, verify_program

# -- memory layout contract shared with the differential runner ---------------

IN_BYTES = 8192       # shared read-only input region (2 pages)
OUT_SLICE_BYTES = 64  # private output slice per thread
LOCAL_SLICE_BYTES = 32  # private workgroup-local slice per thread

# register allocation convention for generated programs: the prologue owns
# r45..r52, generated code writes only r0..r44 (and the temps)
GEN_DST_MAX = 44
REG_LOCAL_BASE = 47   # byte address of this thread's local slice
REG_IN_BASE = 48      # VA of the input region
REG_OUT_BASE = 49     # VA of this thread's output slice
REG_ATOM_BASE = 50    # VA of this thread's private atomic word
REG_ADDR_A = 51       # address scratch (loads)
REG_ADDR_B = 52       # address scratch (stores)

UNIFORM_COUNT = U_FIRST_ARG + 5  # in, out-slice, atom bases + 2 extras

# transcendental special-function ops are excluded from *whole-program*
# generation: NumPy's SIMD exp/log/sin/cos kernels may differ from the
# scalar libm path in the last ulp depending on the host, and the N-way
# runner demands bit-exactness. Single-instruction fuzzing still covers
# them under an explicit ulp tolerance (repro.validate.fuzz).
GEN_EXCLUDED = {Op.NOP, Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS}

GENERATABLE_OPS = tuple(op for op in Op if op not in GEN_EXCLUDED)
_ARITH_OPS = tuple(op for op in GENERATABLE_OPS if not is_memory_op(op))

# interesting 32-bit patterns for constants and input data: float special
# values (including NaN payloads — the engines are bit-exact on them),
# integer extremes, and small indices
SPECIAL_BITS = (
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000,  # 0, -0, 1, -1
    0x7F800000, 0xFF800000, 0x7FC00000, 0x7FC00001, 0x7F800001,  # inf, NaNs
    0x00000001, 0x007FFFFF, 0x00800000,  # denormals, FLT_MIN
    0x7F7FFFFF, 0xFF7FFFFF,  # +-FLT_MAX
    0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0x80000001,  # int extremes
    0x00000002, 0x00000003, 0x0000001F, 0x00000020,  # small ints, shifts
)

_KINDS = ("grf", "temp", "const")


def operand_kind(operand):
    if is_grf(operand):
        return "grf"
    if is_temp(operand):
        return "temp"
    if is_const(operand):
        return "const"
    return None


def coverage_space():
    """All fuzzable (op, slot, operand-kind) triples.

    Arithmetic ops pair every legal slot with every source-operand kind;
    memory ops have fixed operand shapes by construction (addresses are
    always GRF, LDU reads an immediate), except the ATOM update operand
    which ranges over all kinds.
    """
    space = set()
    for op in _ARITH_OPS:
        slots = ("fma", "add") if can_use_add_slot(op) else ("fma",)
        for slot in slots:
            for kind in _KINDS:
                space.add((op, slot, kind))
    space.add((Op.LD, "fma", "grf"))
    space.add((Op.ST, "fma", "grf"))
    space.add((Op.LDU, "fma", "imm"))
    for kind in _KINDS:
        space.add((Op.ATOM, "fma", kind))
    return frozenset(space)


class CoverageTracker:
    """Static coverage over (op × slot × operand-kind) and clause shapes."""

    def __init__(self):
        self.space = coverage_space()
        self.hit = set()
        self.clause_shapes = {}  # (size, tail name) -> count
        self.programs = 0

    @property
    def covered(self):
        return len(self.hit)

    @property
    def total(self):
        return len(self.space)

    @property
    def fraction(self):
        return self.covered / self.total if self.total else 1.0

    def uncovered(self):
        return self.space - self.hit

    def record_program(self, program):
        self.programs += 1
        for clause in program.clauses:
            shape = (clause.size, clause.tail.name)
            self.clause_shapes[shape] = self.clause_shapes.get(shape, 0) + 1
            for fma, add in clause.tuples:
                self._record_slot(fma, "fma")
                self._record_slot(add, "add")

    def _record_slot(self, instr, slot):
        op = instr.op
        if op is Op.NOP:
            return
        if op is Op.LDU:
            self.hit.add((op, slot, "imm"))
            return
        if op is Op.LD or op is Op.ST:
            self.hit.add((op, slot, "grf"))
            return
        if op is Op.ATOM:
            kind = operand_kind(instr.srcb)
            if kind:
                self.hit.add((op, slot, kind))
            return
        for source in instr.sources():
            kind = operand_kind(source)
            if kind:
                self.hit.add((op, slot, kind))

    def report_lines(self):
        lines = [
            f"coverage: {self.covered}/{self.total} "
            f"({100.0 * self.fraction:.1f}%) op x slot x operand-kind "
            f"combinations",
            f"clause shapes: {len(self.clause_shapes)} distinct "
            f"(size x tail) buckets over {self.programs} programs",
        ]
        missing = sorted(
            (op.name, slot, kind) for op, slot, kind in self.uncovered())
        if missing:
            preview = ", ".join("/".join(t) for t in missing[:8])
            suffix = ", ..." if len(missing) > 8 else ""
            lines.append(f"uncovered: {preview}{suffix}")
        return lines


@dataclass
class GeneratedCase:
    """One generated conformance test case."""

    program: Program
    global_size: tuple
    local_size: tuple
    in_words: np.ndarray  # uint32, IN_BYTES // 4 entries
    extra_uniforms: tuple = (0, 0)
    seed: int = 0
    index: int = 0
    label: str = ""


class _ClauseBuilder:
    """Accumulates instruction slots + constants for one clause."""

    def __init__(self, rng):
        self.rng = rng
        self.slots = []
        self.constants = []

    def const(self, value):
        """Operand index for *value* in this clause's pool (deduplicated)."""
        value &= 0xFFFFFFFF
        try:
            return 128 + self.constants.index(value)
        except ValueError:
            if len(self.constants) >= MAX_CONSTS:
                # pool full: fall back to reusing an existing slot
                return 128 + self.rng.randrange(len(self.constants))
            self.constants.append(value)
            return 128 + len(self.constants) - 1

    def pack(self, tail=Tail.FALLTHROUGH, cond_reg=0, target=0):
        """Pack the slot list into (FMA, ADD) tuples preserving order."""
        tuples = []
        index = 0
        slots = self.slots
        while index < len(slots):
            fma = slots[index]
            index += 1
            add = NOP_INSTR
            if index < len(slots) and can_use_add_slot(slots[index].op):
                add = slots[index]
                index += 1
            tuples.append((fma, add))
        if not tuples:
            tuples.append((NOP_INSTR, NOP_INSTR))
        # clauses hold at most 8 tuples; dropping trailing slots is safe
        # (a kept memory op always follows its address-setup slots)
        return Clause(tuples=tuples[:8], constants=list(self.constants),
                      tail=tail, cond_reg=cond_reg, target=target)


class ProgramGenerator:
    """Coverage-guided constrained random program generator.

    One instance generates a deterministic stream of cases from its seed;
    when a :class:`CoverageTracker` is supplied, generation records static
    coverage and biases op/operand choices toward uncovered triples (the
    tracker state only ever depends on generated programs, so replaying the
    same seed regenerates the identical stream).
    """

    def __init__(self, seed, coverage=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.coverage = coverage if coverage is not None else CoverageTracker()
        self._index = 0

    # -- public API -----------------------------------------------------------

    def generate(self):
        rng = self.rng
        index = self._index
        self._index += 1
        local = rng.choice((4, 8, 16))
        groups = rng.choice((1, 1, 2))
        threads = local * groups
        clauses = list(self._prologue(rng))
        body = rng.randint(1, 5)
        first_body = len(clauses)
        total = first_body + body
        for offset in range(body):
            clause_index = first_body + offset
            clauses.append(
                self._body_clause(rng, clause_index, total))
        program = Program(clauses=clauses,
                          meta={"generator_seed": self.seed,
                                "generator_index": index})
        # Correct-by-construction is checked, not assumed: every generated
        # program must come back clean from the shared static verifier
        # (which subsumes the old ad-hoc validate()/forward-CFG asserts).
        report = verify_program(
            program, generation_context(threads=threads, local=local))
        if not report.ok:
            raise AssertionError(
                f"generator produced a program the verifier rejects "
                f"(seed={self.seed}, index={index}): "
                + "; ".join(str(f) for f in report.errors[:4]))
        self.coverage.record_program(program)
        in_words = np.array(
            [self._data_word(rng) for _ in range(IN_BYTES // 4)],
            dtype=np.uint32)
        extras = (rng.getrandbits(32), rng.getrandbits(32))
        case = GeneratedCase(
            program=program,
            global_size=(threads, 1, 1),
            local_size=(local, 1, 1),
            in_words=in_words,
            extra_uniforms=extras,
            seed=self.seed,
            index=index,
            label=f"gen[seed={self.seed},i={index}]",
        )
        return case

    def generate_nth(self, index):
        """Regenerate the *index*-th case of this seed's stream (corpus
        replay-by-seed). Requires a fresh generator instance."""
        case = None
        for _ in range(index + 1):
            case = self.generate()
        return case

    # -- data ----------------------------------------------------------------

    def _data_word(self, rng):
        if rng.random() < 0.3:
            return rng.choice(SPECIAL_BITS)
        return rng.getrandbits(32)

    # -- prologue -------------------------------------------------------------

    def _prologue(self, rng):
        """Two fixed clauses establishing the address-safety invariants.

        Clause 0 loads the buffer base addresses from the uniforms and
        privatizes them per thread (output slice, atomic word, local
        slice), then seeds r8..r11 from the input region. Clause 1 seeds
        r0..r7 with random constants and thread ids so generated code has
        varied live values to consume.
        """
        gid = REG_GLOBAL_ID
        lid = REG_LOCAL_ID
        t0 = TEMP_BASE
        c0 = _ClauseBuilder(rng)
        c0.slots = [
            Instruction(Op.LDU, dst=REG_IN_BASE, imm=U_FIRST_ARG),
            Instruction(Op.LDU, dst=REG_OUT_BASE, imm=U_FIRST_ARG + 1),
            Instruction(Op.LDU, dst=REG_ATOM_BASE, imm=U_FIRST_ARG + 2),
            Instruction(Op.ISHL, dst=t0, srca=gid, srcb=c0.const(6)),
            Instruction(Op.IADD, dst=REG_OUT_BASE, srca=REG_OUT_BASE,
                        srcb=t0),
            Instruction(Op.ISHL, dst=t0, srca=gid, srcb=c0.const(2)),
            Instruction(Op.IADD, dst=REG_ATOM_BASE, srca=REG_ATOM_BASE,
                        srcb=t0),
            Instruction(Op.ISHL, dst=REG_LOCAL_BASE, srca=lid,
                        srcb=c0.const(5)),
            Instruction(Op.ISHL, dst=t0, srca=gid, srcb=c0.const(4)),
            Instruction(Op.IADD, dst=REG_ADDR_A, srca=REG_IN_BASE, srcb=t0),
            Instruction(Op.LD, dst=8, srca=REG_ADDR_A, flags=2),  # r8..r11
        ]
        yield c0.pack()

        c1 = _ClauseBuilder(rng)
        for reg in range(6):
            value = rng.choice(SPECIAL_BITS) if rng.random() < 0.5 \
                else rng.getrandbits(32)
            c1.slots.append(
                Instruction(Op.MOV, dst=reg, srca=c1.const(value)))
        c1.slots.append(Instruction(Op.MOV, dst=6, srca=gid))
        c1.slots.append(Instruction(Op.MOV, dst=7, srca=REG_LANE))
        yield c1.pack()

    # -- body clauses ---------------------------------------------------------

    def _body_clause(self, rng, clause_index, total_clauses):
        builder = _ClauseBuilder(rng)
        budget = rng.randint(2, 10)
        while budget > 0 and len(builder.slots) < 11:
            roll = rng.random()
            if roll < 0.10:
                self._emit_load(rng, builder)
            elif roll < 0.18:
                self._emit_store(rng, builder)
            elif roll < 0.23:
                self._emit_atomic(rng, builder)
            elif roll < 0.28:
                builder.slots.append(Instruction(
                    Op.LDU, dst=self._dst_reg(rng),
                    imm=rng.randrange(UNIFORM_COUNT)))
            else:
                self._emit_arith(rng, builder)
            budget -= 1
        return self._finish_clause(rng, builder, clause_index, total_clauses)

    def _finish_clause(self, rng, builder, clause_index, total_clauses):
        last = clause_index == total_clauses - 1
        if last:
            return builder.pack(tail=Tail.END)
        target = rng.randint(clause_index + 1, total_clauses - 1)
        roll = rng.random()
        if roll < 0.35:
            return builder.pack(tail=Tail.FALLTHROUGH)
        if roll < 0.45:
            return builder.pack(tail=Tail.JUMP, target=target)
        if roll < 0.75:
            tail = Tail.BRANCH if roll < 0.60 else Tail.BRANCH_Z
            cond = rng.choice((
                rng.randrange(0, 13),  # computed values
                REG_GLOBAL_ID, REG_LOCAL_ID, REG_LANE, REG_GROUP_FLAT,
            ))
            return builder.pack(tail=tail, cond_reg=cond, target=target)
        if roll < 0.90:
            return builder.pack(tail=Tail.BARRIER)
        return builder.pack(tail=Tail.END)

    # -- instruction emission ---------------------------------------------------

    def _dst_reg(self, rng, span=1):
        if span == 1 and rng.random() < 0.15:
            return TEMP_BASE + rng.randrange(2)
        return rng.randrange(0, GEN_DST_MAX - span + 2)

    def _source(self, rng, builder, kind=None):
        if kind is None:
            kind = rng.choices(_KINDS, weights=(6, 2, 2))[0]
        if kind == "temp":
            # Temporaries are clause-local: only read a temp the current
            # clause has already written, seeding a definition otherwise.
            written = sorted({s.dst for s in builder.slots
                              if is_temp(s.dst)})
            if not written:
                temp = TEMP_BASE + rng.randrange(2)
                builder.slots.append(Instruction(
                    Op.MOV, dst=temp, srca=rng.randrange(0, 64)))
                return temp
            return rng.choice(written)
        if kind == "const":
            value = rng.choice(SPECIAL_BITS) if rng.random() < 0.5 \
                else rng.getrandbits(32)
            return builder.const(value)
        return rng.randrange(0, 64)

    def _pick_arith(self, rng):
        """Pick an arithmetic op and a preferred first-source kind, biased
        toward uncovered coverage triples."""
        # sorted: uncovered() is a set, and set iteration order varies with
        # the process hash seed — rng.choice over it would make the stream
        # non-reproducible across processes (breaking corpus seed replay)
        uncovered = sorted(t for t in self.coverage.uncovered()
                           if t[0] in _ARITH_OPS)
        if uncovered and rng.random() < 0.7:
            op, _slot, kind = rng.choice(uncovered)
            return op, kind
        return rng.choice(_ARITH_OPS), None

    def _emit_arith(self, rng, builder):
        op, first_kind = self._pick_arith(rng)
        arity = op_arity(op)
        sources = [self._source(rng, builder, kind=first_kind)]
        for _ in range(arity - 1):
            sources.append(self._source(rng, builder))
        while len(sources) < 3:
            sources.append(OPERAND_NONE)
        flags = int(rng.choice(list(CmpMode))) if op is Op.CMP else 0
        builder.slots.append(Instruction(
            op, dst=self._dst_reg(rng), srca=sources[0], srcb=sources[1],
            srcc=sources[2], flags=flags))

    def _emit_load(self, rng, builder):
        log2w = rng.choice((0, 0, 1, 2))
        width = 1 << log2w
        local = rng.random() < 0.3
        window = LOCAL_SLICE_BYTES if local else IN_BYTES
        mask = window - 4 * width
        base = REG_LOCAL_BASE if local else REG_IN_BASE
        offset_src = self._source(rng, builder)
        builder.slots.append(Instruction(
            Op.IAND, dst=REG_ADDR_A, srca=offset_src,
            srcb=builder.const(mask)))
        builder.slots.append(Instruction(
            Op.IADD, dst=REG_ADDR_A, srca=REG_ADDR_A, srcb=base))
        flags = log2w | (MEM_SPACE_LOCAL if local else 0)
        # LD destinations are GRF by design (wide loads write register rows)
        dst = rng.randrange(0, GEN_DST_MAX - width + 2)
        builder.slots.append(Instruction(
            Op.LD, dst=dst, srca=REG_ADDR_A, flags=flags))

    def _emit_store(self, rng, builder):
        log2w = rng.choice((0, 0, 1, 2))
        width = 1 << log2w
        local = rng.random() < 0.3
        window = LOCAL_SLICE_BYTES if local else OUT_SLICE_BYTES
        mask = window - 4 * width
        base = REG_LOCAL_BASE if local else REG_OUT_BASE
        offset_src = self._source(rng, builder)
        builder.slots.append(Instruction(
            Op.IAND, dst=REG_ADDR_B, srca=offset_src,
            srcb=builder.const(mask)))
        builder.slots.append(Instruction(
            Op.IADD, dst=REG_ADDR_B, srca=REG_ADDR_B, srcb=base))
        flags = log2w | (MEM_SPACE_LOCAL if local else 0)
        data_base = rng.randrange(0, GEN_DST_MAX - width + 2)
        builder.slots.append(Instruction(
            Op.ST, srca=REG_ADDR_B, srcb=data_base, flags=flags))

    def _emit_atomic(self, rng, builder):
        local = rng.random() < 0.3
        base = REG_LOCAL_BASE if local else REG_ATOM_BASE
        mode = rng.randrange(8)
        uncovered_atom = sorted(t for t in self.coverage.uncovered()
                                if t[0] is Op.ATOM)  # sorted: see _pick_arith
        kind = rng.choice(uncovered_atom)[2] if uncovered_atom else None
        value_src = self._source(rng, builder, kind=kind)
        flags = (mode << ATOM_MODE_SHIFT) | (MEM_SPACE_LOCAL if local else 0)
        builder.slots.append(Instruction(
            Op.ATOM, dst=self._dst_reg(rng), srca=base, srcb=value_src,
            flags=flags))


def generation_context(threads=None, local=None):
    """Verifier context for the generator's own contract.

    Buffer VAs and the memory map are runner-owned (the generator only
    knows the uniform slot layout and launch shape), so this context can
    produce structural/dataflow/race claims but no address claims; the
    differential suite re-verifies with the runner's full launch context.
    """
    return VerifyContext(
        name="progen",
        uniform_count=UNIFORM_COUNT,
        threads=threads,
        threads_per_group=local,
    )


# -- seeded-defect generation --------------------------------------------------

# category -> what the verifier must report for generate_defect_case:
#   codes:      acceptable finding codes (any one suffices)
#   severity:   minimum severity of the expected finding
#   must_fault: the finding must carry the must-fault claim
#   dynamic:    "clean" (runs bit-exact on every engine), "fault" (the
#               must-fault claim: engines raise), "racy"/"hang"/"crash"
#               (defined to misbehave; excluded from dynamic replay)
DEFECT_CATEGORIES = {
    "temp-escape": {
        "codes": ("temp-cross-clause",), "severity": "error",
        "must_fault": False, "dynamic": "clean"},
    "uninit-read": {
        "codes": ("uninit-read",), "severity": "warning",
        "must_fault": False, "dynamic": "clean"},
    "oob-load": {
        "codes": ("oob-access",), "severity": "error",
        "must_fault": True, "dynamic": "fault"},
    "oob-store-mapped": {
        "codes": ("oob-access",), "severity": "error",
        "must_fault": False, "dynamic": "clean"},
    "race-store": {
        "codes": ("race-ww",), "severity": "error",
        "must_fault": False, "dynamic": "racy"},
    "infinite-loop": {
        "codes": ("no-termination",), "severity": "error",
        "must_fault": False, "dynamic": "hang"},
    "const-oob": {
        "codes": ("const-oob",), "severity": "error",
        "must_fault": False, "dynamic": "crash"},
    "ldu-oob": {
        "codes": ("ldu-imm-oob",), "severity": "error",
        "must_fault": False, "dynamic": "crash"},
    "barrier-divergence": {
        "codes": ("barrier-divergence",), "severity": "warning",
        "must_fault": False, "dynamic": "clean"},
    "unreachable": {
        "codes": ("unreachable-clause",), "severity": "warning",
        "must_fault": False, "dynamic": "clean"},
    "local-oob": {
        "codes": ("local-oob",), "severity": "error",
        "must_fault": False, "dynamic": "crash"},
    "dead-write": {
        "codes": ("dead-write",), "severity": "note",
        "must_fault": False, "dynamic": "clean"},
}

# The standard prologue occupies clauses 0-1, so planted bodies start at
# clause index 2 (branch/jump targets below are absolute clause indices).
_DEFECT_BODY_BASE = 2


def _defect_temp_escape(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.MOV, dst=TEMP_BASE, srca=8)]
    b = _ClauseBuilder(rng)
    b.slots = [Instruction(Op.IADD, dst=0, srca=TEMP_BASE, srcb=9)]
    return [a.pack(), b.pack(tail=Tail.END)]


def _defect_uninit_read(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.IADD, dst=0, srca=33, srcb=34)]
    return [a.pack(tail=Tail.END)]


def _defect_oob_load(rng):
    # 0x40 is below every mapped region: the whole interval misses the
    # memory map, so the claim is must-fault (engines must raise).
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.MOV, dst=20, srca=a.const(0x40)),
        Instruction(Op.LD, dst=0, srca=20, flags=0),
    ]
    return [a.pack(tail=Tail.END)]


def _defect_oob_store_mapped(rng):
    # Escapes the output slice into the (mapped) atomics region: no fault
    # dynamically, every engine corrupts the same words — exactly the
    # silent-corruption class only the static bounds check can see.
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.IADD, dst=20, srca=REG_OUT_BASE,
                    srcb=a.const(0x1400)),
        Instruction(Op.ST, srca=20, srcb=8, flags=0),
    ]
    return [a.pack(tail=Tail.END)]


def _defect_race_store(rng):
    # Non-atomic store through the *raw* atomics base (group-uniform
    # address): every thread of the group hits the same word.
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.LDU, dst=20, imm=U_FIRST_ARG + 2),
        Instruction(Op.ST, srca=20, srcb=8, flags=0),
    ]
    return [a.pack(tail=Tail.END)]


def _defect_infinite_loop(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.IADD, dst=0, srca=0, srcb=8)]
    return [a.pack(tail=Tail.JUMP, target=_DEFECT_BODY_BASE)]


def _defect_const_oob(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.IADD, dst=0, srca=128 + 5, srcb=8)]
    return [a.pack(tail=Tail.END)]  # empty pool: c5 is out of range


def _defect_ldu_oob(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.LDU, dst=0, imm=UNIFORM_COUNT + 9)]
    return [a.pack(tail=Tail.END)]


def _defect_barrier_divergence(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.MOV, dst=0, srca=8)]
    barrier = _ClauseBuilder(rng)
    c = _ClauseBuilder(rng)
    c.slots = [Instruction(Op.MOV, dst=1, srca=9)]
    return [
        a.pack(tail=Tail.BRANCH, cond_reg=REG_LANE,
               target=_DEFECT_BODY_BASE + 2),
        barrier.pack(tail=Tail.BARRIER),
        c.pack(tail=Tail.END),
    ]


def _defect_unreachable(rng):
    a = _ClauseBuilder(rng)
    a.slots = [Instruction(Op.MOV, dst=0, srca=8)]
    orphan = _ClauseBuilder(rng)
    orphan.slots = [Instruction(Op.MOV, dst=1, srca=9)]
    return [a.pack(tail=Tail.END), orphan.pack(tail=Tail.END)]


def _defect_local_oob(rng):
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.IAND, dst=20, srca=8, srcb=a.const(0x7FFC)),
        Instruction(Op.IADD, dst=20, srca=20, srcb=REG_LOCAL_BASE),
        Instruction(Op.LD, dst=0, srca=20, flags=MEM_SPACE_LOCAL),
    ]
    return [a.pack(tail=Tail.END)]


def _defect_dead_write(rng):
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.MOV, dst=5, srca=8),
        Instruction(Op.MOV, dst=5, srca=9),
    ]
    b = _ClauseBuilder(rng)
    b.slots = [Instruction(Op.IADD, dst=6, srca=5, srcb=9)]
    return [a.pack(), b.pack(tail=Tail.END)]


_DEFECT_BUILDERS = {
    "temp-escape": _defect_temp_escape,
    "uninit-read": _defect_uninit_read,
    "oob-load": _defect_oob_load,
    "oob-store-mapped": _defect_oob_store_mapped,
    "race-store": _defect_race_store,
    "infinite-loop": _defect_infinite_loop,
    "const-oob": _defect_const_oob,
    "ldu-oob": _defect_ldu_oob,
    "barrier-divergence": _defect_barrier_divergence,
    "unreachable": _defect_unreachable,
    "local-oob": _defect_local_oob,
    "dead-write": _defect_dead_write,
}


def generate_defect_case(seed, category):
    """A launch-ready case with exactly one planted defect.

    The planted body rides on the standard prologue, so the runner's
    memory contract applies unchanged; ``DEFECT_CATEGORIES[category]``
    records what the verifier must report and how the program behaves
    dynamically.
    """
    if category not in _DEFECT_BUILDERS:
        raise ValueError(f"unknown defect category {category!r}")
    gen = ProgramGenerator(seed)
    rng = gen.rng
    local, groups = 8, 2
    clauses = list(gen._prologue(rng))
    assert len(clauses) == _DEFECT_BODY_BASE
    clauses.extend(_DEFECT_BUILDERS[category](rng))
    program = Program(clauses=clauses,
                      meta={"generator_seed": seed, "defect": category})
    in_words = np.array(
        [gen._data_word(rng) for _ in range(IN_BYTES // 4)],
        dtype=np.uint32)
    return GeneratedCase(
        program=program,
        global_size=(local * groups, 1, 1),
        local_size=(local, 1, 1),
        in_words=in_words,
        extra_uniforms=(rng.getrandbits(32), rng.getrandbits(32)),
        seed=seed,
        label=f"defect[{category},seed={seed}]",
    )


# -- cost-analysis stress generation -------------------------------------------

# category -> what the cost pass must conclude about the case:
#   trips:    expected max back-edge count of the planted loop under the
#             *launch* context (None = no loop planted)
#   symbolic: the bound resolves only at launch (compile/generation-time
#             analysis must report the loop as unbounded)
#   patterns: access-pattern classes the planted accesses must include
_STRESS_UNIFORM_LIMIT = 24  # extra-uniform loop limit (slot 13)

STRESS_CATEGORIES = {
    "loop-const": {"trips": 12, "symbolic": False, "patterns": ()},
    "loop-uniform": {"trips": _STRESS_UNIFORM_LIMIT, "symbolic": True,
                     "patterns": ()},
    "loop-shr": {"trips": 11, "symbolic": False, "patterns": ()},
    "strided": {"trips": None, "symbolic": False,
                "patterns": ("strided", "contiguous")},
    "gather": {"trips": None, "symbolic": False, "patterns": ("gather",)},
}

# planted bodies ride on the standard 2-clause prologue
_STRESS_BODY_BASE = 2


def _stress_loop_clauses(rng, init, limit_const=None, limit_slot=None,
                         update_op=Op.IADD, update_amount=1,
                         cmp_mode=CmpMode.ILT):
    """A canonical counted loop: setup / head / body+latch / exit.

    ``r0`` is the induction register, ``r1`` accumulates loads from the
    input window (loop-invariant-free so no engine may hoist anything),
    and the exit clause stores the accumulator to the private out slice.
    """
    setup = _ClauseBuilder(rng)
    setup.slots = [
        Instruction(Op.MOV, dst=0, srca=setup.const(init)),
        Instruction(Op.MOV, dst=1, srca=setup.const(0)),
    ]
    if limit_slot is not None:
        setup.slots.append(Instruction(Op.LDU, dst=4, imm=limit_slot))

    head = _ClauseBuilder(rng)
    limit = head.const(limit_const) if limit_slot is None else 4
    head.slots = [
        Instruction(Op.CMP, dst=2, srca=0, srcb=limit, flags=int(cmp_mode)),
    ]

    body = _ClauseBuilder(rng)
    body.slots = [
        Instruction(Op.ISHL, dst=REG_ADDR_A, srca=0, srcb=body.const(2)),
        Instruction(Op.IAND, dst=REG_ADDR_A, srca=REG_ADDR_A,
                    srcb=body.const(IN_BYTES - 4)),
        Instruction(Op.IADD, dst=REG_ADDR_A, srca=REG_ADDR_A,
                    srcb=REG_IN_BASE),
        Instruction(Op.LD, dst=3, srca=REG_ADDR_A, flags=0),
        Instruction(Op.IXOR, dst=1, srca=1, srcb=3),
        Instruction(update_op, dst=0, srca=0,
                    srcb=body.const(update_amount)),
    ]

    exit_clause = _ClauseBuilder(rng)
    exit_clause.slots = [
        Instruction(Op.ST, srca=REG_OUT_BASE, srcb=1, flags=0),
    ]
    return [
        setup.pack(),
        head.pack(tail=Tail.BRANCH_Z, cond_reg=2,
                  target=_STRESS_BODY_BASE + 3),
        body.pack(tail=Tail.JUMP, target=_STRESS_BODY_BASE + 1),
        exit_clause.pack(tail=Tail.END),
    ]


def _stress_loop_const(rng):
    return _stress_loop_clauses(rng, init=0, limit_const=12)


def _stress_loop_uniform(rng):
    return _stress_loop_clauses(rng, init=0,
                                limit_slot=U_FIRST_ARG + 3)


def _stress_loop_shr(rng):
    # geometric: r0 halves twice per trip from 2^20 until it drains —
    # 21 significant bits / 2 bits per shift -> 11 back edges
    return _stress_loop_clauses(rng, init=1 << 20, limit_const=0,
                                update_op=Op.ISHR, update_amount=2,
                                cmp_mode=CmpMode.IGT)


def _stress_strided(rng):
    # one strided (gid*8) and one contiguous (gid*4) input load; both
    # masked into the window so no thread can escape the region
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.ISHL, dst=REG_ADDR_A, srca=REG_GLOBAL_ID,
                    srcb=a.const(3)),
        Instruction(Op.IADD, dst=REG_ADDR_A, srca=REG_ADDR_A,
                    srcb=REG_IN_BASE),
        Instruction(Op.LD, dst=3, srca=REG_ADDR_A, flags=0),
        Instruction(Op.ISHL, dst=REG_ADDR_B, srca=REG_GLOBAL_ID,
                    srcb=a.const(2)),
        Instruction(Op.IADD, dst=REG_ADDR_B, srca=REG_ADDR_B,
                    srcb=REG_IN_BASE),
        Instruction(Op.LD, dst=4, srca=REG_ADDR_B, flags=0),
        Instruction(Op.IXOR, dst=1, srca=3, srcb=4),
    ]
    b = _ClauseBuilder(rng)
    b.slots = [
        Instruction(Op.ST, srca=REG_OUT_BASE, srcb=1, flags=0),
    ]
    return [a.pack(), b.pack(tail=Tail.END)]


def _stress_gather(rng):
    # the address comes from loaded data (r8, seeded by the prologue):
    # statically unanalyzable, masked into the window dynamically
    a = _ClauseBuilder(rng)
    a.slots = [
        Instruction(Op.IAND, dst=REG_ADDR_A, srca=8,
                    srcb=a.const(IN_BYTES - 4)),
        Instruction(Op.IADD, dst=REG_ADDR_A, srca=REG_ADDR_A,
                    srcb=REG_IN_BASE),
        Instruction(Op.LD, dst=3, srca=REG_ADDR_A, flags=0),
    ]
    b = _ClauseBuilder(rng)
    b.slots = [
        Instruction(Op.ST, srca=REG_OUT_BASE, srcb=3, flags=0),
    ]
    return [a.pack(), b.pack(tail=Tail.END)]


_STRESS_BUILDERS = {
    "loop-const": _stress_loop_const,
    "loop-uniform": _stress_loop_uniform,
    "loop-shr": _stress_loop_shr,
    "strided": _stress_strided,
    "gather": _stress_gather,
}


def generate_stress_case(seed, category):
    """A launch-ready case stressing the static cost analysis.

    Unlike :func:`generate_defect_case` these programs are verifier-clean
    and race-free (loops accumulate into per-thread registers and store
    to the private out slice), so the full N-way differential runner can
    execute them; ``STRESS_CATEGORIES[category]`` records the loop/access
    facts the analysis must reproduce.
    """
    if category not in _STRESS_BUILDERS:
        raise ValueError(f"unknown stress category {category!r}")
    gen = ProgramGenerator(seed)
    rng = gen.rng
    local, groups = 8, 2
    clauses = list(gen._prologue(rng))
    assert len(clauses) == _STRESS_BODY_BASE
    clauses.extend(_STRESS_BUILDERS[category](rng))
    program = Program(clauses=clauses,
                      meta={"generator_seed": seed, "stress": category})
    in_words = np.array(
        [gen._data_word(rng) for _ in range(IN_BYTES // 4)],
        dtype=np.uint32)
    return GeneratedCase(
        program=program,
        global_size=(local * groups, 1, 1),
        local_size=(local, 1, 1),
        in_words=in_words,
        extra_uniforms=(_STRESS_UNIFORM_LIMIT, rng.getrandbits(32)),
        seed=seed,
        label=f"stress[{category},seed={seed}]",
    )
