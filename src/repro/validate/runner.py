"""N-way differential execution of GPU programs (conformance harness).

Runs one :class:`DiffCase` through up to three independent execution
engines and compares every observable outcome:

- ``interp`` — the quad-warp clause interpreter on the MMU quad
  gather/scatter tier, fully instrumented.
- ``mega``   — the workgroup-wide megakernel engine: one structure-of-arrays
  register file per thread-group, lane-mask divergence, wide MMU
  gather/scatter; instrumented, and runs every program itself.
- ``m2s``    — the scalar Multi2Sim-style baseline: thread-at-a-time, flat
  memory, per-visit re-decode from the encoded binary.

The platform spellings of a mode (``interpreter``, ``fast``) run that
mode; results stay keyed by the name the caller gave.

Compared per engine pair: final registers and clause temporaries of every
thread, the full memory image of every buffer region, normalized
instruction-category counters, and for the instrumented engines the golden
``StatsRegistry`` snapshot (the same registration helpers the full platform
uses, so fuzzing guards exactly the counters the platform reports),
divergence CFG and MMU translation behaviour. When the baseline runs,
every engine carries an instruction tracer and the retired per-thread
instruction streams are diffed too.

The platform engines run behind real page tables that map adjacent
virtual pages to *non-adjacent* physical frames, so the MMU's cross-page
tiers cannot pass by accident; the m2s baseline places the same data at the
same virtual addresses in its flat memory. Every engine is handed the same
uniform image (:mod:`repro.gpu.launch`).

Generated programs (:mod:`repro.validate.progen`), compiled kernels
(:func:`make_kernel_case`, :func:`trace_kernel_both`) and single fuzzed
instructions (:mod:`repro.validate.fuzz`) are all cases of this runner.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from repro.core.platform import ENGINE_MODES, resolve_engine
from repro.gpu import launch
from repro.gpu.isa import NUM_GRF, REG_GLOBAL_ID, Program
from repro.gpu.encoding import encode_program
from repro.gpu.jobmanager import JobResult
from repro.gpu.launch import U_FIRST_ARG, U_WORK_DIM
from repro.gpu.mmu import GPUMMU
from repro.gpu.shadercore import ComputeUnit, WorkgroupShape
from repro.instrument.registry import (
    StatsRegistry,
    diff_snapshots,
    register_job_stats,
    register_mmu_stats,
)
from repro.mem import PAGE_SIZE, PTE_READ, PTE_WRITE, PageTableBuilder, \
    PhysicalMemory
from repro.validate.trace import InstructionTracer, compare_traces

#: the platform's instrumented tiers plus the independent scalar oracle
ENGINES = (*ENGINE_MODES, "m2s")


def engine_mode(engine):
    """The :data:`ENGINES` member *engine* names: ``m2s``, or the platform
    mode :func:`~repro.core.platform.resolve_engine` gives; ``ValueError``
    for any other name."""
    return engine if engine == "m2s" else resolve_engine(engine)


# virtual layout for generated cases (shared with repro.validate.progen)
VA_IN = 0x0010_0000
VA_OUT = VA_IN + 0x2000
VA_ATOM = VA_OUT + 0x2000
# per-thread output slices start 128 bytes before a page boundary so that
# neighbouring lanes' slices straddle pages (exercises cross-page scatter)
OUT_SLICE_BASE = VA_OUT + PAGE_SIZE - 128

_PHYS_SIZE = 1 << 22
_TABLE_FRAME_BASE = 0x0008_0000
_DATA_FRAME_BASE = 0x0010_0000


def page_count(nbytes):
    return -(-nbytes // PAGE_SIZE)


@dataclass
class DiffCase:
    """One differential test case: a program plus launch and memory setup.

    Attributes:
        program: decoded :class:`~repro.gpu.isa.Program`.
        global_size/local_size: NDRange (3-tuples).
        regions: list of ``(name, va, words)`` buffer regions; *words* is a
            1-D uint32 array, *va* must be page-aligned.
        args: kernel argument u32 values (buffer VAs, scalar bits, local
            byte offsets), the words after the NDRange block of the
            uniform image (:mod:`repro.gpu.launch`).
        local_bytes: workgroup-local slab size.
    """

    program: Program
    global_size: tuple
    local_size: tuple
    regions: list
    args: list
    local_bytes: int = 4096
    name: str = "case"

    def with_program(self, program):
        return replace(self, program=program)


def generated_case_to_diff(case):
    """Adapt a :class:`~repro.validate.progen.GeneratedCase`."""
    threads = case.global_size[0] * case.global_size[1] * case.global_size[2]
    out_words = np.zeros(0x2000 // 4, dtype=np.uint32)
    atom_words = np.zeros(PAGE_SIZE // 4, dtype=np.uint32)
    assert OUT_SLICE_BASE + threads * 64 <= VA_OUT + 0x2000
    return DiffCase(
        program=case.program,
        global_size=tuple(case.global_size),
        local_size=tuple(case.local_size),
        regions=[
            ("in", VA_IN, np.asarray(case.in_words, dtype=np.uint32)),
            ("out", VA_OUT, out_words),
            ("atom", VA_ATOM, atom_words),
        ],
        args=[VA_IN, OUT_SLICE_BASE, VA_ATOM,
              case.extra_uniforms[0], case.extra_uniforms[1]],
        name=case.label or f"gen[{case.seed}:{case.index}]",
    )


def verify_context_for_case(case):
    """Full launch-time verifier context for a generated case.

    Mirrors :func:`generated_case_to_diff` exactly — same VAs, region
    sizes and NDRange — so must-fault/race claims made against this
    context are checkable by actually running the case.
    """
    from repro.validate.progen import IN_BYTES, UNIFORM_COUNT
    from repro.gpu.verify import BufferInfo, VerifyContext

    g, l = case.global_size, case.local_size
    slots = range(U_FIRST_ARG, UNIFORM_COUNT)
    placed = (("in", VA_IN, IN_BYTES),
              ("out", OUT_SLICE_BASE, VA_OUT + 0x2000 - OUT_SLICE_BASE),
              ("atom", VA_ATOM, PAGE_SIZE))
    extras = dict(zip(slots[len(placed):], case.extra_uniforms))
    ndrange = launch.uniform_image(g, l, ()).tolist()[:U_WORK_DIM]
    return VerifyContext(
        name=case.label or "gen",
        uniform_count=UNIFORM_COUNT,
        buffers={slot: BufferInfo(slot=slot, size=size, va=va, name=name)
                 for slot, (name, va, size) in zip(slots, placed)},
        scalar_slots=set(extras),
        uniform_values={**dict(enumerate(ndrange)), **extras},
        local_bytes=4096,
        mapped_ranges=[
            (VA_IN, VA_IN + IN_BYTES),
            (VA_OUT, VA_OUT + 0x2000),
            (VA_ATOM, VA_ATOM + PAGE_SIZE),
        ],
        threads=g[0] * g[1] * g[2],
        threads_per_group=l[0] * l[1] * l[2],
    )


def make_kernel_case(source, kernel_name, global_size, local_size, buffers,
                     scalars=(), local_args=(), version=None, name=None):
    """Build a :class:`DiffCase` from kernel-language source (compiled once,
    then executed from the same binary by every engine)."""
    from repro.clc import compile_source

    compiled = compile_source(source, options=version).kernel(kernel_name)
    global_size, local_size = launch.normalize_sizes(global_size, local_size)
    regions = []
    values = []
    va = VA_IN
    # arguments are positional: consume the buffer/scalar/local queues in
    # the kernel's declared parameter order
    queues = {"buffer": list(buffers), "scalar": list(scalars),
              "local_ptr": list(local_args)}
    for _param, kind, _ty in compiled.params:
        value = queues[kind].pop(0)
        if kind == "buffer":
            words = np.ascontiguousarray(value).reshape(-1).view(np.uint32)
            regions.append((f"buf{len(regions)}", va, words))
            value = va
            va += page_count(max(words.nbytes, 4)) * PAGE_SIZE
        elif kind == "local_ptr":
            value = launch.LocalMemory(value)
        values.append(value)
    if any(queues.values()):
        raise ValueError(
            f"argument count mismatch for {kernel_name}: " + ", ".join(
                f"{len(queue)} {kind}" for kind, queue in queues.items())
            + " arguments left over")
    args, cursor = launch.bind_arguments(compiled, local_size, values)
    return DiffCase(
        program=compiled.program,
        global_size=global_size,
        local_size=local_size,
        regions=regions,
        args=args,
        local_bytes=max(4096, (cursor + 4095) & ~4095),
        name=name or kernel_name,
    )


@dataclass
class EngineResult:
    """Everything observable from one engine's execution of a case."""

    engine: str
    registers: dict = None   # gid triple -> (regs tuple, temps tuple)
    memory: dict = None      # region name -> bytes
    counters: dict = None    # normalized instruction categories
    stats: dict = None       # full JobStats fields (instrumented engines)
    cfg: dict = None  # the divergence CFG's per-clause counts
    mmu: dict = None         # pages/translation behaviour
    trace: InstructionTracer = None
    error: str = None        # set when the engine raised


@dataclass
class Mismatch:
    """One observed divergence between two engines."""

    kind: str       # registers|memory|counters|stats|cfg|mmu|trace|crash
    engines: tuple
    detail: str

    def __str__(self):
        return f"[{self.kind}] {' vs '.join(self.engines)}: {self.detail}"


class DifferentialRunner:
    """Executes cases on an engine subset and compares all outcomes."""

    def __init__(self, engines=ENGINES, trace=True):
        self.engines = tuple(engines)
        self.modes = {engine: engine_mode(engine) for engine in engines}
        # instruction traces are checked against the scalar baseline's
        self.trace = trace and "m2s" in self.modes.values()

    # -- engine execution ------------------------------------------------------

    def run_case(self, case):
        """Run *case* on every engine; returns (results dict, mismatches)."""
        results = {}
        for engine in self.engines:
            mode = self.modes[engine]
            tracer = InstructionTracer() if self.trace else None
            try:
                if mode == "m2s":
                    results[engine] = self._run_m2s(case, tracer)
                else:
                    results[engine] = self._run_quad(case, engine, tracer)
            except Exception as exc:  # noqa: BLE001 - crash is an outcome
                results[engine] = EngineResult(
                    engine=engine,
                    error=f"{type(exc).__name__}: {exc}")
        return results, self.compare(results)

    def _run_quad(self, case, engine, tracer):
        phys = PhysicalMemory(_PHYS_SIZE)
        table_frame = [_TABLE_FRAME_BASE]

        def alloc_table_frame():
            frame = table_frame[0]
            table_frame[0] += PAGE_SIZE
            return frame

        builder = PageTableBuilder(phys, alloc_table_frame)
        va_to_pa = {}
        data_frame = _DATA_FRAME_BASE
        for _name, va, words in case.regions:
            data = np.ascontiguousarray(words, dtype=np.uint32).tobytes()
            for page in range(page_count(max(len(data), 1))):
                page_va = va + page * PAGE_SIZE
                # adjacent virtual pages -> non-adjacent physical frames,
                # so cross-page quads can never pass by accident
                builder.map_page(page_va, data_frame, PTE_READ | PTE_WRITE)
                va_to_pa[page_va] = data_frame
                chunk = data[page * PAGE_SIZE:(page + 1) * PAGE_SIZE]
                if chunk:
                    phys.write_block(data_frame, chunk)
                data_frame += 2 * PAGE_SIZE
        mmu = GPUMMU(phys)
        mmu.set_page_table(builder.root)
        mmu.enabled = True
        # every ENGINE_MODES tier is instrumented, divergence CFG included
        unit = ComputeUnit(ENGINE_MODES[self.modes[engine]])
        unit.prepare(case.local_bytes, instrument=True, tracer=tracer)
        shape = WorkgroupShape(case.global_size, case.local_size)
        uniforms = launch.uniform_image(case.global_size, case.local_size,
                                        case.args)
        registers = {}
        # the Job Manager's loop: lockstep batches on the mega tier
        for warps in unit.run_groups(case.program, uniforms, mmu, shape,
                                     shape.total_groups):
            for warp in warps:
                for lane in np.flatnonzero(warp.live):
                    regs = warp.regs[lane]
                    key = (int(regs[REG_GLOBAL_ID]),
                           int(regs[REG_GLOBAL_ID + 1]),
                           int(regs[REG_GLOBAL_ID + 2]))
                    registers[key] = (
                        tuple(int(v) for v in regs),
                        tuple(int(v) for v in warp.temps[lane]))

        memory = {}
        for name, va, words in case.regions:
            nbytes = words.nbytes
            image = bytearray()
            for page in range(page_count(max(nbytes, 1))):
                image += phys.read_block(va_to_pa[va + page * PAGE_SIZE],
                                         PAGE_SIZE)
            memory[name] = bytes(image[:nbytes])

        result = EngineResult(engine=engine, registers=registers,
                              memory=memory, trace=tracer)
        stats = JobResult(None, case.program, unit.clause_counts,
                          shape).stats
        result.counters = _quad_counters(stats)
        result.stats = _unified_snapshot(stats, mmu)
        result.cfg = unit.clause_counts
        result.mmu = {
            "pages_accessed": frozenset(mmu.pages_accessed),
            "translations": mmu.translations,
        }
        return result

    def _run_m2s(self, case, tracer):
        from repro.baselines.m2s import M2SSimulator

        top = max(va + page_count(max(words.nbytes, 1)) * PAGE_SIZE
                  for _n, va, words in case.regions)
        sim = M2SSimulator(memory_size=1 << max(top.bit_length() + 1, 20),
                           tracer=tracer, capture_registers=True)
        for _name, va, words in case.regions:
            sim.write(va, words)
        # just enough of a CompiledKernel for run_kernel
        binary = SimpleNamespace(binary=encode_program(case.program))
        sim.run_kernel(binary, case.global_size, case.local_size, case.args,
                       case.local_bytes)
        registers = dict(sim.retired_registers)
        memory = {name: sim.read(va, words.size, np.uint32).tobytes()
                  for name, va, words in case.regions}
        counters = {
            "arith": sim.stats.arith,
            "ls": sim.stats.load_store,
            "nop": sim.stats.nop,
            "cf": sim.stats.control_flow,
        }
        return EngineResult(engine="m2s", registers=registers, memory=memory,
                            counters=counters, trace=tracer)

    # -- comparison ------------------------------------------------------------

    def compare(self, results):
        """All pairwise comparisons against the first engine in the subset
        (instrumentation-level comparisons only between engines that carry
        the corresponding data)."""
        mismatches = []
        crashed = [(e, r) for e, r in results.items() if r.error is not None]
        if crashed:
            # well-formed cases must not fault in any engine; report and
            # skip state comparisons (there is no state to compare)
            for engine, result in crashed:
                mismatches.append(Mismatch("crash", (engine,), result.error))
            return mismatches
        order = [e for e in self.engines if e in results]
        ref = results[order[0]]
        for engine in order[1:]:
            mismatches.extend(self._compare_pair(ref, results[engine]))
        return mismatches

    def _compare_pair(self, ref, other):
        found = []
        pair = (ref.engine, other.engine)
        found.extend(self._compare_registers(pair, ref, other))
        found.extend(self._compare_memory(pair, ref, other))
        if ref.counters is not None and other.counters is not None \
                and ref.counters != other.counters:
            found.append(Mismatch(
                "counters", pair,
                f"{ref.counters} != {other.counters}"))
        if ref.stats is not None and other.stats is not None \
                and ref.stats != other.stats:
            diff = diff_snapshots(ref.stats, other.stats)
            found.append(Mismatch("stats", pair, f"fields differ: {diff}"))
        if ref.cfg is not None and other.cfg is not None \
                and ref.cfg != other.cfg:
            found.append(Mismatch("cfg", pair,
                                  "divergence CFG edges/events differ"))
        if ref.mmu is not None and other.mmu is not None \
                and ref.mmu != other.mmu:
            found.append(Mismatch(
                "mmu", pair,
                f"pages/translations differ: {ref.mmu['translations']} vs "
                f"{other.mmu['translations']} translations"))
        if ref.trace is not None and other.trace is not None:
            trace_diffs = compare_traces(ref.trace, other.trace)
            if trace_diffs:
                found.append(Mismatch("trace", pair, str(trace_diffs[0])))
        return found

    @staticmethod
    def _compare_registers(pair, ref, other):
        if set(ref.registers) != set(other.registers):
            missing = set(ref.registers) ^ set(other.registers)
            return [Mismatch("threads", pair,
                             f"thread sets differ: {sorted(missing)[:4]}")]
        for key in sorted(ref.registers):
            a_regs, a_temps = ref.registers[key]
            b_regs, b_temps = other.registers[key]
            if a_regs != b_regs:
                reg = next(i for i in range(NUM_GRF)
                           if a_regs[i] != b_regs[i])
                return [Mismatch(
                    "registers", pair,
                    f"thread {key} r{reg}: 0x{a_regs[reg]:08x} != "
                    f"0x{b_regs[reg]:08x}")]
            if a_temps != b_temps:
                t = next(i for i in range(len(a_temps))
                         if a_temps[i] != b_temps[i])
                return [Mismatch(
                    "registers", pair,
                    f"thread {key} t{t}: 0x{a_temps[t]:08x} != "
                    f"0x{b_temps[t]:08x}")]
        return []

    @staticmethod
    def _compare_memory(pair, ref, other):
        for name in ref.memory:
            a, b = ref.memory[name], other.memory.get(name)
            if a == b:
                continue
            if b is None:
                return [Mismatch("memory", pair, f"region {name} missing")]
            word = next(i for i in range(0, min(len(a), len(b)), 4)
                        if a[i:i + 4] != b[i:i + 4])
            a_val = int.from_bytes(a[word:word + 4], "little")
            b_val = int.from_bytes(b[word:word + 4], "little")
            return [Mismatch(
                "memory", pair,
                f"region {name} word {word // 4}: 0x{a_val:08x} != "
                f"0x{b_val:08x}")]
        return []


def run_case_outcome(runner, case):
    """Run *case* and normalize the result into the farm's case-outcome
    shape: ``(ok, detail, counters)``.

    *counters* holds each engine's normalized instruction categories under
    ``<engine>.<category>`` names (plain ints, deterministic order), so
    aggregated farm reports stay byte-identical however the case was
    scheduled; *detail* carries the first few mismatches on failure.
    """
    results, mismatches = runner.run_case(case)
    counters = {}
    for engine in sorted(results):
        result = results[engine]
        if result.error is not None:
            counters[f"{engine}.crash"] = 1
        elif result.counters:
            for key in sorted(result.counters):
                counters[f"{engine}.{key}"] = int(result.counters[key])
    detail = "; ".join(str(m) for m in mismatches[:3])
    return not mismatches, detail, counters


def trace_kernel_both(source, kernel_name, global_size, local_size,
                      buffers, scalars=(), local_args=(), version=None):
    """Run one kernel on the reference interpreter and the scalar baseline
    in tracing mode; returns (trace mismatches, interpreter tracer,
    baseline tracer, outputs).

    The arguments are :func:`make_kernel_case`'s. *outputs* are the
    interpreter's final buffer contents, one array per entry of *buffers*
    in its dtype. Engines that crash or disagree on those contents raise
    AssertionError (the traces explain *where*).
    """
    case = make_kernel_case(source, kernel_name, global_size, local_size,
                            buffers, scalars, local_args, version)
    results, mismatches = DifferentialRunner(("interp", "m2s")).run_case(case)
    failed = [str(m) for m in mismatches if m.kind in ("crash", "memory")]
    if failed:
        raise AssertionError("engines disagree on output buffer contents: "
                             + "; ".join(failed))
    interp, m2s = results["interp"], results["m2s"]
    outputs = [np.frombuffer(interp.memory[name], np.asarray(array).dtype)
               for (name, _va, _words), array in zip(case.regions, buffers)]
    return (compare_traces(interp.trace, m2s.trace), interp.trace,
            m2s.trace, outputs)


def _unified_snapshot(stats, mmu):
    """The golden StatsRegistry snapshot for one engine's run.

    Uses the same registration helpers as the full platform, so the
    conformance fuzzer guards exactly the counters the platform reports;
    golden-only filtering drops engine diagnostics (quad-path shape) that
    legitimately differ between engines.
    """
    registry = StatsRegistry()
    register_job_stats(registry.scope("gpu.job"), lambda: stats)
    register_mmu_stats(registry.scope("gpu.mmu"), mmu)
    return registry.snapshot(golden_only=True)


def _quad_counters(stats):
    """JobStats collapsed to the categories the m2s baseline reports."""
    return {
        "arith": stats.arith_instrs,
        "ls": stats.ls_instrs,
        "nop": stats.nop_instrs,
        "cf": stats.cf_instrs,
    }
