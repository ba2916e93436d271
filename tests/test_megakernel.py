"""Tests: the workgroup-wide megakernel execution engine.

The mega tier executes each clause once over every lane of a thread-group
(structure-of-arrays register file, lane-mask divergence, wide MMU
gather/scatter). It must be bit-for-bit identical to the quad tiers on
architectural state *and* golden statistics and punt to per-lane scalar
replay on anything the wide path cannot serve whole (armed injection
pages, unmapped grow-on-fault pages). It runs every program itself:
atomics warp-serially, traced jobs as traced code, injected hangs with
the interpreter's watchdog rounds.
"""

import numpy as np
import pytest

from repro.cl import CommandQueue, Context, LocalMemory
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.kernels import get_workload
from repro.validate.runner import DifferentialRunner, make_kernel_case


def _context(engine, instrument=False):
    config = PlatformConfig(
        gpu=GPUConfig(engine=engine, instrument=instrument)
    )
    return Context(MobilePlatform(config))


# three-way per-lane divergence that reconverges at a workgroup barrier:
# the barrier is reached from *diverged* paths, so the mega scheduler's
# global min-PC order and barrier-release protocol both get exercised
DIVERGE_KERNEL = """
__kernel void diverge(__global int* data, __global float* out,
                      __local float* tile) {
    int i = get_global_id(0);
    int lid = get_local_id(0);
    int v = data[i];
    float acc = 0.0f;
    if (v % 3 == 0) {
        for (int j = 0; j < (v & 15); j += 1) {
            acc += (float)j * 0.5f;
        }
    } else if (v % 3 == 1) {
        acc = (float)(v * 7 % 13);
    } else {
        for (int j = 0; j < 4; j += 1) {
            acc -= (float)(v % (j + 2));
        }
    }
    tile[lid] = acc;
    barrier(1);
    out[i] = acc + tile[(lid + 1) % 16];
}
"""


def _run_diverge(engine, instrument=False):
    context = _context(engine, instrument)
    queue = CommandQueue(context)
    n = 64
    rng = np.random.default_rng(29)
    data = rng.integers(0, 64, n).astype(np.int32)
    buf_data = context.buffer_from_array(data)
    buf_out = context.alloc_buffer(4 * n)
    kernel = context.build_program(DIVERGE_KERNEL).kernel("diverge")
    kernel.set_args(buf_data, buf_out, LocalMemory(4 * 16))
    queue.enqueue_nd_range(kernel, (n,), (16,))
    return queue.enqueue_read_buffer(buf_out, np.float32)


def test_mega_bit_identical_on_divergent_barrier_kernel():
    interp = _run_diverge("interpreter")
    mega = _run_diverge("mega")
    np.testing.assert_array_equal(interp.view(np.uint32),
                                  mega.view(np.uint32))


def test_mega_divergence_reconvergence_matches_quad_tiers():
    """Lane-mask divergence and min-PC reconvergence, compared through
    the differential harness: registers, temps, memory, golden stats and
    MMU behaviour must all match the quad tiers (the runner maps data
    pages to non-adjacent physical frames, so the wide gather/scatter
    multi-page tiers cannot pass by accident)."""
    rng = np.random.default_rng(17)
    data = rng.integers(0, 64, 64).astype(np.int32)
    case = make_kernel_case(
        DIVERGE_KERNEL, "diverge", (64,), (16,),
        buffers=[data, np.zeros(64, dtype=np.float32)],
        local_args=[4 * 16], name="mega-diverge")
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    _results, mismatches = runner.run_case(case)
    assert not mismatches, "\n".join(str(m) for m in mismatches)


@pytest.mark.parametrize("name", ["SobelFilter", "BitonicSort", "sgemm",
                                  "Reduction", "URNG"])
def test_mega_verifies_on_workloads(name):
    context = _context("mega")
    sizes = {"SobelFilter": {"width": 32, "height": 24},
             "BitonicSort": {"n": 128},
             "sgemm": {"m": 16, "k": 16, "n": 16},
             "Reduction": {"n": 512},
             "URNG": {"n": 256}}
    result = get_workload(name, **sizes.get(name, {})).run(context=context)
    assert result.verified, name


def test_mega_stats_identical_to_interpreter():
    """The deferred (issues, lanes) accounting over the global min-PC
    schedule must reproduce the interpreter's JobStats bit-for-bit."""
    mega_result = get_workload("sgemm", m=16, k=16, n=16).run(
        context=_context("mega", instrument=True))
    assert mega_result.verified
    assert mega_result.stats.total_instrs > 0
    interp_result = get_workload("sgemm", m=16, k=16, n=16).run(
        context=_context("interpreter", instrument=True))
    assert mega_result.stats == interp_result.stats


def test_mega_armed_page_punts_to_scalar_replay():
    """An injected (armed) fault page defers the wide access with nothing
    recorded; the per-lane replay funnels the fault through the reference
    _miss path, the driver retries the job, and recovery must be
    bit-exact against the clean run (asserted inside run_case), with
    deterministic counters across a repeat."""
    from repro.inject.campaign import run_case

    for workload in ("sgemm", "divergent"):
        result, _plan = run_case(workload, "mmu-transient", seed=0,
                                 engine="mega")
        assert result.ok, result.detail
        assert result.fired >= 1
        assert result.counters["gpu.faults.mmu_injected"] >= 1


def test_mega_persistent_fault_fails_clean():
    from repro.inject.campaign import run_case

    result, _plan = run_case("sgemm", "mmu-persistent", seed=0,
                             engine="mega")
    assert result.ok, result.detail


def test_mega_hang_injection_falls_back_to_generic_loop():
    """core.hang must reproduce the watchdog's stall accounting exactly,
    so a fired hang routes the workgroup onto the generic warp loop."""
    from repro.inject.campaign import run_case

    result, _plan = run_case("sgemm", "hang-transient", seed=0,
                             engine="mega")
    assert result.ok, result.detail
    assert result.counters["gpu.faults.watchdog_timeouts"] >= 1


def test_mega_mid_workgroup_tier_switch_on_grow_fault():
    """Grow-on-fault: wide accesses succeed on committed pages, then the
    first touch of an uncommitted page defers to the per-lane replay,
    whose _miss path runs the driver's page-fault worker and resumes —
    a mid-workgroup wide->scalar->wide switch with exact results."""
    from repro.mem.physical import PAGE_SIZE

    context = _context("mega")
    queue = CommandQueue(context)
    n = 6 * PAGE_SIZE // 4
    buffer = context.alloc_buffer(n * 4, grow_on_fault=True)
    source = """
    __kernel void fillseq(__global int* out, int n) {
        int i = get_global_id(0);
        if (i < n) {
            out[i] = i * 1103 + 12345;
        }
    }
    """
    kernel = context.build_program(source).kernel("fillseq")
    kernel.set_args(buffer, n)
    queue.enqueue_nd_range(kernel, (n,), (64,))
    got = queue.enqueue_read_buffer(buffer, dtype=np.int32, count=n)
    want = (np.arange(n, dtype=np.int64) * 1103 + 12345).astype(np.int32)
    np.testing.assert_array_equal(got, want)
    mmu = context.platform.gpu.mmu
    driver = context.platform.driver
    assert driver.pages_grown > 0
    assert mmu.wide_accesses > 0, "wide tier never engaged"
    assert mmu.wide_fallbacks > 0, "no mid-workgroup punt happened"


def test_mega_tier_switch_stats_equivalence():
    """With the MMU fast path disabled every wide access replays per
    lane; golden stats and results must still equal the scalar reference
    run (the replay is the reference path, access for access)."""

    def run(engine, fast_path):
        context = _context(engine, instrument=True)
        context.platform.gpu.mmu.fast_path_enabled = fast_path
        result = get_workload("sgemm", m=16, k=8, n=16).run(context=context)
        assert result.verified
        return result.stats, context.platform.gpu.mmu

    interp_stats, _ = run("interpreter", False)
    mega_stats, mega_mmu = run("mega", False)
    assert mega_stats == interp_stats
    assert mega_mmu.wide_fallbacks > 0
    assert mega_mmu.wide_accesses == 0


def test_mega_runs_atomics_itself(monkeypatch):
    """A divergent ATOM program runs on mega (translated, never on the
    interpreter) with the interpreter's results and golden stats."""
    from repro.gpu.warp import ClauseInterpreter

    source = """
    __kernel void count(__global int* data, __global int* total) {
        int i = get_global_id(0);
        if (data[i] % 2 == 0) {
            atomic_add(&total[0], data[i]);
        }
    }
    """
    rng = np.random.default_rng(5)
    data = rng.integers(0, 100, 64).astype(np.int32)

    def run(engine):
        context = _context(engine, instrument=True)
        queue = CommandQueue(context)
        buf_data = context.buffer_from_array(data)
        buf_total = context.alloc_buffer(4)
        queue.enqueue_fill_buffer(buf_total, 0)
        kernel = context.build_program(source).kernel("count")
        kernel.set_args(buf_data, buf_total)
        queue.enqueue_nd_range(kernel, (64,), (16,))
        total = queue.enqueue_read_buffer(buf_total, np.int32)
        return int(total[0]), context.platform.stats_registry

    interp_total, interp = run("interpreter")
    with monkeypatch.context() as patch:
        patch.setattr(ClauseInterpreter, "__init__", _no_interpreter)
        mega_total, mega = run("mega")
    assert mega_total == interp_total == int(data[data % 2 == 0].sum())
    assert mega.snapshot(golden_only=True) \
        == interp.snapshot(golden_only=True)


def _no_interpreter(*_args, **_kwargs):
    raise AssertionError("the interpreter was built")


def _mov_const_program(constant):
    from repro.gpu.isa import CONST_BASE, Clause, Instruction, Op, Program, \
        Tail

    clause = Clause(
        tuples=[(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                 Instruction(Op.NOP))],
        constants=[constant],
        tail=Tail.END,
    )
    program = Program(clauses=[clause])
    program.validate()
    return program


class _WideStub:
    """Minimal wide-capable memory port (never actually accessed)."""

    def load_wide_u32(self, vaddrs):
        return None

    def store_wide_u32(self, vaddrs, values):
        return None


def test_mega_partial_quads_use_masked_path():
    """A local size that is not a multiple of the quad width leaves dead
    lanes; the mega engine must run masked and retire the same per-thread
    state as the interpreter."""
    source = """
    __kernel void triple(__global int* data, __global int* out) {
        int i = get_global_id(0);
        out[i] = data[i] * 3 + 1;
    }
    """
    rng = np.random.default_rng(11)
    data = rng.integers(0, 1000, 18).astype(np.int32)
    case = make_kernel_case(
        source, "triple", (18,), (6,),
        buffers=[data, np.zeros(18, dtype=np.int32)],
        name="mega-partial-quads")
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    _results, mismatches = runner.run_case(case)
    assert not mismatches, "\n".join(str(m) for m in mismatches)


# -- launch path: lazy retirement, one translation per program ---------------


def _count_quadwarps(monkeypatch):
    from repro.gpu.warp import QuadWarp

    built = []
    init = QuadWarp.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadWarp, "__init__", counting)
    return built


def test_mega_job_builds_no_quadwarps_and_lazy_warps_match(monkeypatch):
    """Retired state stays SoA unless somebody reads it: a job run
    through the Job Manager constructs no QuadWarp at all, while the
    warps the conformance runner reads lane by lane (divergent kernel,
    partial last quad) equal the interpreter's."""
    built = _count_quadwarps(monkeypatch)
    _run_diverge("mega")
    assert not built

    rng = np.random.default_rng(23)
    data = rng.integers(0, 64, 18).astype(np.int32)
    case = make_kernel_case(
        DIVERGE_KERNEL, "diverge", (18,), (6,),
        buffers=[data, np.zeros(18, dtype=np.float32)],
        local_args=[4 * 16], name="mega-lazy-retire")
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    results, mismatches = runner.run_case(case)
    assert not mismatches, "\n".join(str(m) for m in mismatches)
    assert len(results["mega"].registers) == 18
    assert results["mega"].registers == results["interp"].registers
    assert built


def test_retired_warps_is_a_lazy_sequence():
    from repro.gpu.megakernel import (
        MegaKernel, RegisterFile, RetiredWarps)
    from repro.gpu.shadercore import WorkgroupShape

    kernel = MegaKernel(_mov_const_program(9), _WideStub(),
                        RegisterFile(), np.zeros(1, dtype=np.uint32))
    warps = kernel.run_workgroup(WorkgroupShape((6, 1, 1), (6, 1, 1)), 0)
    assert isinstance(warps, RetiredWarps) and len(warps) == 2
    assert [int(w.live.sum()) for w in warps] == [4, 2]
    assert warps[-1].regs[1, 0] == 9 and warps[0].finished
    with pytest.raises(IndexError):
        warps[2]


def test_bfs_levels_share_one_translation(monkeypatch):
    """Every BFS level brings another ``depth`` uniform; the program is
    translated at most once in the process, and levels (both verified
    against one reference) and golden stats equal the interpreter's."""
    emitted = _count_emits(monkeypatch)

    def run(engine):
        context = _context(engine, instrument=True)
        result = get_workload("bfs", n=128, chord_every=16).run(
            context=context)
        assert result.verified
        return context, result

    mega_ctx, mega = run("mega")
    interp_ctx, interp = run("interpreter")
    jobs = mega_ctx.platform.gpu.job_manager.jobs_retired
    assert jobs > 8
    assert len(emitted) <= 1
    assert mega.stats == interp.stats
    assert mega_ctx.platform.stats_registry.snapshot(golden_only=True) \
        == interp_ctx.platform.stats_registry.snapshot(golden_only=True)


_TENANT_KERNELS = ["""
__kernel void k(__global float* out, __global const float* in) {
    int i = get_global_id(0);
    out[i] = in[i] * 3.0f;
}
""", """
__kernel void k(__global float* out, __global const float* in) {
    int i = get_global_id(0);
    out[i] = in[i] * 5.0f;
}
"""]


def _launch_k(context, kernel, data):
    queue = CommandQueue(context)
    out = context.alloc_buffer(data.nbytes)
    kernel.set_args(out, context.buffer_from_array(data))
    queue.enqueue_nd_range(kernel, (len(data),), (16,))
    return queue.enqueue_read_buffer(out, np.float32)


def test_translations_follow_the_decode_cache():
    """Two tenants load different programs at the same GPU VA: they are
    two decoded programs, each run on its own code — also after the
    decode cache was invalidated, and with it disabled (a fresh Program
    per job)."""
    from repro.driver.kbase import TenancyConfig

    platform = MobilePlatform(PlatformConfig(
        gpu=GPUConfig(engine="mega"),
        tenancy=TenancyConfig.symmetric(2))).initialize()
    manager = platform.gpu.job_manager
    data = np.arange(32, dtype=np.float32)
    contexts = [Context(platform, tenant=tenant)
                for tenant in platform.driver.tenants]
    kernels = [context.build_program(source).kernel("k")
               for context, source in zip(contexts, _TENANT_KERNELS)]
    for _ in range(2):
        for context, kernel, want in zip(contexts, kernels,
                                         (data * 3.0, data * 5.0)):
            np.testing.assert_array_equal(
                _launch_k(context, kernel, data), want.astype(np.float32))
    spaces, binaries = zip(*[(key[0], key[1:])
                             for key in manager._decode_cache])
    assert sorted(spaces) == [0, 1] and binaries[0] == binaries[1]

    manager.invalidate_decode_cache()
    assert not manager._decode_cache
    for enabled in (True, False):
        manager.decode_cache_enabled = enabled
        for context, kernel, want in zip(contexts, kernels,
                                         (data * 3.0, data * 5.0)):
            np.testing.assert_array_equal(
                _launch_k(context, kernel, data), want.astype(np.float32))


_FILL_SOURCE = """
__kernel void fill(__global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * 3 + 1;
    }
}
"""


def _run_diverge_on(context, kernel):
    queue = CommandQueue(context)
    n = 64
    data = np.random.default_rng(29).integers(0, 64, n).astype(np.int32)
    buf_out = context.alloc_buffer(4 * n)
    kernel.set_args(context.buffer_from_array(data), buf_out,
                    LocalMemory(4 * 16))
    stats = queue.enqueue_nd_range(kernel, (n,), (16,)).stats
    return queue.enqueue_read_buffer(buf_out, np.float32), stats


@pytest.mark.parametrize("engine", ["mega"])
@pytest.mark.parametrize("upset", ["mmu.page", "core.hang", "slice"])
def test_upset_job_leaves_nothing_on_the_persistent_unit(engine, upset):
    """A job that faults, hangs or is sliced runs on the same unit (and
    the same register file) as the clean job after it, which must not be
    able to tell: outputs and JobStats equal a fresh platform's."""
    from repro.driver.kbase import PREEMPTED
    from repro.gpu import regs
    from repro.inject.injector import FaultInjector
    from repro.inject.plan import FaultPlan, FaultSpec

    def build(context):
        return context.build_program(DIVERGE_KERNEL).kernel("diverge")

    context = _context(engine, instrument=True)
    fresh_out, fresh_stats = _run_diverge_on(context, build(context))

    context = _context(engine, instrument=True)
    diverge = build(context)
    platform, driver = context.platform, context.platform.driver
    manager = platform.gpu.job_manager
    unit = manager.unit
    _run_diverge_on(context, diverge)  # its register file made
    registers = unit._mega.file
    queue = CommandQueue(context)
    kernel = context.build_program(_FILL_SOURCE).kernel("fill")
    n = 2048  # 32 workgroups of 64
    buf = context.alloc_buffer(n * 4)
    kernel.set_args(buf, n)
    if upset == "slice":
        job = queue.enqueue_nd_range_async(kernel, (n,), (64,))
        driver._write(regs.JOB_SLICE, 8)
        driver._job_slice = 8
        assert driver.submit_and_wait(job.descriptor_va) is PREEMPTED
        driver._write(regs.JOB_SLICE, 0)
        driver._job_slice = 0
        assert manager.jobs_preempted == 1
    else:
        key = (buf.gpu_va >> 12) if upset == "mmu.page" else 5
        injector = platform.attach_injector(FaultInjector(FaultPlan(
            [FaultSpec(upset, key=key)])))
        queue.enqueue_nd_range(kernel, (n,), (64,))
        assert injector.total_fired == 1 and driver.retries >= 1
        np.testing.assert_array_equal(
            queue.enqueue_read_buffer(buf, np.int32),
            np.arange(n, dtype=np.int32) * 3 + 1)
        platform.attach_injector(None)
    out, stats = _run_diverge_on(context, diverge)
    np.testing.assert_array_equal(out.view(np.uint32),
                                  fresh_out.view(np.uint32))
    assert stats == fresh_stats
    assert manager.unit is unit and unit._mega.file is registers


def test_retired_warps_slice_is_a_list_as_on_the_quad_tiers():
    from repro.gpu.megakernel import MegaKernel, RegisterFile
    from repro.gpu.shadercore import WorkgroupShape

    kernel = MegaKernel(_mov_const_program(9), _WideStub(),
                        RegisterFile(), np.zeros(1, dtype=np.uint32))
    shape = WorkgroupShape((10, 1, 1), (10, 1, 1))
    warps = kernel.run_workgroup(shape, 0)
    assert len(warps) == 3
    head = warps[:2]
    assert isinstance(head, list) and len(head) == 2
    assert [int(w.live.sum()) for w in warps[1:]] == [4, 2]
    assert [int(w.live.sum()) for w in warps[::-1]] == [2, 4, 4]
    assert warps[5:] == [] and warps[-1].regs[1, 0] == 9


# -- emitted code: chains, faults mid-chain, tracebacks, warnings ------------


def _program(*clauses):
    from repro.gpu.isa import Program

    program = Program(clauses=list(clauses))
    program.validate()
    return program


def _clause(slots, tail, constants=(), **fields):
    from repro.gpu.isa import NOP_INSTR, Clause

    return Clause(tuples=[(slot, NOP_INSTR) for slot in slots],
                  constants=list(constants), tail=tail, **fields)


def _job_stats(unit, program, shape):
    """The JobStats of what *unit* ran of *program* so far, as a retired
    job's record derives them."""
    from repro.gpu.jobmanager import JobResult

    return JobResult(None, program, unit.clause_counts, shape).stats


def _unit_run(engine, program, mmu, lanes=4):
    """One workgroup of *program* on a bare compute unit; returns the
    JobStats it counted and what the run raised (or None). One quad by
    default: with more, the interpreter faults in its first warp before
    the others start, the workgroup-wide engine after every quad ran
    the clauses before the fault."""
    from repro.gpu.shadercore import ComputeUnit, WorkgroupShape

    unit = ComputeUnit(engine)
    unit.prepare(64, instrument=True)
    shape = WorkgroupShape((lanes, 1, 1), (lanes, 1, 1))
    raised = None
    try:
        unit.run_workgroup(program, np.zeros(4, dtype=np.uint32), mmu,
                           shape, 0)
    except Exception as exc:  # compared between the engines below
        raised = exc
    return _job_stats(unit, program, shape), raised


def _chain_programs():
    """Three-clause fall-through chains (one generated function on the
    converged path) whose *second* clause stops the workgroup: an
    unmapped global load, and an invalid operand behind a store."""
    from repro.gpu.isa import CONST_BASE, Instruction, Op, Tail
    from tests.test_fast_memory import VA

    c = CONST_BASE
    store = [Instruction(Op.MOV, dst=1, srca=c),          # mapped address
             Instruction(Op.ST, srca=1, srcb=c + 1)]
    first = _clause(store, Tail.FALLTHROUGH, constants=[VA + 64, 0xAA])
    never = _clause([Instruction(Op.MOV, dst=9, srca=c)], Tail.END,
                    constants=[7])
    unmapped = _clause(
        [Instruction(Op.MOV, dst=2, srca=c),
         Instruction(Op.LD, dst=3, srca=2)],
        Tail.FALLTHROUGH, constants=[VA + 64 * 4096])
    bad_operand = _clause(
        [Instruction(Op.MOV, dst=1, srca=c),
         Instruction(Op.ST, srca=1, srcb=c + 1),
         Instruction(Op.FADD, dst=4, srca=1)],             # no srcb
        Tail.FALLTHROUGH, constants=[VA + 128, 0xBB])
    return {"unmapped-load": _program(first, unmapped, never),
            "bad-operand": _program(first, bad_operand, never)}


@pytest.mark.parametrize("case", ["unmapped-load", "bad-operand"])
def test_fault_in_second_clause_of_a_chain_flushes_like_the_interpreter(
        case):
    from repro.errors import GuestError, MMUFault
    from repro.gpu.megakernel import emitted_code
    from tests.test_fast_memory import VA, _mmu

    program = _chain_programs()[case]
    # all three clauses are one converged function
    assert {head: entry[1] for head, entry in
            emitted_code(program).chains.items()} == {0: 3}
    results = {}
    for engine in ("interpreter", "mega"):
        mem, _builder, mmu = _mmu()
        stats, raised = _unit_run(engine, program, mmu)
        results[engine] = (
            type(raised), str(raised), vars(stats), mmu.translations,
            sorted(mmu.pages_accessed), mmu.load_u32(VA + 64),
            mmu.load_u32(VA + 128))
    assert results["mega"] == results["interpreter"]
    kind, message, stats = results["mega"][:3]
    # the first clause and the faulting clause were issued, the third not
    assert stats["clauses_executed"] == 2
    assert results["mega"][5] == 0xAA
    if case == "bad-operand":
        # raised at the slot's position: the store before it landed
        assert kind is GuestError and "source operand 255" in message
        assert results["mega"][6] == 0xBB
    else:
        assert kind is MMUFault


def test_bad_operand_in_a_chain_that_is_never_issued_is_harmless():
    from repro.gpu.isa import Instruction, Op, Tail

    skip = _clause([Instruction(Op.MOV, dst=0, srca=1)], Tail.JUMP, target=3)
    fine = _clause([Instruction(Op.MOV, dst=2, srca=1)], Tail.FALLTHROUGH)
    bad = _clause([Instruction(Op.FADD, dst=0, srca=1)], Tail.FALLTHROUGH)
    end = _clause([Instruction(Op.MOV, dst=3, srca=1)], Tail.END)
    _stats, raised = _unit_run("mega", _program(skip, fine, bad, end),
                              _WideStub())
    assert raised is None


def test_invalid_operand_traceback_shows_the_emitted_line():
    """Generated source is registered with linecache under its synthetic
    filename, so the innermost frame of the GuestError reads as code."""
    import traceback

    from repro.errors import GuestError
    from repro.gpu.isa import Instruction, Op, Tail

    program = _program(_clause([Instruction(Op.IADD, dst=0, srca=1)],
                               Tail.END))
    _stats, raised = _unit_run("mega", program, _WideStub())
    assert isinstance(raised, GuestError)
    frame = traceback.extract_tb(raised.__traceback__)[-1]
    assert frame.filename.startswith("<mega ") and frame.name == "chain_0"
    assert frame.line == "raise GuestError('invalid source operand 255')"
    assert frame.line in "".join(traceback.format_exception(raised))


def test_generated_float_code_raises_no_runtime_warning():
    """np.errstate is entered once per workgroup, not per slot: overflow,
    0/0, 1/0, log(-1), sqrt(-1) and NaN compares through the ``out=``,
    ``where=`` and call forms stay silent under -W error."""
    import warnings

    from repro.gpu.isa import CONST_BASE, CmpMode, Instruction, Op, Tail
    from repro.gpu.megakernel import MegaKernel, RegisterFile
    from repro.gpu.shadercore import WorkgroupShape

    c = CONST_BASE
    big, zero, minus_one, nan = c, c + 1, c + 2, c + 3
    slots = [
        Instruction(Op.FMUL, dst=0, srca=big, srcb=big),        # overflow
        Instruction(Op.FSUB, dst=1, srca=0, srcb=0),            # inf - inf
        Instruction(Op.FRCP, dst=2, srca=zero),                 # 1/0
        Instruction(Op.FLOG, dst=3, srca=minus_one),
        Instruction(Op.FSQRT, dst=4, srca=minus_one),
        Instruction(Op.FMA, dst=5, srca=big, srcb=big, srcc=big),
        Instruction(Op.CMP, dst=6, srca=nan, srcb=zero,
                    flags=int(CmpMode.FLT)),
        Instruction(Op.F2I, dst=7, srca=nan),
    ]
    program = _program(_clause(
        slots, Tail.END,
        constants=[0x7F7FFFFF, 0, 0xBF800000, 0x7FC00000]))
    kernel = MegaKernel(program, _WideStub(), RegisterFile(),
                        np.zeros(1, dtype=np.uint32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lanes in (8, 6):  # converged, then masked (partial quad)
            warps = kernel.run_workgroup(
                WorkgroupShape((lanes, 1, 1), (lanes, 1, 1)), 0)
            regs = warps[-1].regs[0]
            assert regs[0] == 0x7F800000 and regs[2] == 0x7F800000
            assert regs[6] == 0 and regs[7] == 0


# -- the process-wide code cache ----------------------------------------------


def _count_emits(monkeypatch):
    from repro.gpu import megakernel

    emitted = []
    real = megakernel.compile_source

    def counting(source, filename, namespace):
        emitted.append(filename)
        return real(source, filename, namespace)

    monkeypatch.setattr(megakernel, "compile_source", counting)
    return emitted


def test_two_fresh_platforms_emit_once(monkeypatch):
    emitted = _count_emits(monkeypatch)
    # a program no other test of this process runs
    source = _TENANT_KERNELS[1].replace("5.0f", "11.0f")
    for _ in range(2):
        context = _context("mega", instrument=True)
        kernel = context.build_program(source).kernel("k")
        data = np.arange(64, dtype=np.float32)
        np.testing.assert_array_equal(_launch_k(context, kernel, data),
                                      data * np.float32(11.0))
    assert len(emitted) == 1


def test_equal_shapes_never_share_an_entry_and_the_table_is_bounded():
    from repro.gpu import megakernel
    from repro.gpu.megakernel import (
        MegaKernel, RegisterFile, emitted_code)
    from repro.gpu.shadercore import WorkgroupShape

    shape = WorkgroupShape((4, 1, 1), (4, 1, 1))
    first = _mov_const_program(1_000_001)
    for constant in range(1_000_001, 1_000_001 + 2 * megakernel.CODE_CACHE_SIZE):
        program = _mov_const_program(constant)
        kernel = MegaKernel(program, _WideStub(), RegisterFile(),
                            np.zeros(1, dtype=np.uint32))
        assert kernel.run_workgroup(shape, 0)[0].regs[0, 0] == constant
        assert emitted_code(program) is emitted_code(
            _mov_const_program(constant))
        assert len(megakernel._code_cache) <= megakernel.CODE_CACHE_SIZE
    assert len(megakernel._code_cache) == megakernel.CODE_CACHE_SIZE
    # the oldest went out, with its registered source text
    import linecache

    from repro.gpu.encoding import encode_program
    assert encode_program(first) not in megakernel._code_cache
    live = {code.filename for code in megakernel._code_cache.values()}
    assert {name for name in linecache.cache
            if name.startswith("<mega ")} <= live | {
                emitted_code(first).filename}


def test_code_cache_under_racing_host_threads():
    """More threads than cores, a short switch interval, every thread
    asking for the same fresh programs: each gets finished code that
    computes its own program's value, and the table keeps one entry per
    program."""
    import sys
    import threading

    from repro.gpu import megakernel
    from repro.gpu.encoding import encode_program
    from repro.gpu.megakernel import MegaKernel, RegisterFile
    from repro.gpu.shadercore import WorkgroupShape

    shape = WorkgroupShape((4, 1, 1), (4, 1, 1))
    constants = range(2_000_000, 2_000_024)
    wrong = []

    def worker():
        for constant in constants:
            kernel = MegaKernel(_mov_const_program(constant), _WideStub(),
                                RegisterFile(), np.zeros(1, dtype=np.uint32))
            got = int(kernel.run_workgroup(shape, 0)[0].regs[0, 0])
            if got != constant:
                wrong.append((constant, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    keys = [encode_program(_mov_const_program(c)) for c in constants]
    assert all(key in megakernel._code_cache for key in keys)
    assert len(megakernel._code_cache) <= megakernel.CODE_CACHE_SIZE


@pytest.mark.parametrize("limit,issued", [(100, (51, 50)), (101, (51, 51))])
def test_stuck_kernel_guard_trips_at_the_same_clause_mid_chain(
        monkeypatch, limit, issued):
    """A fused chain still counts one step per clause: the guard fires
    after clause number limit + 1, whether that is the first or the last
    clause of the two-clause chain, and the counts flushed are those of
    the clauses issued — no more."""
    from repro.errors import GuestError
    from repro.gpu import megakernel
    from repro.gpu.isa import CONST_BASE, Instruction, Op, Tail

    one = CONST_BASE
    loop = _program(
        _clause([Instruction(Op.IADD, dst=0, srca=0, srcb=one)],
                Tail.FALLTHROUGH, constants=[1]),
        _clause([Instruction(Op.IADD, dst=1, srca=1, srcb=one)],
                Tail.JUMP, constants=[1], target=0))
    assert megakernel.emitted_code(loop).chains[0][1] == 2
    monkeypatch.setattr(megakernel, "_MAX_STEPS", limit)
    stats, raised = _unit_run("mega", loop, _WideStub())
    assert isinstance(raised, GuestError) and "likely stuck" in str(raised)
    assert stats.clauses_executed == sum(issued) == limit + 1
    assert stats.arith_instrs == 4 * (limit + 1)
    # the JUMP tail of every second clause issued was taken, the last too
    assert stats.cf_instrs == 4 * issued[1]


# -- soundness of the verifier's branch-uniformity proof ------------------------


def _observe_mixed_branches(monkeypatch):
    """Observation hook local to this file: every program mega is built
    for, and every ``(program, clause)`` at which the lanes of one
    *workgroup* split at a branch (the schedulers reduce quads only when
    the lanes of the row did — and a row may hold a batch of workgroups,
    whose lanes absint never called uniform with each other's)."""
    import sys

    from repro.gpu import megakernel

    programs, mixed = [], set()
    init = megakernel.MegaKernel.__init__
    split = megakernel._split_quads

    def recording_init(self, program, *ports):
        programs.append(program)
        init(self, program, *ports)

    def recording_split(taken, not_taken):
        scheduler = sys._getframe(1).f_locals
        branch = scheduler["current" if "current" in scheduler else "pc"]
        # the scheduler's caller knows how many lanes one workgroup has
        shape = sys._getframe(2).f_locals["shape"]
        slots = np.arange(len(taken)) // (shape.warps_per_group * 4)
        if np.intersect1d(slots[taken], slots[not_taken]).size:
            mixed.add((id(scheduler["self"].program), branch))
        return split(taken, not_taken)

    monkeypatch.setattr(megakernel.MegaKernel, "__init__", recording_init)
    monkeypatch.setattr(megakernel, "_split_quads", recording_split)
    return programs, mixed


def _proved_uniform_yet_mixed(programs, mixed):
    """``(checked, offenders)``: how many branches absint proves
    workgroup-uniform over *programs*, and those mega saw split."""
    from repro.gpu.verify import VerifyContext, absint
    from repro.gpu.verify.cfg import ClauseCFG

    checked, offenders = 0, []
    for program in programs:
        proof = absint.run(program, ClauseCFG(program), VerifyContext())
        for clause, uniform in proof.cond_uniform.items():
            if uniform:
                checked += 1
                if (id(program), clause) in mixed:
                    offenders.append((program, clause))
    return checked, offenders


def test_branches_proved_uniform_are_never_seen_mixed(monkeypatch):
    """The first run-time check of PR 10's uniformity analysis, and the
    evidence a later change needs before it may *consume* the proof:
    over every shipped workload, the SLAM pipeline's stages and the
    committed conformance corpus, no branch whose condition absint calls
    workgroup-uniform ever splits the lanes of one issue on mega."""
    import os

    from repro.kernels import WORKLOADS
    from repro.slam import KFusionPipeline
    from repro.validate.corpus import dict_to_case, load_entries

    programs, mixed = _observe_mixed_branches(monkeypatch)
    for name in sorted(WORKLOADS):
        result = get_workload(name).run(
            context=_context("mega", instrument=True))
        assert result.verified, name
    KFusionPipeline("express").run_gpu(
        context=_context("mega", instrument=True))
    runner = DifferentialRunner(engines=("mega",), trace=False)
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    for _path, entry in load_entries(corpus):
        runner.run_case(dict_to_case(entry))
    assert len(programs) > len(WORKLOADS)
    assert mixed  # the hook does see the divergent kernels split
    checked, offenders = _proved_uniform_yet_mixed(programs, mixed)
    assert checked >= 10
    assert not offenders, [(clause, program.clauses[clause].cond_reg)
                           for program, clause in offenders]


def test_the_mixed_branch_hook_catches_a_wrong_proof(monkeypatch):
    """The check above is not vacuous: a lane-dependent branch is seen
    mixed, and would be an offender if the analysis called it uniform."""
    from repro.gpu.verify import absint

    programs, mixed = _observe_mixed_branches(monkeypatch)
    _run_diverge("mega", instrument=True)
    assert _proved_uniform_yet_mixed(programs, mixed)[1] == []
    real = absint.run

    def gullible(program, cfg, ctx):
        proof = real(program, cfg, ctx)
        proof.cond_uniform = dict.fromkeys(proof.cond_uniform, True)
        return proof

    monkeypatch.setattr(absint, "run", gullible)
    assert _proved_uniform_yet_mixed(programs, mixed)[1]


# -- masked <-> converged hand-over, the lean masked step, state reuse ----------


class _Schedule:
    """Observation hook local to this file: every masked step mega runs
    while it is installed, as ``(clause, lanes active, lanes of the
    row)``, and every pair of count tables a workgroup flushes."""

    def __init__(self):
        self.steps, self.flushed = [], []

    def profile(self, frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name.startswith("masked_") \
                and code.co_filename.startswith("<mega "):
            mask = frame.f_locals["mask"]
            self.steps.append((int(code.co_name[len("masked_"):]),
                               int(mask.sum()), len(mask)))

    def workgroups(self):
        """``(converged, masked)`` count tables per workgroup."""
        return list(zip(self.flushed[::2], self.flushed[1::2]))

    def full_mask_steps_at_a_head(self, program):
        from repro.gpu.megakernel import emitted_code

        heads = emitted_code(program).chains
        return [step for step in self.steps
                if step[1] == step[2] and step[0] in heads]


@pytest.fixture
def schedule(monkeypatch):
    import sys

    from repro.gpu import megakernel

    observed = _Schedule()
    count = megakernel.merge_clause_counts

    def recording_count(totals, counts):
        observed.flushed.append(dict(counts))
        count(totals, counts)

    monkeypatch.setattr(megakernel, "merge_clause_counts", recording_count)
    previous = sys.getprofile()
    sys.setprofile(observed.profile)
    yield observed
    sys.setprofile(previous)


def _assert_matches_interpreter(case):
    """Error, JobStats, MMU counters, registers and memory of *case* on
    mega equal the interpreter's; returns mega's result."""
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    results, mismatches = runner.run_case(case)
    assert not mismatches, "\n".join(str(m) for m in mismatches)
    return results["mega"]


_REJOIN_KERNELS = {
    # if/else whose sides meet again, then a loop every lane trips alike
    "rejoin-then-loop": """
__kernel void k(__global int* data, __global int* out, int n) {
    int i = get_global_id(0);
    int v = data[i];
    int acc = 0;
    if (v & 1) {
        acc = v * 3;
    } else {
        acc = v + 7;
    }
    for (int j = 0; j < n; j += 1) {
        acc += j * v;
    }
    out[i] = acc;
}
""",
    # raycast's shape: the loop is uniform, the `if` in it is not
    "if-in-loop": """
__kernel void k(__global int* data, __global int* out, int n) {
    int i = get_global_id(0);
    int v = data[i];
    int acc = 0;
    for (int j = 0; j < n; j += 1) {
        if ((v + j) & 1) {
            acc += v * j;
        }
        acc += 1;
    }
    out[i] = acc;
}
""",
}


def _rejoin_case(name, local):
    data = np.random.default_rng(3).integers(0, 64, 48).astype(np.int32)
    return make_kernel_case(
        _REJOIN_KERNELS[name], "k", (48,), (local,),
        buffers=[data, np.zeros(48, dtype=np.int32)], scalars=[5],
        name=f"mega-{name}-{local}")


@pytest.mark.parametrize("name", sorted(_REJOIN_KERNELS))
def test_lanes_that_meet_again_leave_the_masked_scheduler(schedule, name):
    """After the sides of a divergent ``if`` rejoin, the workgroup is
    back on the chain functions: the clauses after the rejoin are
    counted as converged issues, the last one included, and no masked
    step runs every lane of the row at a chain head."""
    case = _rejoin_case(name, 16)
    _assert_matches_interpreter(case)
    assert schedule.steps  # the lanes did split
    assert not schedule.full_mask_steps_at_a_head(case.program)
    last = len(case.program.clauses) - 1
    for converged, masked in schedule.workgroups():
        assert last in converged and last not in masked
        # only the sides of the `if` ever ran masked
        assert sum(issues for issues, *_ in masked.values()) \
            < sum(issues for issues, *_ in converged.values())


@pytest.mark.parametrize("name", sorted(_REJOIN_KERNELS))
def test_a_partial_last_quad_stays_masked(schedule, name):
    """Dead lanes never meet the others: a 6-thread workgroup runs every
    clause masked, as before, and still equals the interpreter."""
    case = _rejoin_case(name, 6)
    _assert_matches_interpreter(case)
    assert all(active < width for _clause, active, width in schedule.steps)
    assert all(not converged and masked
               for converged, masked in schedule.workgroups())


def test_reduction_ladder_rejoins_after_every_barrier(schedule):
    """``reduce_sum``: ``if (lid < offset)`` splits the lanes on every
    rung and the barrier behind it is where they meet again."""
    from repro.slam.kernels import REDUCE

    data = np.random.default_rng(5).random(64).astype(np.float32)
    case = make_kernel_case(
        REDUCE, "reduce_sum", (64,), (32,),
        buffers=[data, np.zeros(2, dtype=np.float32)], scalars=[60],
        local_args=[4 * 32], name="mega-reduce-ladder")
    _assert_matches_interpreter(case)
    assert schedule.steps
    assert not schedule.full_mask_steps_at_a_head(case.program)
    for converged, masked in schedule.workgroups():
        assert sum(issues for issues, *_ in masked.values()) \
            < sum(issues for issues, *_ in converged.values())


def _lane_program(*clauses):
    """Hand-assembled: r0 = lane & 1 in clause 0, then *clauses*."""
    from repro.gpu.isa import CONST_BASE, REG_LANE, Instruction, Op

    first, *rest = clauses
    slots, tail, fields = first
    slots = [Instruction(Op.IAND, dst=0, srca=REG_LANE, srcb=CONST_BASE),
             *slots]
    return _program(*[_clause(slots, tail, constants=[1], **fields)
                      for slots, tail, fields in [(slots, tail, fields),
                                                  *rest]])


def _bump(reg):
    from repro.gpu.isa import CONST_BASE, Instruction, Op

    return [Instruction(Op.IADD, dst=reg, srca=reg, srcb=CONST_BASE)]


def _unit_outcome(engine, program, lanes, budget=None):
    """What one workgroup of *program* on a bare unit raised, counted
    and retired."""
    from repro.gpu.shadercore import ComputeUnit, WorkgroupShape

    unit = ComputeUnit(engine)
    unit.prepare(64, instrument=True, watchdog_budget=budget)
    shape = WorkgroupShape((lanes, 1, 1), (lanes, 1, 1))
    try:
        warps = unit.run_workgroup(
            program, np.zeros(4, dtype=np.uint32), _WideStub(), shape, 0)
    except Exception as exc:  # compared between the engines
        return (type(exc), str(exc), vars(_job_stats(unit, program, shape)),
                None)
    return None, None, vars(_job_stats(unit, program, shape)), [
        (warp.regs[warp.live].tolist(), warp.temps[warp.live].tolist())
        for warp in warps]


def _barrier_programs():
    from repro.gpu.isa import Tail

    return {
        # odd lanes retire at once, the even ones wait at a barrier
        # nobody else will reach
        "part-retires": _lane_program(
            ([], Tail.BRANCH, {"cond_reg": 0, "target": 3}),
            (_bump(1), Tail.BARRIER, {}),
            (_bump(2), Tail.FALLTHROUGH, {}),
            (_bump(3), Tail.END, {})),
        # a barrier while converged, one per side while split (released
        # together), one more after the sides met again
        "both-phases": _lane_program(
            (_bump(1), Tail.BARRIER, {}),
            (_bump(7), Tail.BRANCH, {"cond_reg": 0, "target": 4}),
            (_bump(2), Tail.BARRIER, {}),
            (_bump(3), Tail.JUMP, {"target": 5}),
            (_bump(4), Tail.BARRIER, {}),
            (_bump(5), Tail.BARRIER, {}),
            (_bump(6), Tail.END, {})),
    }


@pytest.mark.parametrize("lanes", [8, 6])
def test_barrier_reached_by_part_of_the_lanes_while_the_rest_retire(lanes):
    program = _barrier_programs()["part-retires"]
    mega = _unit_outcome("mega", program, lanes)
    assert mega == _unit_outcome("interpreter", program, lanes)
    assert mega[0] is None and mega[2]["clauses_executed"] > 0


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5])
def test_watchdog_round_is_the_interpreters_in_both_phases(budget):
    """Rounds are counted across the hand-overs: whichever barrier
    release exhausts the budget — converged, masked, converged again —
    the timeout names the interpreter's round and flushes its counts."""
    from repro.errors import WatchdogTimeout

    program = _barrier_programs()["both-phases"]
    mega = _unit_outcome("mega", program, 8, budget)
    assert mega == _unit_outcome("interpreter", program, 8, budget)
    assert (mega[0] is WatchdogTimeout) == (budget < 4)


def test_stuck_guard_counts_across_hand_overs(monkeypatch, schedule):
    """An endless loop that splits and rejoins on every trip spends two
    converged clauses and one masked step per trip; neither count starts
    over at a hand-over, so the converged limit still trips."""
    from repro.errors import GuestError
    from repro.gpu import megakernel
    from repro.gpu.isa import Tail

    loop = _lane_program(
        ([], Tail.BRANCH, {"cond_reg": 0, "target": 2}),
        (_bump(1), Tail.FALLTHROUGH, {}),
        (_bump(2), Tail.JUMP, {"target": 0}))
    monkeypatch.setattr(megakernel, "_MAX_STEPS", 100)
    kind, message, stats, _ = _unit_outcome("mega", loop, 8)
    assert kind is GuestError and "likely stuck" in message
    (converged, masked), = schedule.workgroups()
    # clause 101, the branch of trip 51, was the last one issued
    # converged: the guard fires when the lanes come back from that
    # trip's masked step (clause 1, the even lanes of both quads)
    assert sum(issues for issues, *_ in converged.values()) == 2 * 101
    assert masked == {1: [2 * 51, 4 * 51, 0, 0]}
    assert stats["clauses_executed"] == 2 * (101 + 51)


def test_every_workgroup_starts_from_zeroed_rows():
    """The register file is reused by the next workgroup of the launch
    shape: a register and both temporaries nobody wrote read 0 in every
    workgroup although the workgroup before left values in them (hand
    assembled — the build gate rejects uninitialised reads)."""
    from repro.gpu.isa import CONST_BASE, TEMP_BASE, Instruction, Op, Tail
    from repro.gpu.shadercore import ComputeUnit, WorkgroupShape

    stale = (20, TEMP_BASE, TEMP_BASE + 1)
    program = _program(_clause(
        [Instruction(Op.MOV, dst=copy, srca=row)
         for copy, row in enumerate(stale, 5)]
        + [Instruction(Op.MOV, dst=row, srca=CONST_BASE) for row in stale],
        Tail.END, constants=[0xDEAD]))
    for engine in ("mega", "interpreter"):
        unit = ComputeUnit(engine)
        unit.prepare(64, instrument=False)
        shape = WorkgroupShape((24, 1, 1), (8, 1, 1))
        for group in range(3):
            warps = unit.run_workgroup(
                program, np.zeros(4, dtype=np.uint32), _WideStub(), shape,
                group)
            for warp in warps:
                assert not warp.regs[:, 5:8].any(), (engine, group)
                assert (warp.regs[:, 20] == 0xDEAD).all()
                assert (warp.temps == 0xDEAD).all()


def test_retired_warps_are_a_snapshot():
    """The next workgroup overwrites the register file the retired warps
    were read from; what was handed out does not change."""
    from repro.gpu.isa import REG_GROUP_FLAT
    from repro.gpu.megakernel import MegaKernel, RegisterFile
    from repro.gpu.shadercore import WorkgroupShape

    kernel = MegaKernel(_mov_const_program(9), _WideStub(),
                        RegisterFile(), np.zeros(1, dtype=np.uint32))
    shape = WorkgroupShape((16, 1, 1), (8, 1, 1))
    first = kernel.run_workgroup(shape, 0)
    before = [warp.regs.copy() for warp in first]
    second = kernel.run_workgroup(shape, 1)
    assert (second[0].regs[:, REG_GROUP_FLAT] == 1).all()
    for warp, regs in zip(first, before):
        np.testing.assert_array_equal(warp.regs, regs)
        assert (warp.regs[:, REG_GROUP_FLAT] == 0).all()
