"""Atomic-operation tests across the compiler and the engines. Every
kernel runs on both platform engines; mega runs ATOM programs itself,
warp-serially, and must give the interpreter's old values, memory,
statistics, CFG and instruction trace."""

import numpy as np
import pytest

from repro.cl import CommandQueue, Context, LocalMemory
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.gpu.isa import Op
from repro.gpu.warp import ClauseInterpreter
from repro.validate import trace_kernel_both
from repro.validate.progen import ProgramGenerator
from repro.validate.runner import (
    DifferentialRunner,
    generated_case_to_diff,
    make_kernel_case,
)

ENGINES = ("interpreter", "mega")

HISTOGRAM = """
__kernel void histogram(__global int* values, __global int* bins, int nbins) {
    int i = get_global_id(0);
    int bin = values[i] % nbins;
    atomic_add(&bins[bin], 1);
}
"""

GLOBAL_MAX = """
__kernel void global_max(__global int* values, __global int* result) {
    int i = get_global_id(0);
    atomic_max(&result[0], values[i]);
}
"""

LOCAL_COUNTER = """
__kernel void group_counts(__global int* tickets, __global int* totals,
                           __local int* counter) {
    int lid = get_local_id(0);
    if (lid == 0) {
        counter[0] = 0;
    }
    barrier(1);
    int ticket = atomic_inc(&counter[0]);
    tickets[get_global_id(0)] = ticket;
    barrier(1);
    if (lid == 0) {
        totals[get_group_id(0)] = counter[0];
    }
}
"""

MIXED_ATOMICS = """
__kernel void mixed(__global int* cells) {
    int i = get_global_id(0);
    atomic_add(&cells[0], i);
    atomic_or(&cells[1], 1 << (i & 31));
    atomic_min(&cells[2], 0 - i);
    atomic_xchg(&cells[3 + i], i * 10);
}
"""


# a counter every thread of two groups of four warps bumps, twice per phase,
# with a barrier between the phases: the interpreter's order (one warp to
# the barrier, then the next; one group after the other) hands out
# tickets the clause-lockstep order of a whole group or batch would not
SHARED_COUNTER = """
__kernel void shared_counter(__global int* tickets, __global int* counter,
                             int n) {
    int i = get_global_id(0);
    for (int phase = 0; phase < 2; phase += 1) {
        for (int t = 0; t < 2; t += 1) {
            tickets[(phase * 2 + t) * n + i] = atomic_add(&counter[0], 1);
        }
        barrier(1);
    }
}
"""


def _context(engine="interpreter"):
    return Context(MobilePlatform(PlatformConfig(gpu=GPUConfig(engine=engine))))


def _mega_translated(context):
    """True unless *context* is a mega platform whose unit runs another
    engine."""
    return context.platform.gpu.config.engine != "mega" \
        or context.platform.gpu.job_manager.unit.engine == "mega"


@pytest.mark.parametrize("engine", list(ENGINES))
class TestAtomicsOnBothEngines:
    def test_histogram(self, engine):
        context = _context(engine)
        queue = CommandQueue(context)
        n, nbins = 256, 8
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1000, n).astype(np.int32)
        buf_values = context.buffer_from_array(values)
        buf_bins = context.buffer_from_array(np.zeros(nbins, dtype=np.int32))
        kernel = context.build_program(HISTOGRAM).kernel("histogram")
        kernel.set_args(buf_values, buf_bins, nbins)
        queue.enqueue_nd_range(kernel, (n,), (32,))
        bins = queue.enqueue_read_buffer(buf_bins, np.int32)
        expected = np.bincount(values % nbins, minlength=nbins)
        np.testing.assert_array_equal(bins, expected)
        assert _mega_translated(context)

    def test_global_max(self, engine):
        context = _context(engine)
        queue = CommandQueue(context)
        n = 128
        rng = np.random.default_rng(9)
        values = rng.integers(-1000, 1000, n).astype(np.int32)
        buf_values = context.buffer_from_array(values)
        buf_result = context.buffer_from_array(
            np.array([-2**31], dtype=np.int32))
        kernel = context.build_program(GLOBAL_MAX).kernel("global_max")
        kernel.set_args(buf_values, buf_result)
        queue.enqueue_nd_range(kernel, (n,), (16,))
        result = queue.enqueue_read_buffer(buf_result, np.int32)
        assert result[0] == values.max()
        assert _mega_translated(context)

    def test_local_atomic_tickets(self, engine):
        context = _context(engine)
        queue = CommandQueue(context)
        n, group = 64, 16
        buf_tickets = context.buffer_from_array(np.zeros(n, dtype=np.int32))
        buf_totals = context.buffer_from_array(
            np.zeros(n // group, dtype=np.int32))
        kernel = context.build_program(LOCAL_COUNTER).kernel("group_counts")
        kernel.set_args(buf_tickets, buf_totals, LocalMemory(4))
        queue.enqueue_nd_range(kernel, (n,), (group,))
        tickets = queue.enqueue_read_buffer(buf_tickets, np.int32)
        totals = queue.enqueue_read_buffer(buf_totals, np.int32)
        # every thread in a group got a unique ticket 0..group-1
        for g in range(n // group):
            chunk = sorted(tickets[g * group:(g + 1) * group].tolist())
            assert chunk == list(range(group))
        np.testing.assert_array_equal(totals, group)
        assert _mega_translated(context)


def _histogram_on(engine):
    context = _context(engine)
    queue = CommandQueue(context)
    values = np.arange(64, dtype=np.int32)
    buf_values = context.buffer_from_array(values)
    buf_bins = context.buffer_from_array(np.zeros(4, dtype=np.int32))
    kernel = context.build_program(HISTOGRAM).kernel("histogram")
    kernel.set_args(buf_values, buf_bins, 4)
    for _ in range(2):
        queue.enqueue_nd_range(kernel, (64,), (16,))
    registry = context.platform.stats_registry
    return (queue.enqueue_read_buffer(buf_bins, np.int32),
            registry.snapshot(), registry.snapshot(golden_only=True))


def test_atomic_program_runs_on_mega():
    """An ATOM program is translated like any other and never batched;
    every job of it gives the interpreter's results and golden
    statistics."""
    interp_bins, _, interp_golden = _histogram_on("interpreter")
    mega_bins, mega, mega_golden = _histogram_on("mega")
    np.testing.assert_array_equal(mega_bins, [32, 32, 32, 32])
    np.testing.assert_array_equal(mega_bins, interp_bins)
    assert mega["gpu.jobmanager.batches_run"] == 0
    assert mega_golden == interp_golden


def _refuse(*_args, **_kwargs):
    raise AssertionError("the interpreter was built")


@pytest.mark.parametrize("engine", list(ENGINES))
def test_shared_counter_old_values_follow_the_warp_order(engine,
                                                         monkeypatch):
    """A loop, several warps, a barrier and two groups: each ATOM issue
    hands its lanes consecutive tickets, a warp runs to the barrier before
    the next starts, and a group finishes before the next."""
    if engine == "mega":
        monkeypatch.setattr(ClauseInterpreter, "__init__", _refuse)
    context = _context(engine)
    queue = CommandQueue(context)
    n, group = 32, 16
    buf_tickets = context.buffer_from_array(np.zeros(4 * n, np.int32))
    buf_counter = context.buffer_from_array(np.zeros(1, np.int32))
    kernel = context.build_program(SHARED_COUNTER).kernel("shared_counter")
    kernel.set_args(buf_tickets, buf_counter, n)
    queue.enqueue_nd_range(kernel, (n,), (group,))
    tickets = queue.enqueue_read_buffer(buf_tickets, np.int32)
    i = np.arange(n)
    g, w, lane = i // group, (i % group) // 4, i % 4
    for phase in range(2):
        for t in range(2):
            expected = (g * 4 * group + phase * 2 * group + w * 8 + t * 4
                        + lane)
            np.testing.assert_array_equal(
                tickets[(phase * 2 + t) * n:(phase * 2 + t + 1) * n],
                expected, err_msg=f"phase {phase} trip {t}")
    assert queue.enqueue_read_buffer(buf_counter, np.int32)[0] == 4 * n
    assert _mega_translated(context)


def _atom_cases(count):
    """The first *count* generated programs (seeds 0 up) with an ATOM."""
    cases = []
    seed = 0
    while len(cases) < count:
        generator = ProgramGenerator(seed)
        for _ in range(5):
            case = generator.generate()
            if any(instr.op is Op.ATOM for clause in case.program.clauses
                   for instr in clause.active_slots()):
                cases.append(generated_case_to_diff(case))
        seed += 1
    return cases[:count]


@pytest.mark.parametrize("index", range(6))
def test_generated_atom_programs_run_on_mega(index, monkeypatch):
    """Registers, memory, golden stats, CFG and trace of an ATOM-bearing
    generated program on mega, with the interpreter unbuildable, against
    the interpreter's and the scalar baseline's."""
    case = _atom_cases(index + 1)[index]
    with monkeypatch.context() as patch:
        patch.setattr(ClauseInterpreter, "__init__", _refuse)
        mega, mismatches = DifferentialRunner(("mega", "m2s")).run_case(case)
    assert mismatches == [], "\n".join(map(str, mismatches))
    interp, mismatches = DifferentialRunner(("interp", "m2s")).run_case(case)
    assert mismatches == [], "\n".join(map(str, mismatches))
    assert mega["mega"].trace.total_events > 0
    three = {**interp, "mega": mega["mega"]}
    assert DifferentialRunner(("interp", "mega", "m2s")).compare(three) == []


def test_mixed_atomics_semantics():
    n = 32
    for engine in ENGINES:
        context = _context(engine)
        queue = CommandQueue(context)
        cells = np.zeros(3 + n, dtype=np.int32)
        cells[2] = 100
        buffer = context.buffer_from_array(cells)
        kernel = context.build_program(MIXED_ATOMICS).kernel("mixed")
        kernel.set_args(buffer)
        queue.enqueue_nd_range(kernel, (n,), (8,))
        out = queue.enqueue_read_buffer(buffer, np.int32)
        assert out[0] == sum(range(n))
        assert out[1] == (2**n - 1) & 0xFFFFFFFF - 0 if n < 32 else -1
        assert out[2] == -(n - 1)
        np.testing.assert_array_equal(out[3:], np.arange(n) * 10)
        assert _mega_translated(context)


def test_atomic_trace_identical_across_engines():
    """Sequential lane order makes atomics deterministic: the quad, mega
    and scalar engines must agree on every returned old value."""
    n = 16
    values = np.arange(n, dtype=np.int32)
    bins = np.zeros(4, dtype=np.int32)
    mismatches, quad, _scalar, outputs = trace_kernel_both(
        HISTOGRAM, "histogram", (n,), (4,), [values, bins], scalars=[4],
    )
    assert mismatches == [], "\n".join(map(str, mismatches))
    np.testing.assert_array_equal(outputs[1], [4, 4, 4, 4])
    for source, name, sizes, buffers, scalars in (
            (HISTOGRAM, "histogram", ((n,), (4,)), [values, bins], [4]),
            (MIXED_ATOMICS, "mixed", ((16,), (8,)),
             [np.zeros(19, np.int32)], [])):
        case = make_kernel_case(source, name, *sizes, buffers, scalars)
        results, mismatches = DifferentialRunner().run_case(case)
        assert mismatches == [], "\n".join(map(str, mismatches))
        assert results["mega"].trace.total_events > 0


def test_atomic_errors():
    from repro.errors import CompileError
    from repro.clc import compile_source

    with pytest.raises(CompileError):
        compile_source("""
        __kernel void k(__global float* p) { atomic_add(&p[0], 1); }
        """)  # float pointer
    with pytest.raises(CompileError):
        compile_source("""
        __kernel void k(__global int* p, int x) { atomic_add(x, 1); }
        """)  # not a pointer
    with pytest.raises(CompileError):
        compile_source("""
        __kernel void k(__global int* p) {
            int a[2];
            a[0] = 0;
            atomic_add(&a[0], 1);
            p[0] = a[0];
        }
        """)  # register array has no address


def test_atomic_stats_counted():
    n = 32
    for engine in ENGINES:
        context = _context(engine)
        queue = CommandQueue(context)
        values = np.zeros(n, dtype=np.int32)
        bins = np.zeros(4, dtype=np.int32)
        buf_v = context.buffer_from_array(values)
        buf_b = context.buffer_from_array(bins)
        kernel = context.build_program(HISTOGRAM).kernel("histogram")
        kernel.set_args(buf_v, buf_b, 4)
        stats = queue.enqueue_nd_range(kernel, (n,), (8,)).stats
        # one atomic + one load per thread; the atomic is an RMW (2
        # accesses)
        assert stats.ls_global_instrs == 2 * n
        assert stats.main_mem_accesses == 3 * n
        assert _mega_translated(context)
