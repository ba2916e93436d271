"""Atomic-operation tests across the compiler and the engines (on mega,
an ATOM program runs on the interpreter)."""

import numpy as np
import pytest

from repro.cl import CommandQueue, Context, LocalMemory
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.validate import trace_kernel_both

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


def _context(engine="interpreter"):
    return Context(MobilePlatform(PlatformConfig(gpu=GPUConfig(engine=engine))))


@pytest.mark.parametrize("engine", ["interpreter", "mega"])
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


def test_atomic_program_on_mega_runs_on_the_interpreter():
    """Mega has no workgroup-wide form of ATOM: such a program is
    statically ineligible, the verdict is cached like a translation, and
    every job of it runs on the quad interpreter with identical results
    and golden statistics."""
    interp_bins, _, interp_golden = _histogram_on("interpreter")
    mega_bins, mega, mega_golden = _histogram_on("mega")
    np.testing.assert_array_equal(mega_bins, [32, 32, 32, 32])
    np.testing.assert_array_equal(mega_bins, interp_bins)
    assert mega["gpu.jobmanager.kernel_translations"] == 0
    assert mega["gpu.jobmanager.batches_run"] == 0
    assert mega_golden == interp_golden


def test_mixed_atomics_semantics():
    context = _context()
    queue = CommandQueue(context)
    n = 32
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


def test_atomic_trace_identical_across_engines():
    """Sequential lane order makes atomics deterministic: the quad and
    scalar engines must agree on every returned old value."""
    n = 16
    values = np.arange(n, dtype=np.int32)
    bins = np.zeros(4, dtype=np.int32)
    mismatches, quad, _scalar, outputs = trace_kernel_both(
        HISTOGRAM, "histogram", (n,), (4,), [values, bins], scalars=[4],
    )
    assert mismatches == [], "\n".join(map(str, mismatches))
    np.testing.assert_array_equal(outputs[1], [4, 4, 4, 4])


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
    context = _context()
    queue = CommandQueue(context)
    n = 32
    values = np.zeros(n, dtype=np.int32)
    bins = np.zeros(4, dtype=np.int32)
    buf_v = context.buffer_from_array(values)
    buf_b = context.buffer_from_array(bins)
    kernel = context.build_program(HISTOGRAM).kernel("histogram")
    kernel.set_args(buf_v, buf_b, 4)
    stats = queue.enqueue_nd_range(kernel, (n,), (8,))
    # one atomic + one load per thread; the atomic is an RMW (2 accesses)
    assert stats.ls_global_instrs == 2 * n
    assert stats.main_mem_accesses == 3 * n
