"""End-to-end compiler tests: source -> binary -> full-stack execution."""

import numpy as np
import pytest

from repro.cl import Context, CommandQueue, LocalMemory

VECADD = """
__kernel void vecadd(__global float* a, __global float* b,
                     __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a[i] + b[i];
    }
}
"""

SAXPY_LOOP = """
__kernel void saxpy(__global float* x, __global float* y, float alpha, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < 4; k += 1) {
        acc = acc + x[i] * alpha;
    }
    if (i < n) {
        y[i] = y[i] + acc;
    }
}
"""

LOCAL_REVERSE = """
__kernel void reverse_tile(__global int* data, __local int* tile) {
    int lid = get_local_id(0);
    int gid = get_global_id(0);
    int lsz = get_local_size(0);
    tile[lid] = data[gid];
    barrier(1);
    data[gid] = tile[lsz - 1 - lid];
}
"""

INT_OPS = """
__kernel void intops(__global int* a, __global int* out) {
    int i = get_global_id(0);
    int v = a[i];
    out[i] = ((v * 3 + 7) % 11) ^ (v >> 2) ^ (v << 1) | (v & 13);
}
"""

WHILE_DIVERGE = """
__kernel void collatz_steps(__global uint* a, __global uint* out) {
    int i = get_global_id(0);
    uint v = a[i];
    uint steps = 0;
    while (v > 1 && steps < 64) {
        if ((v & 1) == 0) {
            v = v >> 1;
        } else {
            v = 3 * v + 1;
        }
        steps += 1;
    }
    out[i] = steps;
}
"""


@pytest.fixture(scope="module")
def context():
    return Context()


@pytest.fixture(scope="module")
def queue(context):
    return CommandQueue(context)


def test_vecadd(context, queue):
    n = 128
    rng = np.random.default_rng(7)
    a = rng.random(n, dtype=np.float32)
    b = rng.random(n, dtype=np.float32)
    buf_a = context.buffer_from_array(a)
    buf_b = context.buffer_from_array(b)
    buf_out = context.alloc_buffer(4 * n)
    kernel = context.build_program(VECADD).kernel("vecadd")
    kernel.set_args(buf_a, buf_b, buf_out, n)
    stats = queue.enqueue_nd_range(kernel, (n,), (32,)).stats
    out = queue.enqueue_read_buffer(buf_out, np.float32)
    np.testing.assert_allclose(out, a + b, rtol=1e-6)
    assert stats.threads_launched == n
    assert stats.main_mem_accesses == 3 * n


def test_saxpy_with_loop(context, queue):
    n = 64
    rng = np.random.default_rng(3)
    x = rng.random(n, dtype=np.float32)
    y = rng.random(n, dtype=np.float32)
    buf_x = context.buffer_from_array(x)
    buf_y = context.buffer_from_array(y)
    kernel = context.build_program(SAXPY_LOOP).kernel("saxpy")
    kernel.set_args(buf_x, buf_y, np.float32(1.5), n)
    queue.enqueue_nd_range(kernel, (n,), (16,))
    out = queue.enqueue_read_buffer(buf_y, np.float32)
    np.testing.assert_allclose(out, y + 4 * (x * np.float32(1.5)), rtol=1e-5)


def test_local_memory_and_barrier(context, queue):
    n = 64
    tile = 16
    data = np.arange(n, dtype=np.int32)
    buf = context.buffer_from_array(data)
    kernel = context.build_program(LOCAL_REVERSE).kernel("reverse_tile")
    kernel.set_args(buf, LocalMemory(4 * tile))
    queue.enqueue_nd_range(kernel, (n,), (tile,))
    out = queue.enqueue_read_buffer(buf, np.int32)
    expected = data.reshape(-1, tile)[:, ::-1].ravel()
    np.testing.assert_array_equal(out, expected)


def test_integer_operations(context, queue):
    n = 64
    rng = np.random.default_rng(11)
    a = rng.integers(-1000, 1000, n).astype(np.int32)
    buf_a = context.buffer_from_array(a)
    buf_out = context.alloc_buffer(4 * n)
    kernel = context.build_program(INT_OPS).kernel("intops")
    kernel.set_args(buf_a, buf_out)
    queue.enqueue_nd_range(kernel, (n,), (16,))
    out = queue.enqueue_read_buffer(buf_out, np.int32)

    v = a.astype(np.int64)
    mod = (v * 3 + 7) - np.trunc((v * 3 + 7) / 11).astype(np.int64) * 11
    expected = (
        (mod.astype(np.int32) ^ (a >> 2) ^ (a << 1)) | (a & 13)
    ).astype(np.int32)
    np.testing.assert_array_equal(out, expected)


def test_divergent_while_loop(context, queue):
    n = 32
    values = np.arange(1, n + 1, dtype=np.uint32)
    buf_in = context.buffer_from_array(values)
    buf_out = context.alloc_buffer(4 * n)
    kernel = context.build_program(WHILE_DIVERGE).kernel("collatz_steps")
    kernel.set_args(buf_in, buf_out)
    stats = queue.enqueue_nd_range(kernel, (n,), (8,)).stats
    out = queue.enqueue_read_buffer(buf_out, np.uint32)

    def collatz(v):
        steps = 0
        while v > 1 and steps < 64:
            v = v // 2 if v % 2 == 0 else 3 * v + 1
            steps += 1
        return steps

    expected = np.array([collatz(int(v)) for v in values], dtype=np.uint32)
    np.testing.assert_array_equal(out, expected)
    assert stats.divergent_branches > 0


def test_compiler_versions_all_produce_same_results(context):
    n = 64
    rng = np.random.default_rng(5)
    a = rng.random(n, dtype=np.float32)
    b = rng.random(n, dtype=np.float32)
    outputs = {}
    for version in ("5.6", "5.7", "6.0", "6.1", "6.2"):
        queue = CommandQueue(context)
        buf_a = context.buffer_from_array(a)
        buf_b = context.buffer_from_array(b)
        buf_out = context.alloc_buffer(4 * n)
        kernel = context.build_program(VECADD, version=version).kernel("vecadd")
        kernel.set_args(buf_a, buf_b, buf_out, n)
        queue.enqueue_nd_range(kernel, (n,), (16,))
        outputs[version] = queue.enqueue_read_buffer(buf_out, np.float32)
    reference = outputs["6.2"]
    for version, out in outputs.items():
        np.testing.assert_array_equal(out, reference, err_msg=version)
