#!/usr/bin/env python3
"""Quickstart: run an OpenCL-style kernel on the full simulated platform.

This walks the complete paper stack end-to-end:

1. build the simulated platform (CPU + Bifrost-like GPU + driver);
2. JIT-compile a kernel from source to a GPU binary;
3. move data through the simulated-CPU driver path;
4. launch the NDRange job through the Job Manager doorbell;
5. read back results and inspect the instrumentation.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.cl import CommandQueue, Context

KERNEL = """
__kernel void saxpy(__global float* x, __global float* y,
                    float alpha, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = alpha * x[i] + y[i];
    }
}
"""


def main():
    n = 256
    rng = np.random.default_rng(42)
    x = rng.random(n, dtype=np.float32)
    y = rng.random(n, dtype=np.float32)

    # 1. the platform: memory, bus, devices, GPU, kbase-like driver
    context = Context()
    queue = CommandQueue(context)

    # 2. vendor-style JIT compilation (choose a compiler version like the
    #    paper's Fig. 1 study: "5.6" .. "6.2")
    program = context.build_program(KERNEL, version="6.2")
    kernel = program.kernel("saxpy")

    # 3. buffers live in GPU-mapped memory; writes go through a
    #    simulated-CPU memcpy (this is the measurable CPU-side driver cost)
    buf_x = context.buffer_from_array(x)
    buf_y = context.buffer_from_array(y)

    # 4. launch: descriptor -> doorbell -> Job Manager -> shader cores;
    #    the launch returns the retired job's record, which multiplies its
    #    clause table out into statistics when they are read
    kernel.set_args(buf_x, buf_y, np.float32(2.0), n)
    stats = queue.enqueue_nd_range(kernel, (n,), (64,)).stats

    # 5. results + instrumentation
    result = queue.enqueue_read_buffer(buf_y, np.float32)
    expected = np.float32(2.0) * x + y
    assert np.allclose(result, expected), "GPU result mismatch!"
    print("saxpy OK:", n, "elements verified against NumPy")
    print()
    print("program-execution statistics (paper Section IV):")
    print(f"  threads launched   : {stats.threads_launched}")
    print(f"  warps (quads)      : {stats.warps_launched}")
    print(f"  arithmetic instrs  : {stats.arith_instrs}")
    print(f"  load/store instrs  : {stats.ls_instrs}")
    print(f"  NOPs (empty slots) : {stats.nop_instrs}")
    print(f"  control flow       : {stats.cf_instrs}")
    print(f"  clauses executed   : {stats.clauses_executed}")
    print(f"  avg clause size    : {stats.average_clause_size():.2f}")
    mix = stats.instruction_mix()
    print("  instruction mix    : "
          + ", ".join(f"{k}={100 * v:.1f}%" for k, v in mix.items()))

    system = context.platform.system_stats()
    print()
    print("system-level statistics (paper Table III):")
    print(f"  GPU pages accessed : {system.pages_accessed}")
    print(f"  ctrl reg reads     : {system.ctrl_reg_reads}")
    print(f"  ctrl reg writes    : {system.ctrl_reg_writes}")
    print(f"  interrupts         : {system.interrupts_asserted}")
    print(f"  compute jobs       : {system.compute_jobs}")
    print(f"  guest CPU instrs   : {context.guest_instructions}")


if __name__ == "__main__":
    main()
