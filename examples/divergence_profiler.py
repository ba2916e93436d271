#!/usr/bin/env python3
"""Divergence profiler: build the Fig. 6 control-flow graph for a kernel.

Runs a divergent kernel and prints (a) the DOT graph with per-edge
thread proportions, and (b) the divergence points with the fraction of
divergent warp issues — the analysis the paper uses
to pinpoint BFS's 0.4%-divergent block on actual GPU instructions.

Run: ``python examples/divergence_profiler.py``
"""

import numpy as np

from repro.cl import CommandQueue, Context

KERNEL = """
__kernel void classify(__global float* values, __global int* labels, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float v = values[i];
        int label = 0;
        if (v < 0.25f) {
            label = 1;
        } else {
            if (v < 0.5f) {
                label = 2;
            } else {
                int steps = 0;
                while (v > 0.06f) {
                    v = v * 0.5f;
                    steps += 1;
                }
                label = 3 + steps;
            }
        }
        labels[i] = label;
    }
}
"""


def main():
    context = Context()
    queue = CommandQueue(context)

    n = 256
    rng = np.random.default_rng(9)
    values = rng.random(n, dtype=np.float32)
    buf_values = context.buffer_from_array(values)
    buf_labels = context.alloc_buffer(4 * n)
    kernel = context.build_program(KERNEL).kernel("classify")
    kernel.set_args(buf_values, buf_labels, n)
    job = queue.enqueue_nd_range(kernel, (n,), (32,))

    labels = queue.enqueue_read_buffer(buf_labels, np.int32)
    print(f"classified {n} values into {len(set(labels.tolist()))} labels")
    print()

    cfg = job.cfg
    print("control-flow graph (DOT, Fig. 6 style):")
    print(cfg.to_dot())
    print()
    print("divergence points:")
    for node in sorted(cfg.divergences):
        fraction = cfg.divergence_fraction(node)
        print(f"  clause @{cfg.node_label(node)}: "
              f"{100 * fraction:.2f}% of warp issues diverged")
    nodes, _successors = cfg.graph()
    print()
    print(f"CFG: {len(nodes)} blocks, {len(cfg.edges)} edges")


if __name__ == "__main__":
    main()
