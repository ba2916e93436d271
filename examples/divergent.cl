/* A deliberately warp-divergent kernel: even and odd lanes take different
 * paths and the loop trip count is data-dependent, so quads split and
 * reconverge. Exercises the divergence counters in the stats registry and
 * the workgroup spans in the trace:
 *
 *   python -m repro.tools trace examples/divergent.cl --limit 256
 *   python -m repro.tools stats examples/divergent.cl --golden-only
 */
__kernel void divergent(__global int* data, __global int* out) {
    int i = get_global_id(0);
    int v = data[i];
    int acc = 0;
    if (v % 2 == 0) {
        for (int j = 0; j < (v & 7); j += 1) {
            acc += j * v;
        }
    } else {
        acc = v * 3 - out[i];
    }
    out[i] = acc;
}
