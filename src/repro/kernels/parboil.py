"""Parboil workloads (Table II)."""

import numpy as np

from repro.kernels.base import PhasedWorkload, Workload


class BFS(Workload):
    """Frontier-based breadth-first search.

    The host iterates level-by-level, reading a done-flag back after every
    launch — the workload with the paper's heaviest CPU-GPU interaction
    (Table III: ~1000 compute jobs, high control-register traffic) and the
    divergence example of Fig. 6.
    """

    name = "bfs"
    suite = "Parboil"
    paper_input = "1257001 nodes"

    source = """
    __kernel void bfs_step(__global int* rows, __global int* cols,
                           __global int* levels, __global int* done,
                           int depth) {
        int i = get_global_id(0);
        if (levels[i] == depth) {
            int start = rows[i];
            int end = rows[i + 1];
            for (int e = start; e < end; e += 1) {
                int v = cols[e];
                if (levels[v] == -1) {
                    levels[v] = depth + 1;
                    done[0] = 1;
                }
            }
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 256, "chord_every": 16}

    def prepare(self):
        """Ring graph + sparse chords: a graph with non-trivial diameter, so
        the search needs many iterations (the paper's many-jobs behaviour)."""
        n = self.params["n"]
        chord = self.params["chord_every"]
        edges = [[] for _ in range(n)]
        for i in range(n):
            edges[i].append((i + 1) % n)
        for i in range(0, n, chord):
            target = int(self.rng.integers(0, n))
            if target != i:
                edges[i].append(target)
        rows = np.zeros(n + 1, dtype=np.int32)
        cols = []
        for i, neighbours in enumerate(edges):
            rows[i + 1] = rows[i] + len(neighbours)
            cols.extend(neighbours)
        return {"rows": rows, "cols": np.array(cols, dtype=np.int32), "src": 0}

    def execute(self, context, queue, inputs, version=None):
        rows, cols, src = inputs["rows"], inputs["cols"], inputs["src"]
        n = len(rows) - 1
        levels = np.full(n, -1, dtype=np.int32)
        levels[src] = 0
        buf_rows = context.buffer_from_array(rows)
        buf_cols = context.buffer_from_array(cols)
        buf_levels = context.buffer_from_array(levels)
        buf_done = context.buffer_from_array(np.zeros(1, dtype=np.int32))
        kernel = context.build_program(self.source, version=version) \
            .kernel("bfs_step")
        depth = 0
        while depth < n:
            queue.enqueue_write_buffer(buf_done, np.zeros(1, dtype=np.int32))
            kernel.set_args(buf_rows, buf_cols, buf_levels, buf_done, depth)
            queue.enqueue_nd_range(kernel, (n,), (min(64, n),))
            done = queue.enqueue_read_buffer(buf_done, np.int32)
            if done[0] == 0:
                break
            depth += 1
        return [queue.enqueue_read_buffer(buf_levels, np.int32)]

    def reference(self, inputs):
        rows, cols, src = inputs["rows"], inputs["cols"], inputs["src"]
        n = len(rows) - 1
        levels = np.full(n, -1, dtype=np.int32)
        levels[src] = 0
        frontier = [src]
        depth = 0
        while frontier:
            next_frontier = []
            for u in frontier:
                for e in range(rows[u], rows[u + 1]):
                    v = cols[e]
                    if levels[v] == -1:
                        levels[v] = depth + 1
                        next_frontier.append(v)
            frontier = next_frontier
            depth += 1
        return [levels]


class Cutcp(Workload):
    """Cutoff-limited Coulombic potential on a 3D grid."""

    name = "cutcp"
    suite = "Parboil"
    paper_input = "67 atoms"

    source = """
    __kernel void cutcp(__global float* atoms, __global float* grid,
                        int natoms, int nx, int ny, float spacing,
                        float cutoff2) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        int z = get_global_id(2);
        float px = (float)x * spacing;
        float py = (float)y * spacing;
        float pz = (float)z * spacing;
        float pot = 0.0f;
        for (int a = 0; a < natoms; a += 1) {
            float dx = atoms[4 * a] - px;
            float dy = atoms[4 * a + 1] - py;
            float dz = atoms[4 * a + 2] - pz;
            float q = atoms[4 * a + 3];
            float r2 = dx * dx + dy * dy + dz * dz;
            if (r2 < cutoff2 && r2 > 0.000001f) {
                float s = 1.0f - r2 / cutoff2;
                pot += q * rsqrt(r2) * s * s;
            }
        }
        grid[(z * ny + y) * nx + x] = pot;
    }
    """

    @staticmethod
    def default_params():
        return {"natoms": 32, "nx": 16, "ny": 16, "nz": 4,
                "spacing": 0.5, "cutoff": 3.0}

    def prepare(self):
        p = self.params
        box = (p["nx"] * p["spacing"], p["ny"] * p["spacing"],
               p["nz"] * p["spacing"])
        atoms = np.zeros((p["natoms"], 4), dtype=np.float32)
        atoms[:, 0] = self.rng.random(p["natoms"]) * box[0]
        atoms[:, 1] = self.rng.random(p["natoms"]) * box[1]
        atoms[:, 2] = self.rng.random(p["natoms"]) * box[2]
        atoms[:, 3] = (self.rng.random(p["natoms"]) * 2 - 1).astype(np.float32)
        return {"atoms": atoms}

    def execute(self, context, queue, inputs, version=None):
        p = self.params
        atoms = inputs["atoms"]
        nx, ny, nz = p["nx"], p["ny"], p["nz"]
        buf_atoms = context.buffer_from_array(atoms)
        buf_grid = context.alloc_buffer(4 * nx * ny * nz)
        kernel = context.build_program(self.source, version=version) \
            .kernel("cutcp")
        kernel.set_args(buf_atoms, buf_grid, len(atoms), nx, ny,
                        np.float32(p["spacing"]),
                        np.float32(p["cutoff"] ** 2))
        queue.enqueue_nd_range(kernel, (nx, ny, nz), (min(8, nx), min(4, ny), 1))
        out = queue.enqueue_read_buffer(buf_grid, np.float32)
        return [out.reshape(nz, ny, nx)]

    def reference(self, inputs):
        p = self.params
        atoms = inputs["atoms"].astype(np.float64)
        nx, ny, nz = p["nx"], p["ny"], p["nz"]
        spacing = p["spacing"]
        cutoff2 = p["cutoff"] ** 2
        zs, ys, xs = np.meshgrid(
            np.arange(nz) * spacing, np.arange(ny) * spacing,
            np.arange(nx) * spacing, indexing="ij",
        )
        grid = np.zeros((nz, ny, nx))
        for ax, ay, az, q in atoms:
            r2 = (ax - xs) ** 2 + (ay - ys) ** 2 + (az - zs) ** 2
            mask = (r2 < cutoff2) & (r2 > 1e-6)
            s = 1.0 - r2 / cutoff2
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = q / np.sqrt(r2) * s * s
            grid += np.where(mask, contrib, 0.0)
        return [grid.astype(np.float32)]

    def check(self, outputs, expected):
        return np.allclose(outputs[0], expected[0], rtol=5e-3, atol=5e-4)


class Sgemm(PhasedWorkload):
    """Parboil SGEMM: C = alpha * A @ B + beta * C (naive kernel)."""

    name = "sgemm"
    suite = "Parboil"
    paper_input = "128x96, 96x160 matrices"
    beta = 0.5

    source = """
    __kernel void sgemm(__global float* a, __global float* b,
                        __global float* c, int m, int n, int k,
                        float alpha, float beta) {
        int col = get_global_id(0);
        int row = get_global_id(1);
        float acc = 0.0f;
        for (int i = 0; i < k; i += 1) {
            acc += a[row * k + i] * b[i * n + col];
        }
        c[row * n + col] = alpha * acc + beta * c[row * n + col];
    }
    """

    @staticmethod
    def default_params():
        return {"m": 32, "k": 24, "n": 40}

    def prepare(self):
        p = self.params
        return {
            "a": self.rng.random((p["m"], p["k"]), dtype=np.float32),
            "b": self.rng.random((p["k"], p["n"]), dtype=np.float32),
            "c": self.rng.random((p["m"], p["n"]), dtype=np.float32),
        }

    def setup(self, context, queue, inputs, version=None):
        p = self.params
        buf_a = context.buffer_from_array(inputs["a"])
        buf_b = context.buffer_from_array(inputs["b"])
        buf_c = context.buffer_from_array(inputs["c"])
        kernel = context.build_program(self.source, version=version) \
            .kernel("sgemm")
        kernel.set_args(buf_a, buf_b, buf_c, p["m"], p["n"], p["k"],
                        np.float32(1.0), np.float32(self.beta))
        return {"kernel": kernel, "out": buf_c}

    def geometry(self):
        return (self.params["n"], self.params["m"]), (8, 8)

    def collect(self, queue, state):
        out = queue.enqueue_read_buffer(state["out"], np.float32)
        return [out.reshape(self.params["m"], self.params["n"])]

    def reference(self, inputs):
        return [(inputs["a"] @ inputs["b"] + self.beta * inputs["c"])
                .astype(np.float32)]


class Spmv(Workload):
    """CSR sparse matrix-vector multiply: one thread per row (irregular
    row lengths drive divergence)."""

    name = "spmv"
    suite = "Parboil"
    paper_input = "1138x1138, 2596 nnz"

    source = """
    __kernel void spmv(__global int* row_ptr, __global int* col_idx,
                       __global float* values, __global float* x,
                       __global float* y) {
        int row = get_global_id(0);
        int start = row_ptr[row];
        int end = row_ptr[row + 1];
        float acc = 0.0f;
        for (int e = start; e < end; e += 1) {
            acc += values[e] * x[col_idx[e]];
        }
        y[row] = acc;
    }
    """

    @staticmethod
    def default_params():
        return {"n": 128, "avg_nnz": 8}

    def prepare(self):
        n = self.params["n"]
        avg = self.params["avg_nnz"]
        row_ptr = np.zeros(n + 1, dtype=np.int32)
        col_idx = []
        values = []
        for i in range(n):
            nnz = int(self.rng.integers(1, 2 * avg))
            cols = np.unique(self.rng.integers(0, n, nnz))
            row_ptr[i + 1] = row_ptr[i] + len(cols)
            col_idx.extend(cols.tolist())
            values.extend(self.rng.random(len(cols)).astype(np.float32).tolist())
        return {
            "row_ptr": row_ptr,
            "col_idx": np.array(col_idx, dtype=np.int32),
            "values": np.array(values, dtype=np.float32),
            "x": self.rng.random(n, dtype=np.float32),
        }

    def execute(self, context, queue, inputs, version=None):
        n = self.params["n"]
        buf_rows = context.buffer_from_array(inputs["row_ptr"])
        buf_cols = context.buffer_from_array(inputs["col_idx"])
        buf_vals = context.buffer_from_array(inputs["values"])
        buf_x = context.buffer_from_array(inputs["x"])
        buf_y = context.alloc_buffer(4 * n)
        kernel = context.build_program(self.source, version=version) \
            .kernel("spmv")
        kernel.set_args(buf_rows, buf_cols, buf_vals, buf_x, buf_y)
        queue.enqueue_nd_range(kernel, (n,), (min(32, n),))
        return [queue.enqueue_read_buffer(buf_y, np.float32)]

    def reference(self, inputs):
        n = self.params["n"]
        y = np.zeros(n, dtype=np.float32)
        row_ptr, col_idx = inputs["row_ptr"], inputs["col_idx"]
        values, x = inputs["values"], inputs["x"]
        for i in range(n):
            sl = slice(row_ptr[i], row_ptr[i + 1])
            y[i] = np.dot(values[sl].astype(np.float64),
                          x[col_idx[sl]].astype(np.float64))
        return [y]


class Stencil(Workload):
    """7-point 3D Jacobi stencil, iterated with ping-pong buffers — the
    paper's many-jobs, many-pages workload (Table III: 100 jobs)."""

    name = "stencil"
    suite = "Parboil"
    paper_input = "128x128x32, 100 iterations"

    source = """
    __kernel void stencil7(__global float* in_grid, __global float* out_grid,
                           int nx, int ny, int nz, float c0, float c1) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        int z = get_global_id(2);
        int idx = (z * ny + y) * nx + x;
        if (x > 0 && x < nx - 1 && y > 0 && y < ny - 1
                && z > 0 && z < nz - 1) {
            float acc = in_grid[idx - 1] + in_grid[idx + 1]
                      + in_grid[idx - nx] + in_grid[idx + nx]
                      + in_grid[idx - nx * ny] + in_grid[idx + nx * ny];
            out_grid[idx] = c0 * in_grid[idx] + c1 * acc;
        } else {
            out_grid[idx] = in_grid[idx];
        }
    }
    """

    @staticmethod
    def default_params():
        return {"nx": 16, "ny": 16, "nz": 8, "iterations": 10,
                "c0": 0.5, "c1": 0.08}

    def prepare(self):
        p = self.params
        grid = self.rng.random((p["nz"], p["ny"], p["nx"])).astype(np.float32)
        return {"grid": grid}

    def execute(self, context, queue, inputs, version=None):
        p = self.params
        grid = inputs["grid"]
        nx, ny, nz = p["nx"], p["ny"], p["nz"]
        buf_a = context.buffer_from_array(grid)
        buf_b = context.buffer_from_array(grid)
        kernel = context.build_program(self.source, version=version) \
            .kernel("stencil7")
        src, dst = buf_a, buf_b
        for _ in range(p["iterations"]):
            kernel.set_args(src, dst, nx, ny, nz,
                            np.float32(p["c0"]), np.float32(p["c1"]))
            queue.enqueue_nd_range(kernel, (nx, ny, nz),
                                   (min(8, nx), min(4, ny), 1))
            src, dst = dst, src
        out = queue.enqueue_read_buffer(src, np.float32)
        return [out.reshape(nz, ny, nx)]

    def reference(self, inputs):
        p = self.params
        c0, c1 = np.float32(p["c0"]), np.float32(p["c1"])
        grid = inputs["grid"].astype(np.float32).copy()
        for _ in range(p["iterations"]):
            out = grid.copy()
            acc = (
                grid[1:-1, 1:-1, :-2] + grid[1:-1, 1:-1, 2:]
                + grid[1:-1, :-2, 1:-1] + grid[1:-1, 2:, 1:-1]
                + grid[:-2, 1:-1, 1:-1] + grid[2:, 1:-1, 1:-1]
            )
            out[1:-1, 1:-1, 1:-1] = c0 * grid[1:-1, 1:-1, 1:-1] + c1 * acc
            grid = out
        return [grid]

    def check(self, outputs, expected):
        return np.allclose(outputs[0], expected[0], rtol=1e-3, atol=1e-4)
