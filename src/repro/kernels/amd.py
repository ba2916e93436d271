"""AMD APP SDK 2.5 workloads (Table II).

Default sizes are scaled down from the paper's inputs (a pure-Python
functional simulator is orders of magnitude slower than the C++ original);
every workload accepts size parameters to scale back up.
"""

import numpy as np

from repro.cl import LocalMemory
from repro.kernels.base import Workload


class BinarySearch(Workload):
    """Iterative device-side binary search: one bisection step per kernel
    launch, so the workload is short kernels with heavy CPU interaction —
    exactly why the paper's Fig. 10 finds it flat across host threads."""

    name = "BinarySearch"
    suite = "AMD APP 2.5"
    paper_input = "16777216 elements"

    source = """
    __kernel void bsearch_step(__global float* sorted_data, __global int* lo,
                               __global int* hi, __global float* keys) {
        int i = get_global_id(0);
        int l = lo[i];
        int h = hi[i];
        if (l < h) {
            int mid = (l + h) >> 1;
            if (keys[i] > sorted_data[mid]) {
                lo[i] = mid + 1;
            } else {
                hi[i] = mid;
            }
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 4096, "keys": 256}

    def prepare(self):
        n = self.params["n"]
        data = np.sort(self.rng.random(n, dtype=np.float32))
        keys = data[self.rng.integers(0, n, self.params["keys"])]
        return {"data": data, "keys": keys}

    def execute(self, context, queue, inputs, version=None):
        data, keys = inputs["data"], inputs["keys"]
        k = len(keys)
        buf_data = context.buffer_from_array(data)
        buf_keys = context.buffer_from_array(keys)
        buf_lo = context.buffer_from_array(np.zeros(k, dtype=np.int32))
        buf_hi = context.buffer_from_array(np.full(k, len(data), dtype=np.int32))
        kernel = context.build_program(self.source, version=version) \
            .kernel("bsearch_step")
        kernel.set_args(buf_data, buf_lo, buf_hi, buf_keys)
        steps = int(np.ceil(np.log2(len(data)))) + 1
        for _ in range(steps):
            queue.enqueue_nd_range(kernel, (k,), (min(64, k),))
        return [queue.enqueue_read_buffer(buf_lo, np.int32)]

    def reference(self, inputs):
        return [np.searchsorted(inputs["data"], inputs["keys"], "left")
                .astype(np.int32)]


class BinomialOption(Workload):
    """Binomial option pricing: one workgroup per option, local-memory
    backward induction with barriers each step."""

    name = "BinomialOption"
    suite = "AMD APP 2.5"
    paper_input = "512 samples"

    source = """
    __kernel void binomial(__global float* spot, __global float* out,
                           __local float* values, int steps) {
        int lid = get_local_id(0);
        int opt = get_group_id(0);
        float s = spot[opt];
        float strike = 100.0f;
        float fsteps = (float)steps;
        float vdt = 0.30f * sqrt(1.0f / fsteps);
        float u = exp(vdt);
        float d = exp(0.0f - vdt);
        float r = exp(0.02f / fsteps);
        float p = (r - d) / (u - d);
        float disc = 1.0f / r;
        float leaf = s * exp(vdt * (float)(2 * lid - steps));
        values[lid] = fmax(leaf - strike, 0.0f);
        barrier(1);
        for (int j = steps; j > 0; j -= 1) {
            if (lid < j) {
                values[lid] = (p * values[lid + 1]
                               + (1.0f - p) * values[lid]) * disc;
            }
            barrier(1);
        }
        if (lid == 0) {
            out[opt] = values[0];
        }
    }
    """

    @staticmethod
    def default_params():
        return {"options": 16, "steps": 15}

    def prepare(self):
        options = self.params["options"]
        spot = (80.0 + 40.0 * self.rng.random(options)).astype(np.float32)
        return {"spot": spot}

    def execute(self, context, queue, inputs, version=None):
        spot = inputs["spot"]
        steps = self.params["steps"]
        group = steps + 1
        buf_spot = context.buffer_from_array(spot)
        buf_out = context.alloc_buffer(4 * len(spot))
        kernel = context.build_program(self.source, version=version) \
            .kernel("binomial")
        kernel.set_args(buf_spot, buf_out, LocalMemory(4 * (group + 1)), steps)
        queue.enqueue_nd_range(kernel, (len(spot) * group,), (group,))
        return [queue.enqueue_read_buffer(buf_out, np.float32)]

    def reference(self, inputs):
        steps = self.params["steps"]
        spot = inputs["spot"].astype(np.float32)
        fsteps = np.float32(steps)
        vdt = np.float32(0.30) * np.sqrt(np.float32(1.0) / fsteps)
        u = np.exp(vdt, dtype=np.float32)
        d = np.exp(-vdt, dtype=np.float32)
        r = np.exp(np.float32(0.02) / fsteps, dtype=np.float32)
        p = (r - d) / (u - d)
        disc = np.float32(1.0) / r
        lid = np.arange(steps + 1, dtype=np.float32)
        prices = []
        for s in spot:
            leaf = s * np.exp(vdt * (2 * lid - steps), dtype=np.float32)
            values = np.maximum(leaf - np.float32(100.0), np.float32(0.0))
            for j in range(steps, 0, -1):
                values[:j] = (p * values[1:j + 1] + (1 - p) * values[:j]) * disc
            prices.append(values[0])
        return [np.array(prices, dtype=np.float32)]


class BitonicSort(Workload):
    """Bitonic sorting network: one kernel launch per (stage, pass)."""

    name = "BitonicSort"
    suite = "AMD APP 2.5"
    paper_input = "2048 elements"

    source = """
    __kernel void bitonic_step(__global uint* data, uint j, uint k) {
        uint i = get_global_id(0);
        uint partner = i ^ j;
        if (partner > i) {
            uint a = data[i];
            uint b = data[partner];
            uint ascending = ((i & k) == 0u) ? 1u : 0u;
            if ((ascending == 1u && a > b) || (ascending == 0u && a < b)) {
                data[i] = b;
                data[partner] = a;
            }
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 512}

    def prepare(self):
        n = self.params["n"]
        if n & (n - 1):
            raise ValueError("BitonicSort size must be a power of two")
        return {"data": self.rng.integers(0, 2**31, n).astype(np.uint32)}

    def execute(self, context, queue, inputs, version=None):
        data = inputs["data"]
        n = len(data)
        buf = context.buffer_from_array(data)
        kernel = context.build_program(self.source, version=version) \
            .kernel("bitonic_step")
        k = 2
        while k <= n:
            j = k >> 1
            while j > 0:
                kernel.set_args(buf, np.uint32(j), np.uint32(k))
                queue.enqueue_nd_range(kernel, (n,), (min(64, n),))
                j >>= 1
            k <<= 1
        return [queue.enqueue_read_buffer(buf, np.uint32)]

    def reference(self, inputs):
        return [np.sort(inputs["data"])]


class DCT(Workload):
    """8x8 block discrete cosine transform over an image."""

    name = "DCT"
    suite = "AMD APP 2.5"
    paper_input = "10000x1000 matrix"

    source = """
    __kernel void dct8x8(__global float* in_image, __global float* out_image,
                         int width) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        int bx = (x >> 3) << 3;
        int by = (y >> 3) << 3;
        int u = x & 7;
        int v = y & 7;
        float pi = 3.14159265358979f;
        float sum = 0.0f;
        for (int i = 0; i < 8; i += 1) {
            for (int j = 0; j < 8; j += 1) {
                float pix = in_image[(by + i) * width + bx + j];
                float ci = cos((2.0f * (float)i + 1.0f) * (float)v * pi / 16.0f);
                float cj = cos((2.0f * (float)j + 1.0f) * (float)u * pi / 16.0f);
                sum += pix * ci * cj;
            }
        }
        float au = (u == 0) ? 0.70710678f : 1.0f;
        float av = (v == 0) ? 0.70710678f : 1.0f;
        out_image[y * width + x] = 0.25f * au * av * sum;
    }
    """

    @staticmethod
    def default_params():
        return {"width": 32, "height": 24}

    def prepare(self):
        width, height = self.params["width"], self.params["height"]
        if width % 8 or height % 8:
            raise ValueError("DCT image dimensions must be multiples of 8")
        image = self.rng.random((height, width), dtype=np.float32)
        return {"image": image}

    def execute(self, context, queue, inputs, version=None):
        image = inputs["image"]
        height, width = image.shape
        buf_in = context.buffer_from_array(image)
        buf_out = context.alloc_buffer(image.nbytes)
        kernel = context.build_program(self.source, version=version) \
            .kernel("dct8x8")
        kernel.set_args(buf_in, buf_out, width)
        queue.enqueue_nd_range(kernel, (width, height), (8, 8))
        out = queue.enqueue_read_buffer(buf_out, np.float32)
        return [out.reshape(height, width)]

    def reference(self, inputs):
        image = inputs["image"].astype(np.float64)
        height, width = image.shape
        i = np.arange(8)
        basis = np.cos((2 * i[:, None] + 1) * i[None, :] * np.pi / 16)
        alpha = np.where(i == 0, np.sqrt(0.5), 1.0)
        out = np.empty_like(image)
        for by in range(0, height, 8):
            for bx in range(0, width, 8):
                block = image[by:by + 8, bx:bx + 8]
                # out[v,u] = 0.25 a(u) a(v) sum_{i,j} block[i,j] C[i,v] C[j,u]
                coeffs = 0.25 * np.einsum(
                    "ij,iv,ju->vu", block, basis, basis
                ) * alpha[None, :] * alpha[:, None]
                out[by:by + 8, bx:bx + 8] = coeffs
        return [out.astype(np.float32)]


class DwtHaar1D(Workload):
    """1D Haar wavelet transform: one kernel launch per level."""

    name = "DwtHaar1D"
    suite = "AMD APP 2.5"
    paper_input = "8388608 signal"

    source = """
    __kernel void dwt_step(__global float* in_signal, __global float* approx,
                           __global float* coeffs, int len) {
        int i = get_global_id(0);
        if (i < len) {
            float a = in_signal[2 * i];
            float b = in_signal[2 * i + 1];
            float rsqrt2 = 0.70710678f;
            approx[i] = (a + b) * rsqrt2;
            coeffs[len + i] = (a - b) * rsqrt2;
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 1024}

    def prepare(self):
        n = self.params["n"]
        if n & (n - 1):
            raise ValueError("signal length must be a power of two")
        return {"signal": self.rng.standard_normal(n).astype(np.float32)}

    def execute(self, context, queue, inputs, version=None):
        signal = inputs["signal"]
        n = len(signal)
        buf_a = context.buffer_from_array(signal)
        buf_b = context.alloc_buffer(signal.nbytes)
        buf_out = context.alloc_buffer(signal.nbytes)
        kernel = context.build_program(self.source, version=version) \
            .kernel("dwt_step")
        length = n // 2
        src, dst = buf_a, buf_b
        while length >= 1:
            kernel.set_args(src, dst, buf_out, length)
            threads = max(4, length)
            queue.enqueue_nd_range(kernel, (threads,), (min(64, threads),))
            src, dst = dst, src
            length //= 2
        approx = queue.enqueue_read_buffer(src, np.float32)
        coeffs = queue.enqueue_read_buffer(buf_out, np.float32)
        coeffs[0] = approx[0]
        return [coeffs]

    def reference(self, inputs):
        signal = inputs["signal"].astype(np.float32)
        out = np.zeros_like(signal)
        current = signal
        rsqrt2 = np.float32(0.70710678)
        length = len(signal) // 2
        while length >= 1:
            a = current[0::2]
            b = current[1::2]
            approx = (a + b) * rsqrt2
            out[length:2 * length] = (a - b) * rsqrt2
            current = approx
            length //= 2
        out[0] = current[0]
        return [out]


class FloydWarshall(Workload):
    """All-pairs shortest paths: one kernel launch per pivot node."""

    name = "FloydWarshall"
    suite = "AMD APP 2.5"
    paper_input = "256 nodes"

    source = """
    __kernel void fw_step(__global float* dist, int n, int k) {
        int j = get_global_id(0);
        int i = get_global_id(1);
        float via = dist[i * n + k] + dist[k * n + j];
        float cur = dist[i * n + j];
        if (via < cur) {
            dist[i * n + j] = via;
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 32}

    def prepare(self):
        n = self.params["n"]
        dist = (1.0 + 9.0 * self.rng.random((n, n))).astype(np.float32)
        np.fill_diagonal(dist, 0.0)
        return {"dist": dist}

    def execute(self, context, queue, inputs, version=None):
        dist = inputs["dist"]
        n = dist.shape[0]
        buf = context.buffer_from_array(dist)
        kernel = context.build_program(self.source, version=version) \
            .kernel("fw_step")
        for k in range(n):
            kernel.set_args(buf, n, k)
            queue.enqueue_nd_range(kernel, (n, n), (min(8, n), min(8, n)))
        out = queue.enqueue_read_buffer(buf, np.float32)
        return [out.reshape(n, n)]

    def reference(self, inputs):
        dist = inputs["dist"].astype(np.float32).copy()
        n = dist.shape[0]
        for k in range(n):
            dist = np.minimum(dist, dist[:, [k]] + dist[[k], :]).astype(np.float32)
        return [dist]


class MatrixTranspose(Workload):
    """Tiled matrix transpose through local memory."""

    name = "MatrixTranspose"
    suite = "AMD APP 2.5"
    paper_input = "3008x3008 matrix"

    source = """
    __kernel void transpose(__global float* in_mat, __global float* out_mat,
                            __local float* tile, int width, int height) {
        int lx = get_local_id(0);
        int ly = get_local_id(1);
        int gx = get_global_id(0);
        int gy = get_global_id(1);
        int ts = get_local_size(0);
        tile[ly * ts + lx] = in_mat[gy * width + gx];
        barrier(1);
        int ox = get_group_id(1) * ts + lx;
        int oy = get_group_id(0) * ts + ly;
        out_mat[oy * height + ox] = tile[lx * ts + ly];
    }
    """

    @staticmethod
    def default_params():
        return {"width": 64, "height": 32, "tile": 8}

    def prepare(self):
        width, height = self.params["width"], self.params["height"]
        return {"matrix": self.rng.random((height, width), dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        matrix = inputs["matrix"]
        height, width = matrix.shape
        tile = self.params["tile"]
        buf_in = context.buffer_from_array(matrix)
        buf_out = context.alloc_buffer(matrix.nbytes)
        kernel = context.build_program(self.source, version=version) \
            .kernel("transpose")
        kernel.set_args(buf_in, buf_out, LocalMemory(4 * tile * tile),
                        width, height)
        queue.enqueue_nd_range(kernel, (width, height), (tile, tile))
        out = queue.enqueue_read_buffer(buf_out, np.float32)
        return [out.reshape(width, height)]

    def reference(self, inputs):
        return [inputs["matrix"].T.copy()]


class RecursiveGaussian(Workload):
    """Recursive (IIR) Gaussian approximation: row pass then column pass."""

    name = "RecursiveGaussian"
    suite = "AMD APP 2.5"
    paper_input = "1536x1536 image"

    source = """
    __kernel void rgauss_rows(__global float* in_image, __global float* out_image,
                              int width, float a) {
        int row = get_global_id(0);
        int base = row * width;
        float yp = in_image[base];
        out_image[base] = yp;
        for (int i = 1; i < width; i += 1) {
            yp = a * in_image[base + i] + (1.0f - a) * yp;
            out_image[base + i] = yp;
        }
        yp = out_image[base + width - 1];
        for (int i = width - 2; i >= 0; i -= 1) {
            yp = a * out_image[base + i] + (1.0f - a) * yp;
            out_image[base + i] = yp;
        }
    }

    __kernel void rgauss_cols(__global float* in_image, __global float* out_image,
                              int width, int height, float a) {
        int col = get_global_id(0);
        float yp = in_image[col];
        out_image[col] = yp;
        for (int i = 1; i < height; i += 1) {
            yp = a * in_image[i * width + col] + (1.0f - a) * yp;
            out_image[i * width + col] = yp;
        }
        yp = out_image[(height - 1) * width + col];
        for (int i = height - 2; i >= 0; i -= 1) {
            yp = a * out_image[i * width + col] + (1.0f - a) * yp;
            out_image[i * width + col] = yp;
        }
    }
    """

    @staticmethod
    def default_params():
        return {"width": 32, "height": 32, "alpha": 0.6}

    def prepare(self):
        width, height = self.params["width"], self.params["height"]
        return {"image": self.rng.random((height, width), dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        image = inputs["image"]
        height, width = image.shape
        alpha = np.float32(self.params["alpha"])
        buf_in = context.buffer_from_array(image)
        buf_mid = context.alloc_buffer(image.nbytes)
        buf_out = context.alloc_buffer(image.nbytes)
        program = context.build_program(self.source, version=version)
        rows = program.kernel("rgauss_rows")
        rows.set_args(buf_in, buf_mid, width, alpha)
        queue.enqueue_nd_range(rows, (height,), (min(16, height),))
        cols = program.kernel("rgauss_cols")
        cols.set_args(buf_mid, buf_out, width, height, alpha)
        queue.enqueue_nd_range(cols, (width,), (min(16, width),))
        out = queue.enqueue_read_buffer(buf_out, np.float32)
        return [out.reshape(height, width)]

    @staticmethod
    def _iir(data, a):
        out = np.empty_like(data)
        yp = data[:, 0].copy()
        out[:, 0] = yp
        for i in range(1, data.shape[1]):
            yp = a * data[:, i] + (1 - a) * yp
            out[:, i] = yp
        yp = out[:, -1].copy()
        for i in range(data.shape[1] - 2, -1, -1):
            yp = a * out[:, i] + (1 - a) * yp
            out[:, i] = yp
        return out

    def reference(self, inputs):
        a = np.float32(self.params["alpha"])
        image = inputs["image"].astype(np.float32)
        mid = self._iir(image, a)
        out = self._iir(mid.T, a).T
        return [out]

    def check(self, outputs, expected):
        return np.allclose(outputs[0], expected[0], rtol=2e-3, atol=2e-4)


class Reduction(Workload):
    """Tree reduction in local memory; host iterates until one value."""

    name = "Reduction"
    suite = "AMD APP 2.5"
    paper_input = "9999360 elements"

    source = """
    __kernel void reduce_sum(__global float* in_data, __global float* out_data,
                             __local float* scratch, int n) {
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        int lsz = get_local_size(0);
        float v = 0.0f;
        if (gid < n) {
            v = in_data[gid];
        }
        scratch[lid] = v;
        barrier(1);
        for (int offset = lsz >> 1; offset > 0; offset = offset >> 1) {
            if (lid < offset) {
                scratch[lid] = scratch[lid] + scratch[lid + offset];
            }
            barrier(1);
        }
        if (lid == 0) {
            out_data[get_group_id(0)] = scratch[0];
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 4096, "group": 64}

    def prepare(self):
        return {"data": self.rng.random(self.params["n"], dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        data = inputs["data"]
        group = self.params["group"]
        kernel = context.build_program(self.source, version=version) \
            .kernel("reduce_sum")
        buf_in = context.buffer_from_array(data)
        n = len(data)
        while n > 1:
            groups = -(-n // group)
            padded = groups * group
            buf_out = context.alloc_buffer(4 * max(1, groups))
            kernel.set_args(buf_in, buf_out, LocalMemory(4 * group), n)
            queue.enqueue_nd_range(kernel, (padded,), (group,))
            buf_in = buf_out
            n = groups
        return [queue.enqueue_read_buffer(buf_in, np.float32, count=1)]

    def reference(self, inputs):
        return [np.array([inputs["data"].sum(dtype=np.float64)],
                         dtype=np.float32)]

    def check(self, outputs, expected):
        return np.allclose(outputs[0], expected[0], rtol=1e-3)


class ScanLargeArrays(Workload):
    """Two-level inclusive scan: block scan, block-sum scan, offset add."""

    name = "ScanLargeArrays"
    suite = "AMD APP 2.5"
    paper_input = "1048576 elements"

    source = """
    __kernel void scan_block(__global float* in_data, __global float* out_data,
                             __global float* sums, __local float* temp, int n) {
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        int lsz = get_local_size(0);
        float v = 0.0f;
        if (gid < n) {
            v = in_data[gid];
        }
        temp[lid] = v;
        barrier(1);
        for (int off = 1; off < lsz; off = off << 1) {
            float t = 0.0f;
            if (lid >= off) {
                t = temp[lid - off];
            }
            barrier(1);
            temp[lid] = temp[lid] + t;
            barrier(1);
        }
        out_data[gid] = temp[lid];
        if (lid == lsz - 1) {
            sums[get_group_id(0)] = temp[lid];
        }
    }

    __kernel void add_offsets(__global float* data,
                              __global float* scanned_sums) {
        int gid = get_global_id(0);
        int grp = get_group_id(0);
        if (grp > 0) {
            data[gid] = data[gid] + scanned_sums[grp - 1];
        }
    }
    """

    @staticmethod
    def default_params():
        return {"n": 1024, "group": 64}

    def prepare(self):
        return {"data": self.rng.random(self.params["n"], dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        data = inputs["data"]
        group = self.params["group"]
        n = len(data)
        groups = -(-n // group)
        program = context.build_program(self.source, version=version)
        scan = program.kernel("scan_block")
        add = program.kernel("add_offsets")

        buf_in = context.buffer_from_array(data)
        buf_out = context.alloc_buffer(4 * groups * group)
        buf_sums = context.buffer_from_array(np.zeros(groups, dtype=np.float32))
        scan.set_args(buf_in, buf_out, buf_sums, LocalMemory(4 * group), n)
        queue.enqueue_nd_range(scan, (groups * group,), (group,))

        buf_sums_scanned = context.alloc_buffer(4 * groups)
        buf_dummy = context.alloc_buffer(4)
        scan.set_args(buf_sums, buf_sums_scanned, buf_dummy,
                      LocalMemory(4 * groups), groups)
        queue.enqueue_nd_range(scan, (groups,), (groups,))

        add.set_args(buf_out, buf_sums_scanned)
        queue.enqueue_nd_range(add, (groups * group,), (group,))
        out = queue.enqueue_read_buffer(buf_out, np.float32)
        return [out[:n]]

    def reference(self, inputs):
        return [np.cumsum(inputs["data"], dtype=np.float32)]

    def check(self, outputs, expected):
        return np.allclose(outputs[0], expected[0], rtol=1e-3, atol=1e-4)


class SobelFilter(Workload):
    """3x3 Sobel edge detection — the paper's compute-dense, regular
    workload (few empty slots, little CPU interaction, scales well)."""

    name = "SobelFilter"
    suite = "AMD APP 2.5"
    paper_input = "1536x1536 image"

    source = """
    __kernel void sobel(__global float* in_image, __global float* out_image,
                        int width, int height) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        int idx = y * width + x;
        if (x > 0 && x < width - 1 && y > 0 && y < height - 1) {
            float i00 = in_image[idx - width - 1];
            float i01 = in_image[idx - width];
            float i02 = in_image[idx - width + 1];
            float i10 = in_image[idx - 1];
            float i12 = in_image[idx + 1];
            float i20 = in_image[idx + width - 1];
            float i21 = in_image[idx + width];
            float i22 = in_image[idx + width + 1];
            float gx = i00 + 2.0f * i10 + i20 - i02 - 2.0f * i12 - i22;
            float gy = i00 + 2.0f * i01 + i02 - i20 - 2.0f * i21 - i22;
            out_image[idx] = sqrt(gx * gx + gy * gy) * 0.5f;
        } else {
            out_image[idx] = 0.0f;
        }
    }
    """

    @staticmethod
    def default_params():
        return {"width": 64, "height": 48}

    def prepare(self):
        width, height = self.params["width"], self.params["height"]
        return {"image": self.rng.random((height, width), dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        image = inputs["image"]
        height, width = image.shape
        buf_in = context.buffer_from_array(image)
        buf_out = context.alloc_buffer(image.nbytes)
        kernel = context.build_program(self.source, version=version) \
            .kernel("sobel")
        kernel.set_args(buf_in, buf_out, width, height)
        local = (min(16, width), min(4, height))
        queue.enqueue_nd_range(kernel, (width, height), local)
        out = queue.enqueue_read_buffer(buf_out, np.float32)
        return [out.reshape(height, width)]

    def reference(self, inputs):
        image = inputs["image"].astype(np.float32)
        gx = np.zeros_like(image)
        gy = np.zeros_like(image)
        i = image
        gx[1:-1, 1:-1] = (
            i[:-2, :-2] + 2 * i[1:-1, :-2] + i[2:, :-2]
            - i[:-2, 2:] - 2 * i[1:-1, 2:] - i[2:, 2:]
        )
        gy[1:-1, 1:-1] = (
            i[:-2, :-2] + 2 * i[:-2, 1:-1] + i[:-2, 2:]
            - i[2:, :-2] - 2 * i[2:, 1:-1] - i[2:, 2:]
        )
        out = np.sqrt(gx * gx + gy * gy) * np.float32(0.5)
        out[0, :] = out[-1, :] = 0.0
        out[:, 0] = out[:, -1] = 0.0
        return [out]


class URNG(Workload):
    """Uniform random noise generator: per-pixel LCG noise injection."""

    name = "URNG"
    suite = "AMD APP 2.5"
    paper_input = "1536x1536 image"

    source = """
    __kernel void urng(__global float* in_image, __global float* out_image,
                       int factor) {
        int i = get_global_id(0);
        uint seed = (uint)i * 747796405u + 2891336453u;
        for (int r = 0; r < 8; r += 1) {
            seed = seed * 1664525u + 1013904223u;
        }
        float noise = (float)(seed & 65535u) / 65535.0f - 0.5f;
        out_image[i] = in_image[i] + noise * (float)factor * 0.02f;
    }
    """

    @staticmethod
    def default_params():
        return {"n": 4096, "factor": 2}

    def prepare(self):
        return {"image": self.rng.random(self.params["n"], dtype=np.float32)}

    def execute(self, context, queue, inputs, version=None):
        image = inputs["image"]
        buf_in = context.buffer_from_array(image)
        buf_out = context.alloc_buffer(image.nbytes)
        kernel = context.build_program(self.source, version=version) \
            .kernel("urng")
        kernel.set_args(buf_in, buf_out, self.params["factor"])
        queue.enqueue_nd_range(kernel, (len(image),), (64,))
        return [queue.enqueue_read_buffer(buf_out, np.float32)]

    def reference(self, inputs):
        image = inputs["image"]
        n = len(image)
        with np.errstate(over="ignore"):
            seed = (np.arange(n, dtype=np.uint32) * np.uint32(747796405)
                    + np.uint32(2891336453))
            for _ in range(8):
                seed = seed * np.uint32(1664525) + np.uint32(1013904223)
        noise = (seed & np.uint32(65535)).astype(np.float32) / np.float32(65535.0) \
            - np.float32(0.5)
        factor = np.float32(self.params["factor"]) * np.float32(0.02)
        return [image + noise * factor]
