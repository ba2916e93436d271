"""The KFusion-like pipeline driver.

Runs the full multi-kernel dance on the simulated platform (tens of kernel
launches per frame, CPU-orchestrated dataflow), collecting the Fig. 14
metric set per configuration; :meth:`run_native` runs the same pipeline in
NumPy for the native-FPS comparison.
"""

import time

import numpy as np

from repro.cl import CommandQueue, Context, LocalMemory
from repro.slam import reference as ref
from repro.slam.configs import CONFIGS
from repro.slam.kernels import ALL_SOURCES
from repro.slam.scene import camera_intrinsics, synthetic_depth_frame

_SIGMA_R = 0.1
_SIGMA_S = 1.0
_MU = 0.3
_DIST_THRESH = 0.15
_NEAR = 0.4


class KFusionPipeline:
    """One configuration of the pipeline, runnable on GPU or in NumPy."""

    def __init__(self, config="standard"):
        self.config = CONFIGS[config] if isinstance(config, str) else config
        cfg = self.config
        self.volume_extent = 4.0  # metres per side
        self.voxel_size = self.volume_extent / cfg.volume
        self.origin = (-self.volume_extent / 2, -self.volume_extent / 2, 1.0)
        self.intrinsics = camera_intrinsics(cfg.width, cfg.height)

    # -- inputs --------------------------------------------------------------------

    def frame_mm(self, index):
        depth = synthetic_depth_frame(self.config.width, self.config.height,
                                      frame_index=index)
        return (depth * 1000.0).astype(np.uint32)

    def _level_intrinsics(self, level):
        fx, fy, cx, cy = self.intrinsics
        scale = 2 ** level
        return fx / scale, fy / scale, cx / scale, cy / scale

    # -- simulated-platform run -------------------------------------------------------

    def run_gpu(self, context=None, version=None):
        """Run all frames on the simulated platform.

        Returns (metrics dict, per-frame raycast depth of the last frame).
        """
        cfg = self.config
        context = context or Context()
        queue = CommandQueue(context)
        program = context.build_program(ALL_SOURCES, version=version)
        kernels = {name: program.kernel(name) for name in program.kernel_names}

        fx, fy, cx, cy = self.intrinsics
        width, height = cfg.width, cfg.height
        npix = width * height
        vol = cfg.volume

        buf_mm = context.alloc_buffer(4 * npix)
        buf_raw = context.alloc_buffer(4 * npix)
        level_dims = [(width >> l, height >> l) for l in range(cfg.pyramid_levels)]
        buf_depth = [context.alloc_buffer(4 * w * h) for w, h in level_dims]
        buf_vertex = [context.alloc_buffer(12 * w * h) for w, h in level_dims]
        buf_normal = [context.alloc_buffer(12 * w * h) for w, h in level_dims]
        buf_ref_vertex = [context.alloc_buffer(12 * w * h) for w, h in level_dims]
        buf_ref_normal = [context.alloc_buffer(12 * w * h) for w, h in level_dims]
        buf_error = context.alloc_buffer(4 * npix)
        buf_partial = context.alloc_buffer(4 * max(16, npix // 16))
        buf_tsdf = context.buffer_from_array(
            np.ones(vol ** 3, dtype=np.float32))
        buf_weight = context.buffer_from_array(
            np.zeros(vol ** 3, dtype=np.float32))
        buf_raycast = context.alloc_buffer(4 * npix)

        inv2_r = np.float32(1.0 / (2 * _SIGMA_R ** 2))
        inv2_s = np.float32(1.0 / (2 * _SIGMA_S ** 2))
        interrupts_before = context.platform.system_stats().interrupts_asserted
        pages_before = context.platform.system_stats().pages_accessed
        start = time.perf_counter()

        have_reference = False
        last_raycast = None
        for frame in range(cfg.frames):
            cam_z = 0.02 * frame
            queue.enqueue_write_buffer(buf_mm, self.frame_mm(frame))
            mm2m = kernels["mm2meters"]
            mm2m.set_args(buf_mm, buf_raw, npix)
            queue.enqueue_nd_range(mm2m, (npix,), (min(32, npix),))

            bilateral = kernels["bilateral"]
            bilateral.set_args(buf_raw, buf_depth[0], width, height,
                               inv2_r, inv2_s)
            queue.enqueue_nd_range(bilateral, (width, height),
                                   self._local2d(width, height))

            for level in range(1, cfg.pyramid_levels):
                w, h = level_dims[level]
                hs = kernels["half_sample"]
                hs.set_args(buf_depth[level - 1], buf_depth[level], w)
                queue.enqueue_nd_range(hs, (w, h), self._local2d(w, h))

            for level in range(cfg.pyramid_levels):
                w, h = level_dims[level]
                lfx, lfy, lcx, lcy = self._level_intrinsics(level)
                d2v = kernels["depth2vertex"]
                d2v.set_args(buf_depth[level], buf_vertex[level], w,
                             np.float32(lfx), np.float32(lfy),
                             np.float32(lcx), np.float32(lcy))
                queue.enqueue_nd_range(d2v, (w, h), self._local2d(w, h))
                v2n = kernels["vertex2normal"]
                v2n.set_args(buf_vertex[level], buf_normal[level], w, h)
                queue.enqueue_nd_range(v2n, (w, h), self._local2d(w, h))

            if have_reference:
                for level in reversed(range(cfg.pyramid_levels)):
                    w, h = level_dims[level]
                    iterations = cfg.icp_iterations[level]
                    for _ in range(iterations):
                        trk = kernels["track_icp"]
                        trk.set_args(buf_vertex[level], buf_ref_vertex[level],
                                     buf_ref_normal[level], buf_error, w,
                                     np.float32(_DIST_THRESH))
                        queue.enqueue_nd_range(trk, (w, h), self._local2d(w, h))
                        self._reduce(context, queue, kernels["reduce_sum"],
                                     buf_error, buf_partial, w * h)

            if frame % cfg.integrate_every == 0:
                integ = kernels["integrate"]
                integ.set_args(buf_tsdf, buf_weight, buf_raw, vol, width,
                               height, np.float32(self.voxel_size),
                               np.float32(fx), np.float32(fy), np.float32(cx),
                               np.float32(cy), np.float32(_MU),
                               np.float32(self.origin[0]),
                               np.float32(self.origin[1]),
                               np.float32(self.origin[2]), np.float32(cam_z))
                queue.enqueue_nd_range(
                    integ, (vol, vol, vol), self._local2d(vol, vol) + (1,)
                )

            step = self.voxel_size * 0.75
            max_steps = int((self.volume_extent + 2.0) / step)
            ray = kernels["raycast"]
            ray.set_args(buf_tsdf, buf_raycast, vol, width,
                         np.float32(self.voxel_size), np.float32(fx),
                         np.float32(fy), np.float32(cx), np.float32(cy),
                         np.float32(self.origin[0]), np.float32(self.origin[1]),
                         np.float32(self.origin[2]), np.float32(cam_z),
                         np.float32(_NEAR), np.float32(step), max_steps)
            queue.enqueue_nd_range(ray, (width, height),
                                   self._local2d(width, height))

            # the current maps become the reference for the next frame
            for level in range(cfg.pyramid_levels):
                buf_vertex[level], buf_ref_vertex[level] = (
                    buf_ref_vertex[level], buf_vertex[level])
                buf_normal[level], buf_ref_normal[level] = (
                    buf_ref_normal[level], buf_normal[level])
            have_reference = True
            last_raycast = queue.enqueue_read_buffer(buf_raycast, np.float32) \
                .reshape(height, width)

        total_seconds = time.perf_counter() - start
        system = context.platform.system_stats()
        stats = queue.ledger.stats()
        metrics = {
            "arithmetic_instrs": stats.arith_instrs,
            "avg_clause_size": stats.average_clause_size(),
            "cf_instrs": stats.cf_instrs,
            "constant_reads": stats.const_reads,
            "control_regs": system.ctrl_reg_reads + system.ctrl_reg_writes,
            "grf_accesses": stats.grf_reads + stats.grf_writes,
            "global_ls_instrs": stats.ls_global_instrs,
            "interrupts": system.interrupts_asserted - interrupts_before,
            "kernels": queue.kernels_launched,
            "local_ls_instrs": stats.ls_local_instrs,
            "nop_instrs": stats.nop_instrs,
            "num_clauses": stats.clauses_executed,
            "num_workgroups": stats.workgroups,
            "pages_accessed": system.pages_accessed - pages_before,
            "rom_reads": stats.rom_reads,
            "temp_reg_accesses": stats.temp_reads + stats.temp_writes,
            "total_seconds": total_seconds,
        }
        return metrics, last_raycast

    @staticmethod
    def _local2d(width, height):
        lx = 8 if width % 8 == 0 else (4 if width % 4 == 0 else 2)
        ly = 4 if height % 4 == 0 else (2 if height % 2 == 0 else 1)
        return (lx, ly)

    def _reduce(self, context, queue, kernel, buf_in, buf_partial, n):
        group = 32
        groups = -(-n // group)
        kernel.set_args(buf_in, buf_partial, LocalMemory(4 * group), n)
        queue.enqueue_nd_range(kernel, (groups * group,), (group,))
        partial = queue.enqueue_read_buffer(buf_partial, np.float32,
                                            count=groups)
        return float(partial.sum())

    # -- native (NumPy) run -------------------------------------------------------------

    def run_native(self):
        """Run the same pipeline in NumPy; returns (seconds, last raycast)."""
        cfg = self.config
        fx, fy, cx, cy = self.intrinsics
        vol = cfg.volume
        tsdf = np.ones((vol, vol, vol), dtype=np.float32)
        weights = np.zeros_like(tsdf)
        inv2_r = 1.0 / (2 * _SIGMA_R ** 2)
        inv2_s = 1.0 / (2 * _SIGMA_S ** 2)
        refs = None
        last_raycast = None
        start = time.perf_counter()
        for frame in range(cfg.frames):
            cam_z = 0.02 * frame
            raw = ref.mm2meters(self.frame_mm(frame)
                                .reshape(cfg.height, cfg.width))
            depths = [ref.bilateral(raw, inv2_r, inv2_s)]
            for _ in range(1, cfg.pyramid_levels):
                depths.append(ref.half_sample(depths[-1]))
            vertices, normals = [], []
            for level, depth in enumerate(depths):
                lfx, lfy, lcx, lcy = self._level_intrinsics(level)
                vertex = ref.depth2vertex(depth, lfx, lfy, lcx, lcy)
                vertices.append(vertex)
                normals.append(ref.vertex2normal(vertex))
            if refs is not None:
                ref_vertices, ref_normals = refs
                for level in reversed(range(cfg.pyramid_levels)):
                    for _ in range(cfg.icp_iterations[level]):
                        err = ref.track(vertices[level], ref_vertices[level],
                                        ref_normals[level], _DIST_THRESH)
                        err.sum(dtype=np.float32)
            if frame % cfg.integrate_every == 0:
                ref.integrate(tsdf, weights, raw, self.voxel_size, fx, fy,
                              cx, cy, _MU, self.origin, cam_z)
            step = self.voxel_size * 0.75
            max_steps = int((self.volume_extent + 2.0) / step)
            last_raycast = ref.raycast(tsdf, cfg.width, cfg.height,
                                       self.voxel_size, fx, fy, cx, cy,
                                       self.origin, cam_z, _NEAR, step,
                                       max_steps)
            refs = (vertices, normals)
        return time.perf_counter() - start, last_raycast
