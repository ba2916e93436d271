"""Differential execution of the SLAM pipeline stages (conformance).

Every KFusion-like stage is compiled once and the same binary is executed
by the clause interpreter (scalar memory port), the quad fast-memory path
and the megakernel; final registers, buffer images and JobStats must be
identical, and the divergence CFG on the two interpreter tiers. Stages
without transcendentals additionally run against the scalar m2s baseline.
"""

import numpy as np
import pytest

from repro.slam import kernels
from repro.validate import DifferentialRunner, make_kernel_case

PLATFORM_ENGINES = ("interp", "fast", "mega")
# bilateral uses exp(): the vectorized and thread-at-a-time baselines may
# differ in the last ulp, so m2s joins only the transcendental-free stages
ALL_ENGINES = ("interp", "fast", "mega", "m2s")

W, H = 16, 8


def _run(case, engines):
    runner = DifferentialRunner(engines)
    _results, mismatches = runner.run_case(case)
    assert mismatches == [], "\n".join(str(m) for m in mismatches)


def _depth(rng):
    return (0.4 + 2.0 * rng.random(W * H)).astype(np.float32)


def test_mm2meters_all_engines():
    rng = np.random.default_rng(0)
    depth_mm = rng.integers(0, 5000, W * H).astype(np.uint32)
    out = np.zeros(W * H, dtype=np.float32)
    case = make_kernel_case(
        kernels.MM2METERS, "mm2meters", (W * H,), (8,),
        [depth_mm, out], scalars=[W * H])
    _run(case, ALL_ENGINES)


def test_bilateral_quad_engines():
    rng = np.random.default_rng(1)
    case = make_kernel_case(
        kernels.BILATERAL, "bilateral", (W, H), (4, 2),
        [_depth(rng), np.zeros(W * H, dtype=np.float32)],
        scalars=[W, H, np.float32(100.0), np.float32(0.5)])
    _run(case, PLATFORM_ENGINES)


def test_half_sample_all_engines():
    rng = np.random.default_rng(2)
    full = (0.4 + 2.0 * rng.random(4 * W * H)).astype(np.float32)
    case = make_kernel_case(
        kernels.HALF_SAMPLE, "half_sample", (W, H), (4, 2),
        [full, np.zeros(W * H, dtype=np.float32)], scalars=[W])
    _run(case, ALL_ENGINES)


def test_depth2vertex_all_engines():
    rng = np.random.default_rng(3)
    case = make_kernel_case(
        kernels.DEPTH2VERTEX, "depth2vertex", (W, H), (4, 2),
        [_depth(rng), np.zeros(3 * W * H, dtype=np.float32)],
        scalars=[W, np.float32(100.0), np.float32(100.0),
                 np.float32(W / 2), np.float32(H / 2)])
    _run(case, ALL_ENGINES)


def test_vertex2normal_quad_engines():
    rng = np.random.default_rng(4)
    vertex = rng.standard_normal(3 * W * H).astype(np.float32)
    case = make_kernel_case(
        kernels.VERTEX2NORMAL, "vertex2normal", (W, H), (4, 2),
        [vertex, np.zeros(3 * W * H, dtype=np.float32)], scalars=[W, H])
    _run(case, PLATFORM_ENGINES)


def test_track_icp_all_engines():
    rng = np.random.default_rng(5)
    vertex = rng.standard_normal(3 * W * H).astype(np.float32)
    ref_vertex = vertex + np.float32(0.01) * \
        rng.standard_normal(3 * W * H).astype(np.float32)
    normal = rng.standard_normal(3 * W * H).astype(np.float32)
    case = make_kernel_case(
        kernels.TRACK, "track_icp", (W, H), (4, 2),
        [vertex, ref_vertex, normal, np.zeros(W * H, dtype=np.float32)],
        scalars=[W, np.float32(0.2)])
    _run(case, ALL_ENGINES)


def test_reduce_sum_all_engines():
    """Barriers + __local traffic + a local pointer argument *before* a
    scalar argument (exercises declared-order argument packing)."""
    rng = np.random.default_rng(6)
    n = 64
    data = rng.random(n).astype(np.float32)
    out = np.zeros(n // 8, dtype=np.float32)
    case = make_kernel_case(
        kernels.REDUCE, "reduce_sum", (n,), (8,),
        [data, out], scalars=[n], local_args=[4 * 8])
    _run(case, ALL_ENGINES)


@pytest.mark.parametrize("engines", [PLATFORM_ENGINES, ALL_ENGINES])
def test_integrate_volume(engines):
    rng = np.random.default_rng(7)
    vol = 8
    tsdf = np.ones(vol ** 3, dtype=np.float32)
    weights = np.zeros(vol ** 3, dtype=np.float32)
    depth = (0.4 + 2.0 * rng.random(W * H)).astype(np.float32)
    case = make_kernel_case(
        kernels.INTEGRATE, "integrate", (vol, vol, vol), (4, 2, 2),
        [tsdf, weights, depth],
        scalars=[vol, W, H, np.float32(0.25), np.float32(10.0),
                 np.float32(10.0), np.float32(W / 2), np.float32(H / 2),
                 np.float32(0.1), np.float32(-1.0), np.float32(-1.0),
                 np.float32(-1.0), np.float32(-2.0)])
    _run(case, engines)
