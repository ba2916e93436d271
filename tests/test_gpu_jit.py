"""Tests: the retired clause-JIT engine name, and the engine names.

The clause-closure JIT tier is gone; mega is the one translating tier.
``jit`` is still a name of the ``interp`` mode — the system benchmark's
engine ladder (``benchmarks/e2e/micro.py``) names it — and runs the quad
interpreter: bit-identical outputs, identical statistics. Every engine
name is taken alike by ``GPUConfig`` and ``MobilePlatform.for_mode``.
"""

import numpy as np
import pytest

from repro.cl import CommandQueue, Context, LocalMemory
from repro.core.platform import (
    ENGINE_NAMES,
    MobilePlatform,
    PlatformConfig,
    resolve_engine,
)
from repro.gpu.device import GPUConfig
from repro.kernels import get_workload


def _context(engine, instrument=False):
    config = PlatformConfig(
        gpu=GPUConfig(engine=engine, instrument=instrument)
    )
    return Context(MobilePlatform(config))


KERNEL = """
__kernel void mixed(__global float* a, __global int* b,
                    __global float* out, __local float* tile, int n) {
    int i = get_global_id(0);
    int lid = get_local_id(0);
    tile[lid] = a[i];
    barrier(1);
    float acc = 0.0f;
    for (int k = 0; k < 8; k += 1) {
        acc += tile[k] * (float)(b[i] % (k + 2));
    }
    if (i < n / 2) {
        acc = sqrt(fabs(acc)) + exp(acc * 0.01f);
    }
    out[i] = acc;
}
"""


def _run_mixed(engine):
    context = _context(engine)
    queue = CommandQueue(context)
    n = 64
    rng = np.random.default_rng(13)
    a = rng.random(n, dtype=np.float32)
    b = rng.integers(1, 100, n).astype(np.int32)
    buf_a = context.buffer_from_array(a)
    buf_b = context.buffer_from_array(b)
    buf_out = context.alloc_buffer(4 * n)
    kernel = context.build_program(KERNEL).kernel("mixed")
    kernel.set_args(buf_a, buf_b, buf_out, LocalMemory(4 * 8), n)
    queue.enqueue_nd_range(kernel, (n,), (8,))
    return queue.enqueue_read_buffer(buf_out, np.float32)


def test_jit_bit_identical_to_interpreter():
    interp = _run_mixed("interpreter")
    jit = _run_mixed("jit")
    np.testing.assert_array_equal(interp.view(np.uint32),
                                  jit.view(np.uint32))


@pytest.mark.parametrize("name", ["SobelFilter", "BitonicSort", "sgemm",
                                  "Reduction"])
def test_jit_verifies_on_workloads(name):
    context = _context("jit")
    sizes = {"SobelFilter": {"width": 32, "height": 24},
             "BitonicSort": {"n": 128},
             "sgemm": {"m": 16, "k": 16, "n": 16},
             "Reduction": {"n": 512}}
    result = get_workload(name, **sizes.get(name, {})).run(context=context)
    assert result.verified, name


def test_jit_collects_stats_when_instrumented():
    """The retired name is the interpreter: the same JobStats, on a unit
    that runs the interpreter."""
    jit_context = _context("jit", instrument=True)
    jit_result = get_workload("URNG", n=256).run(context=jit_context)
    assert jit_result.verified
    assert jit_result.stats.total_instrs > 0
    interp_result = get_workload("URNG", n=256).run(
        context=_context("interpreter", instrument=True))
    assert jit_result.stats == interp_result.stats
    assert resolve_engine("jit") == "interp"
    assert jit_context.platform.gpu.job_manager.unit.engine != "mega"


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_every_engine_name_builds_a_config_and_a_platform(name):
    """One vocabulary: each name is a ``GPUConfig`` engine and a
    ``for_mode`` mode, and both run the same tier."""
    mega = resolve_engine(name) == "mega"
    assert GPUConfig(engine=name).engine == resolve_engine(name)
    platform = MobilePlatform.for_mode(name)
    assert (platform.gpu.job_manager.unit.engine == "mega") == mega
    unit = MobilePlatform(PlatformConfig(gpu=GPUConfig(engine=name))) \
        .gpu.job_manager.unit
    assert (unit.engine == "mega") == mega


@pytest.mark.parametrize("engine", ["mgea", ""])
def test_unknown_engine_name_fails_closed(engine):
    """A misspelling raises, in ``GPUConfig`` and in ``for_mode`` alike,
    instead of quietly running the interpreter."""
    with pytest.raises(ValueError, match="unknown engine mode"):
        GPUConfig(engine=engine)
    with pytest.raises(ValueError, match="unknown engine mode"):
        MobilePlatform.for_mode(engine)
