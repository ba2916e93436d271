"""Tests: the JIT clause-execution engine (paper future work, §VII-A).

The JIT engine must be bit-for-bit identical to the interpreter and
measurably faster on compute-dense kernels.
"""

import time

import numpy as np
import pytest

from repro.cl import CommandQueue, Context, LocalMemory
from repro.core.platform import MobilePlatform, PlatformConfig
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
    """Instrumentation no longer forces an interpreter fallback: the JIT
    engine records the same deferred clause counters itself and must
    report JobStats identical to the interpreter's."""
    jit_context = _context("jit", instrument=True)
    jit_result = get_workload("URNG", n=256).run(context=jit_context)
    assert jit_result.verified
    assert jit_result.stats.total_instrs > 0
    interp_result = get_workload("URNG", n=256).run(
        context=_context("interpreter", instrument=True))
    assert jit_result.stats == interp_result.stats


def test_jit_cache_hit_rebinds_stats():
    """Translations outlive a job but its JobStats do not: a cache hit
    must rebind the cached executor to the unit's current stats object."""
    import numpy as np

    from repro.gpu.isa import CONST_BASE, Clause, Instruction, Op, Program, Tail
    from repro.gpu.jit import ClauseJIT
    from repro.gpu.shadercore import ComputeUnit
    from repro.instrument import JobStats

    clause = Clause(
        tuples=[(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                 Instruction(Op.NOP))],
        constants=[1],
        tail=Tail.END,
    )
    program = Program(clauses=[clause])
    program.validate()
    unit = ComputeUnit(0)
    unit.prepare(64, instrument=True, collect_cfg=False, engine="jit")
    uniforms = np.zeros(1, dtype=np.uint32)
    executor = unit._executor(program, uniforms, mem=None)
    assert isinstance(executor, ClauseJIT)
    assert executor.stats is unit.stats
    unit.stats = JobStats()  # a new job brings fresh stats
    assert unit._executor(program, uniforms, mem=None) is executor
    assert executor.stats is unit.stats


def test_jit_is_faster_on_compute_dense_kernel():
    sizes = {"width": 64, "height": 48}

    def timed(engine):
        context = _context(engine)
        workload = get_workload("SobelFilter", **sizes)
        start = time.perf_counter()
        result = workload.run(context=context, verify=False)
        del result
        return time.perf_counter() - start

    # interleaved, so a burst of host load lands on both engines; the
    # margin is generous because CI load perturbs wall-clock
    seconds = {"interpreter": [], "jit": []}
    for _ in range(3):
        for engine, samples in seconds.items():
            samples.append(timed(engine))
    interp_seconds = min(seconds["interpreter"])
    jit_seconds = min(seconds["jit"])
    assert jit_seconds < 1.1 * interp_seconds, (
        f"JIT ({jit_seconds:.3f}s) not faster than interpreter "
        f"({interp_seconds:.3f}s)"
    )


def test_jit_cache_survives_id_recycling_collision():
    """The per-unit translation cache keys on id(program); a dead
    program's id can be recycled for a new Program object. The cache
    holds the keyed program itself, so a live key's id cannot be reused,
    and a program is never served another one's translation."""
    import gc
    import weakref

    from repro.gpu.isa import CONST_BASE, Clause, Instruction, Op, Program, Tail
    from repro.gpu.shadercore import ComputeUnit

    def make_program(constant):
        clause = Clause(
            tuples=[(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                     Instruction(Op.NOP))],
            constants=[constant],
            tail=Tail.END,
        )
        program = Program(clauses=[clause])
        program.validate()
        return program

    unit = ComputeUnit(0)
    unit.prepare(64, instrument=False, collect_cfg=False, engine="jit")
    uniforms = np.zeros(1, dtype=np.uint32)
    prog_a = make_program(1)
    jit_a = unit._executor(prog_a, uniforms, mem=None)
    # repeat lookups for the same live program hit the cache, whatever
    # the uniform table (it is rebound, not keyed)
    other = np.ones(1, dtype=np.uint32)
    assert unit._executor(prog_a, other, mem=None) is jit_a
    assert jit_a.uniforms is other
    assert unit.translations_built == 1
    alive = weakref.ref(prog_a)
    del prog_a, jit_a
    gc.collect()
    assert alive() is not None  # so id(prog_a) cannot be handed out again
    for constant in range(2, 34):
        program = make_program(constant)
        jit = unit._executor(program, uniforms, mem=None)
        assert jit.program is program
    assert unit.translations_built == 1 + 32
    unit.drop_translations()
    del jit, program
    gc.collect()
    assert alive() is None


def test_jit_translates_once_across_jobs():
    """The JIT's translation has the lifetime of the decoded program, not
    of the job: every BFS level binds another ``depth`` uniform to the
    one translation, and the stats still equal the interpreter's."""
    def run(engine):
        context = _context(engine, instrument=True)
        result = get_workload("bfs", n=64, chord_every=16).run(
            context=context)
        assert result.verified and result.jobs > 4
        return context.platform.stats_registry.snapshot(), result.stats

    jit_snapshot, jit_stats = run("jit")
    interp_snapshot, interp_stats = run("interpreter")
    assert jit_snapshot["gpu.jobmanager.kernel_translations"] == 1
    assert interp_snapshot["gpu.jobmanager.kernel_translations"] == 0
    assert jit_stats == interp_stats
