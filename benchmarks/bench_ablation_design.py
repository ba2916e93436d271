"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper figure — these quantify the individual mechanisms the paper's
simulator (and ours) relies on:

- the decode cache ("the entire shader program is decoded exactly once",
  Section III-B3): cached vs per-job re-decode;
- the execution engine: interpretive (with and without instrumentation)
  vs the workgroup-wide megakernel engine, which translates each program
  to host code (the Section VII-A future work);
- instrumentation overhead in isolation.
"""

import time

from conftest import emit

from repro.cl import Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.instrument.report import format_table
from repro.kernels import get_workload

_SOBEL = {"width": 48, "height": 32}


def _timed_run(engine, instrument=True, decode_cache=True,
               workload="SobelFilter", sizes=_SOBEL, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        config = PlatformConfig(
            gpu=GPUConfig(engine=engine, instrument=instrument)
        )
        context = Context(MobilePlatform(config))
        context.platform.gpu.job_manager.decode_cache_enabled = decode_cache
        start = time.perf_counter()
        result = get_workload(workload, **sizes).run(context=context,
                                                     verify=True)
        elapsed = time.perf_counter() - start
        assert result.verified
        best = min(best, elapsed)
    return best


def test_ablation_execution_engines(benchmark):
    def run():
        return {
            "interpreter+instr": _timed_run("interpreter", True),
            "interpreter": _timed_run("interpreter", False),
            "mega": _timed_run("mega", False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results["interpreter+instr"]
    rows = [(name, f"{seconds:.3f}", f"{base / seconds:.2f}x")
            for name, seconds in results.items()]
    emit("ablation_engines",
         format_table(("engine", "seconds", "speedup vs instrumented"),
                      rows, title="Ablation: GPU execution engines "
                                  "(SobelFilter 48x32)"))
    assert results["mega"] < results["interpreter+instr"]
    # instrumentation is not free but bounded
    overhead = results["interpreter+instr"] / results["interpreter"]
    assert overhead < 3.0


def test_ablation_decode_cache(benchmark):
    """Many tiny jobs over one large binary: with execution work held near
    zero, per-job re-decode must dominate — the mechanism behind "the
    entire shader program is decoded exactly once"."""
    import numpy as np

    from repro.cl import CommandQueue

    # a large straight-line kernel (hundreds of clauses), launched many
    # times with only four threads, so decode cost >> execution cost
    body = "\n".join(f"acc = acc * 1.0001f + {i}.0f;" for i in range(400))
    source = f"""
    __kernel void bigbin(__global float* out) {{
        float acc = (float)get_global_id(0);
        {body}
        out[get_global_id(0)] = acc;
    }}
    """
    launches = 60

    def run_mode(decode_cache):
        context = Context()
        context.platform.gpu.job_manager.decode_cache_enabled = decode_cache
        queue = CommandQueue(context)
        buffer = context.buffer_from_array(np.zeros(4, dtype=np.float32))
        kernel = context.build_program(source).kernel("bigbin")
        kernel.set_args(buffer)
        start = time.perf_counter()
        for _ in range(launches):
            queue.enqueue_nd_range(kernel, (4,), (4,))
        elapsed = time.perf_counter() - start
        return elapsed, context.platform.gpu.job_manager.decode_count

    def run():
        cached_s, cached_decodes = run_mode(True)
        uncached_s, uncached_decodes = run_mode(False)
        return cached_s, cached_decodes, uncached_s, uncached_decodes

    cached_s, cached_decodes, uncached_s, uncached_decodes = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_decode_cache", format_table(
        ("mode", "seconds", "binary decodes"),
        [("decode once (cached)", f"{cached_s:.3f}", cached_decodes),
         ("re-decode per job", f"{uncached_s:.3f}", uncached_decodes)],
        title=f"Ablation: shader decode cache "
              f"(~200-clause binary, {launches} jobs)",
    ))
    assert cached_decodes == 1
    assert uncached_decodes == launches
    assert uncached_s > 1.5 * cached_s
