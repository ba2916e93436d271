"""Names, units, bounds and summary statistics of every benchmark metric.

This table is the benchmark's contract: ``BENCHMARK.json`` at the repo
root mirrors it (``test_e2e.py`` asserts the two agree), ``run.py``
emits exactly these names and ``compare.py`` applies exactly these
bounds.

All numbers are **host** time or host memory: the simulator is
functional, so there is no simulated time to report.
"""

import statistics

#: prefix of the one line of a worker's standard output that is its result
RESULT_MARK = "E2E-RESULT "

WORKLOADS = {
    "gemm_mega": "uniform-control sgemm 128x64x128 on the mega engine: "
                 "clause execution and the wide MMU tier dominate, "
                 "driver/CPU/compile are noise",
    "gemm_interp": "sgemm 32x24x40 on the reference interpreter: per-warp "
                   "execution and the quad MMU tier; must not move when "
                   "only mega changes",
    "bfs_mega": "divergent BFS, one 4-byte write + launch + read-back per "
                "level: per-job fixed cost (runtime, kbase, job manager, "
                "IRQ) dominates",
    "copy_dbt": "write/copy/read/fill of 512 KiB buffers on the DBT guest "
                "CPU, no kernel launch: the Fig. 9 driver data path, GPU "
                "idle",
    "slam_mega": "KFusion fast3 config, 3 frames, 9 kernels built and "
                 "verified, 60 launches: compile, verify gate, local memory "
                 "and host glue all carry weight",
    "farm_sweep": "pinned 23-case campaign on min(2, nproc) workers: "
                  "process spawn, per-case platform build, transport and "
                  "report",
}

#: name -> (unit, better, regression bound as a share of the base median,
#: workloads it is defined on or None for all). The first three are the
#: ones defined (and never 0) on every workload, so they are the ones
#: BENCHMARK.json hands to the driver; the rest are printed, recorded and
#: compared by compare.py on the workloads named here.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, None),
    "wall_s": ("s", "lower", 0.25, None),
    "peak_rss_mb": ("MB", "lower", 0.05, None),
    "sim_mips": ("Minstr/s", "higher", 0.25,
                 ("gemm_mega", "gemm_interp", "bfs_mega", "slam_mega")),
    "jobs_per_s": ("1/s", "higher", 0.25, ("bfs_mega", "slam_mega")),
    "op_p50_ms": ("ms", "lower", 0.25, ("bfs_mega",)),
    "op_tail_ms": ("ms", "lower", 0.25, ("bfs_mega",)),
    "guest_mips": ("Minstr/s", "higher", 0.25, ("copy_dbt",)),
    "copy_mb_per_s": ("MB/s", "higher", 0.25, ("copy_dbt",)),
    "frames_per_s": ("1/s", "higher", 0.25, ("slam_mega",)),
    "cases_per_s": ("1/s", "higher", 0.25, ("farm_sweep",)),
    "failed_frac": ("frac", "lower", 0.0, None),
    "golden_drift": ("count", "lower", 0.0, None),
}

DRIVER_GATED = ("setup_s", "wall_s", "peak_rss_mb")

#: recorded beside the end-to-end metrics and never judged: what the
#: clock said before scaling to the reference host speed, and the scale
HOST_READINGS = {"wall_raw_s": "s", "host_speed": "ratio"}

#: name -> (unit, better). ``*_s`` are self (busy) seconds per traced
#: iteration; counts come from the program's own StatsRegistry; the
#: rest are direct micro-timings of public functions on a warm platform.
PER_LAYER = {
    "core.platform.import_s": ("s", "lower"),
    "core.platform.build_s": ("s", "lower"),
    "core.platform.stage_s": ("s", "lower"),
    "clc.compile_s": ("s", "lower"),
    "clc.kernels": ("count", "lower"),
    "clc.ms_per_kernel": ("ms", "lower"),
    "gpu.verify.gate_s": ("s", "lower"),
    "gpu.verify.ms_per_kernel": ("ms", "lower"),
    "cl.runtime.build_self_s": ("s", "lower"),
    "cl.runtime.write_s": ("s", "lower"),
    "cl.runtime.read_s": ("s", "lower"),
    "cl.runtime.copy_s": ("s", "lower"),
    "cl.runtime.fill_s": ("s", "lower"),
    "cl.runtime.ndrange_self_s": ("s", "lower"),
    "cl.runtime.calls": ("count", "lower"),
    "cpu.memcpy_s": ("s", "lower"),
    "cpu.memset_s": ("s", "lower"),
    "cpu.guest_instrs": ("count", "lower"),
    "cpu.dbt_translations": ("count", "lower"),
    "cpu.dbt_mips": ("Minstr/s", "higher"),
    "cpu.interp_mips": ("Minstr/s", "higher"),
    "mem.block_mb_per_s": ("MB/s", "higher"),
    "mem.gather_ns_per_word": ("ns", "lower"),
    "mem.scatter_ns_per_word": ("ns", "lower"),
    "mem.mmio_ns_per_access": ("ns", "lower"),
    "driver.kbase.alloc_s": ("s", "lower"),
    "driver.kbase.descriptor_s": ("s", "lower"),
    "driver.kbase.submit_self_s": ("s", "lower"),
    "driver.kbase.jobs": ("count", "lower"),
    "driver.kbase.us_per_job": ("us", "lower"),
    "driver.kbase.async_us_per_job": ("us", "lower"),
    "driver.kbase.page_faults": ("count", "lower"),
    "gpu.jobmanager.run_s": ("s", "lower"),
    "gpu.jobmanager.dispatch_self_s": ("s", "lower"),
    "gpu.jobmanager.jobs": ("count", "lower"),
    "gpu.jobmanager.us_per_job": ("us", "lower"),
    "gpu.jobmanager.descriptor_decodes": ("count", "lower"),
    "gpu.jobmanager.null_launch_us": ("us", "lower"),
    "gpu.shadercore.exec_s": ("s", "lower"),
    "gpu.shadercore.workgroups": ("count", "lower"),
    "gpu.shadercore.ns_per_instr": ("ns", "lower"),
    "gpu.shadercore.ns_per_clause": ("ns", "lower"),
    "gpu.shadercore.warmup_s": ("s", "lower"),
    "gpu.engine.scalar_ns_per_instr": ("ns", "lower"),
    "gpu.engine.interp_ns_per_instr": ("ns", "lower"),
    "gpu.engine.jit_ns_per_instr": ("ns", "lower"),
    "gpu.engine.mega_ns_per_instr": ("ns", "lower"),
    "gpu.mmu.scalar_ns_per_load": ("ns", "lower"),
    "gpu.mmu.quad_ns_per_load": ("ns", "lower"),
    "gpu.mmu.wide_ns_per_load": ("ns", "lower"),
    "gpu.mmu.scalar_ns_per_store": ("ns", "lower"),
    "gpu.mmu.quad_ns_per_store": ("ns", "lower"),
    "gpu.mmu.wide_ns_per_store": ("ns", "lower"),
    "gpu.mmu.translations": ("count", "lower"),
    "gpu.mmu.quad_accesses": ("count", "lower"),
    "gpu.mmu.quad_fallbacks": ("count", "lower"),
    "gpu.mmu.wide_accesses": ("count", "lower"),
    "gpu.mmu.wide_fallbacks": ("count", "lower"),
    "gpu.mmu.fast_hit_frac": ("frac", "higher"),
    "instrument.snapshot_us": ("us", "lower"),
    "instrument.overhead_frac": ("frac", "lower"),
    "instrument.overhead_iqr": ("frac", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "kernels.prepare_s": ("s", "lower"),
    "kernels.reference_s": ("s", "lower"),
    "kernels.host_self_s": ("s", "lower"),
    "slam.host_self_s": ("s", "lower"),
    "slam.launches": ("count", "lower"),
    "validate.farm.cases": ("count", "higher"),
    "validate.farm.inproc_s": ("s", "lower"),
    "validate.farm.w1_cases_per_s": ("1/s", "higher"),
    "validate.farm.scaling": ("ratio", "higher"),
    "validate.farm.startup_s": ("s", "lower"),
    "validate.farm.empty_case_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}


def applies(metric, workload):
    """Whether end-to-end *metric* is defined on *workload*."""
    where = END_TO_END[metric][3]
    return where is None or workload in where


def summarize(samples, unit):
    """The record every result file carries per metric: the median plus
    the sample count and spread a reader needs to judge it."""
    samples = [float(value) for value in samples]
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples)}


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` when there are too few samples for
    any percentile above the median to qualify."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    if index <= len(ordered) // 2:
        return None
    return 100.0 * (index + 1) / len(ordered), ordered[index]
