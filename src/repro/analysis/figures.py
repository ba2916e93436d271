"""Per-figure data generation (Figs. 1, 6-15 and Table III)."""

import time

import numpy as np

from repro.baselines.m2s_runtime import M2SContext, M2SQueue
from repro.baselines.native import native_seconds
from repro.baselines.desktopgpu import DesktopGPUModel
from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.instrument.cfg import DivergenceCFG
from repro.instrument.timing import CycleModel
from repro.kernels import get_workload
from repro.kernels.matrixmul import MatrixMul
from repro.kernels.sgemm_variants import SgemmVariant

COMPILER_VERSION_ORDER = ("5.6", "5.7", "6.0", "6.1", "6.2")

FIG11_WORKLOADS = (
    "BinarySearch", "BinomialOption", "DCT", "DwtHaar1D", "FloydWarshall",
    "MatrixTranspose", "RecursiveGaussian", "Reduction", "ScanLargeArrays",
    "SobelFilter", "URNG", "backprop", "bfs", "cutcp", "nn", "sgemm",
    "spmv", "stencil",
)

FIG13_WORKLOADS = FIG11_WORKLOADS + ("BitonicSort",)

FIG7_WORKLOADS = (
    "BinarySearch", "BinomialOption", "BitonicSort", "DCT", "DwtHaar1D",
    "MatrixTranspose", "Reduction", "SobelFilter", "URNG",
)

FIG8_WORKLOADS = (
    "BinarySearch", "BinomialOption", "BitonicSort", "DCT", "DwtHaar1D",
    "FloydWarshall", "MatrixTranspose", "RecursiveGaussian", "Reduction",
    "ScanLargeArrays", "SobelFilter", "sgemm", "stencil",
)


# -- Fig. 1: compiler versions -------------------------------------------------------


def fig01_compiler_versions(n=32):
    """MatrixMul metrics per compiler version, normalized to v5.6."""
    rows = []
    for version in COMPILER_VERSION_ORDER:
        workload = MatrixMul(n=n)
        metrics = workload.compile_metrics(version)
        rows.append(metrics)
    base = rows[0]
    normalized = []
    for metrics in rows:
        normalized.append({
            "version": metrics["version"],
            "arith_cycles": metrics["arith_cycles"] / base["arith_cycles"],
            "arith_instrs": metrics["arith_instrs"] / base["arith_instrs"],
            "ls_cycles": metrics["ls_cycles"] / base["ls_cycles"],
            "ls_instrs": metrics["ls_instrs"] / base["ls_instrs"],
            "registers": metrics["registers"] / base["registers"],
            "verified": metrics["verified"],
        })
    return normalized


# -- Fig. 6: BFS divergence CFG ---------------------------------------------------------


def fig06_bfs_cfg(n=128, engine="interpreter"):
    """Run BFS on *engine*; returns (dot, divergences, cfg, engine)."""
    config = PlatformConfig(gpu=GPUConfig(engine=engine))
    context = Context(MobilePlatform(config))
    workload = get_workload("bfs", n=n)
    queue = CommandQueue(context)
    inputs = workload.prepare()
    workload.execute(context, queue, inputs)
    programs = context.platform.gpu.job_manager.ledger.programs()
    if len(programs) != 1:
        raise RuntimeError(f"Fig. 6 needs one program; BFS ran {len(programs)}")
    [(program, counts)] = programs
    cfg = DivergenceCFG.from_clause_counts(program.clauses, counts)
    divergent = {cfg.node_label(node): cfg.divergence_fraction(node)
                 for node in cfg.divergences}
    return cfg.to_dot(), divergent, cfg, config.gpu.engine


# -- Fig. 7: slowdown over native --------------------------------------------------------


def fig07_slowdown(workloads=FIG7_WORKLOADS, sizes=None):
    """Per workload: GPU-only and full-system slowdown vs native NumPy."""
    rows = []
    for name in workloads:
        workload = get_workload(name, **(sizes or {}).get(name, {}))
        result = workload.prebuild().run()
        native = native_seconds(workload)
        gpu_seconds = result.total_seconds - result.cpu_seconds
        rows.append({
            "benchmark": name,
            "native_seconds": native,
            "gpu_slowdown": gpu_seconds / native,
            "full_system_slowdown": result.total_seconds / native,
            "verified": result.verified,
        })
    return rows


# -- Fig. 8: speed vs Multi2Sim-style baseline ---------------------------------------------


def run_workload_m2s(workload, instrument=True, verify=True):
    """Run a workload on the intercepted-runtime baseline simulator."""
    context = M2SContext(instrument=instrument)
    queue = M2SQueue(context)
    inputs = workload.prepare()
    start = time.perf_counter()
    outputs = workload.execute(context, queue, inputs)
    seconds = time.perf_counter() - start
    verified = True
    if verify:
        verified = workload.check(outputs, workload.reference(inputs))
    return seconds, verified, context.sim.stats


def fig08_vs_m2s(workloads=FIG8_WORKLOADS, sizes=None):
    """Our simulator's speedup over the baseline, with/without
    instrumentation (the paper's Fig. 8 bars)."""
    rows = []
    for name in workloads:
        params = (sizes or {}).get(name, {})
        # built before any of the three clocks: a cold build would be
        # charged to whichever mode happened to run first
        m2s_seconds, m2s_ok, _ = run_workload_m2s(
            get_workload(name, **params).prebuild())

        def _full_system(instrument):
            config = PlatformConfig(gpu=GPUConfig(instrument=instrument))
            context = Context(MobilePlatform(config))
            workload = get_workload(name, **params)
            result = workload.run(context=context)
            return result.total_seconds, result.verified

        with_instr, ok_instr = _full_system(True)
        without_instr, ok_plain = _full_system(False)
        rows.append({
            "benchmark": name,
            "m2s_seconds": m2s_seconds,
            "speedup_with_instr": m2s_seconds / with_instr,
            "speedup_without_instr": m2s_seconds / without_instr,
            "instr_overhead": with_instr / without_instr - 1.0,
            "verified": m2s_ok and ok_instr and ok_plain,
        })
    return rows


# -- Fig. 9: CPU-side driver runtime scaling ------------------------------------------------


def fig09_driver_scaling(sizes=((16, 12), (32, 24), (48, 36), (64, 48))):
    """SobelFilter driver (CPU-side) time: DBT vs interpretive engine."""
    rows = []
    for width, height in sizes:
        row = {"input": f"{width}x{height}"}
        for engine in ("dbt", "interpretive"):
            config = PlatformConfig(cpu_engine=engine)
            context = Context(MobilePlatform(config))
            workload = get_workload("SobelFilter", width=width, height=height)
            result = workload.run(context=context)
            row[f"{engine}_driver_seconds"] = result.cpu_seconds
            row[f"{engine}_guest_instructions"] = result.guest_instructions
            row[f"{engine}_verified"] = result.verified
        row["dbt_speedup"] = (row["interpretive_driver_seconds"]
                              / max(row["dbt_driver_seconds"], 1e-9))
        rows.append(row)
    return rows


# -- Figs. 11-13: program statistics across the suite ----------------------------------------------


def run_suite_stats(workloads=FIG13_WORKLOADS, sizes=None):
    """Run each workload once; returns [(name, JobStats, WorkloadResult)]."""
    collected = []
    for name in workloads:
        workload = get_workload(name, **(sizes or {}).get(name, {}))
        result = workload.run()
        collected.append((name, result.stats, result))
    return collected


# -- Table III: system statistics -------------------------------------------------------------------


_TABLE03_SIZES = {
    # SobelFilter processes a real image: its buffers span many pages while
    # BinomialOption's small option arrays span few (the paper's 4609 vs 31
    # contrast, scaled down); stencil's iterated ping-pong volume touches
    # the most pages of all (the paper's 99603)
    "SobelFilter": {"width": 128, "height": 96},
    "stencil": {"nx": 32, "ny": 32, "nz": 16, "iterations": 10},
}


def table03_system_stats(workloads=("bfs", "BinomialOption", "SobelFilter",
                                    "stencil"), sizes=None):
    """Per-workload platform-level interaction counters, each on a fresh
    platform so counters are not polluted by other runs."""
    rows = []
    if sizes is None:
        sizes = _TABLE03_SIZES
    for name in workloads:
        context = Context()
        workload = get_workload(name, **(sizes or {}).get(name, {}))
        result = workload.run(context=context)
        system = context.platform.system_stats()
        rows.append({
            "benchmark": name,
            "pages_accessed": system.pages_accessed,
            "ctrl_reg_reads": system.ctrl_reg_reads,
            "ctrl_reg_writes": system.ctrl_reg_writes,
            "interrupts_asserted": system.interrupts_asserted,
            "compute_jobs": system.compute_jobs,
            "verified": result.verified,
        })
    return rows


# -- Fig. 14: SLAMBench configurations ------------------------------------------------------------------


def fig14_slambench():
    """Metrics for fast3/express relative to standard, plus native FPS."""
    from repro.slam import CONFIGS, KFusionPipeline

    absolute = {}
    fps = {}
    for name in ("standard", "fast3", "express"):
        pipeline = KFusionPipeline(name)
        metrics, _ = pipeline.run_gpu()
        absolute[name] = metrics
        native_seconds_total = min(pipeline.run_native()[0] for _ in range(3))
        fps[name] = CONFIGS[name].frames / native_seconds_total
    relative = {}
    for name in ("fast3", "express"):
        relative[name] = {
            key: (absolute[name][key] / absolute["standard"][key]
                  if absolute["standard"][key] else 0.0)
            for key in absolute[name]
            if key != "total_seconds"
        }
    fps_relative = {name: fps[name] / fps["standard"]
                    for name in ("fast3", "express")}
    return {"absolute": absolute, "relative": relative,
            "fps": fps, "fps_relative": fps_relative}


# -- Fig. 15: SGEMM variants -----------------------------------------------------------------------------


def fig15_sgemm(n=32):
    """Six SGEMM variants: stats normalized to variant 6, plus Mali cycle
    and desktop-GPU runtime estimates (both normalized to variant 6).

    All variants touch the same data (A, B, C: 3*n^2 elements), which sets
    the Mali model's compulsory DRAM misses.
    """
    desktop_model = DesktopGPUModel()
    mobile_model = CycleModel()
    footprint = 3 * n * n
    raw = []
    for variant in range(1, 7):
        workload = SgemmVariant(variant=variant, n=n)
        result = workload.prebuild().run()
        stats = result.stats
        registers = workload.last_kernel.compiled.work_registers
        wide_fraction = 1.0 if variant == 4 else 0.0
        desktop_cost = desktop_model.estimate_cost(
            stats, registers, stats.threads_launched,
            wide_fraction=wide_fraction,
        )
        mobile_cost = mobile_model.estimate(
            stats, result.jobs, registers, footprint)["total_cycles"]
        raw.append({
            "variant": variant,
            "label": workload.spec.label,
            "arith_instrs": stats.arith_instrs,
            "cf_instrs": stats.cf_instrs,
            "const_reads": stats.const_reads,
            "global_ls": stats.ls_global_instrs,
            "grf_accesses": stats.grf_reads + stats.grf_writes,
            "local_ls": stats.ls_local_instrs,
            "nop_instrs": stats.nop_instrs,
            "num_clauses": stats.clauses_executed,
            "rom_reads": stats.rom_reads,
            "temp_accesses": stats.temp_reads + stats.temp_writes,
            "registers": registers,
            "mali_runtime": mobile_cost,
            "desktop_runtime": desktop_cost,
            "sim_seconds": result.total_seconds - result.cpu_seconds,
            "verified": result.verified,
        })
    base = raw[5]  # variant 6, as in the paper
    normalized = []
    for row in raw:
        entry = {"variant": row["variant"], "label": row["label"],
                 "registers": row["registers"], "verified": row["verified"]}
        for key in ("arith_instrs", "cf_instrs", "const_reads", "global_ls",
                    "grf_accesses", "local_ls", "nop_instrs", "num_clauses",
                    "rom_reads", "temp_accesses", "mali_runtime",
                    "desktop_runtime"):
            denominator = base[key] or 1
            entry[key] = row[key] / denominator
        normalized.append(entry)
    return {"raw": raw, "normalized": normalized}
