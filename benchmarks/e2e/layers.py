"""The layer ledger: per-layer metrics derived from a traced run.

Input is the span list of :class:`trace.Tracer` plus the program's own
``StatsRegistry`` snapshot of one traced iteration (counts repeat
exactly across iterations because every iteration builds a fresh
platform). ``*_s`` values are self seconds per iteration, the median
over the traced iterations.
"""

import statistics
from collections import defaultdict

from e2e.trace import END, ITERATION, NAME, PARENT, START

#: layer metric -> the span whose self time it is
SELF_TIME = {
    "core.platform.stage_s": "core.platform.stage_bytes",
    "clc.compile_s": "clc.compile_source",
    "gpu.verify.gate_s": "gpu.verify.verify_binary",
    "cl.runtime.build_self_s": "cl.runtime.build_program",
    "cl.runtime.write_s": "cl.runtime.write",
    "cl.runtime.read_s": "cl.runtime.read",
    "cl.runtime.copy_s": "cl.runtime.copy",
    "cl.runtime.fill_s": "cl.runtime.fill",
    "cl.runtime.ndrange_self_s": "cl.runtime.ndrange",
    "cpu.memcpy_s": "cpu.memcpy",
    "cpu.memset_s": "cpu.memset",
    "driver.kbase.alloc_s": "driver.kbase.alloc_region",
    "driver.kbase.descriptor_s": "driver.kbase.build_descriptor",
    "driver.kbase.submit_self_s": "driver.kbase.submit",
    "gpu.jobmanager.dispatch_self_s": "gpu.jobmanager.run_job_chain",
    "gpu.shadercore.exec_s": "gpu.shadercore.run_workgroup",
    "kernels.host_self_s": "kernels.execute",
    "slam.host_self_s": "slam.run_gpu",
}

#: layer metric -> registry entry it is read from
REGISTRY_COUNT = {
    "cpu.guest_instrs": "cpu.core.instructions",
    "cpu.dbt_translations": "cpu.core.dbt_translations",
    "driver.kbase.jobs": "driver.kbase.jobs_submitted",
    "driver.kbase.page_faults": "driver.kbase.page_faults",
    "gpu.jobmanager.jobs": "gpu.jobmanager.jobs_retired",
    "gpu.jobmanager.descriptor_decodes": "gpu.jobmanager.descriptor_decodes",
    "gpu.mmu.translations": "gpu.mmu.translations",
    "gpu.mmu.quad_accesses": "gpu.mmu.quad_accesses",
    "gpu.mmu.quad_fallbacks": "gpu.mmu.quad_fallbacks",
    "gpu.mmu.wide_accesses": "gpu.mmu.wide_accesses",
    "gpu.mmu.wide_fallbacks": "gpu.mmu.wide_fallbacks",
}


def _ratio(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def ledger(tracer, traced_walls, registry):
    """Per-layer metrics of the traced iterations.

    *traced_walls* are the wall seconds of the traced iterations (in
    iteration order); *registry* is the full registry snapshot of one of
    them, or ``None`` when there is no single platform to read (the
    farm's in-process pass builds one per case).
    """
    spans = tracer.spans
    own = tracer.self_times()
    timed = tracer.timed()
    iterations = sorted({span[ITERATION] for span in spans})
    self_s = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    job_run_s = defaultdict(float)
    workgroups_of_job = defaultdict(list)
    for index, span in enumerate(spans):
        if not timed[index]:
            continue
        iteration, name = span[ITERATION], span[NAME]
        self_s[name][iteration] += own[index]
        calls[name][iteration] += 1
        if name == "gpu.jobmanager.run_job_chain":
            job_run_s[iteration] += span[END] - span[START]
        elif name == "gpu.shadercore.run_workgroup":
            workgroups_of_job[(iteration, span[PARENT])].append(
                span[END] - span[START])

    def per_iteration(table, name):
        return statistics.median(
            table.get(name, {}).get(iteration, 0)
            for iteration in iterations)

    out = {metric: per_iteration(self_s, span_name)
           for metric, span_name in SELF_TIME.items()}
    out["gpu.jobmanager.run_s"] = statistics.median(
        job_run_s.get(iteration, 0.0) for iteration in iterations)

    # first workgroup of a job minus that job's median workgroup: what
    # specialising / translating the kernel costs before steady state
    warmup = defaultdict(float)
    for (iteration, _job), durations in workgroups_of_job.items():
        warmup[iteration] += max(
            0.0, durations[0] - statistics.median(durations))
    out["gpu.shadercore.warmup_s"] = statistics.median(
        warmup.get(iteration, 0.0) for iteration in iterations)

    out["clc.kernels"] = per_iteration(calls, "gpu.verify.verify_binary")
    out["cl.runtime.calls"] = sum(
        per_iteration(calls, name) for name in list(calls)
        if name.startswith("cl.runtime."))
    out["gpu.shadercore.workgroups"] = per_iteration(
        calls, "gpu.shadercore.run_workgroup")
    out["slam.launches"] = (per_iteration(calls, "cl.runtime.ndrange")
                            if "slam.run_gpu" in calls else 0)
    out["clc.ms_per_kernel"] = _ratio(
        out["clc.compile_s"], out["clc.kernels"], 1e3)
    out["gpu.verify.ms_per_kernel"] = _ratio(
        out["gpu.verify.gate_s"], out["clc.kernels"], 1e3)

    instrs = clauses = 0
    if registry is not None:
        for metric, entry in REGISTRY_COUNT.items():
            out[metric] = registry.get(entry, 0)
        instrs = registry["gpu.job.total_instrs"]
        clauses = registry["gpu.job.clauses_executed"]
        useful = out["gpu.mmu.quad_accesses"] + out["gpu.mmu.wide_accesses"]
        out["gpu.mmu.fast_hit_frac"] = _ratio(
            useful, useful + out["gpu.mmu.quad_fallbacks"]
            + out["gpu.mmu.wide_fallbacks"])
        out["driver.kbase.us_per_job"] = _ratio(
            out["driver.kbase.descriptor_s"]
            + out["driver.kbase.submit_self_s"],
            out["driver.kbase.jobs"], 1e6)
        out["gpu.jobmanager.us_per_job"] = _ratio(
            out["gpu.jobmanager.dispatch_self_s"],
            out["gpu.jobmanager.jobs"], 1e6)
    out["gpu.shadercore.ns_per_instr"] = _ratio(
        out["gpu.shadercore.exec_s"], instrs, 1e9)
    out["gpu.shadercore.ns_per_clause"] = _ratio(
        out["gpu.shadercore.exec_s"], clauses, 1e9)

    # every second of a traced iteration is some span's self time; the
    # ones owned by the benchmark's own glue, or by no span at all, are
    # the share the ledger cannot pin on a layer of the program
    attributed = sum(
        own[index] for index, span in enumerate(spans)
        if timed[index] and not span[NAME].startswith("bench."))
    out["trace.unattributed_frac"] = 1.0 - _ratio(
        attributed, sum(traced_walls))
    return out
