"""Extension: early design-space exploration with the cycle model.

The paper motivates full-system simulation with "early GPU design space
exploration, where a GPU currently under design can be evaluated" (§I-A)
and names micro-architectural performance modelling as future work
(§VII-A). This bench demonstrates the workflow: run workloads once on the
functional simulator, then sweep machine configurations (shader cores,
execution engines per core, DRAM behaviour) through the first-order cycle
model — no re-simulation needed.
"""

from conftest import emit, host_line

from repro.gpu.device import GPUConfig
from repro.instrument.report import format_table
from repro.instrument.timing import CycleModel, MachineDescription
from repro.kernels import get_workload

_WORKLOADS = {
    "SobelFilter": {"width": 48, "height": 32},
    "backprop": {"n_in": 256, "n_hidden": 64},
    "sgemm": {"m": 32, "k": 24, "n": 32},
}


def test_design_space_core_sweep(benchmark):
    def run():
        collected = {}
        for name, sizes in _WORKLOADS.items():
            result = get_workload(name, **sizes).run()
            assert result.verified
            collected[name] = (result.stats, result.jobs)
        return collected

    collected = benchmark.pedantic(run, rounds=1, iterations=1)

    core_counts = (1, 2, 4, 8, 16, 32)
    rows = []
    speedups = {}
    for name, (stats, jobs) in collected.items():
        base = None
        row = [name]
        for cores in core_counts:
            model = CycleModel(MachineDescription(shader_cores=cores))
            cycles = model.estimate(stats, jobs=jobs)["total_cycles"]
            if base is None:
                base = cycles
            row.append(f"{base / cycles:.2f}")
        speedups[name] = base / cycles  # at 32 cores
        rows.append(tuple(row))
    table = format_table(
        ("workload",) + tuple(f"{c} cores" for c in core_counts), rows,
        title="Extension: modelled speedup vs shader-core count "
              "(MP1 = 1.00)",
    )

    # second axis: memory-system sensitivity at MP8
    mem_rows = []
    for name, (stats, jobs) in collected.items():
        cold = CycleModel(MachineDescription(dram_hit_fraction=0.5))
        warm = CycleModel(MachineDescription(dram_hit_fraction=0.99))
        ratio = (cold.estimate(stats, jobs=jobs)["total_cycles"]
                 / warm.estimate(stats, jobs=jobs)["total_cycles"])
        bound = CycleModel().estimate(stats, jobs=jobs)["bound_by"]
        mem_rows.append((name, f"{ratio:.2f}x", bound))
    table += "\n\n" + format_table(
        ("workload", "cold/warm cache cycles", "bound by (default)"),
        mem_rows,
        title="Extension: on-chip hit-rate sensitivity (MP8)",
    )
    emit("ext_design_space",
         table + "\n\n" + host_line(GPUConfig().engine))

    # scaling must saturate at the workgroup count, not run away
    for name, (stats, _jobs) in collected.items():
        assert speedups[name] <= max(stats.workgroups, 1)
        assert speedups[name] > 1.5, f"{name} should benefit from cores"
    # memory-heavy backprop must be more cache-sensitive than SobelFilter
    sensitivity = {row[0]: float(row[1][:-1]) for row in mem_rows}
    assert sensitivity["backprop"] >= sensitivity["SobelFilter"]
