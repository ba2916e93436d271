"""First-order cycle estimation from functional statistics.

The paper positions its functional simulator as "a prerequisite to detailed
timing simulation" and names micro-architectural performance modelling as
future work (Section VII-A). This module provides that first step: a
machine-description-driven cycle estimate computed *from the functional
statistics* the simulator already collects — no second execution needed.

The model is deliberately first-order (issue-bound, not stall-accurate):

- each execution engine issues one tuple per cycle; the instrumented
  ``arith_cycles`` (tuples issued, including empty slots) divided by the
  machine's total EE count bounds arithmetic time;
- the load/store unit costs ``ls_cycles`` beats plus a per-access DRAM
  penalty for the traffic that misses on-chip storage: a fixed fraction
  of the global accesses, or, when the caller knows it, the data
  footprint (the compulsory misses a Mali L2 leaves on small tiles);
- resident warps hide DRAM latency, and a kernel holding more than
  :data:`REGISTER_KNEE` registers keeps half as many (Bifrost halves its
  resident threads above 32 registers; the knee scales down with the
  problem sizes used here);
- thread-group occupancy limits how much of the machine a job can use;
- divergence serializes: each divergent branch re-issues its path.

It is the one Mali model: ``bench`` prints it, the design-space bench
sweeps it, and Fig. 15 sets it against the desktop model.
"""

from dataclasses import dataclass

#: registers per thread above which a core keeps half its resident warps
REGISTER_KNEE = 20


@dataclass
class MachineDescription:
    """Timing parameters of the modelled GPU (defaults: G71 MP8-like)."""

    shader_cores: int = 8
    engines_per_core: int = 3  # Bifrost EEs per SC
    warps_per_engine: int = 4  # latency-hiding depth
    ls_units_per_core: int = 1
    dram_latency: float = 100.0  # cycles per missing access
    dram_hit_fraction: float = 0.9  # on-chip hit rate assumption
    barrier_cost: float = 20.0  # cycles per barrier per workgroup
    job_overhead: float = 500.0  # JM setup cycles per job


class CycleModel:
    """Estimates execution cycles for a job from its JobStats."""

    def __init__(self, machine=None):
        self.machine = machine or MachineDescription()

    def estimate(self, stats, jobs=1, registers=0, footprint=None):
        """Estimated cycles for *stats* (the total of *jobs* jobs).

        *registers* is the kernel's register count per thread; *footprint*,
        when given, is the number of distinct global 32-bit elements the
        job touches and replaces the hit-fraction estimate of DRAM misses.
        Returns a dict with the bound components and the total, so callers
        can see whether a kernel is issue-, memory- or occupancy-bound.
        """
        m = self.machine
        total_engines = m.shader_cores * m.engines_per_core

        # occupancy: a job cannot use more cores than it has workgroups
        groups = max(stats.workgroups, 1)
        usable_cores = min(m.shader_cores, groups)
        usable_engines = usable_cores * m.engines_per_core
        occupancy = usable_engines / total_engines

        arith_bound = stats.arith_cycles / max(usable_engines, 1)

        ls_beats = stats.ls_cycles
        if footprint is None:
            misses = stats.main_mem_accesses * (1.0 - m.dram_hit_fraction)
        else:
            misses = footprint
        warps = m.warps_per_engine
        if registers > REGISTER_KNEE:
            warps /= 2
        memory_bound = (
            ls_beats / max(usable_cores * m.ls_units_per_core, 1)
            + misses * m.dram_latency / max(usable_cores * warps, 1)
        )

        divergence_penalty = stats.divergent_branches * 2.0
        # one barrier charge per workgroup, whether or not the kernel
        # has a barrier: the statistics do not count barriers
        barrier_cycles = m.barrier_cost * stats.workgroups

        total = (max(arith_bound, memory_bound)
                 + divergence_penalty + barrier_cycles
                 + m.job_overhead * jobs)
        return {
            "arith_bound": arith_bound,
            "memory_bound": memory_bound,
            "divergence_penalty": divergence_penalty,
            "barrier_cycles": barrier_cycles,
            "occupancy": occupancy,
            "bound_by": "memory" if memory_bound > arith_bound else "arith",
            "total_cycles": total,
        }
