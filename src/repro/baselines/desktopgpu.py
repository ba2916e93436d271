"""Analytical desktop-GPU cost model for the Fig. 15 cross-platform study.

Fig. 15's point is that the six SGEMM optimisation steps — tuned for a
desktop NVIDIA GPU — change desktop and mobile runtimes in *uncorrelated*
(largely opposite) directions. Both sides are estimated from the
simulator's instrumented statistics: the Mali side by the first-order
:class:`~repro.instrument.timing.CycleModel`, the desktop side here.
Neither is a cycle model of real silicon; :class:`DesktopGPUModel` (the
NVIDIA K20m stand-in) is the simplest model under which a big discrete
GPU's documented first-order behaviours appear:

- DRAM traffic dominates; wide/coalesced accesses are discounted;
- register blocking amortizes DRAM traffic (reuse discount);
- on-chip shared memory is much cheaper than DRAM but not free;
- the machine starves below thousands of resident threads.
"""

from dataclasses import dataclass


@dataclass
class DesktopGPUModel:
    """Relative-latency model of a big discrete desktop GPU."""

    alu_cost: float = 0.02  # per arithmetic instruction
    dram_cost: float = 6.0  # per global access (uncoalesced baseline)
    wide_access_discount: float = 0.45  # wide/float4 transaction factor
    shared_cost: float = 1.2  # per local/shared access
    register_cost: float = 0.004  # per GRF access (nearly free)
    reuse_registers: float = 16.0  # register-blocking DRAM amortization
    min_occupancy_threads: int = 2048  # below this, the machine starves
    occupancy_slope: float = 0.15
    occupancy_cap: float = 1.0

    def estimate_cost(self, stats, registers_used, threads, wide_fraction=0.0):
        """Relative runtime for one kernel execution.

        Args:
            stats: a :class:`~repro.instrument.stats.JobStats`.
            registers_used: kernel register footprint.
            threads: total threads launched.
            wide_fraction: fraction of global accesses issued as wide
                (float4) transactions.
        """
        reuse = 1.0 + registers_used / self.reuse_registers
        global_cost = self.dram_cost * stats.main_mem_accesses * (
            1.0 - wide_fraction * (1.0 - self.wide_access_discount)
        ) / reuse
        shared = self.shared_cost * stats.local_mem_accesses
        alu = self.alu_cost * stats.arith_instrs
        regs = self.register_cost * (stats.grf_reads + stats.grf_writes)
        base = global_cost + shared + alu + regs
        if threads < self.min_occupancy_threads:
            shortfall = self.min_occupancy_threads / max(threads, 1) - 1.0
            base *= 1.0 + min(self.occupancy_cap,
                              self.occupancy_slope * shortfall)
        return base
