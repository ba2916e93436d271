"""Execution statistics counters.

Two granularities:

- :class:`JobStats` — GPU program-execution metrics (Section IV-A/C):
  instruction mix, data-access breakdown, clause metrics, divergence.
  The engines only record which clauses ran, in the job's per-clause
  table; :func:`derive_stats` multiplies clause tables out, when someone
  reads a job's statistics (:class:`~repro.gpu.jobmanager.JobResult`) or
  a scope's, which keeps one table per program
  (:class:`~repro.gpu.jobmanager.ClauseLedger`).
- :class:`SystemStats` — platform-level CPU-GPU interaction metrics
  (Section IV-B, Table III): pages accessed by the GPU, control-register
  reads/writes, interrupts asserted, compute jobs. Collected by the GPU
  device and MMU.
"""

from dataclasses import dataclass, field

from repro.state import Stateful


@dataclass
class JobStats:
    """Program-execution metrics of GPU jobs (dynamic counts).

    "Instructions" are counted per active lane (a thread-level view);
    "cycles" are counted per warp issue (a machine-level view) — the
    distinction Fig. 1 draws between e.g. arithmetic cycles and arithmetic
    instructions.
    """

    # instruction mix, per active lane (Fig. 11 categories)
    arith_instrs: int = 0
    ls_global_instrs: int = 0
    ls_local_instrs: int = 0
    nop_instrs: int = 0
    cf_instrs: int = 0
    const_load_instrs: int = 0  # LDU; also counted in ls-neutral mix below

    # machine-level cycle estimates, per warp
    arith_cycles: int = 0  # tuples issued
    ls_cycles: int = 0  # 128-bit memory beats

    # data-access breakdown, per active lane (Fig. 12 categories)
    temp_reads: int = 0
    temp_writes: int = 0
    grf_reads: int = 0
    grf_writes: int = 0
    const_reads: int = 0  # uniform port (kernel args, NDRange info)
    rom_reads: int = 0  # clause constant pool
    main_mem_accesses: int = 0  # global loads/stores (per element)
    local_mem_accesses: int = 0  # workgroup-local loads/stores (per element)

    # clause metrics (Fig. 13)
    clauses_executed: int = 0  # per warp
    clause_size_histogram: dict = field(default_factory=dict)  # size -> count

    # divergence (Section IV-C)
    divergent_branches: int = 0
    branch_events: int = 0

    # dispatch shape
    threads_launched: int = 0
    warps_launched: int = 0
    workgroups: int = 0

    @property
    def total_instrs(self):
        """All executed instruction slots, including NOPs and CF."""
        return (
            self.arith_instrs
            + self.ls_global_instrs
            + self.ls_local_instrs
            + self.const_load_instrs
            + self.nop_instrs
            + self.cf_instrs
        )

    @property
    def ls_instrs(self):
        """All load/store-class instructions (global + local + uniform)."""
        return self.ls_global_instrs + self.ls_local_instrs + self.const_load_instrs

    def instruction_mix(self):
        """Normalized Fig. 11 breakdown: arith / load-store / nop / cf."""
        total = self.total_instrs
        if total == 0:
            return {"arithmetic": 0.0, "load_store": 0.0, "nop": 0.0, "control_flow": 0.0}
        return {
            "arithmetic": self.arith_instrs / total,
            "load_store": self.ls_instrs / total,
            "nop": self.nop_instrs / total,
            "control_flow": self.cf_instrs / total,
        }

    def data_access_breakdown(self):
        """Normalized Fig. 12 breakdown across the memory hierarchy."""
        categories = {
            "temp": self.temp_reads + self.temp_writes,
            "grf_read": self.grf_reads,
            "grf_write": self.grf_writes,
            "constant_read": self.const_reads,
            "rom": self.rom_reads,
            "main_memory": self.main_mem_accesses,
        }
        total = sum(categories.values())
        if total == 0:
            return {name: 0.0 for name in categories}
        return {name: value / total for name, value in categories.items()}

    def average_clause_size(self):
        total = sum(self.clause_size_histogram.values())
        if total == 0:
            return 0.0
        weighted = sum(size * count for size, count in self.clause_size_histogram.items())
        return weighted / total


def derive_stats(tables, workgroups=0, warps_launched=0,
                 threads_launched=0):
    """The :class:`JobStats` of the per-clause tables *tables*,
    ``(clauses, counts)`` pairs, and the launch counters given.

    *counts* maps clause index -> ``[issues, total active lanes, lanes a
    branch took, issues whose lanes it split]``. Every field in
    :class:`~repro.gpu.isa.ClauseMetrics` is static per clause and scales
    linearly in issues/lanes, so multiplying the table out once is
    arithmetically identical to per-issue additions (the paper's Section
    IV-A: execution records clause frequency only).
    """
    stats = JobStats(workgroups=workgroups, warps_launched=warps_launched,
                     threads_launched=threads_launched)
    histogram = stats.clause_size_histogram
    for clauses, counts in tables:
        for clause_index, (issues, lanes, _taken, divergent) in \
                counts.items():
            clause = clauses[clause_index]
            metrics = clause.metrics()
            size = clause.size
            stats.clauses_executed += issues
            histogram[size] = histogram.get(size, 0) + issues
            stats.arith_cycles += size * issues
            stats.ls_cycles += metrics.ls_beats * issues
            stats.arith_instrs += metrics.arith_instrs * lanes
            stats.nop_instrs += metrics.nop_instrs * lanes
            stats.ls_global_instrs += metrics.ls_global_instrs * lanes
            stats.ls_local_instrs += metrics.ls_local_instrs * lanes
            stats.const_load_instrs += metrics.const_load_instrs * lanes
            stats.temp_reads += metrics.temp_reads * lanes
            stats.temp_writes += metrics.temp_writes * lanes
            stats.grf_reads += metrics.grf_reads * lanes
            stats.grf_writes += metrics.grf_writes * lanes
            stats.const_reads += metrics.const_reads * lanes
            stats.rom_reads += metrics.rom_reads * lanes
            stats.main_mem_accesses += metrics.main_mem_accesses * lanes
            stats.local_mem_accesses += metrics.local_mem_accesses * lanes
            stats.cf_instrs += metrics.cf_instrs * lanes
            stats.branch_events += metrics.cf_instrs * issues
            stats.divergent_branches += divergent
    return stats


def merge_clause_counts(totals, counts):
    """Add the per-clause records of *counts* into *totals*."""
    for clause_index, (issues, lanes, taken, divergent) in counts.items():
        total = totals.setdefault(clause_index, [0, 0, 0, 0])
        total[0] += issues
        total[1] += lanes
        total[2] += taken
        total[3] += divergent


@dataclass
class SystemStats(Stateful):
    """System-level CPU-GPU interaction counters (Table III)."""

    pages_accessed: int = 0  # distinct GPU-VA pages touched via the GPU MMU
    ctrl_reg_reads: int = 0
    ctrl_reg_writes: int = 0
    interrupts_asserted: int = 0
    compute_jobs: int = 0
    mmu_faults: int = 0
    tlb_flushes: int = 0

    def as_row(self):
        """Table III row: pages, reg reads, reg writes, IRQs, jobs."""
        return (
            self.pages_accessed,
            self.ctrl_reg_reads,
            self.ctrl_reg_writes,
            self.interrupts_asserted,
            self.compute_jobs,
        )
