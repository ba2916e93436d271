"""Instrumentation: execution statistics, divergence CFGs, reports.

The paper's Section IV: instruction counts and breakdowns, data-access
breakdowns across the architecturally visible memory hierarchy, clause
metrics, system-level CPU-GPU interaction counters, and a control-flow
graph pinpointing thread divergence on actual GPU instructions (Fig. 6).

Cross-layer observability (the ROADMAP direction): every layer registers
its counters into one hierarchical :class:`StatsRegistry` (two stat
kinds, :class:`Counter` and :class:`Probe`, and one output form,
``snapshot``), and the :class:`EventTracer` emits Chrome-trace/Perfetto
JSON for the full job lifecycle. :mod:`repro.instrument.timing` turns the
statistics into a first-order Mali cycle estimate. What instrumentation
costs (the paper's <5% claim) is measured outside the package, by the
end-to-end ledger's ``instrument.overhead_frac`` (``benchmarks/e2e``).
"""

from repro.instrument.stats import (
    JobStats,
    SystemStats,
    apply_clause_stats,
    job_stats,
)
from repro.instrument.cfg import DivergenceCFG
from repro.instrument.registry import (
    Counter,
    Probe,
    Scope,
    StatsRegistry,
    format_registry,
    register_job_stats,
    register_mmu_stats,
)
from repro.instrument.tracing import EventTracer, validate_trace
from repro.instrument.report import (
    format_clause_histogram,
    format_data_access_breakdown,
    format_instruction_mix,
    format_table,
)

__all__ = [
    "JobStats",
    "SystemStats",
    "apply_clause_stats",
    "job_stats",
    "DivergenceCFG",
    "Counter",
    "Probe",
    "Scope",
    "StatsRegistry",
    "format_registry",
    "register_job_stats",
    "register_mmu_stats",
    "EventTracer",
    "validate_trace",
    "format_clause_histogram",
    "format_data_access_breakdown",
    "format_instruction_mix",
    "format_table",
]
