"""Static binary verifier and sanitizer passes for GPU programs.

A pass pipeline over decoded :class:`~repro.gpu.isa.Program` objects that
makes the Bifrost-like ISA contract explicit and machine-checkable:

- **structural** — encoding and clause-shape invariants (tuple/slot
  limits, constant-pool references, operand ranges, register-port
  pressure, branch targets, memory widths);
- **dataflow** — def-use/liveness over the clause-granularity CFG:
  uninitialized reads, dead writes, and clause-temporary values that
  illegally cross a clause boundary;
- **controlflow** — unreachable clauses, termination (forward-only CFGs
  are proved terminating; inescapable cycles are rejected), and
  barrier-under-divergence (the static GPU deadlock lint);
- **memory** — abstract range analysis of addresses derived from kernel
  arguments: statically out-of-bounds accesses, must-fault accesses that
  hit no mapped page, and per-workgroup write/write and read/write races
  on global or local memory with no intervening barrier;
- **cost** (opt-in, advisory) — static cost & resource analysis: loop
  trip bounds, per-clause issue costs, worst-case clause-issue and
  pages-accessed bounds, and access-pattern classification. Selected by
  ``repro.tools analyze``; excluded from the lint-level default.

``clBuildProgram`` verifies every kernel's decoded binary once, like a
driver-side verifier (the one build gate, which the m2s baseline builds
through too), the conformance fuzzer asserts its generated programs are
verifier-clean, and ``repro-sim lint`` prints findings anchored to
disassembly lines.
"""

from repro.gpu.verify.context import BufferInfo, VerifyContext
from repro.gpu.verify.cfg import ClauseCFG
from repro.gpu.verify.pipeline import (
    DEFAULT_PASSES,
    PASSES,
    verify_binary,
    verify_program,
)
from repro.gpu.verify.report import Finding, Report, Severity
from repro.gpu.verify.lint import (
    LintUnit,
    builtin_targets,
    format_unit,
    lint_source,
    lint_target,
)
from repro.gpu.verify.analyze import (
    AnalyzeUnit,
    analyze_source,
    analyze_target,
)
from repro.gpu.verify.cost import CostSummary, LaunchBounds
from repro.gpu.verify.loopbound import TripBound

__all__ = [
    "AnalyzeUnit",
    "BufferInfo",
    "ClauseCFG",
    "CostSummary",
    "DEFAULT_PASSES",
    "Finding",
    "LaunchBounds",
    "LintUnit",
    "PASSES",
    "Report",
    "Severity",
    "TripBound",
    "VerifyContext",
    "analyze_source",
    "analyze_target",
    "builtin_targets",
    "format_unit",
    "lint_source",
    "lint_target",
    "verify_binary",
    "verify_program",
]
