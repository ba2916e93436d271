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

import importlib

#: each re-exported name -> the submodule that defines it, loaded on
#: first access: a caller that needs one tool (the farm's target list,
#: a verify context) does not load the whole pass pipeline
_EXPORTS = {
    "AnalyzeUnit": "analyze",
    "BufferInfo": "context",
    "ClauseCFG": "cfg",
    "CostSummary": "cost",
    "DEFAULT_PASSES": "pipeline",
    "Finding": "report",
    "LaunchBounds": "cost",
    "LintUnit": "lint",
    "PASSES": "pipeline",
    "Report": "report",
    "Severity": "report",
    "TripBound": "loopbound",
    "VerifyContext": "context",
    "analyze_source": "analyze",
    "analyze_target": "analyze",
    "builtin_targets": "lint",
    "format_unit": "lint",
    "lint_source": "lint",
    "lint_target": "lint",
    "verify_binary": "pipeline",
    "verify_program": "pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)
