"""Validation tooling (the paper's Section V-A methodology).

The paper validates its GPU model two ways:

1. **Instruction tracing**: "We executed selected kernels on both
   simulators using an instruction tracing mode, where individual
   instructions and their effects are observable." Here,
   :class:`InstructionTracer` records every instruction's destination value
   per thread on both the quad-warp reference engine and the scalar
   baseline engine, and :func:`compare_traces` diffs them — any semantic
   divergence between the two independent implementations is pinpointed to
   the first differing instruction of a specific thread
   (:func:`trace_kernel_both`).

2. **Fuzzing**: "we employed fuzzing techniques for rigorous instruction
   testing, covering an extensive range of inputs."
   :func:`execute_instruction_both` runs a single arbitrary instruction
   with arbitrary register inputs for hypothesis-driven differential
   testing (see tests/test_validation.py).

Both are cases of one harness: :class:`DifferentialRunner` cross-executes
a :class:`DiffCase` on any subset of :data:`ENGINES` — the platform's three
instrumented tiers (interpreter, quad fast path, megakernel) plus the
scalar baseline, which keeps its own ALU as the independent oracle — and
compares registers, memory, counters, golden statistics, CFG, MMU
behaviour and traces. Beyond the paper, the **conformance subsystem**
scales the methodology to whole programs: :class:`ProgramGenerator` emits
valid random multi-clause kernels with coverage tracking,
:func:`minimize_case` shrinks failures, and :func:`run_conformance` ties
it together with a replayable reproducer corpus (``tests/corpus/``).
"""

from repro.validate.trace import (
    InstructionTracer,
    TraceMismatch,
    compare_traces,
)
from repro.validate.progen import CoverageTracker, ProgramGenerator
from repro.validate.runner import (
    ENGINES,
    DiffCase,
    DifferentialRunner,
    generated_case_to_diff,
    make_kernel_case,
    trace_kernel_both,
)
from repro.validate.fuzz import execute_instruction_both
from repro.validate.minimize import make_predicate, minimize_case
from repro.validate.conformance import ConformanceReport, run_conformance

__all__ = [
    "InstructionTracer",
    "TraceMismatch",
    "compare_traces",
    "trace_kernel_both",
    "execute_instruction_both",
    "CoverageTracker",
    "ProgramGenerator",
    "ENGINES",
    "DiffCase",
    "DifferentialRunner",
    "generated_case_to_diff",
    "make_kernel_case",
    "make_predicate",
    "minimize_case",
    "ConformanceReport",
    "run_conformance",
]
