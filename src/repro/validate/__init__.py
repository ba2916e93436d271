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
a :class:`DiffCase` on any subset of :data:`ENGINES` — the platform's two
instrumented tiers (the quad interpreter, the megakernel) plus the scalar
baseline, which keeps its own ALU as the independent oracle — and
compares registers, memory, counters, golden statistics, CFG, MMU
behaviour and traces. Beyond the paper, the **conformance subsystem**
scales the methodology to whole programs: :class:`ProgramGenerator` emits
valid random multi-clause kernels with coverage tracking,
:func:`minimize_case` shrinks failures, and :func:`run_conformance` ties
it together with a replayable reproducer corpus (``tests/corpus/``).
"""

import importlib

#: each re-exported name -> the submodule that defines it. A name loads
#: its submodule on first access: importing one submodule (the farm, the
#: corpus) does not load the generator, the verifier and the runner.
_EXPORTS = {
    "InstructionTracer": "trace",
    "TraceMismatch": "trace",
    "compare_traces": "trace",
    "trace_kernel_both": "runner",
    "execute_instruction_both": "fuzz",
    "CoverageTracker": "progen",
    "ProgramGenerator": "progen",
    "ENGINES": "engines",
    "DiffCase": "runner",
    "DifferentialRunner": "runner",
    "generated_case_to_diff": "runner",
    "make_kernel_case": "runner",
    "make_predicate": "minimize",
    "minimize_case": "minimize",
    "ConformanceReport": "conformance",
    "run_conformance": "conformance",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)
