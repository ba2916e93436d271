"""The verifier pass pipeline.

``verify_program`` runs the requested passes in dependency order over a
decoded program; ``verify_binary`` decodes first and converts decode
rejections into findings, so callers get a uniform :class:`Report`
either way.

**Pass selection**: callers pay only for the passes they need. The
default selection is the four lint-level passes (what the build gate
and ``repro.tools lint`` require); ``repro.tools analyze`` asks for
``("structural", "cost")`` and skips the dataflow/race machinery
entirely. ``structural`` always runs — every other pass builds on a
structurally valid program — and the shared abstract interpretation
(:mod:`absint`) is computed once when any pass depending on it is
selected.
"""

from repro.errors import DecodeError
from repro.gpu.encoding import decode_program
from repro.gpu.verify import (
    absint,
    controlflow,
    cost,
    dataflow,
    memory,
    structural,
)
from repro.gpu.verify.cfg import ClauseCFG
from repro.gpu.verify.context import VerifyContext
from repro.gpu.verify.report import Finding, Report, Severity

# Every known pass, in dependency/run order.
PASSES = ("structural", "dataflow", "controlflow", "memory", "cost")

# The lint-level selection (the build gate, `repro.tools lint`): the
# historical pipeline, unchanged by the advisory cost pass.
DEFAULT_PASSES = ("structural", "dataflow", "controlflow", "memory")

# Passes consuming the shared abstract-interpretation fixpoint.
_NEEDS_ABSINT = frozenset({"controlflow", "memory", "cost"})

# Structural findings after which the CFG/dataflow model is meaningless:
# run no further passes so later findings never build on broken shape.
_FATAL_STRUCTURAL = frozenset({
    "empty-program", "bad-tuple-count", "branch-target-oob",
})


def _select(passes):
    if passes is None:
        return DEFAULT_PASSES
    unknown = set(passes) - set(PASSES)
    if unknown:
        raise ValueError(f"unknown verifier pass(es) {sorted(unknown)}; "
                         f"known: {list(PASSES)}")
    return tuple(name for name in PASSES
                 if name in set(passes) | {"structural"})


def verify_program(program, context=None, passes=None):
    """Run the selected verifier passes; returns the :class:`Report`.

    *passes* is an iterable of pass names (see :data:`PASSES`);
    ``None`` selects the lint-level default. ``structural`` is always
    included, and passes run in canonical order regardless of the
    iteration order given.
    """
    selected = _select(passes)
    ctx = context if context is not None else VerifyContext()
    report = Report(program=program)
    structural.run(program, ctx, report)
    report.facts["passes"] = selected
    if any(f.code in _FATAL_STRUCTURAL for f in report.errors):
        return report
    if selected == ("structural",):
        return report
    cfg = ClauseCFG(program)
    report.facts["unavoidable"] = sorted(cfg.unavoidable())
    if "dataflow" in selected:
        dataflow.run(program, cfg, ctx, report)
    absres = None
    if _NEEDS_ABSINT & set(selected):
        absres = absint.run(program, cfg, ctx)
        report.facts["mem_accesses"] = len(absres.accesses)
    if "controlflow" in selected:
        controlflow.run(program, cfg, ctx, absres, report)
    if "memory" in selected:
        memory.run(program, cfg, ctx, absres, report)
    if "cost" in selected:
        cost.run(program, cfg, ctx, absres, report)
    return report


def verify_binary(binary, context=None, passes=None):
    """Decode *binary* and verify it; decode rejections become findings."""
    try:
        program = decode_program(bytes(binary))
    except (DecodeError, ValueError) as exc:
        report = Report(program=None)
        report.add(Finding(
            code="decode-error", severity=Severity.ERROR,
            message=f"binary does not decode: {exc}",
            pass_name="structural"))
        return report
    return verify_program(program, context, passes=passes)
