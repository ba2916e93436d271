"""Library form of the static cost & resource analysis sweep.

``repro-sim analyze`` and the simulation farm's analyze provider share
this module, exactly as :mod:`lint` backs the lint sweep: one
compile-and-analyze path per target, returning structured
:class:`AnalyzeUnit` results so callers own presentation (CLI text or
``--json``) and aggregation (farm verdicts and counters).

Targets use the same addressing as lint (``builtin:<workload>``,
``slam``, or a source file path). :func:`analyze_program` is the one
cost-analysis entry — this sweep, the CL runtime's launch bounds and
the soundness gate all call it. It runs the verifier with the
``("structural", "cost")`` pass selection, so callers pay for the
abstract interpretation and loop-bound inference but not the
dataflow/race machinery.
"""

from dataclasses import dataclass

from repro.gpu.verify.context import VerifyContext
from repro.gpu.verify.lint import builtin_targets, compile_units, target_source
from repro.gpu.verify.pipeline import verify_program

# The pass selection analysis runs (structural is mandatory anyway).
ANALYZE_PASSES = ("structural", "cost")

# Stable machine-readable schema tag for --json output.
SCHEMA = "repro-analyze-report/1"


@dataclass
class AnalyzeUnit:
    """Analysis outcome for one kernel of one target (or one failed
    compile, in which case *kernel* is empty and *error* is set)."""

    label: str
    kernel: str = ""
    summary: object = None   # CostSummary (None when compile failed)
    report: object = None
    context: object = None   # VerifyContext the bounds were evaluated in
    bounds: object = None    # LaunchBounds (evaluated under *context*)
    error: str = ""

    @property
    def ok(self):
        return not self.error and self.summary is not None

    @property
    def bounded(self):
        """Every loop has a finite trip bound under *context* (vacuously
        true for loop-free programs)."""
        if not self.ok:
            return False
        return all(n is not None
                   for n in self.bounds.loop_trips.values())

    def headline(self):
        if self.error:
            return f"compile failed: {self.error}"
        loops = len(self.summary.loops)
        parts = [f"{len(self.summary.clauses)} clauses",
                 f"{loops} loop{'s' if loops != 1 else ''}"]
        if self.bounds.per_warp_issues is not None:
            parts.append(f"<= {self.bounds.per_warp_issues} issues/warp")
        else:
            parts.append("issues/warp unbounded")
        if self.bounds.pages is not None:
            parts.append(f"<= {self.bounds.pages} pages")
        return ", ".join(parts)


def analyze_program(program, ctx):
    """The cost analysis of *program* under *ctx*: the verifier with the
    :data:`ANALYZE_PASSES` selection, then the summary's bounds for
    *ctx*. Returns ``(report, summary, bounds)``; *summary* and *bounds*
    are None when structural errors block the analysis."""
    report = verify_program(program, ctx, passes=ANALYZE_PASSES)
    summary = report.facts.get("cost")
    if summary is None:
        return report, None, None
    return report, summary, summary.evaluate(ctx)


def analyze_source(label, source, defines=None, version=None, kernel=None,
                   global_size=None, local_size=None):
    """Compile *source* and cost-analyze every kernel; returns
    [AnalyzeUnit].

    When *global_size*/*local_size* are given the bounds are evaluated
    for that launch geometry (concrete NDRange uniforms, per-position
    buffer sizes unknown); otherwise the compile-time context is used
    and only geometry-independent bounds can be concrete.
    """
    def analyze(name, compiled):
        if global_size is not None and local_size is not None:
            ctx = VerifyContext.from_launch(compiled, global_size,
                                            local_size)
        else:
            ctx = VerifyContext.from_compiled_kernel(compiled)
        report, summary, bounds = analyze_program(compiled.program, ctx)
        unit = AnalyzeUnit(label=label, kernel=name, summary=summary,
                           report=report, context=ctx, bounds=bounds)
        if summary is None:
            unit.error = "structural errors block analysis: " \
                + report.summary()
        return unit

    return compile_units(AnalyzeUnit, analyze, label, source,
                         defines=defines, version=version, kernel=kernel)


def analyze_target(target, version=None, kernel=None, global_size=None,
                   local_size=None):
    """Analyze one target string (``builtin:<name>``, ``slam`` or a
    file path); returns [AnalyzeUnit]."""
    label, source, defines = target_source(target)
    return analyze_source(label, source, defines=defines, version=version,
                          kernel=kernel, global_size=global_size,
                          local_size=local_size)


def cost_annotations(summary, ctx=None):
    """Disassembly annotations (clause -> [(tuple, slot, text)]) carrying
    the per-clause cost summaries, in the shape
    :func:`repro.gpu.disasm.disassemble` inlines."""
    trips = summary.loop_trip_counts(ctx) if ctx is not None else {}
    notes = {}
    for cost in summary.clauses:
        text = (f"cost: {cost.tuples} tuples, arith {cost.arith}, "
                f"mem {cost.mem}, beats {cost.ls_beats}")
        for head in cost.loops:
            n = trips.get(head)
            bound = "?" if n is None else n + 1
            text += f" [loop@{head} x{bound}]"
        notes.setdefault(cost.index, []).append((None, "cost", text))
    for loop in summary.loops:
        notes.setdefault(loop.latch, []).append(
            (None, "loop", f"back edge -> {loop.head}: "
                           f"trips {loop.describe()}"))
    for cls in summary.access_classes:
        notes.setdefault(cls.clause, []).append(
            (cls.tuple_index, cls.slot,
             f"{cls.kind} pattern: {cls.pattern}"))
    return notes


def unit_to_dict(unit):
    """Stable JSON form of one unit (schema :data:`SCHEMA`)."""
    data = {
        "label": unit.label,
        "kernel": unit.kernel,
        "ok": unit.ok,
        "bounded": unit.bounded,
        "error": unit.error,
    }
    if unit.summary is not None:
        data["analysis"] = unit.summary.to_dict(unit.context)
    return data


def totals(units):
    """The sweep's counters: kernels analyzed, units that failed to,
    kernels with an unbounded loop, and loops found. The CLI summary,
    the ``--json`` document and the farm's analyze cases all report
    these."""
    counts = {"kernels": 0, "failed": 0, "unbounded": 0, "loops": 0}
    for unit in units:
        if not unit.ok:
            counts["failed"] += 1
            continue
        counts["kernels"] += 1
        counts["loops"] += len(unit.summary.loops)
        if not unit.bounded:
            counts["unbounded"] += 1
    return counts


def units_to_json(units):
    """Top-level ``--json`` document for a list of units."""
    counts = totals(units)
    return {
        "schema": SCHEMA,
        "units": [unit_to_dict(u) for u in units],
        "totals": {"units": len(units), "failed": counts["failed"],
                   "unbounded": counts["unbounded"]},
    }


def format_unit(unit, disasm=False):
    """CLI presentation of one unit: headline, loop bounds, access
    patterns, and (optionally) cost-annotated disassembly."""
    status = "ok  " if unit.ok else "FAIL"
    name = f"{unit.label}:{unit.kernel}" if unit.kernel else unit.label
    lines = [f"{status} {name}  ({unit.headline()})"]
    if unit.summary is None:
        return "\n".join(lines)
    summary = unit.summary
    for loop in summary.loops:
        trips = unit.bounds.loop_trips.get(loop.head)
        concrete = "unbounded" if trips is None else f"<= {trips}"
        lines.append(f"  loop {loop.head}..{loop.latch}: "
                     f"{loop.describe()} ({concrete} back edges)")
    patterns = summary.pattern_counts()
    if patterns:
        lines.append("  accesses: " + ", ".join(
            f"{kind}={patterns[kind]}" for kind in sorted(patterns)))
    bounds = unit.bounds
    if bounds.per_workgroup_issues is not None:
        lines.append(f"  bounds: {bounds.per_warp_issues} issues/warp, "
                     f"{bounds.per_workgroup_issues} issues/workgroup, "
                     f"{bounds.total_issues} total")
    if bounds.pages is not None:
        lines.append(f"  pages: <= {bounds.pages}")
    if disasm:
        from repro.gpu.disasm import disassemble

        lines.append(disassemble(
            summary.program,
            annotations=cost_annotations(summary, unit.context)))
        lines.append("")
    return "\n".join(lines)


__all__ = [
    "ANALYZE_PASSES",
    "SCHEMA",
    "AnalyzeUnit",
    "analyze_program",
    "analyze_source",
    "analyze_target",
    "builtin_targets",
    "cost_annotations",
    "format_unit",
    "totals",
    "unit_to_dict",
    "units_to_json",
]
