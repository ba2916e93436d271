"""Library form of the static-verifier lint sweep.

``repro-sim lint`` and the simulation farm's lint provider share this
module: one compile-and-verify path per target, returning structured
:class:`LintUnit` results instead of printing, so callers own both
presentation (CLI annotated disassembly) and aggregation (farm verdicts
and counters).

A *target* is addressed by a stable string:

- ``builtin:<workload>`` — one entry of :data:`repro.kernels.WORKLOADS`,
  compiled with the workload's own ``compile_defines()``;
- ``slam`` — the concatenated SLAM pipeline kernels;
- anything else — a kernel-language source file path.
"""

from dataclasses import dataclass, field

from repro.gpu.verify.context import VerifyContext
from repro.gpu.verify.report import Severity


@dataclass
class LintUnit:
    """Verifier outcome for one kernel of one target (or one failed
    compile, in which case *kernel* is empty and *error* is set)."""

    label: str
    kernel: str = ""
    counts: dict = field(default_factory=lambda: {
        "errors": 0, "warnings": 0, "notes": 0})
    report: object = None
    error: str = ""

    @property
    def ok(self):
        return not self.error and not self.counts["errors"]

    def summary(self):
        if self.error:
            return f"compile failed: {self.error}"
        return self.report.summary()


def builtin_targets():
    """The stable target list the ``--builtin`` sweep covers: every
    registered workload plus the SLAM pipeline."""
    from repro.kernels import WORKLOADS

    return [f"builtin:{name}" for name in sorted(WORKLOADS)] + ["slam"]


def target_source(target):
    """Resolve a target string to (label, source, defines)."""
    if target.startswith("builtin:"):
        from repro.kernels import WORKLOADS

        name = target[len("builtin:"):]
        if name not in WORKLOADS:
            raise KeyError(f"unknown builtin workload {name!r}")
        cls = WORKLOADS[name]
        return name, cls.source, cls.compile_defines()
    if target == "slam":
        from repro.slam.kernels import ALL_SOURCES

        return "slam", ALL_SOURCES, None
    with open(target) as handle:
        return target, handle.read(), None


def compile_units(unit_type, check, label, source, defines=None,
                  version=None, kernel=None):
    """The compile-and-select loop of the lint and analyze sweeps.

    *source* is built with *version*'s default options, under the build
    key the CL runtime uses, and ``check(name, compiled)`` makes one unit
    per kernel in name order (only *kernel* when named). A failed
    compile is one ``unit_type`` carrying the error: a result, not an
    exception.
    """
    from repro.clc.compiler import CompilerOptions, compile_source
    from repro.clc.versions import DEFAULT_VERSION

    options = CompilerOptions.from_version(version or DEFAULT_VERSION)
    try:
        program = compile_source(source, options=options, defines=defines)
    except Exception as exc:  # noqa: BLE001 - a failed compile is a result
        return [unit_type(label=label, error=f"{type(exc).__name__}: {exc}")]
    return [check(name, program.kernels[name])
            for name in sorted(program.kernels)
            if not kernel or name == kernel]


def lint_source(label, source, defines=None, version=None, kernel=None):
    """Compile *source* and verify every kernel; returns [LintUnit]."""
    from repro.gpu.verify.pipeline import verify_program

    def lint(name, compiled):
        report = verify_program(
            compiled.program, VerifyContext.from_compiled_kernel(compiled))
        return LintUnit(label=label, kernel=name, counts=report.counts(),
                        report=report)

    return compile_units(LintUnit, lint, label, source, defines=defines,
                         version=version, kernel=kernel)


def lint_target(target, version=None, kernel=None):
    """Lint one target string (``builtin:<name>``, ``slam`` or a file
    path); returns [LintUnit]."""
    label, source, defines = target_source(target)
    return lint_source(label, source, defines=defines, version=version,
                       kernel=kernel)


def format_unit(unit, disasm=True, min_severity=Severity.WARNING):
    """CLI presentation of one unit: status line plus (optionally) the
    findings inlined into the clause disassembly."""
    status = "ok  " if unit.ok else "FAIL"
    name = f"{unit.label}:{unit.kernel}" if unit.kernel else unit.label
    lines = [f"{status} {name}  ({unit.summary()})"]
    if unit.report is not None:
        shown = [f for f in unit.report.findings
                 if f.severity >= min_severity]
        if shown:
            lines.append(unit.report.format(disasm=disasm,
                                            min_severity=min_severity))
            lines.append("")
    return "\n".join(lines)


# Stable machine-readable schema tag for --json output.
SCHEMA = "repro-lint-report/1"


def finding_to_dict(finding):
    return {
        "code": finding.code,
        "severity": finding.severity.tag,
        "message": finding.message,
        "clause": finding.clause,
        "tuple": finding.tuple_index,
        "slot": finding.slot,
        "must_fault": bool(finding.must_fault),
    }


def unit_to_dict(unit, min_severity=Severity.WARNING):
    """Stable JSON form of one unit (schema :data:`SCHEMA`)."""
    data = {
        "label": unit.label,
        "kernel": unit.kernel,
        "ok": unit.ok,
        "counts": dict(unit.counts),
        "error": unit.error,
    }
    if unit.report is not None:
        data["findings"] = [finding_to_dict(f)
                            for f in unit.report.sorted_findings()
                            if f.severity >= min_severity]
    return data


def totals(units):
    """The sweep's counters: kernels verified and findings by severity
    (a failed compile counts as one error). The CLI summary, the
    ``--json`` document and the farm's lint cases all report these."""
    counts = {"kernels": 0, "errors": 0, "warnings": 0, "notes": 0}
    for unit in units:
        if unit.error:
            counts["errors"] += 1
            continue
        counts["kernels"] += 1
        for key in ("errors", "warnings", "notes"):
            counts[key] += unit.counts[key]
    return counts


def units_to_json(units, min_severity=Severity.WARNING):
    """Top-level ``--json`` document for a list of units."""
    return {
        "schema": SCHEMA,
        "units": [unit_to_dict(u, min_severity=min_severity)
                  for u in units],
        "totals": totals(units),
    }
