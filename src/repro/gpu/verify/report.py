"""Structured verifier findings and the per-program report."""

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Finding severity; the build gates reject ERROR findings."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def tag(self):
        return {Severity.NOTE: "n", Severity.WARNING: "W",
                Severity.ERROR: "E"}[self]


@dataclass(frozen=True)
class Finding:
    """One verifier finding, anchored to a clause/tuple/slot.

    Attributes:
        code: stable kebab-case identifier (``uninit-read``, ``oob-access``).
        severity: :class:`Severity`.
        message: human-readable description.
        clause: clause index the finding anchors to, or None (whole
            program).
        tuple_index: tuple within the clause, or None (clause header/tail).
        slot: ``"fma"``, ``"add"``, ``"tail"`` or None.
        operand: the operand field value involved, if any.
        must_fault: True when the verifier proves the access faults on
            every execution that reaches it (checked dynamically by the
            conformance suite).
        pass_name: the pass that produced the finding.
    """

    code: str
    severity: Severity
    message: str
    clause: int = None
    tuple_index: int = None
    slot: str = None
    operand: int = None
    must_fault: bool = False
    pass_name: str = ""

    def anchor(self):
        """Compact location string, e.g. ``clause 3 tuple 1 [fma]``."""
        if self.clause is None:
            return "program"
        text = f"clause {self.clause}"
        if self.tuple_index is not None:
            text += f" tuple {self.tuple_index}"
        if self.slot is not None:
            text += f" [{self.slot}]"
        return text

    def __str__(self):
        return (f"[{self.severity.tag}] {self.code} @ {self.anchor()}: "
                f"{self.message}")


@dataclass
class Report:
    """All findings for one program, plus facts the passes proved."""

    program: object = None
    findings: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def add(self, finding):
        self.findings.append(finding)

    def extend(self, findings):
        self.findings.extend(findings)

    def sorted_findings(self):
        return sorted(
            self.findings,
            key=lambda f: (f.clause if f.clause is not None else -1,
                           f.tuple_index if f.tuple_index is not None else -1,
                           -int(f.severity), f.code))

    @property
    def errors(self):
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self):
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def notes(self):
        return [f for f in self.findings if f.severity is Severity.NOTE]

    @property
    def ok(self):
        """True when the program carries no error-severity findings."""
        return not self.errors

    def by_code(self, code):
        return [f for f in self.findings if f.code == code]

    def counts(self):
        return {"errors": len(self.errors), "warnings": len(self.warnings),
                "notes": len(self.notes)}

    def summary(self):
        counts = self.counts()
        return (f"{counts['errors']} error(s), {counts['warnings']} "
                f"warning(s), {counts['notes']} note(s)")

    def annotations(self):
        """Findings grouped for the disassembler: clause index ->
        list of ``(tuple_index, slot, text)``."""
        grouped = {}
        for finding in self.sorted_findings():
            if finding.clause is None:
                continue
            grouped.setdefault(finding.clause, []).append(
                (finding.tuple_index, finding.slot,
                 f"[{finding.severity.tag}] {finding.code}: "
                 f"{finding.message}"))
        return grouped

    def format(self, disasm=True, min_severity=Severity.NOTE):
        """Render the report; with *disasm*, findings are inlined into the
        clause disassembly (``; ^ ...`` annotation lines)."""
        lines = []
        shown = [f for f in self.sorted_findings()
                 if f.severity >= min_severity]
        if disasm and self.program is not None:
            from repro.gpu.disasm import disassemble

            annotations = {}
            for finding in shown:
                if finding.clause is None:
                    continue
                annotations.setdefault(finding.clause, []).append(
                    (finding.tuple_index, finding.slot,
                     f"[{finding.severity.tag}] {finding.code}: "
                     f"{finding.message}"))
            lines.append(disassemble(self.program, annotations=annotations))
            for finding in shown:
                if finding.clause is None:
                    lines.append(str(finding))
        else:
            lines.extend(str(finding) for finding in shown)
        lines.append(self.summary())
        return "\n".join(lines)
