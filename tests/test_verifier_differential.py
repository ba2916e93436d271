"""Verifier-vs-dynamic differential soundness tests.

The contract has two directions, both checked against real executions:

- **clean ⇒ clean**: a generated program the verifier passes (under the
  runner's full launch context) must run bit-exact across engines with
  no faults — the conformance campaign now re-verifies every case, so
  any error finding on a correct-by-construction program is a campaign
  failure with a seed-replayable reproducer;
- **must-fault ⇒ faults**: a finding carrying the must-fault claim must
  reproduce as a dynamic MMU/simulation fault when the case is actually
  executed.

Tier-1 keeps a smoke-sized sweep; the 500+-program campaign and the
full defect-category × seed grid ride the nightly ``fuzz`` marker.
"""

import pytest

from repro.gpu.verify import Severity, verify_program
from repro.validate.conformance import run_conformance
from repro.validate.progen import (
    DEFECT_CATEGORIES,
    ProgramGenerator,
    generate_defect_case,
    generation_context,
)
from repro.validate.runner import (
    DifferentialRunner,
    generated_case_to_diff,
    verify_context_for_case,
)

_SEVERITY = {"note": Severity.NOTE, "warning": Severity.WARNING,
             "error": Severity.ERROR}


def _expected_findings(report, spec):
    return [f for f in report.findings
            if f.code in spec["codes"]
            and f.severity >= _SEVERITY[spec["severity"]]]


class TestGeneratedProgramsClean:
    def test_launch_context_verifies_clean(self):
        generator = ProgramGenerator(21)
        for _ in range(30):
            case = generator.generate()
            report = verify_program(case.program,
                                    verify_context_for_case(case))
            assert report.ok, "\n".join(
                str(f) for f in report.errors)

    def test_generator_gate_uses_shared_verifier(self):
        # the generator itself re-verifies under its build-time context;
        # reaching here means 20 programs passed the gate
        generator = ProgramGenerator(33)
        for _ in range(20):
            case = generator.generate()
            report = verify_program(
                case.program,
                generation_context(threads=16, local=8))
            assert report.ok

    def test_campaign_includes_static_verification(self):
        report = run_conformance(seed=4, budget=10,
                                 engines=("interp", "mega"),
                                 minimize=False, verify=True)
        assert report.ok, "\n".join(report.lines())


class TestDefectDetection:
    @pytest.mark.parametrize("category", sorted(DEFECT_CATEGORIES))
    def test_defect_is_detected(self, category):
        spec = DEFECT_CATEGORIES[category]
        case = generate_defect_case(11, category)
        report = verify_program(case.program, verify_context_for_case(case))
        hits = _expected_findings(report, spec)
        assert hits, (f"{category}: expected {spec['codes']} "
                      f"got {[f.code for f in report.findings]}")
        assert any(f.must_fault for f in hits) == spec["must_fault"]

    def test_defect_metadata_is_attached(self):
        case = generate_defect_case(11, "oob-load")
        assert case.program.meta["defect"] == "oob-load"
        assert case.label.startswith("defect[oob-load")


class TestDynamicSoundness:
    def test_must_fault_reproduces_dynamically(self):
        case = generate_defect_case(5, "oob-load")
        runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
        _results, mismatches = runner.run_case(generated_case_to_diff(case))
        crashes = [m for m in mismatches if m.kind == "crash"]
        assert len(crashes) == 2, [str(m) for m in mismatches]
        assert all("MMUFault" in m.detail or "SimError" in m.detail
                   for m in crashes)

    @pytest.mark.parametrize("category", sorted(
        c for c, spec in DEFECT_CATEGORIES.items()
        if spec["dynamic"] == "clean"))
    def test_clean_defects_run_bitexact(self, category):
        # static-only defects (silent corruption, lints) must not disturb
        # the bit-exactness contract between engines
        case = generate_defect_case(5, category)
        runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
        _results, mismatches = runner.run_case(generated_case_to_diff(case))
        assert mismatches == [], [str(m) for m in mismatches]


@pytest.mark.fuzz
class TestLongDifferential:
    """Nightly: the 500+-program verifier-vs-dynamic campaign."""

    @pytest.mark.parametrize("seed", [10, 11])
    def test_500_programs_statically_and_dynamically_clean(self, seed,
                                                           tmp_path):
        report = run_conformance(seed=seed, budget=250,
                                 corpus_out=str(tmp_path), verify=True)
        assert report.ok, "\n".join(report.lines())

    @pytest.mark.parametrize("seed", range(25))
    def test_defect_grid(self, seed):
        runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
        for category, spec in sorted(DEFECT_CATEGORIES.items()):
            case = generate_defect_case(seed, category)
            report = verify_program(case.program,
                                    verify_context_for_case(case))
            assert _expected_findings(report, spec), category
            if spec["dynamic"] == "clean":
                _res, mism = runner.run_case(generated_case_to_diff(case))
                assert mism == [], (category, [str(m) for m in mism])
            elif spec["dynamic"] == "fault":
                _res, mism = runner.run_case(generated_case_to_diff(case))
                assert all(m.kind == "crash" for m in mism) and mism, \
                    category
