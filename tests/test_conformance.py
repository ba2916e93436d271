"""Conformance subsystem tests: generator, N-way runner, minimizer, corpus.

The long fuzzing campaigns live behind the ``fuzz`` marker (deselected by
default; CI's nightly job runs them). Tier-1 keeps a small campaign, the
committed-corpus replay, and targeted tests of each component — including
an injected-bug test proving the harness actually detects and minimizes
engine divergence.
"""

import json
import os

import pytest

import repro.baselines.m2s as m2s
from repro.gpu.isa import Op, is_memory_op
from repro.validate import (
    DifferentialRunner,
    ProgramGenerator,
    run_conformance,
)
from repro.errors import CorpusError
from repro.validate.corpus import (
    case_to_dict,
    dict_to_case,
    save_entry,
    seed_entry,
)
from repro.validate.minimize import (
    make_predicate,
    minimize_case,
    mismatch_signature,
)
from repro.validate.progen import CoverageTracker, coverage_space
from repro.validate.farm import run_farm
from repro.validate.runner import generated_case_to_diff

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _corpus_sweep(directory):
    """The corpus sweep over *directory*, in this process; returns the
    case outcomes and the failing ones."""
    run = run_farm({"name": "replay", "sweeps": [
        {"kind": "corpus", "dir": directory}]}, workers=0)
    cases = run.report["cases"]
    return cases, [case for case in cases if case["verdict"] != "pass"]


class TestGenerator:
    def test_stream_is_deterministic(self):
        from repro.gpu.encoding import encode_program

        stream = [ProgramGenerator(11).generate_nth(2) for _ in range(2)]
        assert encode_program(stream[0].program) == \
            encode_program(stream[1].program)
        assert (stream[0].in_words == stream[1].in_words).all()
        assert stream[0].extra_uniforms == stream[1].extra_uniforms

    def test_generated_programs_are_valid(self):
        generator = ProgramGenerator(42)
        for _ in range(20):
            case = generator.generate()
            case.program.validate()  # raises on malformed programs
            assert case.global_size[0] % case.local_size[0] == 0

    def test_branch_targets_are_forward(self):
        """Termination guarantee: control flow never goes backward."""
        from repro.gpu.isa import Tail

        generator = ProgramGenerator(7)
        for _ in range(20):
            program = generator.generate().program
            for index, clause in enumerate(program.clauses):
                if clause.tail in (Tail.JUMP, Tail.BRANCH, Tail.BRANCH_Z):
                    assert clause.target > index

    def test_coverage_space_sanity(self):
        space = coverage_space()
        assert len(space) == 198
        assert (Op.LDU, "fma", "imm") in space
        assert not any(op is Op.NOP for op, _s, _k in space)
        # memory ops never occupy the ADD slot
        assert not any(is_memory_op(op) and slot == "add"
                       for op, slot, _k in space)

    def test_coverage_saturates_quickly(self):
        tracker = CoverageTracker()
        generator = ProgramGenerator(0, coverage=tracker)
        for _ in range(30):
            generator.generate()
        assert tracker.fraction >= 0.8, tracker.report_lines()


class TestDifferentialRunner:
    def test_small_campaign_is_clean(self):
        report = run_conformance(seed=0, budget=8)
        assert report.ok, "\n".join(report.lines())
        assert report.cases_run == 8

    def test_engine_subset(self):
        report = run_conformance(seed=1, budget=3,
                                 engines=("interp", "mega"))
        assert report.ok, "\n".join(report.lines())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DifferentialRunner(("interp", "warp9"))


class TestInjectedBug:
    """The harness must detect, minimize and persist a real divergence."""

    def _break_imul(self, monkeypatch):
        original = m2s.M2SSimulator._alu

        def buggy(op, instr, a, b, c):
            result = original(op, instr, a, b, c)
            if op is Op.IMUL:
                result = (result + 1) & 0xFFFFFFFF
            return result

        monkeypatch.setattr(m2s.M2SSimulator, "_alu", staticmethod(buggy))

    def test_single_instruction_fuzz_sees_it(self, monkeypatch):
        from repro.validate import execute_instruction_both

        assert execute_instruction_both(Op.IMUL, 3, 5, 0) == (15, 15)
        self._break_imul(monkeypatch)
        with pytest.raises(AssertionError, match="IMUL"):
            execute_instruction_both(Op.IMUL, 3, 5, 0)

    def test_detected_minimized_and_persisted(self, monkeypatch, tmp_path):
        self._break_imul(monkeypatch)
        report = run_conformance(seed=5, budget=3,
                                 corpus_out=str(tmp_path),
                                 max_minimize_evaluations=150)
        assert not report.ok
        failure = report.failures[0]
        assert {m.kind for m in failure.mismatches} & \
            {"registers", "memory", "trace"}
        # minimization shrank the case and kept the culprit op
        minimized = failure.minimized_case.program
        assert len(minimized.clauses) <= \
            len(generated_case_to_diff(
                ProgramGenerator(5).generate_nth(failure.index)
            ).program.clauses)
        assert any(instr.op is Op.IMUL
                   for clause in minimized.clauses
                   for pair in clause.tuples for instr in pair)
        # a full-form reproducer landed in the corpus directory
        assert failure.reproducer_path
        entry = json.load(open(failure.reproducer_path))
        assert entry["expect"] == "mismatch"
        assert "program_hex" in entry

    def test_reproducer_matches_after_fix(self, monkeypatch, tmp_path):
        self._break_imul(monkeypatch)
        report = run_conformance(seed=5, budget=3,
                                 corpus_out=str(tmp_path),
                                 max_minimize_evaluations=150)
        assert report.failures
        monkeypatch.undo()
        # with the engine bug gone, the reproducer no longer mismatches
        outcomes, failed = _corpus_sweep(str(tmp_path))
        assert outcomes
        assert len(failed) == len(outcomes)
        assert {case["detail"] for case in failed} == {
            "expected a mismatch, case now matches"}


class TestMinimizer:
    def test_shrinks_to_structural_fixpoint(self):
        case = generated_case_to_diff(ProgramGenerator(9).generate_nth(2))

        def contains_shift(candidate):
            return any(instr.op in (Op.ISHL, Op.ISHR)
                       for clause in candidate.program.clauses
                       for pair in clause.tuples for instr in pair)

        assert contains_shift(case)  # prologue computes addresses via ISHL
        result = minimize_case(case, contains_shift)
        assert contains_shift(result.case)
        total_slots = sum(len(c.tuples)
                          for c in result.case.program.clauses)
        assert len(result.case.program.clauses) == 1
        assert total_slots == 1
        assert result.evaluations > 0

    def test_drop_clause_never_creates_backward_branch(self):
        """Dropping a clause must preserve the forward-branching invariant
        (a clamped target equal to the branch's own index looped forever)."""
        from repro.gpu.isa import Tail
        from repro.validate.minimize import _drop_clause

        generator = ProgramGenerator(21)
        for _ in range(10):
            program = generator.generate().program
            for index in range(len(program.clauses)):
                clone = _drop_clause(program, index)
                if clone is None:
                    continue
                for position, clause in enumerate(clone.clauses):
                    if clause.tail in (Tail.JUMP, Tail.BRANCH,
                                       Tail.BRANCH_Z):
                        assert clause.target > position
                assert clone.clauses[-1].tail not in (Tail.FALLTHROUGH,
                                                      Tail.BARRIER)

    def test_signature_and_predicate(self):
        from repro.validate.runner import Mismatch

        mismatches = [Mismatch("registers", ("interp", "m2s"), "r3"),
                      Mismatch("trace", ("interp", "m2s"), "ev")]
        assert mismatch_signature(mismatches) == {"registers", "trace"}

        class FakeRunner:
            def run_case(self, _case):
                return {}, [Mismatch("trace", ("interp", "m2s"), "other")]

        predicate = make_predicate(FakeRunner(), mismatches)
        assert predicate(None)


class TestCorpus:
    def test_committed_corpus_replays_clean(self):
        outcomes, failed = _corpus_sweep(CORPUS_DIR)
        assert outcomes, "committed corpus is empty"
        assert not failed, "\n".join(
            f"{case['id']}: {case['detail']}" for case in failed)

    def test_full_form_roundtrip(self, tmp_path):
        from repro.gpu.encoding import encode_program

        case = generated_case_to_diff(ProgramGenerator(13).generate_nth(1))
        path = tmp_path / "entry.json"
        save_entry(str(path), case_to_dict(case))
        loaded = dict_to_case(json.load(open(path)))
        assert encode_program(loaded.program) == \
            encode_program(case.program)
        assert loaded.args == case.args
        for (na, va_a, wa), (nb, va_b, wb) in zip(case.regions,
                                                  loaded.regions):
            assert (na, va_a) == (nb, va_b)
            assert (wa == wb).all()

    def test_seed_form_regenerates(self, tmp_path):
        path = tmp_path / "seed.json"
        save_entry(str(path), seed_entry(3, 2))
        case = dict_to_case(json.load(open(path)))
        assert case.name == "gen-seed3-i2"
        runner = DifferentialRunner(("interp", "m2s"))
        _results, mismatches = runner.run_case(case)
        assert mismatches == []

    def test_unknown_format_rejected(self):
        with pytest.raises(CorpusError):
            dict_to_case({"format": 99})


@pytest.mark.fuzz
class TestLongCampaign:
    """Nightly-scale campaigns (deselected from tier-1 by the default
    ``-m "not fuzz"`` addopts)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_campaign_clean_and_covered(self, seed, tmp_path):
        report = run_conformance(seed=seed, budget=150,
                                 corpus_out=str(tmp_path))
        assert report.ok, "\n".join(report.lines())
        assert report.coverage.fraction >= 0.95, \
            "\n".join(report.coverage.report_lines())
