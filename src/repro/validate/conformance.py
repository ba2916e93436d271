"""Conformance campaign orchestration.

``run_conformance`` drives a coverage-guided fuzzing campaign: a
deterministic :class:`~repro.validate.progen.ProgramGenerator` stream is
executed case-by-case through the N-way
:class:`~repro.validate.runner.DifferentialRunner`; any mismatching case is
automatically minimized and written to a replayable reproducer corpus.

Sweeping seeds and replaying a corpus directory (tests/corpus/) are the
simulation farm's ``conformance`` and ``corpus`` sweep kinds
(:mod:`repro.validate.farm.providers`).
"""

import os
from dataclasses import dataclass, field

from repro.gpu.verify import verify_program
from repro.validate.corpus import case_to_dict, save_entry
from repro.validate.minimize import make_predicate, minimize_case
from repro.validate.progen import CoverageTracker, ProgramGenerator
from repro.validate.runner import (
    ENGINES,
    DifferentialRunner,
    Mismatch,
    generated_case_to_diff,
    verify_context_for_case,
)


@dataclass
class CaseFailure:
    """One mismatching case, before and after minimization."""

    name: str
    seed: int
    index: int
    mismatches: list
    minimized_case: object = None
    minimized_mismatches: list = None
    evaluations: int = 0
    reproducer_path: str = None

    def summary(self):
        head = str(self.mismatches[0]) if self.mismatches else "?"
        return f"{self.name}: {head}"


@dataclass
class ConformanceReport:
    seed: int
    budget: int
    engines: tuple
    cases_run: int = 0
    failures: list = field(default_factory=list)
    coverage: CoverageTracker = None

    @property
    def ok(self):
        return not self.failures

    def lines(self):
        out = [
            f"conformance: {self.cases_run} programs, seed {self.seed}, "
            f"engines {'+'.join(self.engines)}",
            f"mismatching cases: {len(self.failures)}",
        ]
        out.extend(self.coverage.report_lines())
        for failure in self.failures:
            out.append(f"  FAIL {failure.summary()}")
            if failure.minimized_case is not None:
                out.append(
                    f"       minimized to "
                    f"{len(failure.minimized_case.program.clauses)} clauses "
                    f"in {failure.evaluations} evaluations")
            if failure.reproducer_path:
                out.append(f"       reproducer: {failure.reproducer_path}")
        return out


def run_conformance(seed, budget, engines=ENGINES, minimize=True,
                    corpus_out=None, progress=None,
                    max_minimize_evaluations=300, verify=True):
    """Run a *budget*-program campaign; returns a :class:`ConformanceReport`.

    Args:
        seed: generator stream seed (campaigns are fully deterministic).
        budget: number of programs to generate and cross-execute.
        engines: engine subset for the differential runner.
        minimize: shrink each mismatching case to a local fixpoint.
        corpus_out: directory to write full-form reproducer entries into
            (created on first failure; nothing is written on a clean run).
        progress: optional callable ``progress(done, budget, failures)``.
        verify: also run the static verifier with the full launch context
            over every case; error-severity findings on generated (clean
            by construction) programs are campaign failures, with the
            same seed-replayable reproducers as dynamic mismatches.
    """
    runner = DifferentialRunner(engines)
    generator = ProgramGenerator(seed)
    report = ConformanceReport(seed=seed, budget=budget,
                               engines=runner.engines,
                               coverage=generator.coverage)
    for _ in range(budget):
        generated = generator.generate()
        case = generated_case_to_diff(generated)
        if verify:
            vreport = verify_program(generated.program,
                                     verify_context_for_case(generated))
            if vreport.errors:
                failure = CaseFailure(
                    name=f"{case.name} [verifier]",
                    seed=generated.seed, index=generated.index,
                    mismatches=[Mismatch("verifier", ("static",), str(f))
                                for f in vreport.errors])
                if corpus_out:
                    failure.reproducer_path = _write_reproducer(
                        corpus_out, failure)
                report.failures.append(failure)
        _results, mismatches = runner.run_case(case)
        report.cases_run += 1
        if mismatches:
            failure = CaseFailure(
                name=case.name, seed=generated.seed, index=generated.index,
                mismatches=mismatches)
            if minimize:
                # minimize against only the engines implicated in the
                # mismatch (plus the reference) — candidate evaluation is
                # the minimizer's hot path
                involved = {e for m in mismatches for e in m.engines}
                involved.add(runner.engines[0])
                subset = tuple(e for e in runner.engines if e in involved)
                mini_runner = runner if len(subset) < 2 \
                    else DifferentialRunner(subset)
                predicate = make_predicate(mini_runner, mismatches)
                shrunk = minimize_case(
                    case, predicate,
                    max_evaluations=max_minimize_evaluations)
                failure.minimized_case = shrunk.case
                failure.evaluations = shrunk.evaluations
                _res, failure.minimized_mismatches = \
                    runner.run_case(shrunk.case)
            if corpus_out:
                failure.reproducer_path = _write_reproducer(
                    corpus_out, failure)
            report.failures.append(failure)
        if progress is not None:
            progress(report.cases_run, budget, len(report.failures))
    return report


def _write_reproducer(directory, failure):
    os.makedirs(directory, exist_ok=True)
    case = failure.minimized_case \
        if failure.minimized_case is not None else None
    mismatches = failure.minimized_mismatches \
        if case is not None else failure.mismatches
    if case is None:
        # minimization disabled: persist the original case
        from repro.validate.corpus import seed_entry

        entry = seed_entry(failure.seed, failure.index,
                           name=failure.name, expect="mismatch",
                           notes="; ".join(str(m) for m in failure.mismatches))
        path = os.path.join(
            directory, f"repro-seed{failure.seed}-i{failure.index}.json")
        save_entry(path, entry)
        return path
    entry = case_to_dict(
        case, expect="mismatch",
        notes="; ".join(str(m) for m in (mismatches or failure.mismatches)))
    path = os.path.join(
        directory, f"repro-seed{failure.seed}-i{failure.index}.json")
    save_entry(path, entry)
    return path
