"""Tests: static cost & resource analysis and its consumers.

Covers the loop-bound inference kinds, the progen stress categories'
expected-bound metadata, the analyze library units, the differential
soundness gate (static bounds must dominate observed golden counters on
workloads, SLAM, generated programs and the shipped corpus), and the
per-class ``JOB_SLICE`` workgroup budgets the scheduler arms.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.driver.kbase import (
    DEFAULT_QOS_CLASSES,
    MAX_PREEMPTIONS,
    KBaseDriver,
    PendingJob,
)
from repro.gpu.isa import CmpMode, Op, Program
from repro.gpu.verify import verify_program
from repro.gpu.verify.analyze import analyze_target
from repro.validate import soundness
from repro.validate.progen import (
    STRESS_CATEGORIES,
    ProgramGenerator,
    _stress_loop_clauses,
    generate_stress_case,
    generation_context,
)
from repro.validate.runner import DifferentialRunner, generated_case_to_diff


# -- loop-bound inference ------------------------------------------------------


def _loop_program(**kwargs):
    """A prologue plus one stress loop with custom induction shape."""
    gen = ProgramGenerator(3)
    clauses = list(gen._prologue(gen.rng))
    clauses.extend(_stress_loop_clauses(gen.rng, **kwargs))
    return Program(clauses=clauses)


def _analyze(program, ctx):
    report = verify_program(program, ctx, passes=("structural", "cost"))
    summary = report.facts.get("cost")
    assert summary is not None, report.summary()
    return summary, summary.evaluate(ctx)


@pytest.mark.parametrize("kwargs,kind,trips", [
    (dict(init=0, limit_const=12, update_op=Op.IADD, update_amount=1,
          cmp_mode=CmpMode.ILT), "linear", 12),
    (dict(init=10, limit_const=0, update_op=Op.IADD,
          update_amount=-1 & 0xFFFFFFFF, cmp_mode=CmpMode.IGT),
     "linear", 10),
    (dict(init=1 << 20, limit_const=0, update_op=Op.ISHR,
          update_amount=2, cmp_mode=CmpMode.IGT), "shr", 11),
    (dict(init=1 << 20, limit_const=0, update_op=Op.IASHR,
          update_amount=2, cmp_mode=CmpMode.IGT), "ashr", 11),
    (dict(init=1, limit_const=4096, update_op=Op.ISHL,
          update_amount=1, cmp_mode=CmpMode.ILT), "shl", 12),
])
def test_loop_bound_kinds(kwargs, kind, trips):
    program = _loop_program(**kwargs)
    ctx = generation_context(threads=16, local=8)
    summary, bounds = _analyze(program, ctx)
    (loop,) = summary.loops
    assert loop.kind == kind
    assert bounds.loop_trips == {loop.head: trips}
    assert bounds.per_warp_issues is not None


def test_loop_bound_dominates_observed():
    # the inferred bound is not just finite but actually dominates the
    # executed clause count for every induction shape above
    import dataclasses

    runner = DifferentialRunner(("interp",), trace=False)
    for kwargs in (
        dict(init=0, limit_const=12, update_op=Op.IADD,
             update_amount=1, cmp_mode=CmpMode.ILT),
        dict(init=1 << 20, limit_const=0, update_op=Op.ISHR,
             update_amount=2, cmp_mode=CmpMode.IGT),
        dict(init=1 << 20, limit_const=0, update_op=Op.IASHR,
             update_amount=2, cmp_mode=CmpMode.IGT),
        dict(init=1, limit_const=4096, update_op=Op.ISHL,
             update_amount=1, cmp_mode=CmpMode.ILT),
    ):
        generated = dataclasses.replace(
            generate_stress_case(3, "loop-const"),
            program=_loop_program(**kwargs))
        record = soundness.check_case(
            generated_case_to_diff(generated), runner=runner)
        assert record["ok"], record


def test_barrier_wave_bound_dominates():
    # regression (tests/corpus/09-divergent-barrier.json): a divergent
    # branch sends part of the warp past a BARRIER tail; the early wave
    # runs ahead, and after release the barrier-side lanes re-issue the
    # join clause. The per-warp bound must carry that extra wave — the
    # pre-fix longest-path bound of 5 undercounted the observed 6.
    case = generated_case_to_diff(ProgramGenerator(0).generate_nth(9))
    record = soundness.check_case(case, runner=None,
                                  label="divergent-barrier")
    assert record["ok"], record
    assert record["bound_issues"] == record["observed_issues"] == 6

    ctx = soundness.diffcase_context(case)
    summary, _bounds = _analyze(case.program, ctx)
    from repro.gpu.isa import Tail
    barriers = [i for i, clause in enumerate(case.program.clauses)
                if clause.tail is Tail.BARRIER]
    assert barriers, "fixture lost its barrier clause"
    # clauses at or before the barrier issue once; the join clause after
    # it gets the second wave
    for index, waves in summary.barrier_waves.items():
        assert waves == (2 if index > barriers[0] else 1)


def test_barrier_waves_stay_one_without_divergence():
    # a barrier crossed with a full mask (only uniform branch conditions)
    # never splits the warp, so the wave factor must not loosen the bound
    from repro.gpu.verify.analyze import analyze_target

    units = analyze_target("builtin:sgemm")
    assert units and all(unit.ok for unit in units)
    for unit in units:
        waves = unit.summary.barrier_waves
        assert waves and all(count == 1 for count in waves.values())


# -- progen stress categories --------------------------------------------------


@pytest.mark.parametrize("category", sorted(STRESS_CATEGORIES))
def test_stress_case_matches_metadata(category):
    meta = STRESS_CATEGORIES[category]
    case = generated_case_to_diff(generate_stress_case(11, category))
    # at launch every uniform is pinned, so even symbolic limits fold
    launch_ctx = soundness.diffcase_context(case)
    summary, bounds = _analyze(case.program, launch_ctx)
    if meta["trips"] is not None:
        (loop,) = summary.loops
        assert bounds.loop_trips[loop.head] == meta["trips"]
        # at generation time a uniform-limit loop must stay symbolic
        gen_ctx = generation_context(
            threads=int(np.prod(case.global_size)),
            local=int(np.prod(case.local_size)))
        _summary, gen_bounds = _analyze(case.program, gen_ctx)
        if meta["symbolic"]:
            assert gen_bounds.loop_trips[loop.head] is None
        else:
            assert gen_bounds.loop_trips[loop.head] == meta["trips"]
    patterns = summary.pattern_counts()
    for pattern in meta["patterns"]:
        assert patterns.get(pattern), (category, patterns)


def test_stress_cases_agree_across_engines():
    runner = DifferentialRunner(("interp", "mega"), trace=False)
    for category in sorted(STRESS_CATEGORIES):
        case = generated_case_to_diff(generate_stress_case(7, category))
        _results, mismatches = runner.run_case(case)
        assert not mismatches, (category, mismatches)


# -- analyze library -----------------------------------------------------------


def test_analyze_target_builtin_sgemm():
    (unit,) = analyze_target("builtin:sgemm")
    assert unit.ok
    assert unit.kernel == "sgemm"
    assert len(unit.summary.loops) == 1
    # the k-loop limit is a kernel argument: unbounded at compile time
    assert not unit.bounded
    data = soundness  # keep namespace use obvious for the json path
    from repro.gpu.verify.analyze import units_to_json

    document = units_to_json([unit])
    assert document["schema"] == "repro-analyze-report/1"
    assert document["totals"] == {"units": 1, "failed": 0, "unbounded": 1}
    assert data.REPORT_SCHEMA == "repro-soundness-report/1"


def test_analyze_slam_kernels_all_analyze():
    units = analyze_target("slam")
    assert len(units) >= 9
    assert all(unit.ok for unit in units)


# -- differential soundness gate -----------------------------------------------


def test_soundness_stress_and_progen_dominate():
    runner = DifferentialRunner(("interp",), trace=False)
    records = soundness.stress_records(7, runner=runner)
    records += soundness.progen_records(1234, 4, runner=runner)
    assert len(records) == len(STRESS_CATEGORIES) + 4
    bad = [r for r in records if not r["ok"]]
    assert not bad, bad


def test_soundness_corpus_dominates():
    records = soundness.corpus_records("tests/corpus")
    assert len(records) >= 9  # 6 seed/full entries + 3 stress entries
    bad = [r for r in records if not r["ok"]]
    assert not bad, bad


def test_soundness_workloads_smoke():
    records, verified = soundness.workload_records(names=["sgemm", "bfs"])
    assert verified
    assert records
    bad = [r for r in records if not r["ok"]]
    assert not bad, bad
    # sgemm's k-loop folds at launch: finite issue bound that dominates
    sgemm = [r for r in records if r["label"].startswith("workload:sgemm")]
    assert all(r["bound_issues"] is not None for r in sgemm)


def test_soundness_slam_dominates():
    records = soundness.slam_records(config="express")
    assert records
    bad = [r for r in records if not r["ok"]]
    assert not bad, bad


def test_soundness_report_shape():
    records = soundness.stress_records(5)
    report = soundness.build_report(records)
    assert report["schema"] == soundness.REPORT_SCHEMA
    totals = report["totals"]
    assert totals["records"] == len(records)
    assert totals["violations"] == 0
    assert totals["median_tightness_issues"] >= 1.0
    assert totals["median_tightness_pages"] >= 1.0
    # a fabricated violation must be counted
    broken = soundness.make_record("x", 10, 1, 99, 1)
    assert not broken["ok"]
    assert soundness.build_report(records + [broken])["totals"][
        "violations"] == 1


# -- slice budgets -------------------------------------------------------------


def _slice_budget(qos="fg", workgroups=1024, preemptions=0, waiting=1):
    """``KBaseDriver._slice_budget`` for one job, on just enough driver."""
    driver = SimpleNamespace(arbiter=SimpleNamespace(waiting=waiting))
    job = PendingJob(tenant_id=0, priority=0, workgroups=workgroups,
                     tenant=SimpleNamespace(qos=DEFAULT_QOS_CLASSES[qos]),
                     preemptions=preemptions)
    return KBaseDriver._slice_budget(driver, job)


class TestSliceBudgetSeeding:
    def test_without_policy_uses_qos_class(self):
        assert _slice_budget() == DEFAULT_QOS_CLASSES["fg"].slice_workgroups

    def test_without_hint_uses_qos_class(self):
        # every sliced class is seeded from its own table entry
        for qos in ("fg", "bg"):
            assert _slice_budget(qos=qos) == \
                DEFAULT_QOS_CLASSES[qos].slice_workgroups

    def test_rt_class_stays_never_sliced(self):
        assert _slice_budget(qos="rt") == 0

    def test_budget_still_doubles_per_preemption(self):
        fg = DEFAULT_QOS_CLASSES["fg"].slice_workgroups
        assert _slice_budget(preemptions=1) == 2 * fg
        # past the preemption bound the job runs unbounded
        assert _slice_budget(preemptions=MAX_PREEMPTIONS) == 0

    def test_no_waiting_runs_to_completion(self):
        assert _slice_budget(waiting=0) == 0
        # one slice covering the whole launch is no slice at all
        fg = DEFAULT_QOS_CLASSES["fg"].slice_workgroups
        assert _slice_budget(workgroups=fg) == 0
