"""Differential soundness gate for the static cost analysis.

The cost pass claims *sound upper bounds* on two dynamic golden
counters — clause issues and data pages touched. This module holds
those claims against actual executions, across every program source the
project ships:

- **workloads** — each :data:`repro.kernels.WORKLOADS` entry runs on the
  full platform with the CL runtime's soundness recorder enabled
  (``Context.enable_analysis_log``), which evaluates the bounds for the
  exact launch (encoded uniform image, bound buffers, mapped regions)
  and records them next to the observed ``JobStats``/MMU counters;
- **SLAM** — the KFusion pipeline's kernels, the same way;
- **generated programs** — progen streams, stress cases and corpus
  reproducers run through the :class:`DifferentialRunner` reference
  interpreter with a fully pinned :class:`VerifyContext`.

Every record compares ``observed <= bound`` for both counters; a
violation is a hard test failure. The ``soundness`` farm sweep
(:mod:`repro.validate.farm.providers`, and ``analyze --soundness`` on
top of it) runs one case per source and sums each case's bounded
records into its counters, so the farm report carries every workload's
tightness (``bound / observed``, 1.0 = exact) beside its verdict.
"""

from repro.gpu.verify import VerifyContext
from repro.gpu.verify.analyze import analyze_program


# -- generated-case checks -----------------------------------------------------


def diffcase_context(case):
    """Fully pinned verifier context for an arbitrary :class:`DiffCase`.

    Every uniform slot (NDRange words plus raw argument words) carries
    its concrete value and the mapped ranges mirror the runner's page
    tables, so the analysis runs with exactly the knowledge the engines
    execute under. Buffer classification is unnecessary: with all slots
    exact the address intervals are concrete.
    """
    from repro.gpu.launch import uniform_image
    from repro.mem import PAGE_SIZE
    from repro.validate.runner import page_count

    g, l = case.global_size, case.local_size
    uniforms = uniform_image(g, l, case.args)
    ctx = VerifyContext(
        name=case.name,
        uniform_count=len(uniforms),
        uniform_values={slot: int(w) for slot, w in enumerate(uniforms)},
        local_bytes=case.local_bytes,
        mapped_ranges=sorted(
            (va, va + page_count(max(words.nbytes, 1)) * PAGE_SIZE)
            for _name, va, words in case.regions),
        threads=g[0] * g[1] * g[2],
        threads_per_group=l[0] * l[1] * l[2],
    )
    return ctx


def analyze_case(case):
    """Cost-analyze a DiffCase; returns (summary, bounds) or (None, None)
    when structural errors block the analysis."""
    _report, summary, bounds = analyze_program(case.program,
                                               diffcase_context(case))
    return summary, bounds


def check_case(case, runner=None, label=None):
    """Run one DiffCase on the reference interpreter and compare the
    observed counters against the static bounds; returns a record dict
    (see :func:`make_record`)."""
    from repro.validate.runner import DifferentialRunner

    summary, bounds = analyze_case(case)
    if bounds is None:
        return make_record(label or case.name, None, None, None, None,
                           error="analysis blocked by structural errors")
    if runner is None:
        runner = DifferentialRunner(("interp",), trace=False)
    results, _mismatches = runner.run_case(case)
    result = results["interp"]
    if result.error is not None:
        return make_record(label or case.name, bounds.total_issues,
                           bounds.pages, None, None, error=result.error)
    observed_issues = int(result.stats["gpu.job.clauses_executed"])
    observed_pages = len(result.mmu["pages_accessed"])
    return make_record(label or case.name, bounds.total_issues,
                       bounds.pages, observed_issues, observed_pages)


def make_record(label, bound_issues, bound_pages, observed_issues,
                observed_pages, error=""):
    """One soundness comparison: both bounds beside both observations;
    ``ok`` when every observation is present and dominated."""
    record = {
        "label": label,
        "bound_issues": bound_issues,
        "bound_pages": bound_pages,
        "observed_issues": observed_issues,
        "observed_pages": observed_pages,
        "error": error,
    }
    record["ok"] = not error and _dominates(record)
    return record


def _dominates(record):
    for bound, observed in ((record["bound_issues"],
                             record["observed_issues"]),
                            (record["bound_pages"],
                             record["observed_pages"])):
        if observed is None:
            return False
        if bound is not None and observed > bound:
            return False
    return True


# -- full-platform checks ------------------------------------------------------


def _launch_records(prefix, log):
    """The records of a runtime recorder's *log*, labelled
    ``<prefix>:<kernel>``."""
    return [make_record(f"{prefix}:{launch['kernel']}",
                        launch["bound_issues"], launch["bound_pages"],
                        launch["observed_issues"], launch["observed_pages"],
                        error="" if launch["ok"] else "analysis blocked")
            for launch in log]


def workload_records(names, version=None):
    """Run workloads with the runtime recorder; returns (records, all
    verified). A failed output verification poisons the records (a wrong
    simulation would make the dominance check meaningless)."""
    from repro.cl import Context
    from repro.kernels import get_workload

    records = []
    verified = True
    for name in names:
        context = Context()
        log = context.enable_analysis_log()
        result = get_workload(name).run(context=context, version=version)
        verified = verified and result.verified
        records.extend(_launch_records(f"workload:{name}", log))
    return records, verified


def slam_records(config="express", version=None):
    """Run the KFusion SLAM pipeline with the recorder; returns records."""
    from repro.cl import Context
    from repro.slam.pipeline import KFusionPipeline

    context = Context()
    log = context.enable_analysis_log()
    KFusionPipeline(config=config).run_gpu(context=context, version=version)
    return _launch_records("slam", log)


def progen_records(seed, count, runner=None):
    """Check *count* generated programs from one progen stream."""
    from repro.validate.progen import ProgramGenerator
    from repro.validate.runner import generated_case_to_diff

    generator = ProgramGenerator(seed)
    records = []
    for _ in range(count):
        case = generated_case_to_diff(generator.generate())
        records.append(check_case(case, runner=runner,
                                  label=f"progen:{case.name}"))
    return records


def stress_records(seed, runner=None, categories=None):
    """Check one stress case per progen stress category."""
    from repro.validate.progen import STRESS_CATEGORIES, generate_stress_case
    from repro.validate.runner import generated_case_to_diff

    records = []
    for category in categories or STRESS_CATEGORIES:
        case = generated_case_to_diff(generate_stress_case(seed, category))
        records.append(check_case(case, runner=runner,
                                  label=f"stress:{category}"))
    return records


def corpus_record(entry, runner=None):
    """Check one corpus entry (reproducers included: soundness must hold
    even on programs that once exposed an engine bug)."""
    from repro.validate.corpus import dict_to_case

    case = dict_to_case(entry)
    return check_case(case, runner=runner, label=f"corpus:{case.name}")


def corpus_records(directory, runner=None):
    """Check every entry of a corpus directory."""
    from repro.validate.corpus import load_entries

    return [corpus_record(entry, runner=runner)
            for _path, entry in load_entries(directory)]


__all__ = [
    "analyze_case",
    "check_case",
    "corpus_record",
    "corpus_records",
    "diffcase_context",
    "make_record",
    "progen_records",
    "slam_records",
    "stress_records",
    "workload_records",
]
