"""The ``repro-sim`` command-line interface.

Subcommands:

- ``compile FILE``  — compile a kernel file; print per-kernel code metrics
  (optionally for every compiler version with ``--all-versions``).
- ``disasm FILE``   — clause-level disassembly of a compiled kernel.
- ``run FILE``      — run a kernel on the full simulated platform with
  auto-generated buffers; print instrumentation.
- ``workloads``     — list the built-in Table-II workloads.
- ``bench NAME``    — run one built-in workload; print stats + cycle
  estimate.
- ``conformance``   — coverage-guided differential fuzzing campaign across
  the execution engines (or ``--replay DIR`` of a reproducer corpus).
- ``stats FILE``    — run a kernel and dump the unified cross-layer
  StatsRegistry (text or JSON).
- ``trace FILE``    — run a kernel with the event tracer attached; write
  Chrome-trace/Perfetto JSON (load it in chrome://tracing or
  https://ui.perfetto.dev).
- ``faultcampaign`` — seeded fault-injection sweep asserting the
  kbase-faithful recovery invariants (bit-exact recovery, clean failure,
  usable-after, determinism); a failing case's reproducer is a one-case
  farm config (``--replay DIR`` re-runs a directory of them).
- ``lint FILE``     — run the static binary verifier over compiled
  kernels; findings are inlined into the clause disassembly
  (``--builtin`` sweeps every shipped workload + SLAM kernel,
  ``--json`` emits the stable ``repro-lint-report/1`` document).
- ``analyze FILE``  — static cost & resource analysis: loop trip
  bounds, per-clause issue costs, access-pattern classes and sound
  per-launch upper bounds on clause issues and pages touched
  (``--json`` emits ``repro-analyze-report/1``; ``--soundness`` holds
  the bounds against observed golden counters on every workload, SLAM,
  the stress categories, ``--progen N`` generated programs and a
  ``--corpus``, and writes the farm report with ``--out FILE``).
- ``farm``          — the config-driven simulation farm: ``farm run
  CONFIG`` executes a declarative mixed sweep (conformance + faults +
  lint + bench) on a multiprocess worker pool with a deterministic
  aggregate report; ``farm resume DIR`` finishes an interrupted
  campaign from its digest-verified journal (the final ``report.json``
  is byte-identical to an uninterrupted run); ``farm plan`` prints the
  case/shard expansion; ``farm example`` prints a copy-pasteable
  config.

``faultcampaign``, ``tenants``, ``conformance --replay`` and ``analyze
--soundness`` are sugar: their arguments become the one sweep of a farm
config that ``run_farm(..., workers=0)`` executes in this process (so a
replayed corpus's open ``mismatch`` entries must still mismatch, and a
tenant that differs from its solo run fails, as in the farm). The
cross-tenant attacker scenarios are ``faultcampaign --scenarios
xtenant-...``; the checkpoint matrix is ``farm run
examples/farm/checkpoint.json``.

The campaign verbs (``conformance``, ``faultcampaign``, ``tenants``,
``lint``, ``analyze``, ``farm``) exit non-zero on any failing case and
end their output with a stable machine-parsable summary line::

    RESULT <verb> status=<ok|fail> key=value ...

so wrapping automation (CI, the farm itself) never has to scrape
human-oriented output. Every verb exits 2 on a usage error — a bad
config, an unreadable FILE or corpus entry, an unknown workload, engine
or ``--kernel`` — with one line, never a traceback.
"""

import argparse
import glob
import os
import sys

import numpy as np

from repro.core.platform import DEFAULT_ENGINE, ENGINE_NAMES
from repro.errors import SimError, UsageError


def result_line(verb, ok, **fields):
    """Print the one-line machine-parsable campaign summary (stable
    format: ``RESULT <verb> status=<ok|fail> k=v ...``, space-separated,
    values free of spaces) and return the verb's exit code."""
    parts = [f"RESULT {verb}", f"status={'ok' if ok else 'fail'}"]
    parts.extend(f"{key}={value}" for key, value in fields.items())
    print(" ".join(parts))
    return 0 if ok else 1


def print_cases(cases):
    """One ``mark id detail`` line per case outcome (``{"id",
    "verdict", "detail"}``, as in a farm report); returns the number of
    failing cases."""
    for case in cases:
        mark = "ok  " if case["verdict"] == "pass" else "FAIL"
        print(f"{mark} {case['id']} {case['detail']}".rstrip())
    return sum(case["verdict"] != "pass" for case in cases)


def report_cases(verb, cases, count="cases", **fields):
    """The tail of every per-case campaign: the case lines, then the
    summary line; returns the exit code."""
    failures = print_cases(cases)
    return result_line(verb, not failures, **fields,
                       **{count: len(cases)}, failures=failures)


def _run_sweep(verb, sweep, verbose=False, out=None):
    """What the sweeping verbs are sugar for: one sweep as a farm config
    run in this process, its report written to the file *out* if given;
    returns the config and the case outcomes."""
    from repro.checkpoint.format import atomic_write_bytes
    from repro.validate.farm import load_config, run_farm

    config = load_config({"name": verb, "sweeps": [sweep]})
    run = run_farm(config, workers=0, progress=print if verbose else None)
    if out:
        atomic_write_bytes(out, run.report_bytes)
    return config, run.report["cases"]


def _fail_closed(options):
    """Run the verb *options* selected. A typed simulator error out of
    it is a usage error (bad config, unreadable source, corpus entry or
    journal, unknown workload or kernel): one line and exit 2, never a
    traceback."""
    from repro.validate.farm import FarmConfigError

    try:
        return options.func(options)
    except FarmConfigError as exc:
        print(f"{options.command}: bad config: {exc}")
    except SimError as exc:
        print(f"{options.command}: {exc}")
    return 2


def _read_source(options):
    try:
        with open(options.file) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {options.file}: {exc}") from None


def _no_such_kernel(options, names):
    """``--kernel`` selected nothing: a gate that checks nothing must
    not pass."""
    return UsageError(f"no kernel {options.kernel!r}; "
                      f"available: {', '.join(sorted(names))}")


def _static_units(options, run_target, run_source, **geometry):
    """The units ``lint``/``analyze`` report on: the ``--builtin`` sweep
    or FILE, narrowed by ``--kernel``; None when neither was named."""
    from repro.gpu.verify.lint import builtin_targets

    if not (options.builtin or options.file):
        return None
    source = None if options.builtin else _read_source(options)

    def select(kernel):
        if options.builtin:
            return [unit for target in builtin_targets()
                    for unit in run_target(target, version=options.version,
                                           kernel=kernel, **geometry)]
        return run_source(options.file, source, defines=_defines(options),
                          version=options.version, kernel=kernel,
                          **geometry)

    units = select(options.kernel)
    if options.kernel and not units:
        raise _no_such_kernel(options, {unit.kernel
                                        for unit in select(None)})
    return units


def _ensure_outdir(path, verb):
    """Create an output directory (parents included) before a verb
    starts computing. Returns an error message (the verb prints it and
    exits 2) instead of raising, so an unwritable ``--out`` fails fast
    and clean rather than mid-campaign with a traceback."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return f"{verb}: cannot create output directory {path!r}: {exc}"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"{verb}: output directory {path!r} is not writable"
    return None


def _add_compile_args(parser, nargs=None):
    parser.add_argument("file", nargs=nargs,
                        help="kernel-language source file")
    parser.add_argument("--version", default=None,
                        help="compiler version preset (5.6 .. 6.2)")
    parser.add_argument("-D", "--define", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="preprocessor define (repeatable)")


def _add_static_args(parser, verb, schema):
    """The target arguments ``lint`` and ``analyze`` share: FILE or
    ``--builtin``, narrowed by ``--kernel``, in text or ``--json``."""
    _add_compile_args(parser, nargs="?")
    parser.add_argument("--kernel", default=None,
                        help=f"{verb} only this kernel")
    parser.add_argument("--builtin", action="store_true",
                        help=f"{verb} every built-in workload + SLAM "
                             "kernel instead of a file")
    parser.add_argument("--json", action="store_true",
                        help=f"stable {schema} JSON instead of text")


def _add_launch_args(parser):
    parser.add_argument("--kernel", default=None)
    parser.add_argument("--global-size", type=int, nargs="+", default=[64],
                        dest="global_size")
    parser.add_argument("--local-size", type=int, nargs="+", default=None,
                        dest="local_size")
    parser.add_argument("--elements", type=int, default=64,
                        help="elements per auto-generated buffer")
    parser.add_argument("--local", type=int, default=64,
                        help="words per LocalMemory argument")
    parser.add_argument("--arg", action="append", default=[],
                        metavar="NAME=VALUE", help="scalar argument value")
    parser.add_argument("--seed", type=int, default=0)


def _defines(options):
    defines = {}
    for item in options.define:
        name, _, value = item.partition("=")
        defines[name] = value or "1"
    return defines


def _cmd_compile(options):
    from repro.clc import COMPILER_VERSIONS, compile_source

    source = _read_source(options)
    versions = (sorted(COMPILER_VERSIONS) if options.all_versions
                else [options.version])
    print(f"{'kernel':20s} {'version':8s} {'clauses':>8s} {'slots':>6s} "
          f"{'nops':>5s} {'regs':>5s} {'scratch':>8s} {'bytes':>6s}")
    for version in versions:
        program = compile_source(source, options=version,
                                 defines=_defines(options))
        for name in sorted(program.kernels):
            kernel = program.kernels[name]
            metrics = kernel.static_metrics()
            print(f"{name:20s} {version or 'default':8s} "
                  f"{metrics['clauses']:8d} {metrics['slots']:6d} "
                  f"{metrics['nops']:5d} {metrics['registers']:5d} "
                  f"{kernel.scratch_per_thread:8d} "
                  f"{metrics['binary_bytes']:6d}")
    return 0


def _cmd_disasm(options):
    from repro.clc import compile_source
    from repro.gpu.disasm import disassemble

    program = compile_source(_read_source(options), options=options.version,
                             defines=_defines(options))
    names = sorted(program.kernels)
    if options.kernel:
        if options.kernel not in names:
            raise _no_such_kernel(options, names)
        names = [options.kernel]
    for name in names:
        print(f"; kernel {name}")
        print(disassemble(program.kernels[name].program))
        print()
    return 0


def _prepare_launch(options, context):
    """Shared kernel-launch setup (compile, auto-generate buffers, bind
    args) for the run/stats/trace verbs. Returns (queue, kernel, buffers,
    global_size, local_size)."""
    from repro.cl import CommandQueue, LocalMemory

    queue = CommandQueue(context)
    program = context.build_program(_read_source(options),
                                    version=options.version,
                                    defines=_defines(options))
    name = options.kernel or program.kernel_names[0]
    kernel = program.kernel(name)

    rng = np.random.default_rng(options.seed)
    scalar_values = {}
    for item in options.arg:
        arg_name, _, value = item.partition("=")
        scalar_values[arg_name] = value
    buffers = []
    for position, (param_name, kind, ty) in enumerate(kernel.compiled.params):
        if kind == "buffer":
            if ty.pointee.is_float:
                array = rng.random(options.elements, dtype=np.float32)
            else:
                array = rng.integers(0, 100, options.elements) \
                    .astype(np.int32)
            buffer = context.buffer_from_array(array)
            buffers.append((param_name, buffer, array.dtype))
            kernel.set_arg(position, buffer)
        elif kind == "local_ptr":
            kernel.set_arg(position, LocalMemory(4 * options.local))
        else:
            raw = scalar_values.get(param_name, options.elements)
            value = float(raw) if ty.is_float else int(raw)
            kernel.set_arg(position, value)

    global_size = tuple(options.global_size)
    local_size = tuple(options.local_size) if options.local_size else None
    return queue, kernel, buffers, global_size, local_size


def _cmd_run(options):
    from repro.cl import Context

    context = Context()
    queue, kernel, buffers, global_size, local_size = \
        _prepare_launch(options, context)
    name = kernel.name
    stats = queue.enqueue_nd_range(kernel, global_size, local_size).stats
    print(f"ran {name}: {stats.threads_launched} threads, "
          f"{stats.workgroups} workgroups")
    mix = stats.instruction_mix()
    print("instruction mix: "
          + ", ".join(f"{k}={100 * v:.1f}%" for k, v in mix.items()))
    print(f"clauses executed: {stats.clauses_executed} "
          f"(avg size {stats.average_clause_size():.2f})")
    print(f"divergent branches: {stats.divergent_branches}")
    system = context.platform.system_stats()
    print(f"system: pages={system.pages_accessed} "
          f"regR={system.ctrl_reg_reads} regW={system.ctrl_reg_writes} "
          f"irqs={system.interrupts_asserted}")
    for param_name, buffer, dtype in buffers[: options.show_buffers]:
        data = queue.enqueue_read_buffer(buffer, dtype,
                                         count=min(8, options.elements))
        print(f"{param_name}[:8] = {data}")
    return 0


def _cmd_workloads(_options):
    from repro.kernels import WORKLOADS

    print(f"{'name':18s} {'suite':14s} {'paper input':28s} defaults")
    for name in sorted(WORKLOADS):
        cls = WORKLOADS[name]
        defaults = ", ".join(f"{k}={v}" for k, v in
                             sorted(cls.default_params().items()))
        print(f"{name:18s} {cls.suite:14s} {cls.paper_input:28s} {defaults}")
    return 0


def _cmd_bench(options):
    from repro.instrument.timing import CycleModel
    from repro.kernels import get_workload

    try:
        params = {name: int(value) for name, _, value in
                  (item.partition("=") for item in options.param)}
        workload = get_workload(options.name, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --param: {exc}") from None
    result = workload.run()
    stats = result.stats
    print(f"{options.name}: verified={result.verified} jobs={result.jobs} "
          f"wall={result.total_seconds:.3f}s "
          f"(cpu-side {result.cpu_seconds:.3f}s)")
    mix = stats.instruction_mix()
    print("instruction mix: "
          + ", ".join(f"{k}={100 * v:.1f}%" for k, v in mix.items()))
    breakdown = stats.data_access_breakdown()
    print("data accesses:   "
          + ", ".join(f"{k}={100 * v:.1f}%" for k, v in breakdown.items()))
    estimate = CycleModel().estimate(stats, jobs=result.jobs)
    print(f"cycle estimate: {estimate['total_cycles']:.0f} cycles "
          f"({estimate['bound_by']}-bound, "
          f"occupancy {100 * estimate['occupancy']:.0f}%)")
    return 0 if result.verified else 1


def _cmd_stats(options):
    from repro.cl import Context
    from repro.instrument.registry import format_registry

    context = Context()
    queue, kernel, _buffers, global_size, local_size = \
        _prepare_launch(options, context)
    queue.enqueue_nd_range(kernel, global_size, local_size)
    registry = context.platform.stats_registry
    if options.json:
        print(registry.to_json(golden_only=options.golden_only))
    else:
        print(format_registry(registry, golden_only=options.golden_only))
    return 0


def _cmd_trace(options):
    import json

    from repro.cl import Context
    from repro.instrument.tracing import EventTracer, validate_trace

    if options.limit is not None and options.limit < 1:
        raise UsageError(f"--limit must be at least 1, got {options.limit}")
    parent = os.path.dirname(os.path.abspath(options.output))
    error = _ensure_outdir(parent, "trace")
    if error:
        print(error)
        return 2

    context = Context()
    tracer = EventTracer(ring_size=options.limit)
    context.platform.attach_events(tracer)
    queue, kernel, _buffers, global_size, local_size = \
        _prepare_launch(options, context)
    queue.enqueue_nd_range(kernel, global_size, local_size)
    trace = tracer.to_chrome_trace()
    from repro.checkpoint.format import atomic_write_bytes

    try:
        atomic_write_bytes(
            options.output,
            json.dumps(trace, indent=1).encode("utf-8"))
    except OSError as exc:
        print(f"trace: cannot write {options.output}: {exc}")
        return 2
    print(f"wrote {len(trace['traceEvents'])} events to {options.output} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    if options.validate:
        # a ring buffer may have evicted opening B events
        problems = validate_trace(trace,
                                  check_balance=options.limit is None)
        for problem in problems:
            print(f"invalid: {problem}")
        if problems:
            return 1
        print("trace validates against the schema")
    return 0


def _cmd_conformance(options):
    from repro.validate import ENGINES, run_conformance
    from repro.validate.runner import engine_mode

    if options.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {options.budget}")
    if not 0.0 <= options.min_coverage <= 1.0:
        raise UsageError(f"--min-coverage must be in [0, 1], "
                         f"got {options.min_coverage}")
    if options.replay:
        if options.min_coverage > 0:
            raise UsageError("--min-coverage does not apply to --replay "
                             "(a replay measures no coverage)")
        _config, cases = _run_sweep("conformance", {
            "kind": "corpus", "dir": options.replay,
            "engines": (options.engines.split("+") if options.engines
                        else None)})
        return report_cases("conformance", cases, count="entries",
                            mode="replay")
    engines = tuple(options.engines.split("+")) if options.engines \
        else ENGINES
    for engine in engines:
        try:
            engine_mode(engine)
        except ValueError:
            raise UsageError(f"unknown engine {engine!r}; "
                             f"known: {'+'.join(ENGINES)}") from None

    if options.write_corpus:
        error = _ensure_outdir(options.write_corpus, "conformance")
        if error:
            print(error)
            return 2

    def progress(done, budget, failures):
        if done % 50 == 0 or done == budget:
            print(f"  {done}/{budget} programs, {failures} mismatching",
                  flush=True)

    report = run_conformance(
        seed=options.seed, budget=options.budget, engines=engines,
        minimize=not options.no_minimize, corpus_out=options.write_corpus,
        progress=progress if options.budget >= 50 else None)
    print("\n".join(report.lines()))
    short = report.coverage.fraction < options.min_coverage
    if short:
        print(f"coverage {100 * report.coverage.fraction:.1f}% below "
              f"required {100 * options.min_coverage:.1f}%")
    return result_line("conformance", report.ok and not short,
                       mode="fuzz", seed=options.seed,
                       programs=report.cases_run,
                       failures=len(report.failures),
                       coverage=f"{report.coverage.fraction:.4f}")


def _cmd_lint(options):
    from repro.gpu.verify import Severity
    from repro.gpu.verify.lint import (
        format_unit,
        lint_source,
        lint_target,
        totals,
    )

    min_severity = Severity.NOTE if options.notes else Severity.WARNING
    units = _static_units(options, lint_target, lint_source)
    if units is None:
        print("lint: need a FILE or --builtin")
        return 2

    if options.json:
        import json

        from repro.gpu.verify.lint import units_to_json

        document = units_to_json(units, min_severity=min_severity)
        print(json.dumps(document, indent=1))
        return 1 if document["totals"]["errors"] else 0

    for unit in units:
        if unit.error:
            print(f"FAIL {unit.label}: {unit.summary()}")
        else:
            print(format_unit(unit, disasm=not options.no_disasm,
                              min_severity=min_severity))

    total = totals(units)
    print(f"linted {total['kernels']} kernel(s): {total['errors']} "
          f"error(s), {total['warnings']} warning(s), "
          f"{total['notes']} note(s)")
    return result_line("lint", not total["errors"], **total)


def _cmd_analyze(options):
    if options.soundness:
        return _analyze_soundness(options)

    from repro.gpu.verify.analyze import (
        analyze_source,
        analyze_target,
        format_unit,
        totals,
        units_to_json,
    )

    geometry = {}
    if options.global_size:
        from repro.gpu.launch import normalize_sizes

        global_size, local_size = normalize_sizes(options.global_size,
                                                  options.local_size)
        geometry = {"global_size": global_size, "local_size": local_size}

    units = _static_units(options, analyze_target, analyze_source,
                          **geometry)
    if units is None:
        print("analyze: need a FILE, --builtin or --soundness")
        return 2

    if options.json:
        import json

        document = units_to_json(units)
        print(json.dumps(document, indent=1))
        return 1 if document["totals"]["failed"] else 0

    for unit in units:
        print(format_unit(unit, disasm=options.disasm))
    total = totals(units)
    print(f"analyzed {total['kernels']} kernel(s): {total['failed']} "
          f"failed, {total['unbounded']} with unbounded loops")
    return result_line("analyze", not total["failed"],
                       kernels=total["kernels"], failed=total["failed"],
                       unbounded=total["unbounded"])


def _analyze_soundness(options):
    """``analyze --soundness``: the ``soundness`` sweep, in process; a
    case fails on any bound violation or failed output verification."""
    from collections import Counter

    if options.out:
        error = _ensure_outdir(
            os.path.dirname(os.path.abspath(options.out)), "analyze")
        if error:
            print(error)
            return 2
    _config, cases = _run_sweep("analyze", {
        "kind": "soundness", "seeds": [options.seed],
        "progen": options.progen, "corpus": options.corpus,
        "version": options.version}, out=options.out)
    failures = print_cases(cases)
    if options.out:
        print(f"report: {options.out}")
    totals = sum((Counter(case["counters"]) for case in cases), Counter())
    return result_line("analyze", not failures, mode="soundness",
                       records=totals["records"],
                       violations=totals["violations"],
                       unbounded=totals["unbounded_issues"],
                       verified=not totals["failed_verifications"])


def _cmd_faultcampaign(options):
    from repro.validate.farm import PROVIDERS, expand_cases, run_farm

    progress = print if options.verbose else None
    if options.replay:
        paths = sorted(glob.glob(os.path.join(options.replay, "*.json")))
        if not paths:
            print(f"faultcampaign: no reproducers under {options.replay}")
            return 2
        cases = [case for path in paths for case in
                 run_farm(path, workers=0, progress=progress)
                 .report["cases"]]
        return report_cases("faultcampaign", cases, mode="replay")

    if options.write_repros:
        error = _ensure_outdir(options.write_repros, "faultcampaign")
        if error:
            print(error)
            return 2

    config, cases = _run_sweep("faultcampaign", {
        "kind": "fault", "workloads": options.workloads,
        "scenarios": (options.scenarios.split(",") if options.scenarios
                      else None),
        "seeds": options.seeds, "engines": [options.engine],
        "check_determinism": not options.no_determinism,
    }, verbose=options.verbose)
    failing = [case["id"] for case in cases if case["verdict"] != "pass"]
    if failing and options.write_repros:
        specs = {case["id"]: case["spec"] for case in expand_cases(config)}
        for case_id in failing:
            PROVIDERS["fault"].write_reproducer(options.write_repros,
                                                specs[case_id])
        print(f"wrote {len(failing)} reproducers to {options.write_repros}")
    return report_cases("faultcampaign", cases, mode="sweep",
                        engine=options.engine)


def _cmd_tenants(options):
    _config, cases = _run_sweep("tenants", {
        "kind": "tenants", "tenants": [options.tenants],
        "engine_modes": [options.engine], "seeds": [options.seed],
        "jobs": options.jobs})
    counters = cases[0]["counters"]
    return report_cases(
        "tenants", cases, mode="fairness", engine=options.engine,
        tenants=options.tenants,
        dispatches=counters.get("arbiter_dispatched", 0),
        preemptions=counters.get("driver_preemptions", 0),
        promotions=counters.get("arbiter_promotions", 0),
        isolation_checked=counters.get("isolation_checked", 0))


_FARM_EXAMPLE = """\
{
 "name": "example-sweep",
 "shard_size": 2,
 "timeout_s": 120,
 "max_attempts": 2,
 "sweeps": [
  {"kind": "conformance", "engines": ["interp", "mega"],
   "seeds": 2, "budget": 5},
  {"kind": "fault", "workloads": ["sgemm"],
   "scenarios": ["irq-lost", "mmu-transient"], "seeds": [0],
   "engines": ["interpreter"]},
  {"kind": "lint", "targets": ["builtin:sgemm", "slam"]},
  {"kind": "analyze", "targets": ["builtin:sgemm", "slam"]},
  {"kind": "bench", "engines": ["interpreter"],
   "workloads": [{"name": "nn", "params": {"records": 128}}]}
 ]
}"""


def _cmd_farm(options):
    from repro.validate.farm import (
        expand_cases,
        load_config,
        plan_shards,
        resume_farm,
        run_farm,
    )

    if options.farm_action == "example":
        print(_FARM_EXAMPLE)
        return 0

    if options.farm_action == "resume":
        error = _ensure_outdir(options.outdir, "farm")
        if error:
            print(error)
            return 2
        run = resume_farm(
            options.outdir, workers=options.workers,
            progress=print if options.verbose else None)
        config = load_config(run.report["config"])
    else:
        config = load_config(options.config)
        if options.farm_action == "plan":
            cases = expand_cases(config)
            shards = plan_shards([case["id"] for case in cases],
                                 config.shard_size)
            print(f"farm '{config.name}' "
                  f"(config {config.config_hash[:12]}): "
                  f"{len(cases)} cases in {len(shards)} shards")
            for shard in shards:
                print(f"{shard.shard_id}:")
                for case_id in shard.case_ids:
                    print(f"  {case_id}")
            return 0
        if options.out is not None:
            error = _ensure_outdir(options.out, "farm")
            if error:
                print(error)
                return 2
        run = run_farm(config, workers=options.workers,
                       outdir=options.out,
                       progress=print if options.verbose else None)

    print(run.summary())
    if run.report_path:
        print(f"report: {run.report_path}")
    totals = run.report["totals"]
    return result_line("farm", run.ok, config=config.config_hash[:12],
                       cases=totals["cases"],
                       **{verdict: totals[verdict]
                          for verdict in ("pass", "fail", "error",
                                          "timeout", "crash")})


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Full-system mobile CPU/GPU simulator tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and show metrics")
    _add_compile_args(p_compile)
    p_compile.add_argument("--all-versions", action="store_true",
                           help="compile with every version preset")
    p_compile.set_defaults(func=_cmd_compile)

    p_disasm = sub.add_parser("disasm", help="clause-level disassembly")
    _add_compile_args(p_disasm)
    p_disasm.add_argument("--kernel", default=None)
    p_disasm.set_defaults(func=_cmd_disasm)

    p_run = sub.add_parser("run", help="run a kernel on the platform")
    _add_compile_args(p_run)
    _add_launch_args(p_run)
    p_run.add_argument("--show-buffers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser(
        "stats", help="run a kernel; dump the unified stats registry")
    _add_compile_args(p_stats)
    _add_launch_args(p_stats)
    p_stats.add_argument("--json", action="store_true",
                         help="emit JSON instead of the text table")
    p_stats.add_argument("--golden-only", action="store_true",
                         help="only engine-invariant (golden) stats")
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="run a kernel; write Chrome-trace/Perfetto JSON")
    _add_compile_args(p_trace)
    _add_launch_args(p_trace)
    p_trace.add_argument("--output", "-o", default="trace.json",
                         help="output path (default: trace.json)")
    p_trace.add_argument("--limit", type=int, default=None, metavar="N",
                         help="ring-buffer mode: keep only the last N events")
    p_trace.add_argument("--validate", action="store_true",
                         help="check the emitted trace against the schema")
    p_trace.set_defaults(func=_cmd_trace)

    p_work = sub.add_parser("workloads", help="list built-in workloads")
    p_work.set_defaults(func=_cmd_workloads)

    p_bench = sub.add_parser("bench", help="run a built-in workload")
    p_bench.add_argument("name")
    p_bench.add_argument("--param", action="append", default=[],
                         metavar="NAME=VALUE")
    p_bench.set_defaults(func=_cmd_bench)

    p_conf = sub.add_parser(
        "conformance",
        help="differential fuzzing campaign across execution engines")
    p_conf.add_argument("--seed", type=int, default=0,
                        help="generator stream seed")
    p_conf.add_argument("--budget", type=int, default=200,
                        help="number of programs to generate and run")
    p_conf.add_argument("--engines", default=None, metavar="A+B+...",
                        help="engine subset, e.g. interp+m2s "
                             "(default: all three, interp+mega+m2s)")
    p_conf.add_argument("--replay", default=None, metavar="DIR",
                        help="replay a corpus directory instead of fuzzing "
                             "(open mismatch entries must still mismatch)")
    p_conf.add_argument("--write-corpus", default=None, metavar="DIR",
                        help="write minimized reproducers here on failure")
    p_conf.add_argument("--no-minimize", action="store_true",
                        help="skip failure minimization")
    p_conf.add_argument("--min-coverage", type=float, default=0.0,
                        help="fail below this coverage fraction (0..1)")
    p_conf.set_defaults(func=_cmd_conformance)

    p_lint = sub.add_parser(
        "lint",
        help="static verifier over compiled kernels (annotated disasm)")
    _add_static_args(p_lint, "lint", "repro-lint-report/1")
    p_lint.add_argument("--notes", action="store_true",
                        help="also show note-severity findings")
    p_lint.add_argument("--no-disasm", action="store_true",
                        help="plain finding list, no annotated disassembly")
    p_lint.set_defaults(func=_cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="static cost & resource analysis (loop bounds, issue/page "
             "bounds) or the --soundness dominance sweep")
    _add_static_args(p_analyze, "analyze", "repro-analyze-report/1")
    p_analyze.add_argument("--global-size", type=int, nargs="+",
                           default=None, dest="global_size",
                           help="evaluate bounds for this launch geometry")
    p_analyze.add_argument("--local-size", type=int, nargs="+",
                           default=None, dest="local_size")
    p_analyze.add_argument("--disasm", action="store_true",
                           help="include cost-annotated disassembly")
    p_analyze.add_argument("--soundness", action="store_true",
                           help="differential dominance sweep: static "
                                "bounds vs observed golden counters")
    p_analyze.add_argument("--progen", type=int, default=0, metavar="N",
                           help="also check N generated programs")
    p_analyze.add_argument("--corpus", default=None, metavar="DIR",
                           help="also check a reproducer corpus directory")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="generator seed for --soundness")
    p_analyze.add_argument("--out", default=None, metavar="FILE",
                           help="write the --soundness farm report here")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_fault = sub.add_parser(
        "faultcampaign",
        help="seeded fault-injection campaign with recovery invariants")
    p_fault.add_argument("--workloads", nargs="+",
                         default=["sgemm", "divergent"],
                         help="workload names (default: sgemm divergent)")
    p_fault.add_argument("--scenarios", default=None,
                         metavar="A,B,...",
                         help="comma-separated scenario subset "
                              "(default: all)")
    p_fault.add_argument("--seeds", type=int, default=1,
                         help="seeds per (workload, scenario) case")
    p_fault.add_argument("--engine", default=DEFAULT_ENGINE,
                         choices=ENGINE_NAMES)
    p_fault.add_argument("--write-repros", default=None, metavar="DIR",
                         help="write each failing case here as a "
                              "reproducer: its one-case farm config")
    p_fault.add_argument("--replay", default=None, metavar="DIR",
                         help="re-run a directory of reproducers (farm "
                              "configs) instead of sweeping")
    p_fault.add_argument("--no-determinism", action="store_true",
                         help="skip the double-run determinism check "
                              "(halves runtime; a reproducer has its own)")
    p_fault.add_argument("--verbose", action="store_true",
                         help="print each case as it lands")
    p_fault.set_defaults(func=_cmd_faultcampaign)

    p_tenants = sub.add_parser(
        "tenants",
        help="multi-tenant fairness campaign with solo-vs-multi "
             "isolation checks")
    p_tenants.add_argument("--tenants", type=int, default=4,
                           help="client contexts sharing the GPU "
                                "(default: 4, mixed rt/fg/bg classes)")
    p_tenants.add_argument("--jobs", type=int, default=2,
                           help="jobs submitted per tenant")
    p_tenants.add_argument("--engine", default=DEFAULT_ENGINE,
                           choices=ENGINE_NAMES)
    p_tenants.add_argument("--seed", type=int, default=0,
                           help="input-data seed")
    p_tenants.set_defaults(func=_cmd_tenants)

    p_farm = sub.add_parser(
        "farm",
        help="config-driven parallel simulation farm (mixed sweeps)")
    farm_sub = p_farm.add_subparsers(dest="farm_action", required=True)
    pf_run = farm_sub.add_parser(
        "run", help="execute a sweep config on a worker pool")
    pf_run.add_argument("config", help="JSON sweep config path")
    pf_run.add_argument("--workers", type=int, default=2,
                        help="worker process count (report-invariant)")
    pf_run.add_argument("--out", default=None, metavar="DIR",
                        help="write report.json, run.log and per-case "
                             "artifacts here")
    pf_run.add_argument("--verbose", action="store_true",
                        help="stream per-case results as they land")
    pf_run.set_defaults(func=_cmd_farm)
    pf_resume = farm_sub.add_parser(
        "resume",
        help="finish an interrupted campaign from its journal "
             "(report.json comes out byte-identical to an "
             "uninterrupted run)")
    pf_resume.add_argument("outdir",
                           help="the campaign's --out directory "
                                "(holds resume/)")
    pf_resume.add_argument("--workers", type=int, default=2,
                           help="worker process count (report-invariant)")
    pf_resume.add_argument("--verbose", action="store_true",
                           help="stream per-case results as they land")
    pf_resume.set_defaults(func=_cmd_farm)
    pf_plan = farm_sub.add_parser(
        "plan", help="print the deterministic case/shard expansion")
    pf_plan.add_argument("config", help="JSON sweep config path")
    pf_plan.set_defaults(func=_cmd_farm)
    pf_example = farm_sub.add_parser(
        "example", help="print a copy-pasteable sweep config")
    pf_example.set_defaults(func=_cmd_farm)

    return _fail_closed(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
