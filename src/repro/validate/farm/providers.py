"""Case providers: each sweep kind's grid and per-case execution.

A provider is the one layer between a sweep dict and a case outcome:

- ``normalize(sweep)`` — validate one sweep dict and expand shorthand
  into the canonical form that enters the config hash (runs at load
  time, in the manager);
- ``expand(sweep, config)`` — the product over that canonical (already
  validated) sweep: ``(case_id, spec)`` pairs in a deterministic order
  (manager side; ids must be globally unique);
- ``execute(spec, artifact_dir)`` — run one case to completion on a
  fresh platform — inside a **worker process**, or in the caller's for
  ``run_farm(workers=0)`` — returning ``(ok, detail, counters,
  artifacts)`` of plain picklable values.

The subsystems being swept export what runs *one* thing —
``run_conformance``, ``dict_to_case``, ``run_case``, ``run_mixed`` and
``solo_isolation``, ``run_differential``, ``lint_target``,
``analyze_target``, the :mod:`repro.validate.soundness` record
functions — and are imported lazily; the grids and the outcome shaping
live here and nowhere else. ``bench`` runs registered workloads;
``soundness`` holds the cost analysis's bounds against real runs;
``checkpoint`` is the save/restore/finish matrix over every engine
mode; ``selftest`` exercises the farm itself (a case that passes, a
case that raises, a case that genuinely hangs) and is what the
isolation and kill-recovery tests sweep.
"""

import importlib
import json
import os
import re
from itertools import product

from repro.core.platform import ENGINE_MODES, MobilePlatform, resolve_engine
from repro.gpu.device import DEFAULT_ENGINE
from repro.validate.farm.config import FarmConfigError


def _int_list(value, what, minimum=None):
    """An int stands for the one-element list; lists come back sorted
    and de-duplicated."""
    if isinstance(value, int):
        value = [value]
    if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool)
            and (minimum is None or v >= minimum) for v in value):
        raise FarmConfigError(
            f"{what} must be an int or non-empty list of ints"
            + ("" if minimum is None else f" >= {minimum}"))
    return sorted(set(value))


def _positive_int(sweep, key, default):
    value = sweep.get(key, default)
    if not isinstance(value, int) or value < 1:
        raise FarmConfigError(f"'{key}' must be a positive integer")
    return value


def _seed_list(value):
    """``3`` -> [0, 1, 2]; an explicit list passes through sorted."""
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise FarmConfigError("seeds must be >= 1")
        value = list(range(value))
    return _int_list(value, "seeds")


def _list(values, what):
    """*values* as a list; a string fails rather than becoming the list
    of its characters."""
    if isinstance(values, str):
        raise FarmConfigError(f"{what}s must be a list, not {values!r}")
    return list(values)


def _checked(values, known, what):
    """*values* as a list whose every element is one of *known*."""
    values = _list(values, what)
    for value in values:
        if value not in known:
            raise FarmConfigError(f"unknown {what} {value!r}")
    return values


def _engines(values, resolve, what):
    """*values* (``[DEFAULT_ENGINE]`` if none) as a list of names *resolve*
    accepts, spelled as given: case ids and the config hash carry it."""
    values = _list(values or [DEFAULT_ENGINE], what)
    for value in values:
        try:
            resolve(value)
        except ValueError:
            raise FarmConfigError(f"unknown {what} {value!r}") from None
    return values


def _version(sweep):
    """The sweep's compiler version preset, None for the default."""
    from repro.clc import COMPILER_VERSIONS

    version = sweep.get("version")
    if version is not None and str(version) not in COMPILER_VERSIONS:
        raise FarmConfigError(f"unknown compiler version {version!r}")
    return version


def _write_artifact(artifact_dir, name, text):
    """Write one per-case artifact; returns the case's artifact list."""
    if artifact_dir is None:
        return []
    from repro.checkpoint.format import atomic_write_text

    os.makedirs(artifact_dir, exist_ok=True)
    atomic_write_text(os.path.join(artifact_dir, name), text)
    return [name]


def sanitize_case_id(case_id):
    """A case id folded to a filesystem-safe artifact directory name."""
    return re.sub(r"[^A-Za-z0-9.+=,:-]", "_", case_id)


class ConformanceProvider:
    """Coverage-guided differential fuzzing chunks, one per seed (seeds
    are independent generator streams, so any subset of cases can run on
    any worker in any order)."""

    kind = "conformance"

    def normalize(self, sweep):
        from repro.validate.engines import ENGINES, engine_mode

        return {
            "kind": self.kind,
            "seeds": _seed_list(sweep.get("seeds", 1)),
            "budget": _positive_int(sweep, "budget", 25),
            "engines": _engines(sweep.get("engines") or ENGINES,
                                engine_mode, "engine"),
            "minimize": bool(sweep.get("minimize", False)),
            "verify": bool(sweep.get("verify", True)),
        }

    def expand(self, sweep, config):
        engines = "+".join(sweep["engines"])
        for seed in sweep["seeds"]:
            yield f"conformance/{engines}/seed{seed}", {
                "seed": seed, "budget": sweep["budget"],
                "engines": sweep["engines"],
                "minimize": sweep["minimize"], "verify": sweep["verify"]}

    def execute(self, spec, artifact_dir):
        from repro.validate.conformance import run_conformance

        report = run_conformance(
            seed=spec["seed"], budget=spec["budget"],
            engines=tuple(spec["engines"]), minimize=spec["minimize"],
            corpus_out=artifact_dir, verify=spec["verify"])
        counters = {
            "programs": report.cases_run,
            "failures": len(report.failures),
            "coverage_hit": report.coverage.covered,
            "coverage_total": report.coverage.total,
        }
        detail = "; ".join(f.summary() for f in report.failures[:3])
        artifacts = [os.path.basename(f.reproducer_path)
                     for f in report.failures if f.reproducer_path]
        return report.ok, detail, counters, artifacts


class CorpusProvider:
    """Replay of a reproducer corpus directory, one case per entry:
    ``match`` entries must match, open ``mismatch`` reproducers of a
    known bug must still mismatch."""

    kind = "corpus"

    def normalize(self, sweep):
        from repro.validate.engines import engine_mode

        directory = sweep.get("dir")
        if not isinstance(directory, str) or not directory:
            raise FarmConfigError("corpus sweep needs a 'dir'")
        engines = sweep.get("engines")
        return {"kind": self.kind, "dir": directory,
                "engines": (_engines(engines, engine_mode, "engine")
                            if engines else None)}

    def expand(self, sweep, config):
        from repro.validate.corpus import load_entries

        # entries are addressed by filename, so the sweep is stable
        # across re-expansion; the executing process re-reads the file
        for path, entry in load_entries(sweep["dir"]):
            yield f"corpus/{os.path.basename(path)}", {
                "path": path,
                "name": entry.get("name", os.path.basename(path)),
                "expect": entry.get("expect", "match"),
                "engines": sweep["engines"],
            }

    def execute(self, spec, artifact_dir):
        from repro.validate.corpus import dict_to_case, load_entry
        from repro.validate.runner import (
            ENGINES,
            DifferentialRunner,
            run_case_outcome,
        )

        case = dict_to_case(load_entry(spec["path"]), spec["path"])
        runner = DifferentialRunner(tuple(spec["engines"] or ENGINES))
        ok, detail, counters = run_case_outcome(runner, case)
        if spec["expect"] == "mismatch":
            ok, detail = (not ok), ("expected a mismatch, case now matches"
                                    if ok else "")
        return ok, detail, counters, []


class FaultProvider:
    """Seeded fault-injection cases over the recovery invariants: the
    ``workloads x scenarios x seeds x engines`` grid."""

    kind = "fault"

    def normalize(self, sweep):
        from repro.inject import scenarios

        # the GPU model runs one execution unit; the key (and the ids'
        # /t1) stay only because pinned reports carry them
        if sweep.get("threads", 1) not in (1, [1]):
            raise FarmConfigError("fault sweep 'threads' must be 1: the "
                                  "GPU model runs one execution unit")
        return {
            "kind": self.kind,
            "workloads": _checked(
                sweep.get("workloads") or scenarios.DEFAULT_WORKLOADS,
                scenarios.known_workloads(), "fault workload"),
            "scenarios": sorted(_checked(
                sweep.get("scenarios") or scenarios.SCENARIOS,
                scenarios.SCENARIOS, "scenario")),
            "seeds": _seed_list(sweep.get("seeds", 1)),
            "engines": _engines(sweep.get("engines"), resolve_engine,
                                "fault engine"),
            "threads": [1],
            "check_determinism": bool(sweep.get("check_determinism",
                                                False)),
        }

    def expand(self, sweep, config):
        for workload, scenario, seed, engine in product(
                sweep["workloads"], sweep["scenarios"], sweep["seeds"],
                sweep["engines"]):
            yield f"fault/{workload}/{scenario}/s{seed}/{engine}/t1", {
                "workload": workload, "scenario": scenario, "seed": seed,
                "engine": engine,
                "check_determinism": sweep["check_determinism"]}

    def execute(self, spec, artifact_dir):
        from repro.inject.campaign import CaseResult, run_case

        try:
            case, _plan = run_case(
                spec["workload"], spec["scenario"], spec["seed"],
                engine=spec["engine"],
                check_determinism=spec["check_determinism"])
        except Exception as exc:  # invariant: nothing escapes raw
            case = CaseResult(
                spec["workload"], spec["scenario"], spec["seed"], False,
                f"non-SimError escaped: {type(exc).__name__}: {exc}")
        artifacts = [] if case.ok \
            else self.write_reproducer(artifact_dir, spec)
        counters = {key: int(value) for key, value in
                    sorted(case.counters.items())}
        counters["fired"] = int(case.fired)
        return case.ok, case.detail, counters, artifacts

    def reproducer(self, spec):
        """The farm config whose one case is *spec*: every axis a
        singleton, the plan regenerated from the seed. ``farm run FILE``
        and ``faultcampaign --replay DIR`` re-run it."""
        return {
            "name": (f"{spec['workload']}--{spec['scenario']}"
                     f"--s{spec['seed']}"),
            "sweeps": [{
                "kind": self.kind,
                "workloads": [spec["workload"]],
                "scenarios": [spec["scenario"]],
                "seeds": [spec["seed"]],
                "engines": [spec["engine"]],
                "check_determinism": spec["check_determinism"],
            }],
        }

    def write_reproducer(self, out_dir, spec):
        """Write *spec*'s reproducer into *out_dir* as ``<name>.json``;
        returns the artifact list (that file name)."""
        config = self.reproducer(spec)
        return _write_artifact(out_dir, config["name"] + ".json",
                               json.dumps(config, indent=2) + "\n")


class StaticToolProvider:
    """One case per target of a static tool: ``lint`` (the binary
    verifier) or ``analyze`` (the cost analysis), each the
    ``repro.gpu.verify`` module of its kind's name, imported when a case
    runs. Both modules have the same shape — ``<kind>_target`` gives the
    target's units, ``totals`` folds them into the counters,
    ``format_unit`` renders the failing ones into the case's text
    artifact. Both check targets against ``lint.builtin_targets()``,
    which imports no verifier pass.

    A lint case fails on any error-severity finding or failed compile.
    An analyze case fails when any kernel fails to analyze (compile
    error or structural errors blocking the cost pass); unbounded loops
    are reported in the counters but are not failures (data-dependent
    loops are legitimate — the ``soundness`` sweep decides whether
    their page bounds still dominate)."""

    def __init__(self, kind, artifact, headline):
        self.kind = kind
        self.artifact = artifact    # file the failing units are written to
        self.headline = headline    # the unit method giving its status line

    def normalize(self, sweep):
        from repro.gpu.verify.lint import builtin_targets

        builtin = builtin_targets()
        targets = sweep.get("targets", "builtin")
        if targets == "builtin":
            targets = builtin
        if not isinstance(targets, list) or not targets or not all(
                isinstance(target, str) for target in targets):
            raise FarmConfigError(
                f"{self.kind} sweep needs 'targets' (list or \"builtin\")")
        for target in targets:
            if target.startswith("builtin:") and target not in builtin:
                raise FarmConfigError(
                    f"unknown {self.kind} target {target!r}")
        return {"kind": self.kind, "targets": sorted(targets),
                "version": _version(sweep)}

    def expand(self, sweep, config):
        for target in sweep["targets"]:
            yield f"{self.kind}/{target}", {"target": target,
                                            "version": sweep["version"]}

    def execute(self, spec, artifact_dir):
        tool = importlib.import_module(f"repro.gpu.verify.{self.kind}")
        units = getattr(tool, f"{self.kind}_target")(
            spec["target"], version=spec["version"])
        failing = [unit for unit in units if not unit.ok]
        artifacts = [] if not failing else _write_artifact(
            artifact_dir, self.artifact,
            "".join(tool.format_unit(unit) + "\n" for unit in failing))
        detail = "; ".join(
            f"{u.label}:{u.kernel or '<compile>'} "
            f"{getattr(u, self.headline)()}" for u in failing[:3])
        return not failing, detail, tool.totals(units), artifacts


class SoundnessProvider:
    """The cost analysis's dominance gate (:mod:`repro.validate.soundness`),
    one case per workload, SLAM, stress category x seed, progen stream
    (per seed) and corpus entry. A case's counters sum bound and observed
    issues and pages over the records each bound is finite for: its
    tightness is ``bound_issues / observed_issues``."""

    kind = "soundness"

    def normalize(self, sweep):
        progen, corpus = sweep.get("progen", 0), sweep.get("corpus")
        if not isinstance(progen, int) or progen < 0:
            raise FarmConfigError("'progen' must be an integer >= 0")
        if corpus is not None and not (isinstance(corpus, str) and corpus):
            raise FarmConfigError("'corpus' must be a directory or null")
        return {"kind": self.kind,
                "seeds": _seed_list(sweep.get("seeds", [0])),
                "progen": progen, "corpus": corpus,
                "version": _version(sweep)}

    def expand(self, sweep, config):
        from repro.kernels import WORKLOADS
        from repro.validate.corpus import load_entries
        from repro.validate.progen import STRESS_CATEGORIES

        version = sweep["version"]
        for name in sorted(WORKLOADS):
            yield f"soundness/workload/{name}", {
                "source": "workload", "name": name, "version": version}
        yield "soundness/slam", {"source": "slam", "version": version}
        for category, seed in product(STRESS_CATEGORIES, sweep["seeds"]):
            yield f"soundness/stress/{category}/s{seed}", {
                "source": "stress", "category": category, "seed": seed}
        for seed in sweep["seeds"] if sweep["progen"] else ():
            yield f"soundness/progen/s{seed}", {
                "source": "progen", "seed": seed, "count": sweep["progen"]}
        # a missing or empty corpus raises here, before any case runs
        for path, _entry in (load_entries(sweep["corpus"])
                             if sweep["corpus"] is not None else ()):
            yield f"soundness/corpus/{os.path.basename(path)}", {
                "source": "corpus", "path": path}

    def execute(self, spec, artifact_dir):
        from repro.validate import soundness
        from repro.validate.corpus import load_entry

        source, verified = spec["source"], True
        if source == "workload":
            records, verified = soundness.workload_records(
                [spec["name"]], version=spec["version"])
        elif source == "slam":
            records = soundness.slam_records(version=spec["version"])
        elif source == "stress":
            records = soundness.stress_records(
                spec["seed"], categories=[spec["category"]])
        elif source == "progen":
            records = soundness.progen_records(spec["seed"], spec["count"])
        else:
            records = [soundness.corpus_record(load_entry(spec["path"]))]
        violations = [r for r in records if not r["ok"]]
        counters = {"records": len(records), "violations": len(violations),
                    "unbounded_issues": sum(r["bound_issues"] is None
                                            for r in records),
                    "failed_verifications": int(not verified)}
        for side, counter in product(("bound", "observed"),
                                     ("issues", "pages")):
            counters[f"{side}_{counter}"] = sum(
                int(r[f"{side}_{counter}"]) for r in records
                if r[f"bound_{counter}"] is not None
                and r[f"observed_{counter}"] is not None)
        problems = ["verification failed"] * (not verified) + [
            f"{r['label']}: issues {r['observed_issues']} vs bound "
            f"{r['bound_issues']}, pages {r['observed_pages']} vs bound "
            f"{r['bound_pages']} {r['error']}".rstrip()
            for r in violations[:3]]
        return not problems, "; ".join(problems), counters, []


class BenchProvider:
    """Workload runs with verification plus a golden-stats snapshot."""

    kind = "bench"

    def normalize(self, sweep):
        from repro.kernels import WORKLOADS

        workloads = sweep.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise FarmConfigError("bench sweep needs a 'workloads' list")
        normalized = []
        for item in workloads:
            if isinstance(item, str):
                item = {"name": item}
            if not isinstance(item, dict):
                raise FarmConfigError(
                    f"a bench workload is a name or an object, not {item!r}")
            unknown = sorted(set(item) - {"name", "params"})
            if unknown:
                raise FarmConfigError(
                    f"bench workload: unknown keys {unknown}")
            name = item.get("name")
            if not isinstance(name, str) or name not in WORKLOADS:
                raise FarmConfigError(f"unknown workload {name!r}")
            params = item.get("params", {})
            if not isinstance(params, dict) or not all(
                    isinstance(v, int) for v in params.values()):
                raise FarmConfigError(
                    f"bench params for {name!r} must be an object of "
                    f"integers")
            unknown = sorted(
                set(params) - set(WORKLOADS[name].default_params()))
            if unknown:
                raise FarmConfigError(
                    f"unknown bench params for {name!r}: {unknown}")
            normalized.append({"name": name,
                               "params": dict(sorted(params.items()))})
        return {"kind": self.kind, "workloads": normalized,
                "engines": _engines(sweep.get("engines"), resolve_engine,
                                    "bench engine")}

    def expand(self, sweep, config):
        for item in sweep["workloads"]:
            suffix = ",".join(f"{k}={v}"
                              for k, v in item["params"].items())
            point = item["name"] + (f"[{suffix}]" if suffix else "")
            for engine in sweep["engines"]:
                yield f"bench/{point}/{engine}", {
                    "name": item["name"], "params": item["params"],
                    "engine": engine}

    def execute(self, spec, artifact_dir):
        from repro.cl import Context
        from repro.kernels import get_workload

        context = Context(MobilePlatform.for_mode(spec["engine"]))
        workload = get_workload(spec["name"], **spec["params"])
        result = workload.run(context=context)
        # the deterministic face of the run is the golden registry
        # snapshot (identical across engines and schedules); wall-clock
        # timings are real measurements and go to the artifact instead
        counters = context.platform.stats_registry.snapshot(
            golden_only=True)
        counters["jobs"] = int(result.jobs)
        artifacts = _write_artifact(artifact_dir, "bench.json", json.dumps({
            "workload": spec["name"], "engine": spec["engine"],
            "params": spec["params"],
            "verified": bool(result.verified),
            "total_seconds": result.total_seconds,
            "gpu_seconds": result.gpu_seconds,
            "cpu_seconds": result.cpu_seconds,
        }, indent=1))
        detail = "" if result.verified else "verification failed"
        return bool(result.verified), detail, counters, artifacts


class TenantsProvider:
    """Mixed multi-tenant fairness campaigns: N client contexts over one
    GPU, one case per ``tenants x engine_modes x seeds`` grid point,
    every tenant's outputs verified, every tenant the arbiter did not
    preempt checked against its solo run (any difference fails the
    case), the fairness report captured as an artifact and a
    golden-stats fingerprint in the counters (so a sweep over engine
    modes or worker counts proves per-tenant golden stats invariant
    straight from the report)."""

    kind = "tenants"

    def normalize(self, sweep):
        return {
            "kind": self.kind,
            "tenants": _int_list(sweep.get("tenants", [4]), "tenants", 1),
            "engine_modes": _engines(sweep.get("engine_modes"),
                                     resolve_engine, "engine mode"),
            "seeds": _seed_list(sweep.get("seeds", 1)),
            "jobs": _positive_int(sweep, "jobs", 2),
        }

    def expand(self, sweep, config):
        for count, mode, seed in product(
                sweep["tenants"], sweep["engine_modes"], sweep["seeds"]):
            yield f"tenants/n{count}/{mode}/s{seed}", {
                "tenants": count, "engine_mode": mode, "seed": seed,
                "jobs": sweep["jobs"]}

    def execute(self, spec, artifact_dir):
        from repro.tenancy import harness

        plans = harness.default_plans(spec["tenants"], jobs=spec["jobs"])
        result = harness.run_mixed(plans, engine_mode=spec["engine_mode"],
                                   seed=spec["seed"])
        problems = [
            f"tenant{record.tenant_id}: "
            f"{'; '.join(record.errors) or 'verification failed'}"
            for record in result.records.values()
            if record.errors or not record.verified]
        isolation, skipped = harness.solo_isolation(plans, result,
                                                    seed=spec["seed"])
        problems += [f"tenant{tenant_id} not isolated: {'; '.join(diffs)}"
                     for tenant_id, diffs in isolation.items() if diffs]
        counters = {key.replace(".", "_"): int(value)
                    for key, value in result.counters().items()}
        counters["tenants"] = len(result.records)
        counters["jobs_completed"] = sum(
            record.jobs_completed for record in result.records.values())
        counters["golden_fingerprint"] = harness.golden_fingerprint(
            result.records)
        counters["isolation_checked"] = len(isolation)
        counters["isolation_skipped"] = len(skipped)
        artifacts = _write_artifact(
            artifact_dir, "fairness.txt",
            harness.fairness_report(result) + "\n")
        return not problems, "; ".join(problems[:3]), counters, artifacts


class CheckpointProvider:
    """The checkpoint differential matrix: every engine mode x {single
    client, 2 tenants}, each saved part-way, restored in a fresh process
    and finished, then compared with a straight run on output digests,
    golden stats and carve-out digests (:mod:`repro.checkpoint.harness`).
    The sweep takes no keys."""

    kind = "checkpoint"

    def normalize(self, sweep):
        return {"kind": self.kind}

    def expand(self, sweep, config):
        for mode, tenants in product(ENGINE_MODES, (0, 2)):
            yield f"checkpoint/{mode}/tenants={tenants}", {
                "engine_mode": mode, "tenants": tenants}

    def execute(self, spec, artifact_dir):
        from repro.checkpoint import harness

        problems = harness.run_differential(harness.default_spec(**spec))
        return not problems, "; ".join(problems), {}, []


class SelftestProvider:
    """The farm's own fault-injection surface.

    Behaviors: ``ok`` runs a tiny real differential case; ``raise``
    raises inside the worker; ``hang`` executes the verifier corpus's
    ``infinite-loop`` defect program on an un-watchdogged interpreter —
    a genuine in-engine hang only the farm-level timeout can end (the
    platform's own ``core.hang`` injection is always recovered by the
    watchdog ladder, so it cannot exercise the farm's kill path).
    """

    kind = "selftest"

    BEHAVIORS = ("ok", "raise", "hang")

    def normalize(self, sweep):
        return {"kind": self.kind,
                "behaviors": _checked(sweep.get("behaviors", ["ok"]),
                                      self.BEHAVIORS, "selftest behavior"),
                "count": _positive_int(sweep, "count", 1)}

    def expand(self, sweep, config):
        for behavior in sweep["behaviors"]:
            for index in range(sweep["count"]):
                case_id = f"selftest/{behavior}/{index}"
                yield case_id, {"behavior": behavior,
                                "seed": config.case_seed(case_id) % 1000}

    def execute(self, spec, artifact_dir):
        from repro.validate.progen import (
            ProgramGenerator,
            generate_defect_case,
        )
        from repro.validate.runner import (
            DifferentialRunner,
            generated_case_to_diff,
            run_case_outcome,
        )

        behavior = spec["behavior"]
        if behavior == "raise":
            raise RuntimeError("selftest: injected worker exception")
        if behavior == "hang":
            case = generate_defect_case(spec["seed"], "infinite-loop")
            runner = DifferentialRunner(("interp",), trace=False)
            runner.run_case(generated_case_to_diff(case))  # never returns
            return False, "hang case unexpectedly completed", {}, []
        generated = ProgramGenerator(spec["seed"]).generate()
        # "fast" runs interp again; it stays because a pinned report
        # (benchmarks/e2e/farm_sweep.json) carries its fast.* counters
        runner = DifferentialRunner(("interp", "fast"), trace=False)
        ok, detail, counters = run_case_outcome(
            runner, generated_case_to_diff(generated))
        return ok, detail, counters, []


PROVIDERS = {provider.kind: provider for provider in (
    ConformanceProvider(),
    CorpusProvider(),
    FaultProvider(),
    StaticToolProvider("lint", "findings.txt", "summary"),
    StaticToolProvider("analyze", "analysis.txt", "headline"),
    SoundnessProvider(),
    BenchProvider(),
    TenantsProvider(),
    CheckpointProvider(),
    SelftestProvider(),
)}


def normalize_sweep(sweep):
    """Validate one sweep dict into its canonical (hash-entering) form."""
    kind = sweep.get("kind")
    provider = PROVIDERS.get(kind)
    if provider is None:
        raise FarmConfigError(
            f"unknown sweep kind {kind!r}; known: {sorted(PROVIDERS)}")
    canonical = provider.normalize(sweep)
    unknown = set(sweep) - set(canonical)
    if unknown:
        raise FarmConfigError(
            f"{kind} sweep: unknown keys {sorted(unknown)}")
    return canonical


def expand_cases(config):
    """Expand a config into the full deterministic case list.

    Returns ``[case dict]`` where each case is
    ``{"id", "kind", "spec", "seed"}``; ids are validated unique.
    """
    cases = []
    seen = set()
    for sweep in config.sweeps:
        provider = PROVIDERS[sweep["kind"]]
        for case_id, spec in provider.expand(sweep, config):
            if case_id in seen:
                raise FarmConfigError(f"duplicate case id {case_id!r}")
            seen.add(case_id)
            cases.append({
                "id": case_id,
                "kind": sweep["kind"],
                "spec": spec,
                "seed": config.case_seed(case_id),
            })
    return cases
