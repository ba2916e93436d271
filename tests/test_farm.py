"""Tests: the config-driven simulation farm.

The load-bearing assertions here are the determinism contract (aggregate
``report.json`` byte-identical across worker counts and across
kill-and-retry runs), the shard-plan partition property, and worker
isolation (a raising or genuinely hanging case fails alone while its
siblings' outcomes stay bit-exact with a sequential run).
"""

import gc
import json
import os
import queue
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.harness import default_spec
from repro.cl import Context
from repro.core.platform import DEFAULT_ENGINE, ENGINE_NAMES, MobilePlatform
from repro.instrument.registry import (
    StatsRegistry,
    diff_snapshots,
    snapshot_value,
)
from repro.errors import CorpusError
from repro.tenancy.harness import default_plans, run_mixed
from repro.validate.farm import (
    PROVIDERS,
    FarmConfigError,
    expand_cases,
    load_config,
    plan_shards,
    report_to_bytes,
    retry_shard,
    run_farm,
)
from repro.validate.farm import worker as farm_worker
from repro.validate.farm.worker import ShardTask, execute_case

# a tiny mixed config: cheap real differential cases plus one lint case
FAST_CONFIG = {
    "name": "farm-test",
    "shard_size": 2,
    "sweeps": [
        {"kind": "selftest", "behaviors": ["ok"], "count": 5},
        {"kind": "lint", "targets": ["builtin:sgemm"]},
    ],
}


# ---------------------------------------------------------------------------
# config loading / canonicalization


def test_load_config_canonicalizes_and_hashes():
    config = load_config(FAST_CONFIG)
    again = load_config(FAST_CONFIG)
    assert config.config_hash == again.config_hash
    assert config.shard_size == 2
    assert config.timeout_s == 300.0          # default, in canonical form
    assert config.canonical["max_attempts"] == 2
    # the hash covers the normalized sweeps, so changes move it
    changed = dict(FAST_CONFIG, shard_size=3)
    assert load_config(changed).config_hash != config.config_hash


def test_load_config_from_file(tmp_path):
    path = tmp_path / "farm.json"
    path.write_text(json.dumps(FAST_CONFIG))
    assert load_config(str(path)).config_hash \
        == load_config(FAST_CONFIG).config_hash


@pytest.mark.parametrize("document", [
    [],                                                   # not an object
    {"sweeps": []},                                       # empty sweeps
    {"sweeps": [{"kind": "selftest"}], "bogus": 1},       # unknown key
    {"sweeps": [{"kind": "nope"}]},                       # unknown kind
    {"sweeps": [{"kind": "selftest", "spindle": 2}]},     # unknown sweep key
    {"sweeps": [{"kind": "selftest"}], "shard_size": 0},
    {"sweeps": [{"kind": "fault", "scenarios": ["not-a-scenario"]}]},
    {"sweeps": [{"kind": "conformance", "engines": ["warp9"]}]},
    {"sweeps": [{"kind": "fault", "threads": 0}]},
    {"sweeps": [{"kind": "tenants", "threads": [2, -1]}]},
    {"sweeps": [{"kind": "fault", "workloads": ["nosuch"]}]},
    {"sweeps": [{"kind": "lint", "targets": ["builtin:nosuch"]}]},
    {"sweeps": [{"kind": "analyze", "targets": ["builtin:nosuch"]}]},
    {"sweeps": [{"kind": "bench", "workloads": ["nn"],
                 "engines": ["warp9"]}]},
    {"sweeps": [{"kind": "fault", "threads": [4]}]},     # one unit only
    {"sweeps": [{"kind": "tenants", "threads": 1}]},     # no such key
])
def test_load_config_rejects_bad_documents(document):
    with pytest.raises(FarmConfigError):
        load_config(document)


def test_case_seed_is_a_pure_function_of_hash_and_id():
    config = load_config(FAST_CONFIG)
    assert config.case_seed("a") == load_config(FAST_CONFIG).case_seed("a")
    assert config.case_seed("a") != config.case_seed("b")
    # a different config yields a different stream for the same case id
    other = load_config(dict(FAST_CONFIG, name="other"))
    assert other.case_seed("a") != config.case_seed("a")


def test_seed_shorthand_expands():
    config = load_config({"sweeps": [
        {"kind": "conformance", "seeds": 3, "budget": 1,
         "engines": ["interp", "mega"]}]})
    assert config.sweeps[0]["seeds"] == [0, 1, 2]


def test_the_fault_sweep_keeps_its_one_thread_key():
    """Absent, ``1`` and ``[1]`` are one canonical config whose ids keep
    the ``/t1`` suffix; the tenants sweep has no such key or suffix."""
    hashes = set()
    for extra in ({}, {"threads": 1}, {"threads": [1]}):
        config = load_config({"sweeps": [
            {"kind": "fault", "workloads": ["sgemm"], **extra}]})
        assert config.sweeps[0]["threads"] == [1]
        assert all(case["id"].endswith("/t1")
                   for case in expand_cases(config))
        hashes.add(config.config_hash)
    assert len(hashes) == 1
    config = load_config({"sweeps": [{"kind": "tenants"}]})
    assert "threads" not in config.sweeps[0]
    assert [case["id"] for case in expand_cases(config)] \
        == ["tenants/n4/mega/s0"]


def test_smoke_config_hash_is_unchanged():
    """Every checked-in sweep config names the engines it runs, so no
    pinned config hash moves with a provider's default engine."""
    root = os.path.join(os.path.dirname(__file__), "..")
    for path, pinned in (
            ("examples/farm/smoke.json", "5263c58174d3"),
            ("examples/farm/tenants.json", "8dfc3dcd77c5"),
            ("examples/farm/nightly.json", "d11f8b752b63"),
            ("benchmarks/e2e/farm_sweep.json", "f34b537ee726")):
        assert load_config(os.path.join(root, path)).config_hash \
            .startswith(pinned), path


def _sweep_engine(sweep, key="engine"):
    return expand_cases(load_config({"sweeps": [sweep]}))[0]["spec"][key]


def _cli_result_engine(capsys, *argv):
    from repro.tools.cli import main

    assert main(list(argv)) == 0
    [result] = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("RESULT")]
    return result.split(" engine=")[1].split()[0]


def _unit_engine(platform):
    return platform.gpu.job_manager.unit.engine


_UNNAMED_ENGINE = {
    "MobilePlatform()": lambda _: _unit_engine(MobilePlatform()),
    "Context()": lambda _: _unit_engine(Context().platform),
    "run_mixed": lambda _: _unit_engine(run_mixed(
        default_plans(1), active=[]).platform),
    "default_spec": lambda _: default_spec()["engine_mode"],
    "faultcampaign": lambda capsys: _cli_result_engine(
        capsys, "faultcampaign", "--workloads", "sgemm", "--scenarios",
        "irq-lost", "--no-determinism"),
    "tenants": lambda capsys: _cli_result_engine(
        capsys, "tenants", "--tenants", "1", "--jobs", "1"),
    "fault sweep": lambda _: _sweep_engine(
        {"kind": "fault", "workloads": ["nn"]}),
    "bench sweep": lambda _: _sweep_engine(
        {"kind": "bench", "workloads": ["nn"]}),
    "tenants sweep": lambda _: _sweep_engine({"kind": "tenants"},
                                             "engine_mode"),
}


@pytest.mark.parametrize("entry", sorted(_UNNAMED_ENGINE))
def test_every_entry_point_defaults_to_the_one_default_engine(entry,
                                                              capsys):
    """A caller that names no engine gets ``DEFAULT_ENGINE``, mega,
    whichever entry point it came in by."""
    assert DEFAULT_ENGINE == "mega"
    assert _UNNAMED_ENGINE[entry](capsys) == DEFAULT_ENGINE


def test_one_engine_mode_table_and_one_factory():
    from repro import tenancy
    from repro.checkpoint import harness
    from repro.core import platform

    assert tenancy.ENGINE_MODES is harness.ENGINE_MODES \
        is platform.ENGINE_MODES
    assert set(platform.ENGINE_MODES) == {"interp", "mega"}
    with pytest.raises(ValueError, match="warp9"):
        platform.MobilePlatform.for_mode("warp9")


_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _engine_sweeps(name, corpus=_CORPUS):
    """One small sweep of every engine-taking kind, each naming *name*."""
    return [
        {"kind": "conformance", "engines": [name], "budget": 1},
        {"kind": "corpus", "dir": corpus, "engines": [name, "m2s"]},
        {"kind": "fault", "workloads": ["nn"], "scenarios": ["irq-lost"],
         "seeds": [0], "engines": [name]},
        {"kind": "bench", "workloads": [{"name": "nn",
                                         "params": {"records": 64}}],
         "engines": [name]},
        {"kind": "tenants", "tenants": [1], "jobs": 1,
         "engine_modes": [name]},
    ]


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_every_engine_name_resolves_at_every_entry_point(name, tmp_path,
                                                         capsys):
    """One table and one resolver: each spelling builds its mode's
    platform (on the quad MMU tier), runs in the differential runner and
    in every engine-taking sweep kind under the spelling it was given,
    and is accepted by the CLI's engine options."""
    import shutil

    from repro.core.platform import MobilePlatform, resolve_engine
    from repro.tools.cli import main

    built = MobilePlatform.for_mode(name)
    assert built.config.gpu.engine == resolve_engine(name)
    assert built.gpu.mmu.fast_path_enabled
    shutil.copy(os.path.join(_CORPUS, "00-seed0-i3.json"), tmp_path)
    # the tenants sweep runs below, as the `tenants` verb
    *sweeps, tenants = _engine_sweeps(name, str(tmp_path))
    assert [case["id"] for case in expand_cases(load_config(
        {"sweeps": [tenants]}))] == [f"tenants/n1/{name}/s0"]
    run = run_farm({"sweeps": sweeps}, workers=0)
    assert run.ok, run.summary()
    cases = run.report["cases"]
    assert [case["kind"] for case in cases] == sorted(
        ["bench", "conformance", "corpus", "fault"])
    for case in cases:
        if case["kind"] == "corpus":
            assert f"{name}.arith" in case["counters"]
        else:
            assert f"/{name}" in case["id"], case["id"]
    assert main(["conformance", "--engines", f"{name}+m2s",
                 "--budget", "2"]) == 0
    assert main(["tenants", "--engine", name, "--tenants", "1",
                 "--jobs", "1"]) == 0
    assert f"engine={name} " in capsys.readouterr().out


def test_an_unknown_engine_name_is_refused_everywhere():
    from repro.tools.cli import main
    from repro.validate import DifferentialRunner

    with pytest.raises(ValueError, match="warp9"):
        DifferentialRunner(("interp", "warp9"))
    for sweep in _engine_sweeps("warp9"):
        with pytest.raises(FarmConfigError, match="warp9"):
            load_config({"sweeps": [sweep]})
    for argv in (["conformance", "--engines", "interp+warp9"],
                 ["conformance", "--replay", _CORPUS, "--engines", "warp9"]):
        assert main(argv) == 2, argv
    for argv in (["tenants", "--engine", "warp9"],
                 ["faultcampaign", "--engine", "warp9"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2, argv


# ---------------------------------------------------------------------------
# shard planning: partition property


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 200), shard_size=st.integers(1, 17))
def test_shard_plan_is_a_partition(count, shard_size):
    case_ids = [f"case/{index}" for index in range(count)]
    shards = plan_shards(case_ids, shard_size)
    flattened = [cid for shard in shards for cid in shard.case_ids]
    # every case in exactly one shard, original order preserved
    assert flattened == case_ids
    assert all(1 <= len(shard.case_ids) <= shard_size for shard in shards)
    assert [s.shard_id for s in shards] \
        == [f"shard-{i:03d}" for i in range(len(shards))]
    # re-planning is stable
    assert plan_shards(case_ids, shard_size) == shards


def test_expansion_is_stable_and_covered_by_the_plan():
    config = load_config(FAST_CONFIG)
    cases = expand_cases(config)
    assert [case["id"] for case in expand_cases(config)] \
        == [case["id"] for case in cases]
    shards = plan_shards([case["id"] for case in cases], config.shard_size)
    flattened = [cid for shard in shards for cid in shard.case_ids]
    assert sorted(flattened) == sorted(case["id"] for case in cases)
    assert len(set(flattened)) == len(flattened)


def test_retry_shard_ids_extend_the_original():
    [shard] = plan_shards(["a", "b", "c"], 3)
    retry = retry_shard(shard, ["b", "c"])
    assert retry.shard_id == "shard-000.r1"
    assert retry.attempt == 1
    again = retry_shard(retry, ["c"])
    assert again.shard_id == "shard-000.r2"
    assert again.case_ids == ("c",)


# ---------------------------------------------------------------------------
# determinism: byte-identical reports


@pytest.mark.slow
def test_report_byte_identical_across_worker_counts(tmp_path):
    runs = {
        workers: run_farm(FAST_CONFIG, workers=workers,
                          outdir=str(tmp_path / f"w{workers}"))
        for workers in (0, 1, 2, 8)   # 0: the calling process executes
    }
    assert runs[1].ok
    reference = runs[1].report_bytes
    assert runs[0].report_bytes == reference
    assert runs[2].report_bytes == reference
    assert runs[8].report_bytes == reference
    # what run_farm wrote is exactly what it returned
    with open(runs[8].report_path, "rb") as handle:
        assert handle.read() == reference
    # serialization is canonical and round-trips
    assert report_to_bytes(json.loads(reference)) == reference


@pytest.mark.slow
def test_report_byte_identical_after_worker_kill_and_retry(tmp_path):
    reference = run_farm(FAST_CONFIG, workers=2,
                         outdir=str(tmp_path / "clean"))
    killed = run_farm(FAST_CONFIG, workers=2,
                      outdir=str(tmp_path / "killed"),
                      chaos={"kill_case": "selftest/ok/3"})
    # the kill really happened (a worker died and was replaced)...
    assert killed.run_info["respawns"] >= 1
    assert killed.run_info["retries"] >= 1
    # ...and is invisible in the aggregate report
    assert killed.report_bytes == reference.report_bytes
    assert killed.ok


# ---------------------------------------------------------------------------
# worker isolation


@pytest.mark.slow
def test_raising_and_hanging_cases_fail_alone(tmp_path):
    config = {
        "name": "farm-isolation",
        "shard_size": 4,
        "timeout_s": 2,
        "max_attempts": 1,
        "sweeps": [
            {"kind": "selftest", "behaviors": ["ok", "raise", "hang"],
             "count": 1},
        ],
    }
    run = run_farm(config, workers=2, outdir=str(tmp_path / "a"))
    by_id = {case["id"]: case for case in run.report["cases"]}
    assert by_id["selftest/raise/0"]["verdict"] == "error"
    assert "injected worker exception" in by_id["selftest/raise/0"]["detail"]
    assert by_id["selftest/hang/0"]["verdict"] == "timeout"
    assert "farm timeout" in by_id["selftest/hang/0"]["detail"]
    assert run.run_info["kills"] >= 1
    # the sibling passed, and its outcome (golden counters included) is
    # bit-exact with executing the same case sequentially in-process
    ok_case = by_id["selftest/ok/0"]
    assert ok_case["verdict"] == "pass"
    [expanded] = [case for case in expand_cases(load_config(config))
                  if case["id"] == "selftest/ok/0"]
    sequential = execute_case(expanded, None)
    assert sequential == ok_case
    # and the whole report is worker-count independent even with the
    # hang/kill in play
    again = run_farm(config, workers=1, outdir=str(tmp_path / "b"))
    assert again.report_bytes == run.report_bytes


def test_worker_frees_a_case_before_the_next_one_starts(monkeypatch):
    """A platform is cyclic garbage; how many pile up in a worker must
    not hang on the collector's schedule (and so on shard order)."""
    class Platform:
        def __init__(self):
            self.owner = self

    alive_at_start = []
    finished = []

    def execute(case, outdir):
        alive_at_start.append(sum(ref() is not None for ref in finished))
        finished.append(weakref.ref(Platform()))
        return {"id": case["id"]}

    monkeypatch.setattr(farm_worker, "execute_case", execute)
    tasks, results = queue.Queue(), queue.Queue()
    tasks.put(ShardTask("s0", 0, tuple({"id": f"c{n}"} for n in range(3))))
    tasks.put(None)
    gc.disable()  # the automatic collector must not be what frees them
    try:
        farm_worker.worker_main(0, tasks, results, None)
    finally:
        gc.enable()
        gc.unfreeze()  # worker_main froze this (the test) process
    assert alive_at_start == [0, 0, 0]
    assert all(ref() is None for ref in finished)
    assert results.get()[0] == "start"


def test_fault_and_conformance_cases_run_under_the_farm(tmp_path):
    run = run_farm({
        "name": "farm-mixed",
        "sweeps": [
            {"kind": "fault", "workloads": ["sgemm"],
             "scenarios": ["irq-lost"], "seeds": [0]},
            {"kind": "conformance", "engines": ["interp", "mega"],
             "seeds": 1, "budget": 3},
        ],
    }, workers=2, outdir=str(tmp_path))
    assert run.ok, run.summary()
    kinds = {case["kind"] for case in run.report["cases"]}
    assert kinds == {"fault", "conformance"}
    conformance = next(case for case in run.report["cases"]
                       if case["kind"] == "conformance")
    assert conformance["counters"]["programs"] == 3


def test_failing_case_fails_the_farm(tmp_path):
    run = run_farm({
        "name": "farm-fail",
        "sweeps": [{"kind": "selftest", "behaviors": ["ok", "raise"],
                    "count": 1}],
    }, workers=2)
    assert not run.ok
    assert run.report["totals"]["error"] == 1
    assert run.report["totals"]["pass"] == 1
    assert "RESULT" not in run.summary()   # summary is the human half


# ---------------------------------------------------------------------------
# stats snapshots across process boundaries


def test_registry_snapshot_is_json_safe():
    registry = StatsRegistry()
    registry.counter("gpu.jobs").add(3)
    registry.probe("gpu.mix", lambda: {("fma", 2): 5})
    registry.counter("gpu.diag", golden=False).add(9)
    snapshot = registry.snapshot(golden_only=True)
    json.dumps(snapshot)                   # must serialize as-is
    assert snapshot["gpu.jobs"] == 3
    assert snapshot["gpu.mix"] == {"('fma', 2)": 5}
    assert "gpu.diag" not in snapshot
    # pickle/JSON round-trip changes nothing (the farm's transport)
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_snapshot_value_and_diff():
    assert snapshot_value({("a", 1): 2}) == {"('a', 1)": 2}
    assert snapshot_value({1: {2, 3}}) == {"1": [2, 3]}
    assert diff_snapshots({"a": 1, "b": 2}, {"a": 1, "b": 3}) == ["b"]
    assert diff_snapshots({"a": 1}, {"c": 1}) == ["a", "c"]
    assert diff_snapshots({"a": 1}, {"a": 1}) == []


# ---------------------------------------------------------------------------
# farm CLI


def test_cli_farm_example_is_loadable(capsys):
    from repro.tools.cli import main

    assert main(["farm", "example"]) == 0
    document = json.loads(capsys.readouterr().out)
    config = load_config(document)
    assert expand_cases(config)


def test_cli_farm_plan(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "farm.json"
    path.write_text(json.dumps(FAST_CONFIG))
    assert main(["farm", "plan", str(path)]) == 0
    out = capsys.readouterr().out
    assert "6 cases in 3 shards" in out
    assert "selftest/ok/4" in out
    assert "lint/builtin:sgemm" in out


@pytest.mark.slow
def test_cli_farm_run(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "farm.json"
    path.write_text(json.dumps(FAST_CONFIG))
    outdir = tmp_path / "out"
    assert main(["farm", "run", str(path), "--workers", "4",
                 "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "RESULT farm status=ok" in out
    assert "cases=6 pass=6" in out
    assert (outdir / "report.json").is_file()
    assert (outdir / "run.log").is_file()


def test_cli_farm_run_bad_config(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweeps": [{"kind": "warp-drive"}]}))
    assert main(["farm", "run", str(path)]) == 2
    assert "bad config" in capsys.readouterr().out
    assert main(["farm", "run", str(tmp_path / "missing.json")]) == 2


def test_cli_farm_run_failing_case_exits_one(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "farm.json"
    path.write_text(json.dumps({
        "name": "cli-fail",
        "sweeps": [{"kind": "selftest", "behaviors": ["ok", "raise"],
                    "count": 1}],
    }))
    assert main(["farm", "run", str(path), "--workers", "2"]) == 1
    out = capsys.readouterr().out
    assert "RESULT farm status=fail" in out
    assert "error=1" in out


def _case_lines(out):
    """The ``mark id detail`` lines of a sweeping verb's output."""
    return [line.split(" ", 1)[1].lstrip() for line in out.splitlines()
            if line.startswith(("ok  ", "FAIL"))]


def test_cli_faultcampaign_is_the_fault_sweep_in_process(capsys):
    from repro.tools.cli import main

    assert main(["faultcampaign", "--workloads", "sgemm", "--scenarios",
                 "irq-spurious,irq-lost", "--no-determinism"]) == 0
    out = capsys.readouterr().out
    farmed = run_farm({"name": "equivalent", "sweeps": [
        {"kind": "fault", "workloads": ["sgemm"],
         "scenarios": ["irq-lost", "irq-spurious"], "seeds": 1,
         "engines": [DEFAULT_ENGINE], "threads": [1]}]}, workers=1)
    assert _case_lines(out) == [
        f"{case['id']} {case['detail']}" for case in farmed.report["cases"]]
    assert [case["verdict"] for case in farmed.report["cases"]] \
        == ["pass", "pass"]
    assert "RESULT faultcampaign status=ok mode=sweep " \
        f"engine={DEFAULT_ENGINE} cases=2 failures=0" in out


def test_fault_reproducer_is_a_farm_config_both_verbs_replay(
        tmp_path, capsys, monkeypatch):
    """``--write-repros D`` -> ``--replay D`` and ``farm run D/<file>``:
    a forced failure re-fails on both, and passes once it is fixed."""
    from repro.inject import campaign
    from repro.tools.cli import main

    real = campaign.run_case

    def failing(workload, scenario, seed, **kwargs):
        case, plan = real(workload, scenario, seed, **kwargs)
        case.ok, case.detail = False, "forced failure"
        return case, plan

    repros = tmp_path / "repros"
    sweep = ["faultcampaign", "--workloads", "sgemm", "--scenarios",
             "irq-lost", "--no-determinism", "--engine", "mega"]
    monkeypatch.setattr(campaign, "run_case", failing)
    assert main(sweep + ["--write-repros", str(repros)]) == 1
    [path] = sorted(repros.iterdir())
    assert path.name == "sgemm--irq-lost--s0.json"
    # the file is nothing but a farm config naming the case
    [case] = expand_cases(load_config(str(path)))
    assert case["id"] == "fault/sgemm/irq-lost/s0/mega/t1"
    capsys.readouterr()
    assert main(["faultcampaign", "--replay", str(repros)]) == 1
    assert _case_lines(capsys.readouterr().out) \
        == ["fault/sgemm/irq-lost/s0/mega/t1 forced failure"]
    assert main(["farm", "run", str(path), "--workers", "1"]) == 1
    assert "forced failure" in capsys.readouterr().out
    monkeypatch.undo()
    assert main(["faultcampaign", "--replay", str(repros)]) == 0
    assert "RESULT faultcampaign status=ok mode=replay cases=1 failures=0" \
        in capsys.readouterr().out


# ---------------------------------------------------------------------------
# every loader fails closed: a typed error from the API, one line and
# exit 2 (never a traceback) from the CLI

_GOOD_REPRODUCER = PROVIDERS["fault"].reproducer({
    "workload": "sgemm", "scenario": "irq-lost", "seed": 0,
    "engine": "interpreter", "check_determinism": False})
_GOOD_ENTRY = {"format": 1, "name": "gen", "expect": "match",
               "generator": {"seed": 3, "index": 2}}

MALFORMED = {
    "truncated": lambda good: json.dumps(good)[:-9],
    "non-object": lambda good: json.dumps([good]),
    "wrong-typed": lambda good: json.dumps({
        **good, "sweeps": "fault", "expect": 7}),
    "missing-field": lambda good: json.dumps({
        key: value for key, value in good.items()
        if key not in ("sweeps", "format")}),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED))
def test_malformed_input_fails_closed(damage, tmp_path, capsys):
    from repro.tools.cli import main
    from repro.validate.corpus import load_entries

    repros, corpus = tmp_path / "repros", tmp_path / "corpus"
    repros.mkdir()
    corpus.mkdir()
    (repros / "r.json").write_text(MALFORMED[damage](_GOOD_REPRODUCER))
    (corpus / "e.json").write_text(MALFORMED[damage](_GOOD_ENTRY))
    config = tmp_path / "corpus-sweep.json"
    config.write_text(json.dumps({"sweeps": [
        {"kind": "corpus", "dir": str(corpus)}]}))

    with pytest.raises(FarmConfigError):
        load_config(str(repros / "r.json"))
    with pytest.raises(CorpusError, match="e.json"):
        load_entries(str(corpus))
    for argv in (["faultcampaign", "--replay", str(repros)],
                 ["conformance", "--replay", str(corpus)],
                 ["farm", "run", str(config)],
                 ["farm", "run", str(repros / "r.json")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert len(captured.out.splitlines()) == 1, captured.out


@pytest.mark.parametrize("entry", [
    {"format": 1, "generator": {"seed": "x"}},          # wrong-typed
    {"format": 1, "generator": {"seed": 3}},            # missing index
    {"format": 1, "stress": {"seed": 1, "category": "nope"}},
    {"format": 1, "program_hex": "zz", "regions": []},  # not hex
    {"format": 1, "program_hex": "00"},                 # no regions/sizes
    {"format": 1},                                      # no body at all
])
def test_malformed_corpus_entry_is_a_typed_error_naming_the_file(entry):
    from repro.validate.corpus import dict_to_case

    with pytest.raises(CorpusError, match="some/entry.json"):
        dict_to_case(entry, "some/entry.json")


def test_cli_unknown_fault_workload_exits_two(capsys):
    from repro.tools.cli import main

    assert main(["faultcampaign", "--workloads", "nosuch"]) == 2
    out = capsys.readouterr().out
    assert "nosuch" in out and len(out.splitlines()) == 1


def test_artifacts_land_in_the_outdir(tmp_path):
    from repro.validate.farm.providers import sanitize_case_id

    bad = tmp_path / "bad.cl"
    bad.write_text("__kernel void broken(__global int* out) { out[0] = ; }")
    outdir = tmp_path / "out"
    run = run_farm({
        "name": "farm-artifacts",
        "sweeps": [{"kind": "lint", "targets": [str(bad)]}],
    }, workers=1, outdir=str(outdir))
    [case] = run.report["cases"]
    assert case["verdict"] == "fail"
    assert case["artifacts"] == ["findings.txt"]
    artifact = os.path.join(
        str(outdir), "artifacts", sanitize_case_id(case["id"]),
        "findings.txt")
    assert os.path.isfile(artifact)
