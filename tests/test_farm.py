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

from repro.instrument.registry import (
    StatsRegistry,
    diff_snapshots,
    snapshot_value,
)
from repro.validate.farm import (
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
         "engines": ["interp", "fast"]}]})
    assert config.sweeps[0]["seeds"] == [0, 1, 2]


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
        for workers in (1, 2, 8)
    }
    assert runs[1].ok
    reference = runs[1].report_bytes
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
            {"kind": "conformance", "engines": ["interp", "fast"],
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
    registry.distribution("gpu.mix").record(("fma", 2), 5)
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
