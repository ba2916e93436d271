"""Self-test of the benchmark, at ``--smoke`` sizes (seconds, not minutes).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from e2e import compare, metrics, worker, workloads  # noqa: E402
from e2e.trace import Tracer, layer_targets  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    for name, (unit, better, bound, _where) in metrics.END_TO_END.items():
        assert NAME.match(name) and UNIT.match(unit), name
        assert better in ("lower", "higher") and 0 <= bound <= 0.25
    for name, (unit, better) in metrics.PER_LAYER.items():
        assert NAME.match(name) and UNIT.match(unit), name
        assert better in ("lower", "higher")
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)


def test_benchmark_json_mirrors_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in document["workloads"]] \
        == list(metrics.WORKLOADS)
    gated = {m["name"]: m for m in document["end_to_end"]}
    assert list(gated) == list(metrics.DRIVER_GATED)
    for name, entry in gated.items():
        unit, better, bound, where = metrics.END_TO_END[name]
        assert where is None, "driver-gated metrics exist on every workload"
        assert (entry["unit"], entry["better"], entry["bound"]) \
            == (unit, better, bound)
    layers = {m["name"]: (m["unit"], m["better"])
              for m in document["per_layer"]}
    assert layers == metrics.PER_LAYER


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    """One ``run.py --smoke --traced`` over all six workloads."""
    output = tmp_path_factory.mktemp("e2e") / "result.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--traced", "--seconds", "0.3", "--output", str(output)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert completed.returncode == 0, completed.stderr[-2000:]
    with open(output) as handle:
        return json.load(handle), completed.stdout


def test_every_workload_emits_every_metric_with_its_unit(smoke_result):
    document, stdout = smoke_result
    for field in ("nproc", "python", "numpy", "machine", "git_commit",
                  "seed"):
        assert field in document["host"]
    assert set(document["workloads"]) == set(metrics.WORKLOADS)
    for workload, result in document["workloads"].items():
        assert result["iterations"] >= 2
        for name, (unit, _better, _bound, _where) in \
                metrics.END_TO_END.items():
            if not metrics.applies(name, workload):
                assert name not in result["end_to_end"]
                continue
            record = result["end_to_end"][name]
            assert record["unit"] == unit and "n" in record, name
            assert f"{workload:12s} {name:36s}" in stdout
        for name in ("wall_s", "setup_s"):
            assert {"q1", "q3", "min", "max"} <= set(
                result["end_to_end"][name])
        for name, unit in metrics.HOST_READINGS.items():
            assert result["host"][name]["unit"] == unit
        assert set(result["per_layer"]) == set(metrics.PER_LAYER)
        assert result["end_to_end"]["failed_frac"]["value"] == 0
        assert result["end_to_end"]["golden_drift"]["value"] == 0
        assert result["correct"]


def test_traced_smoke_run_sees_the_layers_it_should(smoke_result):
    document, _stdout = smoke_result
    layers = {name: result["per_layer"]
              for name, result in document["workloads"].items()}
    assert layers["gemm_interp"]["gpu.shadercore.exec_s"] > 0
    assert layers["gemm_interp"]["gpu.engine.mega_ns_per_instr"] > 0
    assert layers["gemm_mega"]["instrument.snapshot_us"] > 0
    assert layers["copy_dbt"]["cpu.memset_s"] > 0
    assert layers["copy_dbt"]["gpu.jobmanager.jobs"] == 0
    assert layers["slam_mega"]["slam.launches"] > 10
    assert layers["bfs_mega"]["driver.kbase.jobs"] > 10
    assert layers["farm_sweep"]["validate.farm.cases"] > 0
    assert layers["farm_sweep"]["validate.farm.scaling"] > 0


def test_tracer_restores_every_patched_attribute():
    targets = layer_targets()
    before = [vars(owner)[attribute] for owner, attribute, _ in targets]
    with Tracer():
        patched = [vars(owner)[attribute] for owner, attribute, _ in targets]
        assert all(now is not was for now, was in zip(patched, before))
    after = [vars(owner)[attribute] for owner, attribute, _ in targets]
    assert all(now is was for now, was in zip(after, before))


@pytest.mark.parametrize("name", ["gemm_interp", "bfs_mega", "copy_dbt"])
def test_tracing_leaves_golden_statistics_identical(name):
    workload = workloads.make(name, seed=1, smoke=True)
    plain, _ = worker.run_iteration(workload)
    tracer = Tracer()
    tracer.iteration = 0
    with tracer:
        traced, _ = worker.run_iteration(workload, tracer)
    assert plain.failed == traced.failed == 0
    assert tracer.spans and plain.golden == traced.golden
    assert not worker.golden_drift([traced], plain.golden)


def test_corrupted_output_is_counted_as_a_failure():
    workload = workloads.make("gemm_mega", seed=0, smoke=True)
    good, _ = worker.run_iteration(workload)
    assert (good.attempted, good.failed) == (1, 0)
    workload.expected = [workload.expected[0] + 1.0]
    bad, _ = worker.run_iteration(workload)
    assert (bad.attempted, bad.failed) == (1, 1)

    copy = workloads.make("copy_dbt", seed=0, smoke=True)
    outputs, _events = copy.iterate(copy.context())
    assert copy.check(outputs) == (1, 0)
    outputs[0][0] ^= 1  # one flipped bit in the bytes read back
    assert copy.check(outputs) == (1, 1)


def test_golden_drift_counts_changed_and_vanished_entries_only():
    reference = {"a": 1, "b": 2}
    records = [worker.Iteration(golden={"a": 1, "b": 2, "new": 9}),
               worker.Iteration(golden={"a": 1, "b": 3}),
               worker.Iteration(golden={"b": 2})]
    assert worker.golden_drift(records[:1], reference) == []
    assert worker.golden_drift(records, reference) == ["a", "b"]


def test_seed_moves_the_bfs_graph_but_not_its_level_structure():
    first = workloads.make("bfs_mega", seed=1, smoke=True)
    second = workloads.make("bfs_mega", seed=2, smoke=True)
    assert first.inputs["src"] != second.inputs["src"]
    assert sorted(first.expected[0]) == sorted(second.expected[0])
    assert (first.inputs["cols"] != second.inputs["cols"]).any()


def test_compare_says_ok_regressed_and_unresolved():
    def record(value, spread=0.0):
        return {"value": value, "unit": "s", "n": 5,
                "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
                "min": value * (1 - spread), "max": value * (1 + spread)}

    def document(wall):
        return {"workloads": {"gemm_mega": {"end_to_end": {"wall_s": wall}}}}

    bound = metrics.END_TO_END["wall_s"][2]

    def status(base, other):
        (row,) = compare.compare(document(base), document(other))
        return row["status"]

    assert status(record(1.0), record(1.0 + bound / 2)) == "ok"
    assert status(record(1.0), record(1.0 + 2 * bound)) == "regressed"
    assert status(record(1.0, 2 * bound),
                  record(1.0 + 1.5 * bound, 2 * bound)) == "unresolved"
    assert status(record(1.0), record(0.5)) == "ok"
