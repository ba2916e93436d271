"""Tests: the repro-sim command-line interface."""

import json
from pathlib import Path

import pytest

from repro.kernels import WORKLOADS
from repro.tools.cli import main

KERNEL = """
__kernel void doubler(__global float* data, int n) {
    int i = get_global_id(0);
    if (i < n) {
        data[i] = data[i] * 2.0f;
    }
}
"""


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "k.cl"
    path.write_text(KERNEL)
    return str(path)


def test_compile_command(kernel_file, capsys):
    assert main(["compile", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "doubler" in out
    assert "clauses" in out


def test_compile_all_versions(kernel_file, capsys):
    assert main(["compile", kernel_file, "--all-versions"]) == 0
    out = capsys.readouterr().out
    assert out.count("doubler") == 5


def test_compile_with_defines(tmp_path, capsys):
    path = tmp_path / "d.cl"
    path.write_text("""
    __kernel void k(__global int* out) {
        out[get_global_id(0)] = WIDTH;
    }
    """)
    assert main(["compile", str(path), "-D", "WIDTH=77"]) == 0


def test_disasm_command(kernel_file, capsys):
    assert main(["disasm", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "; kernel doubler" in out
    assert "fmul" in out
    assert "tail=" in out


def test_run_command(kernel_file, capsys):
    code = main(["run", kernel_file, "--global-size", "32",
                 "--elements", "32", "--arg", "n=32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "32 threads" in out
    assert "instruction mix" in out
    assert "system:" in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "SobelFilter" in out
    assert "Parboil" in out


def test_bench_command(capsys):
    code = main(["bench", "nn", "--param", "records=128"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified=True" in out
    assert "cycle estimate" in out


def test_stats_command(capsys):
    saxpy = str(Path(__file__).resolve().parent.parent
                / "examples" / "saxpy.cl")
    assert main(["stats", saxpy]) == 0
    text = capsys.readouterr().out
    assert (text.index("gpu.job.clause_size_histogram::1")
            < text.index("gpu.job.clause_size_histogram::8"))

    assert main(["stats", saxpy, "--json"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(["stats", saxpy, "--json", "--golden-only"]) == 0
    golden = json.loads(capsys.readouterr().out)
    assert "gpu.job.total_instrs" in golden
    assert set(golden) <= set(full)
    buckets = list(full["gpu.job.clause_size_histogram"])
    assert all(isinstance(bucket, str) for bucket in buckets)
    assert buckets == sorted(buckets, key=int)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# campaign verbs: exit codes + stable RESULT line


def _result(out, verb):
    """Extract the one machine-parsable summary line as a dict."""
    lines = [line for line in out.splitlines()
             if line.startswith(f"RESULT {verb} ")]
    assert len(lines) == 1, out
    fields = dict(part.split("=", 1)
                  for part in lines[0].split()[2:])
    return fields


def test_conformance_result_line(capsys):
    code = main(["conformance", "--seed", "7", "--budget", "3",
                 "--engines", "interp+fast"])
    fields = _result(capsys.readouterr().out, "conformance")
    assert code == 0
    assert fields["status"] == "ok"
    assert fields["mode"] == "fuzz"
    assert fields["programs"] == "3"
    assert fields["failures"] == "0"
    assert 0.0 <= float(fields["coverage"]) <= 1.0


def test_conformance_empty_replay_dir_exits_two(tmp_path, capsys):
    assert main(["conformance", "--replay", str(tmp_path)]) == 2
    assert "no corpus entries" in capsys.readouterr().out


def test_conformance_coverage_shortfall_fails(capsys):
    code = main(["conformance", "--seed", "7", "--budget", "2",
                 "--engines", "interp+fast", "--min-coverage", "1.0"])
    fields = _result(capsys.readouterr().out, "conformance")
    assert code == 1
    assert fields["status"] == "fail"


def test_faultcampaign_result_line(capsys):
    code = main(["faultcampaign", "--workloads", "sgemm",
                 "--scenarios", "irq-lost", "--seeds", "1",
                 "--no-determinism"])
    fields = _result(capsys.readouterr().out, "faultcampaign")
    assert code == 0
    assert fields["status"] == "ok"
    assert fields["mode"] == "sweep"
    assert fields["cases"] == "1"
    assert fields["failures"] == "0"


def test_faultcampaign_empty_replay_dir_exits_two(tmp_path, capsys):
    assert main(["faultcampaign", "--replay", str(tmp_path)]) == 2
    assert "no reproducers" in capsys.readouterr().out


def test_lint_result_line(kernel_file, capsys):
    code = main(["lint", kernel_file])
    fields = _result(capsys.readouterr().out, "lint")
    assert code == 0
    assert fields["status"] == "ok"
    assert fields["kernels"] == "1"
    assert fields["errors"] == "0"


def test_lint_missing_file_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope.cl")]) == 2


def test_lint_without_target_exits_two(capsys):
    assert main(["lint"]) == 2


LOOP_KERNEL = """
__kernel void accum(__global uint* in, __global uint* out, uint n) {
    uint gid = get_global_id(0);
    uint acc = 0;
    for (uint i = 0; i < n; i++) {
        acc += in[(gid + i) & 63u];
    }
    out[gid] = acc;
}
"""


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.cl"
    path.write_text(LOOP_KERNEL)
    return str(path)


def test_analyze_result_line(kernel_file, capsys):
    code = main(["analyze", kernel_file])
    out = capsys.readouterr().out
    fields = _result(out, "analyze")
    assert code == 0
    assert fields["status"] == "ok"
    assert fields["kernels"] == "1"
    assert fields["failed"] == "0"
    assert "doubler" in out


def test_analyze_reports_unbounded_loop(loop_file, capsys):
    code = main(["analyze", loop_file])
    fields = _result(capsys.readouterr().out, "analyze")
    assert code == 0  # unbounded loops are findings, not failures
    assert fields["unbounded"] == "1"


def test_analyze_launch_geometry_bounds(kernel_file, capsys):
    code = main(["analyze", kernel_file, "--global-size", "64",
                 "--local-size", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "issues/workgroup" in out


def test_analyze_uses_the_launch_abi_geometry(kernel_file, capsys):
    # default local size is the runtimes' rule (96 -> three groups of 32),
    # so the total bounds every thread a launch of 96 runs: 24 warps x 3
    code = main(["analyze", kernel_file, "--global-size", "96"])
    out = capsys.readouterr().out
    assert code == 0
    assert "24 issues/workgroup, 72 total" in out
    # and a geometry no runtime accepts is refused, not floored
    code = main(["analyze", kernel_file, "--global-size", "100",
                 "--local-size", "32"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.strip() == ("analyze: global size (100, 1, 1) not divisible "
                           "by local (32, 1, 1)")
    # and so is an empty one
    code = main(["analyze", kernel_file, "--global-size", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.strip() == ("analyze: global size (0, 1, 1) has a "
                           "dimension <= 0")


def test_analyze_json_schema(kernel_file, capsys):
    import json

    code = main(["analyze", kernel_file, "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["schema"] == "repro-analyze-report/1"
    assert document["totals"] == {"units": 1, "failed": 0, "unbounded": 0}
    (unit,) = document["units"]
    assert unit["kernel"] == "doubler"
    assert unit["ok"] is True
    assert unit["analysis"]["clauses"]


def test_analyze_names_the_arguments_a_kernel_stores_through(tmp_path,
                                                             capsys):
    """sgemm reads ``c`` for ``beta`` and stores it; ``a`` and ``b`` it
    only loads. The text names them, and ``--json`` has the same list."""
    path = tmp_path / "sgemm.cl"
    path.write_text(WORKLOADS["sgemm"].source)
    assert main(["analyze", str(path)]) == 0
    assert "  stores through: c\n" in capsys.readouterr().out
    assert main(["analyze", str(path), "--json"]) == 0
    (unit,) = json.loads(capsys.readouterr().out)["units"]
    assert "c" in unit["stores"]
    assert not {"a", "b"} & set(unit["stores"])


def test_analyze_without_target_exits_two(capsys):
    assert main(["analyze"]) == 2


def test_analyze_missing_file_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.cl")]) == 2


def test_analyze_compile_error_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cl"
    path.write_text("__kernel void broken( {")
    code = main(["analyze", str(path)])
    fields = _result(capsys.readouterr().out, "analyze")
    assert code == 1
    assert fields["status"] == "fail"
    assert fields["failed"] == "1"


def test_lint_json_schema(kernel_file, capsys):
    import json

    code = main(["lint", kernel_file, "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["schema"] == "repro-lint-report/1"
    assert document["totals"]["kernels"] == 1
    assert document["totals"]["errors"] == 0


def test_disasm_cost_annotations(loop_file, capsys):
    assert main(["analyze", loop_file, "--disasm"]) == 0
    out = capsys.readouterr().out
    assert "[cost]" in out
    assert "back edge" in out


def test_analyze_soundness_sweep(tmp_path, capsys):
    report_path = tmp_path / "analysis_report.json"
    code = main(["analyze", "--soundness", "--progen", "2", "--seed", "5",
                 "--out", str(report_path)])
    fields = _result(capsys.readouterr().out, "analyze")
    assert code == 0
    assert fields["mode"] == "soundness"
    assert fields["violations"] == "0"
    assert fields["verified"] == "True"
    report = json.loads(report_path.read_text())
    assert report["farm_report_version"] == 1
    assert report["ok"]
    assert all(case["verdict"] == "pass" for case in report["cases"])
    # every workload, SLAM, 5 stress categories and one progen stream
    assert report["totals"]["cases"] == len(WORKLOADS) + 1 + 5 + 1
    assert int(fields["records"]) == sum(
        case["counters"]["records"] for case in report["cases"])
    assert int(fields["unbounded"]) == sum(
        case["counters"]["unbounded_issues"] for case in report["cases"])
    # the verb is sugar: a worker pool running the same sweep writes the
    # same bytes
    from repro.validate.farm import run_farm

    pooled = run_farm({"name": "analyze", "sweeps": [
        {"kind": "soundness", "seeds": [5], "progen": 2}]}, workers=2)
    assert pooled.report_bytes == report_path.read_bytes()


_MISSING = "/nonexistent/k.cl"

USAGE_ERRORS = {
    # a --kernel that selects nothing must not pass the gate
    "lint-no-kernel": ["lint", "FILE", "--kernel", "nosuch"],
    "lint-builtin-no-kernel": ["lint", "--builtin", "--kernel", "nosuch"],
    "analyze-no-kernel": ["analyze", "FILE", "--kernel", "nosuch"],
    "disasm-no-kernel": ["disasm", "FILE", "--kernel", "nosuch"],
    "run-no-kernel": ["run", "FILE", "--kernel", "nosuch"],
    # a corpus that is not there must not drop out of the sweep
    "soundness-missing-corpus": ["analyze", "--soundness", "--corpus",
                                 "/nonexistent/corpus"],
    "soundness-empty-corpus": ["analyze", "--soundness", "--corpus",
                               "EMPTY"],
    # a report whose parent is a regular file must fail before the sweep
    "soundness-out-under-file": ["analyze", "--soundness", "--out",
                                 "FILE/report.json"],
    "soundness-version": ["analyze", "--soundness", "--version", "9.9"],
    **{f"{verb}-unreadable": [verb, _MISSING]
       for verb in ("compile", "disasm", "run", "stats", "trace", "lint",
                    "analyze")},
    "bench-unknown": ["bench", "nosuch"],
    "bench-param-value": ["bench", "sgemm", "--param", "m=abc"],
    "bench-param-name": ["bench", "sgemm", "--param", "zzz=3"],
    "conformance-engine": ["conformance", "--engines", "nosuch"],
    # a gate that checks nothing must not pass
    "conformance-budget-zero": ["conformance", "--budget", "0"],
    "conformance-budget-negative": ["conformance", "--budget", "-3"],
    "conformance-coverage-high": ["conformance", "--min-coverage", "1.5"],
    "conformance-coverage-negative": ["conformance", "--min-coverage",
                                      "-0.1"],
    # a replay measures no coverage: a coverage gate on it checks nothing
    "conformance-replay-min-coverage": [
        "conformance", "--replay",
        str(Path(__file__).resolve().parent / "corpus"),
        "--min-coverage", "0.99"],
    "trace-limit-zero": ["trace", "FILE", "--limit", "0"],
    "trace-limit-negative": ["trace", "FILE", "--limit", "-1"],
    "tenants-jobs": ["tenants", "--tenants", "2", "--jobs", "0"],
    # a malformed bench entry fails the load, not with a traceback
    "farm-plan-bench-entry": ["farm", "plan", "BAD_FARM"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_one_line_and_exit_two(case, kernel_file, tmp_path,
                                                capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # trace's default output lands here
    bad_farm = tmp_path / "bad_farm.json"
    bad_farm.write_text(json.dumps(
        {"sweeps": [{"kind": "bench", "workloads": [5]}]}))
    argv = [{"FILE": kernel_file, "EMPTY": str(tmp_path),
             "FILE/report.json": f"{kernel_file}/report.json",
             "BAD_FARM": str(bad_farm)}.get(arg, arg)
            for arg in USAGE_ERRORS[case]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert len(captured.out.splitlines()) == 1, captured.out
    assert captured.out.startswith(f"{argv[0]}: ")


def test_unknown_workload_is_typed_and_still_a_key_error():
    from repro.errors import SimError
    from repro.kernels import get_workload

    with pytest.raises(KeyError) as caught:
        get_workload("nosuch")
    assert isinstance(caught.value, SimError)
    assert str(caught.value).startswith("unknown workload 'nosuch'; ")
