"""The divergence CFG (Fig. 6) and the instruction trace are the same on
both platform engines.

Each job's CFG is built from the per-clause table its engine counted
into, so mega runs the job (no demotion to the interpreter)
and must give the interpreter's graph: edges, divergence events and
executed lanes, job by job, on every shipped workload. With an
instruction tracer attached, mega runs traced code and must record the
interpreter's per-thread instruction stream, job by job; the corpus
cases, which every engine runs at the same addresses, are traced against
the scalar baseline too.
"""

import os

import pytest

from repro.cl import Context
from repro.core.platform import MobilePlatform
from repro.errors import SimError
from repro.kernels import WORKLOADS, get_workload
from repro.kernels.replayable import REPLAYABLE
from repro.slam.pipeline import KFusionPipeline
from repro.validate.corpus import dict_to_case, load_entries
from repro.validate.runner import ENGINES, DifferentialRunner
from repro.validate.trace import InstructionTracer, compare_traces
from tests.test_workloads import _SMALL


def _job_cfgs(run, mode):
    """``run(context)`` on a fresh *mode* platform: each retired job's
    CFG as plain dicts, and the engine its unit ran."""
    platform = MobilePlatform.for_mode(mode)
    jobs = platform.gpu.job_manager
    results = []  # every retired job's, in order: the Job Manager keeps none
    run_job = jobs.run_job

    def recorded(*args, **kwargs):
        results.append(run_job(*args, **kwargs))
        return results[-1]

    jobs.run_job = recorded
    try:
        run(Context(platform))
    except SimError:
        pass  # a workload that expects to fault: its retired jobs count
    cfgs = [(cfg.edges, cfg.divergences, cfg.executions)
            for cfg in (result.cfg for result in results)]
    return cfgs, jobs.unit.engine


def _assert_parity(run):
    interp, _ = _job_cfgs(run, "interp")
    mega, engine = _job_cfgs(run, "mega")
    assert engine == "mega"  # mega ran the jobs itself
    assert mega == interp
    return interp


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_cfg_parity(name):
    _assert_parity(lambda context: get_workload(
        name, **_SMALL.get(name, {})).run(context=context))


@pytest.mark.parametrize("name", sorted(REPLAYABLE))
def test_replayable_cfg_parity(name):
    _assert_parity(lambda context: REPLAYABLE[name]().run(context=context))


def test_slam_cfg_parity():
    cfgs = _assert_parity(
        lambda context: KFusionPipeline("express").run_gpu(context))
    assert any(divergences for _edges, divergences, _lanes in cfgs)


def test_bfs_cfg_matches_fig6_counts():
    """BFS n=128: clause 0 sends 128 lanes on and 5632 to clause 8, and
    128 of its 1440 warp issues diverge (8.89%, not 128 of 5760 lanes)."""
    from repro.analysis.figures import fig06_bfs_cfg

    for engine in ("interpreter", "mega"):
        _dot, divergent, cfg, _engine = fig06_bfs_cfg(engine=engine)
        assert cfg.edges[(0, 1)] == 128 and cfg.edges[(0, 8)] == 5632
        assert cfg.divergences == {0: 128}
        assert divergent == {cfg.node_label(0): pytest.approx(128 / 1440)}


# -- instruction traces ------------------------------------------------------------

def _job_traces(run, mode):
    """``run(context)`` on a fresh *mode* platform, every job attempt
    traced on its own: the trace of each retired job (a faulted
    attempt's events stop wherever its engine's schedule had got to, so
    they are dropped), and the engine its unit ran."""
    platform = MobilePlatform.for_mode(mode)
    jobs = platform.gpu.job_manager
    attempts = []  # (tracer, jobs retired before the attempt)
    prepare = jobs.unit.prepare

    def traced(*args, **kwargs):
        attempts.append((InstructionTracer(), jobs.jobs_retired))
        prepare(*args, **{**kwargs, "tracer": attempts[-1][0]})

    jobs.unit.prepare = traced
    try:
        run(Context(platform))
    except SimError:
        pass  # a workload that expects to fault: its retired jobs count
    ends = [before for _tracer, before in attempts[1:]] + [jobs.jobs_retired]
    return [tracer for (tracer, before), end in zip(attempts, ends)
            if end > before], jobs.unit.engine


def _assert_trace_parity(run):
    interp, _ = _job_traces(run, "interp")
    mega, engine = _job_traces(run, "mega")
    assert engine == "mega"  # mega ran the traced jobs itself
    assert len(mega) == len(interp)
    # a run whose every job faults (the oob entry) retires none to trace
    assert not mega or sum(trace.total_events for trace in mega) > 0
    for job, (ours, reference) in enumerate(zip(mega, interp)):
        mismatches = compare_traces(ours, reference)
        assert mismatches == [], f"job {job}: {mismatches[0]}"


def _workload(name):
    return lambda context: get_workload(
        name, **_SMALL.get(name, {})).run(context=context)


#: the traced workloads tier-1 runs; the slow test runs the rest. bfs
#: has its own test: its kernel races within a workgroup
TRACED = ("Reduction", "SobelFilter", "sgemm")


@pytest.mark.parametrize("name", TRACED)
def test_workload_trace_parity(name):
    _assert_trace_parity(_workload(name))


def test_slam_trace_parity():
    _assert_trace_parity(
        lambda context: KFusionPipeline("express").run_gpu(context))


def test_bfs_traces_agree_up_to_its_race():
    """``bfs_step`` races within a workgroup: a thread stores a level
    another thread of its group loads, with no barrier between. The
    interpreter runs one warp to its end before the next starts, mega
    steps every lane in lockstep, so a thread may load the word before
    the store on one engine and after it on the other. Each thread's
    stream agrees with the interpreter's up to such a load (and may
    branch apart after it); memory, stats and the CFG still agree."""
    run = _workload("bfs")
    interp, _ = _job_traces(run, "interp")
    mega, engine = _job_traces(run, "mega")
    assert engine == "mega" and len(mega) == len(interp)
    raced = 0
    for ours, reference in zip(mega, interp):
        assert ours.by_thread.keys() == reference.by_thread.keys()
        for mismatch in compare_traces(ours, reference):
            a, b = mismatch.ours, mismatch.reference
            assert a.op == b.op == "LD" and a.dst == b.dst, str(mismatch)
            raced += 1
    assert raced > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", sorted(set(WORKLOADS) - set(TRACED) - {"bfs"}))
def test_every_workload_trace_parity(name):
    _assert_trace_parity(_workload(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(REPLAYABLE))
def test_replayable_trace_parity(name):
    _assert_trace_parity(lambda context: REPLAYABLE[name]().run(
        context=context))


_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.mark.slow
@pytest.mark.parametrize(
    "path", [path for path, _entry in load_entries(_CORPUS)],
    ids=os.path.basename)
def test_corpus_trace_parity(path):
    """Every pair among interp, mega and m2s: each is compared with the
    first, and the trace with it."""
    entry = dict(load_entries(_CORPUS))[path]
    results, mismatches = DifferentialRunner(ENGINES).run_case(
        dict_to_case(entry, path))
    assert mismatches == [], "\n".join(map(str, mismatches))
    traces = [results[engine].trace for engine in ENGINES]
    assert all(trace.total_events > 0 for trace in traces)
    assert compare_traces(traces[1], traces[2]) == []
