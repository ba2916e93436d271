"""The divergence CFG (Fig. 6) is the same on both platform engines.

Each job's CFG is built from the per-clause counts its engine flushed
into the stats, so mega runs the job (no demotion to the interpreter)
and must give the interpreter's graph: edges, divergence events and
executed lanes, job by job, on every shipped workload.
"""

import pytest

from repro.cl import Context
from repro.core.platform import MobilePlatform
from repro.errors import SimError
from repro.kernels import WORKLOADS, get_workload
from repro.kernels.replayable import REPLAYABLE
from repro.slam.pipeline import KFusionPipeline
from tests.test_workloads import _SMALL


def _job_cfgs(run, mode):
    """``run(context)`` on a fresh *mode* platform: each retired job's
    CFG as plain dicts, and the translations mega built."""
    platform = MobilePlatform.for_mode(mode)
    try:
        run(Context(platform))
    except SimError:
        pass  # a workload that expects to fault: its retired jobs count
    cfgs = [(cfg.edges, cfg.divergences, cfg.executions)
            for cfg in (result.cfg
                        for result in platform.gpu.job_manager.results)]
    translations = platform.stats_registry.snapshot()[
        "gpu.jobmanager.kernel_translations"]
    return cfgs, translations


def _assert_parity(run):
    interp, _ = _job_cfgs(run, "interp")
    mega, translations = _job_cfgs(run, "mega")
    assert translations > 0  # mega ran the jobs itself
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
