"""Fig. 6: BFS control-flow graph pinpointing thread divergence.

Paper: the simulator builds a CFG from clause-boundary PC tracking; BFS
shows a block with 0.4% divergence and uneven edge weights. Here: the
same CFG is built on actual executed clauses of our BFS kernel binary,
from the per-clause counts the engines keep for the job stats, so the
interpreter and mega give the same graph.
"""

from conftest import emit, host_line

from repro.analysis.figures import fig06_bfs_cfg


def test_fig06_bfs_divergence_cfg(benchmark):
    dot, divergent, cfg, engine = benchmark.pedantic(
        fig06_bfs_cfg, kwargs={"engine": "interp"}, rounds=1, iterations=1
    )
    lines = ["Fig. 6: BFS divergence CFG (DOT)", dot, "",
             "Divergence points (clause address: fraction of divergent "
             "warp issues):"]
    for label, fraction in sorted(divergent.items()):
        lines.append(f"  {label}: {100 * fraction:.2f}%")
    lines += ["", host_line(engine)]
    emit("fig06_bfs_cfg", "\n".join(lines))
    # BFS is control heavy: the CFG must contain real divergence points
    # and non-trivial edge structure
    assert divergent, "BFS should diverge"
    nodes, _successors = cfg.graph()
    assert len(nodes) >= 4
    assert len(cfg.edges) > len(nodes) - 1
    # the CFG is built from the per-clause counts every engine keeps: the
    # translating engine gives the reference interpreter's graph
    _dot, _divergent, mega, _engine = fig06_bfs_cfg(engine="mega")
    assert (mega.edges, mega.divergences) == (cfg.edges, cfg.divergences)
