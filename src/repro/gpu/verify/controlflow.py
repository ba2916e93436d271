"""Control-flow passes: reachability, termination, barrier divergence."""

from repro.gpu.isa import Tail
from repro.gpu.verify.report import Finding, Severity

PASS_NAME = "controlflow"


def _finding(code, severity, message, **kw):
    return Finding(code=code, severity=severity, message=message,
                   pass_name=PASS_NAME, **kw)


def run(program, cfg, ctx, absres, report):
    for index in range(len(program.clauses)):
        if index not in cfg.reachable:
            report.add(_finding(
                "unreachable-clause", Severity.WARNING,
                "clause is unreachable from the entry", clause=index))

    report.facts["forward_only"] = cfg.forward_only
    if cfg.forward_only:
        # Forward-only CFGs strictly increase the clause index on every
        # edge, so every execution terminates — record the proof.
        report.facts["terminating"] = True
    else:
        stuck = cfg.nonterminating_clauses()
        report.facts["terminating"] = not stuck
        if stuck:
            report.add(_finding(
                "no-termination", Severity.ERROR,
                f"no END is reachable from clause {min(stuck)} "
                f"({len(stuck)} clause(s) trapped in a cycle)",
                clause=min(stuck), slot="tail"))

    _barrier_divergence(program, cfg, absres, report)


def _barrier_divergence(program, cfg, absres, report):
    """A barrier reachable from only one side of a divergent branch.

    On real hardware a workgroup barrier requires every thread to arrive;
    if a thread-varying branch lets some threads bypass the barrier (or
    exit), the others wait forever. This simulator releases barriers when
    the remaining warps finish, so the defect is a portability/deadlock
    lint, not a simulation fault: WARNING severity.

    Branches whose condition is provably workgroup-uniform (absint) are
    skipped — uniform loops around barriers are the normal tiled-kernel
    idiom and cannot diverge.
    """
    barriers = [i for i in cfg.reachable
                if program.clauses[i].tail is Tail.BARRIER]
    if not barriers:
        return
    reported = set()
    for index in sorted(cfg.reachable):
        clause = program.clauses[index]
        if clause.tail not in (Tail.BRANCH, Tail.BRANCH_Z):
            continue
        if absres.cond_uniform.get(index, False):
            continue
        succs = cfg.successors[index]
        if len(succs) < 2:
            continue
        reach = [cfg.reach_from(s) for s in succs]
        for barrier in barriers:
            if barrier in reported:
                continue
            hits = [barrier in r for r in reach]
            if any(hits) and not all(hits):
                reported.add(barrier)
                report.add(_finding(
                    "barrier-divergence", Severity.WARNING,
                    f"barrier in clause {barrier} is reachable from only "
                    f"one side of the thread-varying branch in clause "
                    f"{index}; diverged threads would deadlock the "
                    f"workgroup on real hardware",
                    clause=barrier, slot="tail"))
