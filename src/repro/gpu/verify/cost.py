"""Static cost & resource analysis (the ``cost`` verifier pass).

Derives **sound upper bounds** on the dynamic golden counters from the
clause program alone:

- per-clause issue-cost summaries straight from the decode-time
  :class:`~repro.gpu.isa.ClauseMetrics`;
- loop trip bounds via :mod:`loopbound` (symbolic until a launch
  context pins NDRange/argument values);
- a per-warp worst-case **clause-issue bound**: with min-PC lane-mask
  scheduling a forward-only program issues every reachable clause at
  most once per warp; a clause inside a loop region ``[head, latch]``
  multiplies by ``trips + 1`` per enclosing loop. When every loop's
  latch is the maximum-index clause of its body (and regions nest
  properly), looping lanes traverse back edges in lockstep and the
  per-warp product needs no lane factor; otherwise the bound falls back
  to ``WARP_WIDTH x`` (issues never exceed summed per-lane visits).
  Barriers weaken the once-per-warp argument: a divergent branch can
  send part of the warp past a ``BARRIER`` tail, those lanes run ahead
  until the warp blocks, and after release the barrier-side lanes
  re-issue every clause the early wave already visited. Each barrier a
  divergent branch can split the warp around therefore adds one extra
  *wave* for every later clause (``_barrier_waves``); with only uniform
  branch conditions (``absint`` proves this) the mask never splits and
  the wave factor stays 1;
- a working-set **page-interval bound** on ``pages_accessed`` from the
  abstract address intervals of every global access (falling back to
  the whole mapped range when an address resists analysis);
- uniformity + contiguity classification of every global access.

Everything here is *advisory*: the pass emits facts (``report.facts
["cost"]``) and NOTE findings only, never warnings or errors, so the
lint gates are unaffected. The differential soundness suite holds these
bounds against the observed dynamic counters.
"""

from dataclasses import dataclass, field

from repro.gpu.isa import QUAD_WIDTH, Tail
from repro.gpu.verify import loopbound
from repro.gpu.verify.memory import absolute_interval, span_bytes
from repro.gpu.verify.report import Finding, Severity
from repro.mem.physical import PAGE_SHIFT

PASS_NAME = "cost"

WARP_WIDTH = QUAD_WIDTH


@dataclass
class ClauseCost:
    """Static per-issue cost of one clause."""

    index: int
    tuples: int
    arith: int
    mem: int
    ls_beats: int
    loops: tuple = ()  # heads of enclosing loop regions

    def to_dict(self):
        return {"index": self.index, "tuples": self.tuples,
                "arith": self.arith, "mem": self.mem,
                "ls_beats": self.ls_beats, "loops": list(self.loops)}


@dataclass
class AccessClass:
    """Uniformity/contiguity classification of one global access."""

    clause: int
    tuple_index: int
    slot: str
    kind: str
    pattern: str  # 'uniform' | 'contiguous' | 'strided' | 'gather'

    def to_dict(self):
        return {"clause": self.clause, "tuple": self.tuple_index,
                "slot": self.slot, "kind": self.kind,
                "pattern": self.pattern}


@dataclass
class LaunchBounds:
    """Concrete bounds for one launch geometry (all fields may be None
    when the analysis could not produce a finite bound)."""

    warps: int = None
    warps_per_group: int = None
    per_warp_issues: int = None
    per_workgroup_issues: int = None
    total_issues: int = None
    pages: int = None
    loop_trips: dict = field(default_factory=dict)

    def to_dict(self):
        return {"warps": self.warps,
                "warps_per_group": self.warps_per_group,
                "per_warp_issues": self.per_warp_issues,
                "per_workgroup_issues": self.per_workgroup_issues,
                "total_issues": self.total_issues, "pages": self.pages,
                "loop_trips": {str(k): v
                               for k, v in self.loop_trips.items()}}


class CostSummary:
    """The cost pass's result: symbolic facts plus launch evaluators."""

    def __init__(self, program, cfg, absres, loops):
        self.program = program
        self.cfg = cfg
        self.absres = absres
        self.loops = loops
        self.regions = [(loop.head, max(loop.body)) for loop in loops]
        self.lockstep = self._lockstep()
        self.barrier_waves = self._barrier_waves()
        self.clauses = self._clause_costs()
        self.access_classes = self._classify_accesses()

    # -- structural facts --------------------------------------------------

    def _lockstep(self):
        """Back edges traverse in lockstep: every loop's latch is the
        maximum-index clause of its body and loop regions are properly
        nested or disjoint (see the min-PC argument in the module
        docstring)."""
        for loop in self.loops:
            if loop.latch != max(loop.body):
                return False
        spans = sorted(self.regions)
        for i, (lo_a, hi_a) in enumerate(spans):
            for lo_b, hi_b in spans[i + 1:]:
                if lo_b <= hi_a and not (lo_b >= lo_a and hi_b <= hi_a):
                    return False  # partial overlap
        return True

    def _enclosing(self, index):
        return tuple(head for head, hi in self.regions
                     if head <= index <= hi)

    def _barrier_waves(self):
        """clause index -> issue waves: 1 plus the number of earlier
        ``BARRIER``-tail clauses a divergent branch can split the warp
        around. A branch inside a loop counts from the loop head — the
        back edge can carry its divergence to earlier clauses."""
        starts = []
        for index, uniform in self.absres.cond_uniform.items():
            if uniform or index not in self.cfg.reachable:
                continue
            heads = self._enclosing(index)
            starts.append(min((index,) + heads))
        first_divergent = min(starts) if starts else None
        waves = {}
        count = 0
        for index in sorted(self.cfg.reachable):
            waves[index] = 1 + count
            clause = self.program.clauses[index]
            if clause.tail is Tail.BARRIER and \
                    first_divergent is not None and \
                    first_divergent <= index:
                count += 1
        return waves

    def _clause_costs(self):
        costs = []
        for index in sorted(self.cfg.reachable):
            clause = self.program.clauses[index]
            metrics = clause.metrics()
            costs.append(ClauseCost(
                index=index, tuples=clause.size,
                arith=metrics.arith_instrs,
                mem=(metrics.ls_global_instrs + metrics.ls_local_instrs),
                ls_beats=metrics.ls_beats,
                loops=self._enclosing(index)))
        return costs

    def _classify_accesses(self):
        classes = []
        for access in self.absres.accesses:
            if access.local:
                continue
            addr = access.addr
            if addr.top:
                pattern = "gather"
            elif not addr.varies_in_group:
                pattern = "uniform"
            elif addr.sym in ("gid", "lane") and addr.coeff == 4:
                pattern = "contiguous"
            elif addr.sym in ("gid", "lid", "lane") and addr.coeff:
                pattern = "strided"
            else:
                pattern = "gather"
            classes.append(AccessClass(
                clause=access.clause, tuple_index=access.tuple_index,
                slot=access.slot, kind=access.kind, pattern=pattern))
        return classes

    # -- launch-time evaluation --------------------------------------------

    def loop_trip_counts(self, ctx):
        """head -> concrete max back-edge count (None = unbounded)."""
        return {loop.head: loop.max_back_edges(ctx)
                for loop in self.loops}

    def per_warp_issue_bound(self, ctx):
        """Worst-case clause issues per warp, or None when unbounded."""
        trips = self.loop_trip_counts(ctx)
        total = 0
        for cost in self.clauses:
            factor = self.barrier_waves.get(cost.index, 1)
            for head in cost.loops:
                n = trips.get(head)
                if n is None:
                    return None
                factor *= n + 1
            if cost.loops and not self.lockstep:
                factor *= WARP_WIDTH
            total += factor
        return total

    def page_bound(self, ctx):
        """Upper bound on data pages the program can touch, or None."""
        if ctx.mapped_ranges is None:
            return None
        intervals = []
        fallback = False
        for access in self.absres.accesses:
            if access.local:
                continue
            interval = absolute_interval(access.addr, ctx)
            if interval is None:
                fallback = True
                break
            span = span_bytes(access)
            intervals.append((interval[0] >> PAGE_SHIFT,
                              (interval[1] + span - 1) >> PAGE_SHIFT))
        if fallback:
            # an unanalyzable address can still only touch mapped pages
            # (anything else faults without entering pages_accessed)
            intervals = [(lo >> PAGE_SHIFT, (hi - 1) >> PAGE_SHIFT)
                         for lo, hi in ctx.mapped_ranges]
        return _count_pages(intervals)

    def evaluate(self, ctx):
        """All launch bounds for the geometry pinned in *ctx*."""
        bounds = LaunchBounds(loop_trips=self.loop_trip_counts(ctx))
        per_warp = self.per_warp_issue_bound(ctx)
        bounds.per_warp_issues = per_warp
        if ctx.threads_per_group and ctx.threads:
            wpg = -(-ctx.threads_per_group // WARP_WIDTH)
            groups = ctx.threads // ctx.threads_per_group
            bounds.warps_per_group = wpg
            bounds.warps = wpg * groups
            if per_warp is not None:
                bounds.per_workgroup_issues = per_warp * wpg
                bounds.total_issues = per_warp * bounds.warps
        bounds.pages = self.page_bound(ctx)
        return bounds

    # -- serialization ------------------------------------------------------

    def pattern_counts(self):
        counts = {}
        for cls in self.access_classes:
            counts[cls.pattern] = counts.get(cls.pattern, 0) + 1
        return counts

    def to_dict(self, ctx=None):
        data = {
            "clauses": [c.to_dict() for c in self.clauses],
            "loops": [{
                "head": loop.head, "latch": loop.latch,
                "body": sorted(loop.body),
                "bound": loop.describe(),
                "analyzed": loop.analyzed,
            } for loop in self.loops],
            "lockstep": self.lockstep,
            "accesses": [c.to_dict() for c in self.access_classes],
            "patterns": self.pattern_counts(),
        }
        if ctx is not None:
            data["bounds"] = self.evaluate(ctx).to_dict()
        return data


def _count_pages(intervals):
    """Total pages covered by a union of inclusive page intervals."""
    total = 0
    last_hi = None
    for lo, hi in sorted(intervals):
        if last_hi is not None:
            lo = max(lo, last_hi + 1)
        if hi >= lo:
            total += hi - lo + 1
            last_hi = hi if last_hi is None else max(last_hi, hi)
    return total


def run(program, cfg, ctx, absres, report):
    """The cost pass: attach a :class:`CostSummary` fact plus NOTE-level
    findings describing loop bounds (never warnings/errors)."""
    loops = loopbound.find_loops(program, cfg, ctx, absres)
    summary = CostSummary(program, cfg, absres, loops)
    report.facts["cost"] = summary
    for loop in loops:
        report.add(Finding(
            code="loop-bound", severity=Severity.NOTE,
            message=(f"loop {loop.head}..{loop.latch}: "
                     f"trips {loop.describe()}"),
            clause=loop.head, slot="tail", pass_name=PASS_NAME))
    return summary
