"""Unified hierarchical statistics registry (cross-layer observability).

Every simulator layer — guest CPU, kbase driver, CL runtime, Job Manager,
shader cores, GPU MMU — registers its counters into one
:class:`StatsRegistry` under dotted hierarchical names
(``gpu.core0.warp.divergent_branches``), the way gem5's versioned stats
framework gives every SimObject a stats group. The registry is what turns
the functional simulator into a measurement instrument: one place to dump,
one schema to regress against, one report generator.

Stat kinds:

- :class:`Counter` — a plain accumulating integer, incremented by the
  owning component.
- :class:`Probe` — a zero-cost view onto a value the component already
  maintains (read via a callable at dump time). Hot paths keep their
  existing attribute counters; the registry observes them without adding
  per-event work, which is how the <5% instrumentation budget survives.
- :class:`Distribution` — a value -> count histogram (clause sizes).
- :class:`Formula` — derived at dump time from other stats (totals,
  mixes, averages), never stored.

Stats carry a ``golden`` flag: golden stats are architecturally defined
and must be identical across execution engines (interpreter, megakernel)
and MMU tiers, and stable across runs; non-golden stats are implementation
diagnostics (TLB hit shapes, decode-cache effectiveness) that legitimately
vary with the engine or tier. ``dump(golden_only=True)`` is the cross-engine
conformance surface.
"""

import json

from repro.state import Stateful


class Stat:
    """Base: a named value in the registry."""

    kind = "stat"

    def __init__(self, name, desc="", golden=True):
        self.name = name
        self.desc = desc
        self.golden = golden

    def value(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self):
        """Return the stat to its initial state (no-op for views)."""


class Counter(Stat, Stateful):
    """An accumulating integer owned by the registry."""

    kind = "counter"
    STATE_FIELDS = ("_value",)

    def __init__(self, name, desc="", golden=True):
        super().__init__(name, desc, golden)
        self._value = 0

    def increment(self, amount=1):
        self._value += amount

    def add(self, amount):
        self._value += amount

    def value(self):
        return self._value

    def reset(self):
        self._value = 0


class Probe(Stat):
    """A read-only view onto a component-owned value (evaluated at dump)."""

    kind = "probe"

    def __init__(self, name, fn, desc="", golden=True):
        super().__init__(name, desc, golden)
        self._fn = fn

    def value(self):
        return self._fn()


class Distribution(Stat, Stateful):
    """A value -> count histogram.

    Either registry-owned (use :meth:`record`) or a view onto a
    component-owned dict (pass ``fn`` returning the mapping).
    """

    kind = "distribution"
    STATE_FIELDS = ("_samples",)  # None for a view

    def __init__(self, name, fn=None, desc="", golden=True):
        super().__init__(name, desc, golden)
        self._fn = fn
        self._samples = {} if fn is None else None

    def record(self, sample, count=1):
        if self._samples is None:
            raise TypeError(f"{self.name} is a view distribution")
        self._samples[sample] = self._samples.get(sample, 0) + count

    def value(self):
        samples = self._samples if self._fn is None else self._fn()
        return {key: samples[key] for key in sorted(samples)}

    def reset(self):
        if self._samples is not None:
            self._samples.clear()


class Formula(Stat):
    """A value derived from other stats at dump time.

    The callable receives the owning :class:`StatsRegistry`, so formulas
    can be expressed over dotted names:
    ``lambda reg: reg.value("gpu.job.arith_instrs") + ...``.
    """

    kind = "formula"

    def __init__(self, name, fn, desc="", golden=True):
        super().__init__(name, desc, golden)
        self._fn = fn
        self._registry = None

    def value(self):
        return self._fn(self._registry)


class StatsRegistry(Stateful):
    """The single cross-layer home for simulator statistics."""

    def __init__(self):
        self._stats = {}

    # -- registration ----------------------------------------------------------

    def _install(self, stat):
        existing = self._stats.get(stat.name)
        if existing is not None:
            if type(existing) is not type(stat):
                raise ValueError(
                    f"stat {stat.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        self._stats[stat.name] = stat
        return stat

    def counter(self, name, desc="", golden=True):
        """Get-or-create an accumulating counter."""
        return self._install(Counter(name, desc, golden))

    def probe(self, name, fn, desc="", golden=True):
        """Register a view onto a component-owned value."""
        return self._install(Probe(name, fn, desc, golden))

    def distribution(self, name, fn=None, desc="", golden=True):
        """Get-or-create a histogram (or a view when *fn* is given)."""
        return self._install(Distribution(name, fn, desc, golden))

    def formula(self, name, fn, desc="", golden=True):
        """Register a derived stat computed from the registry at dump."""
        stat = self._install(Formula(name, fn, desc, golden))
        stat._registry = self
        return stat

    def scope(self, prefix):
        """A view of the registry that prefixes every name with *prefix*."""
        return Scope(self, prefix)

    # -- queries ---------------------------------------------------------------

    def __contains__(self, name):
        return name in self._stats

    def __len__(self):
        return len(self._stats)

    def get(self, name):
        return self._stats[name]

    def value(self, name):
        return self._stats[name].value()

    def names(self):
        return sorted(self._stats)

    def stats(self):
        return [self._stats[name] for name in self.names()]

    # -- output ----------------------------------------------------------------

    def dump(self, golden_only=False):
        """Flat ``{dotted name: value}`` mapping, sorted by name.

        With ``golden_only`` the dump contains exactly the stats that are
        architecturally defined — the surface that must be identical
        across execution engines and stable across runs.
        """
        out = {}
        for name in self.names():
            stat = self._stats[name]
            if golden_only and not stat.golden:
                continue
            out[name] = stat.value()
        return out

    def tree(self, golden_only=False):
        """The dump folded into nested dicts along the dotted hierarchy."""
        root = {}
        for name, value in self.dump(golden_only).items():
            node = root
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return root

    def to_json(self, golden_only=False, indent=2):
        return json.dumps(self.dump(golden_only), indent=indent, default=str)

    def snapshot(self, golden_only=False):
        """A transport-safe copy of :meth:`dump` for crossing process
        boundaries (the simulation farm pickles per-case snapshots back
        to the campaign manager and writes them into the aggregate
        report).

        Unlike the raw dump, every value is a plain ``int``/``float``/
        ``str`` and distribution buckets become string keys, so the
        snapshot round-trips through both pickle and JSON without the
        int-vs-str key ambiguity ``json.loads(json.dumps(...))``
        introduces, and never drags live Probe callables (and the
        component graph behind them) across the boundary.
        """
        return {name: snapshot_value(value)
                for name, value in self.dump(golden_only).items()}

    def reset(self):
        for stat in self._stats.values():
            stat.reset()

    # -- checkpoint state ------------------------------------------------------

    def get_state(self):
        """The stats whose *only* home is the registry: accumulating
        :class:`Counter` objects and owned :class:`Distribution`
        histograms (e.g. ``cl.runtime.*``). Probes and formulas are views
        over component state that the components serialize themselves."""
        return {"stats": [
            {"name": stat.name, "kind": stat.kind, "desc": stat.desc,
             "golden": stat.golden, **stat.get_state()}
            for stat in self.stats()
            if isinstance(stat, Counter) or (
                isinstance(stat, Distribution) and stat._fn is None)]}

    def set_state(self, state):
        """Get-or-create each owned stat and overwrite its value. A
        component that registers the same name later (a fresh CL
        ``Context`` re-running its registrations) gets the restored
        object back, so counts keep accumulating from the saved values."""
        for item in state["stats"]:
            create = (self.counter if item["kind"] == Counter.kind
                      else self.distribution)
            create(item["name"], desc=item["desc"],
                   golden=item["golden"]).set_state(item)


class Scope:
    """A dotted-prefix view of a :class:`StatsRegistry`."""

    def __init__(self, registry, prefix):
        self.registry = registry
        self.prefix = prefix

    def _name(self, name):
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name, desc="", golden=True):
        return self.registry.counter(self._name(name), desc, golden)

    def probe(self, name, fn, desc="", golden=True):
        return self.registry.probe(self._name(name), fn, desc, golden)

    def distribution(self, name, fn=None, desc="", golden=True):
        return self.registry.distribution(self._name(name), fn, desc, golden)

    def formula(self, name, fn, desc="", golden=True):
        return self.registry.formula(self._name(name), fn, desc, golden)

    def scope(self, prefix):
        return Scope(self.registry, self._name(prefix))


def snapshot_value(value):
    """Normalize one stat value into the snapshot transport form."""
    if isinstance(value, dict):
        return {str(key): snapshot_value(sample)
                for key, sample in sorted(value.items())}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (frozenset, set, tuple, list)):
        return [snapshot_value(item) for item in sorted(value)]
    return str(value)


def diff_snapshots(reference, other):
    """Names whose values differ between two snapshots (including names
    present on only one side), sorted — the farm's bit-exactness check."""
    names = set(reference) | set(other)
    missing = object()
    return sorted(name for name in names
                  if reference.get(name, missing) != other.get(name, missing))


def format_registry(registry, golden_only=False, show_desc=True):
    """gem5-style text dump: aligned ``name  value  # description`` rows,
    distributions expanded one bucket per row."""
    rows = []
    for stat in registry.stats():
        if golden_only and not stat.golden:
            continue
        value = stat.value()
        if isinstance(value, dict):
            rows.append((stat.name, "", stat.desc))
            for bucket, count in value.items():
                rows.append((f"{stat.name}::{bucket}", str(count), ""))
        else:
            if isinstance(value, float):
                text = f"{value:.6g}"
            else:
                text = str(value)
            rows.append((stat.name, text, stat.desc))
    if not rows:
        return "(no statistics registered)"
    name_width = max(len(name) for name, _v, _d in rows)
    value_width = max(len(value) for _n, value, _d in rows)
    lines = []
    for name, value, desc in rows:
        line = f"{name:<{name_width}}  {value:>{value_width}}"
        if show_desc and desc:
            line += f"  # {desc}"
        lines.append(line.rstrip())
    return "\n".join(lines)


# -- canonical component registrations -----------------------------------------
#
# These helpers define the one mapping from component state to registry
# names. Both the full platform (repro.core.platform) and the conformance
# harness (repro.validate.runner) use them, so the fuzzer guards exactly
# the counters the platform reports.

_JOB_STAT_FIELDS = (
    ("arith_instrs", "arithmetic instructions, per active lane"),
    ("ls_global_instrs", "global load/store instructions"),
    ("ls_local_instrs", "workgroup-local load/store instructions"),
    ("nop_instrs", "empty issue slots executed"),
    ("cf_instrs", "control-flow instructions"),
    ("const_load_instrs", "uniform-port loads (LDU)"),
    ("arith_cycles", "tuples issued, per warp"),
    ("ls_cycles", "128-bit memory beats, per warp"),
    ("temp_reads", "clause-temporary reads"),
    ("temp_writes", "clause-temporary writes"),
    ("grf_reads", "general-register-file reads"),
    ("grf_writes", "general-register-file writes"),
    ("const_reads", "uniform-port reads"),
    ("rom_reads", "clause constant-pool reads"),
    ("main_mem_accesses", "global memory accesses, per element"),
    ("local_mem_accesses", "local memory accesses, per element"),
    ("clauses_executed", "clauses executed, per warp"),
    ("divergent_branches", "warp-divergent branch events"),
    ("branch_events", "branch clauses executed, per warp"),
    ("threads_launched", "threads dispatched"),
    ("warps_launched", "quad warps dispatched"),
    ("workgroups", "thread-groups dispatched"),
)


def register_job_stats(scope, provider):
    """Register a :class:`~repro.instrument.stats.JobStats` view under
    *scope*. *provider* is a zero-arg callable returning the live JobStats
    (so merged totals keep flowing into already-registered probes)."""
    for field, desc in _JOB_STAT_FIELDS:
        scope.probe(field, (lambda f=field: getattr(provider(), f)),
                    desc=desc)
    scope.distribution(
        "clause_size_histogram",
        fn=lambda: provider().clause_size_histogram,
        desc="clause size -> execution count (Fig. 13)")
    scope.formula(
        "total_instrs", lambda _reg: provider().total_instrs,
        desc="all executed instruction slots")
    scope.formula(
        "ls_instrs", lambda _reg: provider().ls_instrs,
        desc="all load/store-class instructions")
    scope.formula(
        "average_clause_size", lambda _reg: provider().average_clause_size(),
        desc="mean executed clause size")


def register_mmu_stats(scope, mmu):
    """Register GPU MMU counters. Translation counts and the distinct-page
    set are architectural (identical across engines, PR 1's bit-exactness
    guarantee); the quad-path shape counters are diagnostics."""
    scope.probe("translations", lambda: mmu.translations,
                desc="address translations performed")
    scope.probe("pages_accessed", lambda: len(mmu.pages_accessed),
                desc="distinct GPU-VA pages touched (Table III)")
    scope.probe("fault_status", lambda: mmu.fault_status,
                desc="latched fault status register", golden=False)
    scope.probe("quad_accesses", lambda: mmu.quad_accesses,
                desc="vector accesses served by the quad fast path",
                golden=False)
    scope.probe("quad_fallbacks", lambda: mmu.quad_fallbacks,
                desc="quad accesses replayed on the scalar path",
                golden=False)
    scope.probe("wide_accesses", lambda: mmu.wide_accesses,
                desc="workgroup-wide accesses served by the mega tier",
                golden=False)
    scope.probe("wide_fallbacks", lambda: mmu.wide_fallbacks,
                desc="workgroup-wide accesses replayed per lane",
                golden=False)
