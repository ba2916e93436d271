"""The fault injector: arms a :class:`~repro.inject.plan.FaultPlan` at
the simulator's registered injection sites.

The injector is consulted by the GPU MMU (``fire_page``/``armed``),
the job manager and shader cores (``fire`` with a key), and the driver
and platform IRQ routing (``fire`` occurrence-keyed). Every hook sits on
a cold path — TLB misses, descriptor parses, submission, IRQ assertion —
so an attached injector costs the execution hot path nothing, and a
detached one (the default) costs nothing anywhere.

Firing is thread-safe and deterministic: key-keyed specs consume on
their key (whichever parallel unit arrives first takes the one armed
fault; the end state is identical), occurrence-keyed specs count visits
on single-threaded paths.
"""

import threading

from repro.inject.plan import SITES, FaultPlan
from repro.state import Stateful


class _Armed:
    """Mutable firing state for one spec."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec):
        self.spec = spec
        self.remaining = spec.count  # None = persistent

    @property
    def live(self):
        return self.remaining is None or self.remaining > 0

    def consume(self):
        if self.remaining is not None:
            self.remaining -= 1


class FaultInjector(Stateful):
    """Arms a plan; fires specs at the registered sites.

    Args:
        plan: a :class:`FaultPlan` (or an iterable of specs).
        events: optional EventTracer; every firing emits a
            ``fault_injected`` instant on the ``inject`` track.
    """

    STATE_FIELDS = ("current_tenant", "_visits", "fired")

    def __init__(self, plan, events=None):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self.plan = plan
        self.events = events
        # tenant id of the work currently running (the driver sets this
        # around each dispatch and tenant allocation); specs with a
        # ``tenant`` field only fire while it matches
        self.current_tenant = None
        self._lock = threading.Lock()
        self._keyed = {}  # (site, key) -> [_Armed]
        self._occ = {}  # site -> [_Armed]
        self._visits = {site: 0 for site in SITES}
        self.fired = {site: 0 for site in SITES}
        self.log = []  # (site, key_or_visit) in firing order
        for spec in plan:
            if SITES[spec.site][0]:
                self._keyed.setdefault((spec.site, spec.key),
                                       []).append(_Armed(spec))
            else:
                self._occ.setdefault(spec.site, []).append(_Armed(spec))

    @property
    def total_fired(self):
        return sum(self.fired.values())

    def _eligible(self, armed):
        spec_tenant = armed.spec.tenant
        return spec_tenant is None or spec_tenant == self.current_tenant

    def _record(self, site, detail, params):
        self.fired[site] += 1
        self.log.append((site, detail))
        if self.events is not None:
            self.events.instant("fault_injected", "inject", site,
                                args={"at": detail, **params})

    # -- hook API (called by the instrumented components) ---------------------

    def fire(self, site, key=None):
        """Consult the injector at *site*; returns the spec's params dict
        when a fault should be injected here, else None.

        Key-keyed sites pass the deterministic key (flat workgroup id);
        occurrence-keyed sites pass nothing and are counted per visit.
        """
        with self._lock:
            if key is not None:
                return self._fire_keyed(site, key)
            self._visits[site] += 1
            visit = self._visits[site]
            for armed in self._occ.get(site, ()):
                if armed.live and visit >= armed.spec.occurrence \
                        and self._eligible(armed):
                    armed.consume()
                    self._record(site, visit, armed.spec.params)
                    return armed.spec.params
            return None

    def _fire_keyed(self, site, key):
        for armed in self._keyed.get((site, key), ()):
            if armed.live and self._eligible(armed):
                armed.consume()
                self._record(site, key, armed.spec.params)
                return armed.spec.params
        return None

    def fire_page(self, vpage):
        """MMU hook: consume an armed ``mmu.page`` fault for *vpage*."""
        with self._lock:
            return self._fire_keyed("mmu.page", vpage)

    def armed(self, site, key):
        """Non-consuming probe: would :meth:`fire` at key-keyed *site*
        inject a fault for *key* now (the tenant scope included)?

        The MMU's quad fast-path tiers use this to defer armed pages to
        the scalar replay without consuming the fault, so it fires
        exactly once, with reference semantics, in the scalar miss path;
        the compute unit ends a lockstep batch before an armed group.
        """
        return any(armed.live and self._eligible(armed)
                   for armed in self._keyed.get((site, key), ()))

    # -- checkpoint state ----------------------------------------------------

    def _armed(self):
        """Every armed spec in a fixed order that depends only on the plan."""
        return [armed
                for entries in (*self._keyed.values(), *self._occ.values())
                for armed in entries]

    def get_state(self):
        """The plan plus its consumption state."""
        state = super().get_state()
        state["plan"] = self.plan.to_dict()
        state["remaining"] = [armed.remaining for armed in self._armed()]
        state["log"] = [list(entry) for entry in self.log]
        return state

    def set_state(self, state):
        """Wind this injector, armed with the saved plan, forward to the
        saved consumption state."""
        armed = self._armed()
        if len(armed) != len(state["remaining"]):
            raise ValueError("injector state does not match its plan")
        super().set_state(state)
        for entry, remaining in zip(armed, state["remaining"]):
            entry.remaining = remaining
        self.log = [tuple(entry) for entry in state["log"]]

    @classmethod
    def from_state(cls, state):
        injector = cls(FaultPlan.from_dict(state["plan"]))
        injector.set_state(state)
        return injector

    # -- stats ---------------------------------------------------------------

    def register_stats(self, scope):
        """Register per-site firing counters (all non-golden: they exist
        only when a plan is attached)."""
        for site in sorted(SITES):
            scope.probe(site.replace(".", "_"),
                        (lambda s=site: self.fired[s]),
                        desc=f"faults injected at {site}", golden=False)
        scope.probe("total", lambda: self.total_fired,
                    desc="total faults injected", golden=False)
