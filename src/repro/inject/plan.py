"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
one *injection site* and a deterministic trigger. Sites are keyed one of
two ways, chosen so a plan replays identically across runs and across
``num_host_threads`` settings:

- **key-keyed** sites fire on a deterministic identifier of the access —
  the GPU-VA page for ``mmu.page``, the flat workgroup id for
  ``core.hang``. Keys are stable whatever order parallel units reach
  them in.
- **occurrence-keyed** sites fire on the Nth visit to the site. These
  sites all sit on the single-threaded driver/submission path
  (descriptor reads, allocations, IRQ delivery), where visit order is
  deterministic by construction.

Plans serialize to/from plain dicts (an attached injector's plan rides
a platform checkpoint that way). A fault-campaign reproducer does not
carry one: the campaign derives each case's plan from the case seed, so
the reproducer is the farm config naming the case.
"""

from dataclasses import dataclass, field

#: site name -> (keyed?, description)
SITES = {
    "mmu.page": (True, "MMU fault on first touch of an armed GPU-VA page "
                       "(key = VA page number)"),
    "core.hang": (True, "clause-budget stall of one workgroup; the "
                        "progress watchdog parks the job "
                        "(key = flat workgroup id)"),
    "descriptor.read": (False, "bit-flip in a job-descriptor read "
                               "(occurrence-keyed, driver path)"),
    "alloc.phys": (False, "physical allocation failure "
                          "(occurrence-keyed, driver path)"),
    "irq.lost": (False, "suppress a GPU JOB IRQ line assertion "
                        "(occurrence-keyed, IRQ delivery path)"),
    "irq.spurious": (False, "assert an IRQ line with no work behind it "
                            "(occurrence-keyed, submission path)"),
}


@dataclass
class FaultSpec:
    """One armed fault.

    Attributes:
        site: one of :data:`SITES`.
        key: deterministic trigger for key-keyed sites (VA page number,
            flat workgroup id); must be None for occurrence-keyed sites.
        occurrence: 1-based visit number a occurrence-keyed site starts
            firing at (ignored for key-keyed sites).
        count: times to fire before the spec disarms; None means
            persistent (fires on every match — the unrecoverable shape).
        params: site-specific parameters passed through to the hook
            (e.g. ``kind``/``access`` for ``mmu.page``, ``offset``/
            ``mask`` for ``descriptor.read``, ``stall_rounds`` for
            ``core.hang``).
        tenant: when set, the spec only fires while the injector's
            ``current_tenant`` matches — the cross-tenant adversarial
            campaigns arm an attacker's faults without ever perturbing a
            victim tenant's jobs. None (the default) fires regardless.
    """

    site: str
    key: int = None
    occurrence: int = 1
    count: int = 1
    params: dict = field(default_factory=dict)
    tenant: int = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; "
                f"known: {sorted(SITES)}")
        keyed = SITES[self.site][0]
        if keyed and self.key is None:
            raise ValueError(f"site {self.site!r} requires a key")
        if not keyed and self.key is not None:
            raise ValueError(f"site {self.site!r} is occurrence-keyed")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 or None (persistent)")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based")

    def to_dict(self):
        out = {"site": self.site}
        if self.key is not None:
            out["key"] = self.key
        if self.occurrence != 1:
            out["occurrence"] = self.occurrence
        out["count"] = self.count
        if self.params:
            out["params"] = dict(self.params)
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(site=data["site"], key=data.get("key"),
                   occurrence=data.get("occurrence", 1),
                   count=data.get("count", 1),
                   params=dict(data.get("params", {})),
                   tenant=data.get("tenant"))


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries.

    Attributes:
        specs: the armed faults.
        name: human-readable label (campaign scenario name).
        seed: the campaign seed the plan was derived from, for
            reproducer files; purely informational here.
    """

    def __init__(self, specs, name="", seed=None):
        self.specs = list(specs)
        self.name = name
        self.seed = seed

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def to_dict(self):
        out = {"specs": [spec.to_dict() for spec in self.specs]}
        if self.name:
            out["name"] = self.name
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data):
        return cls([FaultSpec.from_dict(item) for item in data["specs"]],
                   name=data.get("name", ""), seed=data.get("seed"))
