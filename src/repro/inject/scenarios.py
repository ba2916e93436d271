"""The fault campaign's names — its scenarios and workloads — apart
from the campaign (:mod:`repro.inject.campaign`): a farm config load
checks a ``fault`` sweep against them without importing the campaign
and the tenancy harness it runs."""

#: scenario -> the attacker's workload. The one list of cross-tenant
#: scenarios (:func:`repro.tenancy.harness.run_adversarial` runs them):
#: the campaign derives its ``isolate`` rows (the victim must match its
#: solo baseline whatever happens to the attacker) from it
ADVERSARIAL_SCENARIOS = {
    "xtenant-mmu": "divergent",
    "xtenant-hang": "divergent",
    "xtenant-irq-lost": "divergent",
    "xtenant-oob": "oob",
}

#: scenario -> expected outcome class
SCENARIOS = {
    "mmu-transient": "recover",
    "mmu-persistent": "fail-clean",
    "hang-transient": "recover",
    "hang-persistent": "fail-clean",
    "descriptor-transient": "recover",
    "descriptor-persistent": "fail-clean",
    "irq-lost": "recover",
    "irq-spurious": "recover",
    "alloc-fail": "fail-clean",
    "heap-grow": "grow",
    # cross-tenant adversarial cases: an attacker tenant faults (or runs
    # a malicious kernel) while the victim tenant runs the campaign
    # workload — the victim must match its solo baseline byte-for-byte
    **dict.fromkeys(ADVERSARIAL_SCENARIOS, "isolate"),
}

#: campaign workloads must be *replayable* (outputs a pure function of
#: inputs): the recovery ladder re-runs faulted jobs from scratch. These
#: two names resolve to :data:`~repro.kernels.replayable.REPLAYABLE`
#: (standing in for, or adding to, the registry entry of the same name)
DEFAULT_WORKLOADS = ("sgemm", "divergent")


def known_workloads():
    """Every name :func:`repro.inject.campaign.run_case` can run."""
    from repro.kernels import WORKLOADS

    return sorted({*DEFAULT_WORKLOADS, *WORKLOADS})
