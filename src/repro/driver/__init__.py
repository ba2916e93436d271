"""GPU kernel driver (the vendor "kbase"-like driver).

Owns GPU virtual address space, builds page tables in guest physical
memory, constructs job descriptors, rings the GPU doorbell, and services
interrupts — the low-level CPU-GPU interaction layer of Fig. 2(a)/(b).
Hosts N client :class:`TenantContext` instances over the one GPU, each
with a private VA space and physical carve-out, scheduled by a
QoS-class :class:`JobSlotArbiter` with soft-stop preemption. The
recovery ladder's and the scheduler's bounds are module constants of
:mod:`repro.driver.kbase` (``MAX_RETRIES``, ``STARVATION_BOUND``, ...).
"""

from repro.driver.kbase import (
    JobSlotArbiter,
    KBaseDriver,
    PendingJob,
    PhysAllocator,
    QoSClass,
    Region,
    TenancyConfig,
    TenantContext,
    TenantSpec,
)

__all__ = [
    "JobSlotArbiter",
    "KBaseDriver",
    "PendingJob",
    "PhysAllocator",
    "QoSClass",
    "Region",
    "TenancyConfig",
    "TenantContext",
    "TenantSpec",
]
