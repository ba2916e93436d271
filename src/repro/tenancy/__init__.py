"""Multi-tenant GPU harness: mixed runs, solo baselines, isolation checks."""

from repro.tenancy.harness import (
    ADVERSARIAL_SCENARIOS,
    ENGINE_MODES,
    MixedRunResult,
    TenantPlan,
    TenantRecord,
    check_isolation,
    fairness_report,
    run_adversarial,
    run_mixed,
    solo_baseline,
    tenancy_config,
)

__all__ = [
    "ADVERSARIAL_SCENARIOS",
    "ENGINE_MODES",
    "MixedRunResult",
    "TenantPlan",
    "TenantRecord",
    "check_isolation",
    "fairness_report",
    "run_adversarial",
    "run_mixed",
    "solo_baseline",
    "tenancy_config",
]
