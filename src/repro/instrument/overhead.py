"""Self-measured instrumentation overhead (the paper's Fig. 8 claim).

The paper reports that full instrumentation costs below 5% simulation
slowdown. This module makes that claim testable against *this* simulator:
run a workload bare (``instrument=False``, the "w/o instrum." mode) and
fully instrumented, time both, and report the ratio.

Measurement discipline: the two modes are timed in alternation (bare,
instrumented, bare, instrumented, ...) so slow host drift hits both
equally, and the **minimum** over repeats is compared — the minimum is
the least-noise estimate of the true cost on a timeshared host (the
classic rule for microbenchmarks). A warmup run per mode is discarded to
absorb decode caches, kernel translation and allocator warmup.
"""

import json
import time
from dataclasses import dataclass, field


@dataclass
class OverheadReport:
    """Timing comparison of bare vs instrumented runs of one workload."""

    workload: str
    bare_times: list = field(default_factory=list)
    instrumented_times: list = field(default_factory=list)
    budget: float = 0.05  # the paper's <5% claim

    @property
    def bare_s(self):
        return min(self.bare_times)

    @property
    def instrumented_s(self):
        return min(self.instrumented_times)

    @property
    def overhead(self):
        """Fractional slowdown: 0.03 means instrumentation costs 3%."""
        return self.instrumented_s / self.bare_s - 1.0

    @property
    def within_budget(self):
        return self.overhead < self.budget

    def lines(self):
        verdict = "PASS" if self.within_budget else "FAIL"
        return [
            f"workload:            {self.workload}",
            f"repeats:             {len(self.bare_times)} per mode",
            f"bare (best):         {self.bare_s * 1e3:.2f} ms",
            f"instrumented (best): {self.instrumented_s * 1e3:.2f} ms",
            f"overhead:            {self.overhead * 100.0:+.2f}%"
            f"  (budget <{self.budget * 100.0:.0f}%)  [{verdict}]",
        ]

    def to_dict(self):
        return {
            "workload": self.workload,
            "repeats": len(self.bare_times),
            "bare_s": self.bare_s,
            "instrumented_s": self.instrumented_s,
            "bare_times_s": self.bare_times,
            "instrumented_times_s": self.instrumented_times,
            "overhead_fraction": self.overhead,
            "budget_fraction": self.budget,
            "within_budget": self.within_budget,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def measure_overhead(run, workload="workload", repeats=5, budget=0.05):
    """Time ``run(instrument)`` bare vs instrumented.

    *run* executes the workload once; it receives ``instrument`` (bool)
    and must rebuild any state itself so repeats are independent. Runs
    alternate modes; one discarded warmup per mode precedes timing.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    report = OverheadReport(workload=workload, budget=budget)
    run(False)
    run(True)
    for _ in range(repeats):
        for instrument, times in ((False, report.bare_times),
                                  (True, report.instrumented_times)):
            start = time.perf_counter()
            run(instrument)
            times.append(time.perf_counter() - start)
    return report
