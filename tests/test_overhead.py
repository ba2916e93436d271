"""Tests: the self-measured instrumentation overhead accountant.

The fast tests exercise :class:`OverheadReport` arithmetic and the
:func:`measure_overhead` protocol with a synthetic runner. The slow test
actually times the simulator bare vs instrumented; its bound is loose
(a CI smoke check, not the paper claim) — the measurement with its
spread is the e2e ledger's ``instrument.overhead_frac`` /
``instrument.overhead_iqr`` (benchmarks/e2e/micro.py).
"""

import json

import pytest

from repro.instrument import OverheadReport, measure_overhead


class TestOverheadReport:
    def _report(self, bare, instrumented, budget=0.05):
        return OverheadReport(workload="demo", bare_times=bare,
                              instrumented_times=instrumented, budget=budget)

    def test_overhead_uses_minimum_over_repeats(self):
        report = self._report([1.0, 2.0, 1.5], [1.03, 9.0, 1.04])
        assert report.bare_s == 1.0
        assert report.instrumented_s == 1.03
        assert report.overhead == pytest.approx(0.03)
        assert report.within_budget

    def test_over_budget_fails(self):
        report = self._report([1.0], [1.2])
        assert report.overhead == pytest.approx(0.2)
        assert not report.within_budget
        assert "[FAIL]" in report.lines()[-1]

    def test_within_budget_passes(self):
        assert "[PASS]" in self._report([1.0], [1.01]).lines()[-1]

    def test_negative_overhead_is_representable(self):
        # timing noise can make the instrumented run look faster; the
        # report must not mask that
        report = self._report([1.0], [0.99])
        assert report.overhead < 0
        assert report.within_budget

    def test_to_dict_and_json_round_trip(self):
        report = self._report([1.0, 1.1], [1.02, 1.05])
        data = json.loads(report.to_json())
        assert data["workload"] == "demo"
        assert data["repeats"] == 2
        assert data["bare_s"] == 1.0
        assert data["within_budget"] is True
        assert data["bare_times_s"] == [1.0, 1.1]


class TestMeasureOverhead:
    def test_protocol_warmups_and_alternation(self):
        calls = []
        report = measure_overhead(calls.append, workload="w", repeats=3)
        # one warmup per mode, then strict alternation
        assert calls == [False, True] + [False, True] * 3
        assert len(report.bare_times) == 3
        assert len(report.instrumented_times) == 3
        assert report.workload == "w"

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure_overhead(lambda _i: None, repeats=0)

    def test_measures_real_cost(self):
        # an "instrumented" run that deterministically does 3x the work
        # must show up as positive overhead
        def run(instrument):
            n = 300_000 if instrument else 100_000
            total = 0
            for i in range(n):
                total += i
            return total

        report = measure_overhead(run, repeats=3)
        assert report.overhead > 0.5


@pytest.mark.slow
def test_simulator_overhead_smoke():
    """End-to-end self-measurement on a real workload.

    The bound here is deliberately generous (50%, vs the paper's 5%): a
    loaded CI host can distort 100-ms-scale timings.
    """
    from repro.cl import Context
    from repro.core.platform import MobilePlatform, PlatformConfig
    from repro.gpu.device import GPUConfig
    from repro.kernels import get_workload

    def run(instrument):
        config = PlatformConfig(
            gpu=GPUConfig(engine="interpreter", instrument=instrument)
        )
        context = Context(MobilePlatform(config))
        workload = get_workload("sgemm", m=16, k=16, n=16)
        workload.run(context=context, verify=False)

    report = measure_overhead(run, workload="sgemm-16", repeats=3)
    assert report.bare_s > 0
    assert report.overhead < 0.5, "\n".join(report.lines())
