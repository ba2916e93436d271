"""Tests: what instrumentation costs, on the end-to-end ledger's protocol.

The measurement is ``benchmarks/e2e/micro.instrument_overhead``: ten
alternating bare/instrumented pairs of a mega sgemm, reported as the
median slowdown ``instrument.overhead_frac`` with its spread
``instrument.overhead_iqr``. The bound here is deliberately generous
(50%, vs the paper's 5%): a loaded CI host can distort millisecond-scale
timings.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.mark.slow
def test_simulator_overhead_smoke():
    from e2e.micro import instrument_overhead

    measured = instrument_overhead(None, smoke=False)
    assert measured["instrument.overhead_frac"] < 0.5, measured
