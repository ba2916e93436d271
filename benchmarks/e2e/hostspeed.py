"""A host-speed probe, so that times can be reported at one host speed.

The sandbox this benchmark runs in is a shared host: for seconds at a
time everything runs 20-40% slower, then recovers. A ten-second
measurement sees one or two such phases, so raw medians of identical
code differed by 6-14% (quartile distance over median) between runs.

:func:`probe` times a fixed mix of interpreter and NumPy work that calls
nothing in the simulator. The harness runs it on either side of every
timed region and divides the region's time by :func:`index` — how much
slower than ``REFERENCE_S`` the probe ran. That took the same spreads to
2-5%. A change to the simulator cannot move the probe, and the raw
clock readings are reported beside the scaled ones (``wall_raw_s``,
``host_speed``).
"""

import time

import numpy as np

#: what :func:`probe` takes on the reference host (2-core Xeon 2.1 GHz
#: VM, Python 3.11, NumPy 2.4) while that host is quiet
REFERENCE_S = 0.0132

_SMALL = np.arange(4096, dtype=np.uint32)
_MID = np.arange(65536, dtype=np.float32)
_GATHER = np.random.default_rng(0).integers(0, 65536, 4096)


def probe():
    """Seconds for three equal parts: a bytecode loop, tiny array ops
    (NumPy call overhead), cache-sized array arithmetic and gathers —
    the mix that tracked the workloads best of the ones tried."""
    start = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value
    small = _SMALL
    for _ in range(2000):
        small = (small + 1) & 0xFFFF
    mid = _MID
    for _ in range(200):
        mid = mid * 1.0001 + 1
    for _ in range(400):
        _MID[_GATHER]
    return time.perf_counter() - start


def index(before, after):
    """Host slowdown over a timed region from the probes either side of
    it: 1.0 at the reference speed, 1.3 when the host runs 30% slower."""
    return (before + after) / 2 / REFERENCE_S
