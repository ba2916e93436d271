"""repro — full-system functional simulation of a mobile CPU/GPU platform.

A from-scratch Python reproduction of "Full-System Simulation of Mobile
CPU/GPU Platforms" (Kaszyk et al., ISPASS 2019): a Bifrost-like GPU model
(clause execution, quad warps, Job Manager, GPU MMU), a guest CPU with
DBT-style execution, a kbase-like kernel driver, an OpenCL-like runtime
with a real JIT compiler, instrumentation, baselines and the paper's
benchmark workloads.

Convenience re-exports of the primary entry points::

    from repro import Context, CommandQueue, compile_source, get_workload

See README.md and DESIGN.md for the architecture overview and
docs/internals.md for a code walkthrough.
"""

__version__ = "1.0.0"

from repro.cl import Buffer, CommandQueue, Context, Kernel, LocalMemory, Program
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.kernels import WORKLOADS, get_workload

__all__ = [
    "Buffer",
    "CommandQueue",
    "Context",
    "GPUConfig",
    "Kernel",
    "LocalMemory",
    "MobilePlatform",
    "PlatformConfig",
    "Program",
    "WORKLOADS",
    "compile_source",
    "get_workload",
    "__version__",
]


def __getattr__(name):
    # the compiler loads on first use: a context that only moves data
    # never needs it
    if name == "compile_source":
        from repro.clc import compile_source

        return compile_source
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
