"""Benchmark workloads (Table II of the paper).

Every workload pairs a kernel-language implementation with a NumPy
reference: the reference is both the correctness oracle and the "native
hardware" stand-in for slowdown measurements (Fig. 7).

Use :func:`get_workload` / :data:`WORKLOADS` to instantiate by name.
"""

from repro.errors import UnknownWorkloadError
from repro.kernels.base import Workload, WorkloadResult
from repro.kernels import amd, parboil, rodinia
from repro.kernels.matrixmul import MatrixMul
from repro.kernels.replayable import REPLAYABLE
from repro.kernels.sgemm_variants import (
    SGEMM_VARIANTS,
    ClblasSgemm,
    SgemmVariant,
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        amd.BinarySearch,
        amd.BinomialOption,
        amd.BitonicSort,
        amd.DCT,
        amd.DwtHaar1D,
        amd.FloydWarshall,
        amd.MatrixTranspose,
        amd.RecursiveGaussian,
        amd.Reduction,
        amd.ScanLargeArrays,
        amd.SobelFilter,
        amd.URNG,
        parboil.BFS,
        parboil.Cutcp,
        parboil.Sgemm,
        parboil.Spmv,
        parboil.Stencil,
        rodinia.Backprop,
        rodinia.NearestNeighbor,
        MatrixMul,
        ClblasSgemm,
    )
}


def get_workload(name, **params):
    """Instantiate a workload by its registry name."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return cls(**params)


__all__ = [
    "Workload",
    "WorkloadResult",
    "REPLAYABLE",
    "WORKLOADS",
    "get_workload",
    "MatrixMul",
    "SGEMM_VARIANTS",
    "SgemmVariant",
]
