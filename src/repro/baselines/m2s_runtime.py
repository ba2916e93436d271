"""Intercepted OpenCL runtime over the Multi2Sim-style baseline.

Mirrors the :mod:`repro.cl` API surface that workloads use, so every
Table-II workload runs unmodified on the baseline simulator — the Fig. 8
comparison then measures purely the execution-machinery difference
(full-system quad-warp decode-cached simulation vs intercepted scalar
re-decoding simulation) on identical binaries and identical host logic.

This is exactly the structure the paper criticizes in Fig. 2(c): OpenCL
calls are handled by a non-standard runtime and redirected straight into
the GPU model; there is no driver, no job manager, no MMU, so no
system-level statistics exist.
"""

import numpy as np

from repro.errors import CLError
from repro.baselines.m2s import M2SSimulator
from repro.cl.runtime import gated_build
from repro.gpu import launch


class M2SBuffer:
    def __init__(self, context, nbytes):
        self.context = context
        self.nbytes = int(nbytes)
        self.addr = context.sim.alloc(self.nbytes)


class M2SContext:
    """Drop-in replacement for :class:`repro.cl.Context`."""

    def __init__(self, instrument=True):
        self.sim = M2SSimulator(instrument=instrument)
        self.cpu_seconds = 0.0

    @property
    def guest_instructions(self):
        return 0  # the baseline has no simulated CPU

    def alloc_buffer(self, nbytes):
        return M2SBuffer(self, nbytes)

    def buffer_from_array(self, array):
        array = np.ascontiguousarray(array)
        buffer = M2SBuffer(self, array.nbytes)
        self.sim.write(buffer.addr, array)
        return buffer

    def build_program(self, source, version=None, defines=None):
        return M2SProgram(self, source, version=version, defines=defines)


class M2SProgram:
    """A build through the CL runtime's :func:`gated_build`: the same
    binary gate and the same build table as :class:`repro.cl.Program`."""

    def __init__(self, context, source, version=None, defines=None):
        self.context = context
        self.compiled, _reports = gated_build(source, version, defines)

    @property
    def kernel_names(self):
        return sorted(self.compiled.kernels)

    def kernel(self, name):
        return M2SKernel(self, self.compiled.kernel(name))


class M2SKernel:
    def __init__(self, program, compiled):
        self.program = program
        self.compiled = compiled
        self._args = [None] * len(compiled.params)

    @property
    def name(self):
        return self.compiled.name

    def set_arg(self, index, value):
        self._args[index] = value

    def set_args(self, *values):
        if len(values) != len(self._args):
            raise CLError(f"{self.name} takes {len(self._args)} args")
        for index, value in enumerate(values):
            self._args[index] = value


class M2SQueue:
    """Drop-in replacement for :class:`repro.cl.CommandQueue`."""

    def __init__(self, context):
        self.context = context
        self.kernels_launched = 0

    def enqueue_write_buffer(self, buffer, array):
        self.context.sim.write(buffer.addr, np.ascontiguousarray(array))

    def enqueue_read_buffer(self, buffer, dtype=np.uint8, count=None):
        nbytes = buffer.nbytes if count is None else \
            count * np.dtype(dtype).itemsize
        n = nbytes // np.dtype(dtype).itemsize
        return self.context.sim.read(buffer.addr, n, dtype)

    def enqueue_nd_range(self, kernel, global_size, local_size=None):
        global_size, local_size = launch.normalize_sizes(global_size,
                                                         local_size)
        arg_words, local_bytes = launch.bind_arguments(
            kernel.compiled, local_size,
            [value.addr if isinstance(value, M2SBuffer) else value
             for value in kernel._args])
        self.context.sim.run_kernel(kernel.compiled, global_size, local_size,
                                    arg_words, local_bytes)
        self.kernels_launched += 1
        return None

    def finish(self):
        return None
