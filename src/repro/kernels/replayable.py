"""The replayable workloads: outputs a pure function of inputs.

Recovery (:mod:`repro.inject.campaign`), isolation and preemption
(:mod:`repro.tenancy.harness`) all rest on one contract: the driver
re-runs a faulted or sliced job from the start, exactly as kbase replays
jobs, so a kernel that read-modify-writes its outputs cannot be held to
bit-exact results. These four are the kernels both harnesses run — the
campaign through :meth:`~repro.kernels.base.PhasedWorkload.execute`, the
tenant harness through the same phases with the arbitrated enqueue.

:data:`REPLAYABLE` sits beside :data:`repro.kernels.WORKLOADS` and is
not part of it: the Table II registry feeds the ``workloads`` verb, the
builtin lint/analyze targets, the soundness sweep and the paper figures.
"""

import numpy as np

from repro.kernels.base import PhasedWorkload
from repro.kernels.parboil import Sgemm


class ReplayableSgemm(Sgemm):
    """sgemm with ``beta = 0``: C is written, never accumulated into, so
    a replayed job is bit-identical — the registry variant's
    ``beta = 0.5`` read-modify-writes C and is outside the contract."""

    beta = 0.0


class _IntVector(PhasedWorkload):
    """One thread per int32 element of ``out``, 64-wide workgroups."""

    suite = "synthetic"

    def prepare(self):
        return {}

    def geometry(self):
        return (self.params["n"],), (64,)

    def collect(self, queue, state):
        return [queue.enqueue_read_buffer(state["out"], dtype=np.int32,
                                          count=self.params["n"])]


class Divergent(_IntVector):
    """Warp-divergent integer workload (replayable variant of
    ``examples/divergent.cl``); ``n`` scales the job length, so a
    background tenant's variant runs long enough to be sliced."""

    name = "divergent"
    paper_input = "n=4096"
    source = """
__kernel void divergent(__global int* data, __global int* out) {
    int i = get_global_id(0);
    int v = data[i];
    int acc = 0;
    if (v % 2 == 0) {
        for (int j = 0; j < (v & 7); j += 1) {
            acc += j * v;
        }
    } else {
        acc = v * 3 + 1;
    }
    out[i] = acc;
}
"""

    @staticmethod
    def default_params():
        return {"n": 4096}

    def prepare(self):
        return {"data": self.rng.integers(0, 64, size=self.params["n"])
                .astype(np.int32)}

    def setup(self, context, queue, inputs, version=None):
        buf_data = context.buffer_from_array(inputs["data"])
        buf_out = context.alloc_buffer(self.params["n"] * 4)
        queue.enqueue_fill_buffer(buf_out, 0)
        kernel = context.build_program(self.source, version=version) \
            .kernel("divergent")
        kernel.set_args(buf_data, buf_out)
        return {"kernel": kernel, "out": buf_out}

    def reference(self, inputs):
        v = inputs["data"].astype(np.int64)
        k = v & 7
        even = v * (k * (k - 1) // 2)
        odd = v * 3 + 1
        return [np.where(v % 2 == 0, even, odd).astype(np.int32)]


class Fillseq(_IntVector):
    """Sequential fill over a grow-on-fault buffer: the page-fault
    worker grows the mapping mid-run."""

    name = "fillseq"
    paper_input = "n=8192"
    source = """
__kernel void fillseq(__global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * 1103 + 12345;
    }
}
"""

    @staticmethod
    def default_params():
        return {"n": 8192}

    def setup(self, context, queue, inputs, version=None):
        n = self.params["n"]
        buf_out = context.alloc_buffer(n * 4, grow_on_fault=True)
        kernel = context.build_program(self.source, version=version) \
            .kernel("fillseq")
        kernel.set_args(buf_out, n)
        return {"kernel": kernel, "out": buf_out}

    def reference(self, inputs):
        return [(np.arange(self.params["n"], dtype=np.int64) * 1103 + 12345)
                .astype(np.int32)]


class OOB(_IntVector):
    """Malicious kernel: writes ``offset`` elements past its buffer.

    The displacement arrives as a *scalar argument*, so the build-time
    binary verifier (which bounds static offsets) has nothing to reject:
    the write lands past the buffer's region at runtime, the launching
    context's own MMU takes the fault and the recovery ladder surfaces a
    JobFault to that context only."""

    name = "oob"
    paper_input = "n=256"
    expects_failure = True
    source = """
__kernel void oob(__global int* out, int offset) {
    int i = get_global_id(0);
    out[i + offset] = i;
}
"""

    @staticmethod
    def default_params():
        return {"n": 256, "offset": 1 << 22}

    def setup(self, context, queue, inputs, version=None):
        buf_out = context.alloc_buffer(self.params["n"] * 4)
        kernel = context.build_program(self.source, version=version) \
            .kernel("oob")
        kernel.set_args(buf_out, self.params["offset"])
        return {"kernel": kernel, "out": buf_out}

    def reference(self, inputs):
        return []


REPLAYABLE = {
    workload.name: workload
    for workload in (ReplayableSgemm, Divergent, Fillseq, OOB)
}
