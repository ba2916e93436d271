"""Workload base class and result record."""

import abc
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cl import CommandQueue, Context
from repro.cl.runtime import gated_build
from repro.instrument.stats import JobStats


@dataclass
class WorkloadResult:
    """Outcome of one workload execution on the simulated platform.

    Attributes:
        name: workload name.
        stats: the statistics of all its kernel launches.
        jobs: number of kernel launches (Table III "Comp. Jobs").
        verified: True if outputs matched the NumPy reference.
        gpu_seconds: host wall time inside kernel launches (GPU simulation).
        total_seconds: host wall time of the whole run, including the
            simulated-CPU driver work (full-system time, Fig. 7).
        cpu_seconds: host wall time spent simulating guest CPU data
            movement (the Fig. 9 "driver runtime").
        guest_instructions: guest CPU instructions executed for this run.
        extra: workload-specific metrics.
    """

    name: str
    stats: JobStats
    jobs: int
    verified: bool
    gpu_seconds: float = 0.0
    total_seconds: float = 0.0
    cpu_seconds: float = 0.0
    guest_instructions: int = 0
    extra: dict = field(default_factory=dict)


class Workload(abc.ABC):
    """A benchmark: kernel source + host orchestration + NumPy oracle.

    Subclasses set ``name``, ``suite``, ``paper_input`` (the Table II
    configuration) and implement :meth:`execute` (device run, returning
    outputs for verification) and :meth:`reference` (NumPy oracle).
    """

    name = ""
    suite = ""
    paper_input = ""
    source = ""

    def __init__(self, **params):
        defaults = dict(self.default_params())
        unknown = set(params) - set(defaults)
        if unknown:
            raise TypeError(f"{self.name}: unknown parameters {sorted(unknown)}")
        defaults.update(params)
        self.params = defaults
        self.rng = np.random.default_rng(self.seed())

    def seed(self):
        # crc32, not hash(): str hashing is salted per process, which
        # made inputs (and e.g. the bfs job count) vary between runs
        return zlib.crc32(self.name.encode("utf-8"))

    @classmethod
    def compile_defines(cls):
        """Preprocessor defines needed to compile ``source`` standalone
        (must mirror what :meth:`execute` passes to build_program, so the
        lint tooling compiles the same code the workload runs)."""
        return {}

    def prebuild(self):
        """Build the program now; returns self. A build is paid once per
        content per process, so whoever times a run and must not depend
        on what the process ran before calls this ahead of the clock."""
        gated_build(self.source, defines=self.compile_defines())
        return self

    @staticmethod
    def default_params():
        """Mapping of parameter name -> default (scaled-down) value."""
        return {}

    # -- to implement ------------------------------------------------------------

    @abc.abstractmethod
    def prepare(self):
        """Generate the (seeded, deterministic) problem inputs."""

    @abc.abstractmethod
    def execute(self, context, queue, inputs, version=None):
        """Run on the simulated platform; returns device outputs."""

    @abc.abstractmethod
    def reference(self, inputs):
        """NumPy oracle; returns expected outputs."""

    def check(self, outputs, expected):
        """Compare device outputs with the oracle (override for custom
        tolerances)."""
        for got, want in zip(outputs, expected):
            got = np.asarray(got)
            want = np.asarray(want)
            if got.dtype.kind == "f" or want.dtype.kind == "f":
                if not np.allclose(got.astype(np.float64),
                                   want.astype(np.float64),
                                   rtol=2e-4, atol=2e-5):
                    return False
            elif not np.array_equal(got, want):
                return False
        return True

    # -- harness -------------------------------------------------------------------

    def run(self, context=None, version=None, verify=True):
        """Full run: prepare, execute, verify; returns a WorkloadResult."""
        context = context or Context()
        queue = CommandQueue(context)
        inputs = self.prepare()
        cpu_before = context.cpu_seconds
        guest_before = context.guest_instructions
        start = time.perf_counter()
        outputs = self.execute(context, queue, inputs, version=version)
        total_seconds = time.perf_counter() - start
        verified = True
        if verify:
            expected = self.reference(inputs)
            verified = self.check(outputs, expected)
        return WorkloadResult(
            name=self.name,
            stats=queue.ledger.stats(),
            jobs=queue.kernels_launched,
            verified=verified,
            total_seconds=total_seconds,
            cpu_seconds=context.cpu_seconds - cpu_before,
            guest_instructions=context.guest_instructions - guest_before,
        )

    def run_native(self, repeats=1):
        """Time the NumPy oracle (the paper's native-hardware stand-in)."""
        inputs = self.prepare()
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            self.reference(inputs)
            best = min(best, time.perf_counter() - start)
        return best


class PhasedWorkload(Workload):
    """A one-launch workload split at the doorbell.

    :meth:`setup` stages buffers, builds the program and binds the
    arguments (no GPU execution), :meth:`geometry` is the launch and
    :meth:`collect` reads the outputs back. :meth:`execute` composes
    them around a synchronous launch; a harness that wants the job
    arbitrated instead (:mod:`repro.tenancy.harness`) drives the same
    phases around ``enqueue_nd_range_async`` + ``drain()``.
    """

    #: the launch is *supposed* to fault (an attacker kernel)
    expects_failure = False

    @abc.abstractmethod
    def setup(self, context, queue, inputs, version=None):
        """Returns the launch state, a dict holding at least the bound
        ``"kernel"``."""

    @abc.abstractmethod
    def geometry(self):
        """``(global_size, local_size)`` of the one launch."""

    @abc.abstractmethod
    def collect(self, queue, state):
        """Read the device outputs of a finished launch."""

    def total_groups(self):
        """Flat workgroup count of the launch (slice-budget math)."""
        return math.prod(g // l for g, l in zip(*self.geometry()))

    def execute(self, context, queue, inputs, version=None):
        state = self.setup(context, queue, inputs, version=version)
        queue.enqueue_nd_range(state["kernel"], *self.geometry())
        return self.collect(queue, state)
