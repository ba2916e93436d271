"""Outside-in span tracer.

Nothing under ``src/`` is instrumented: :class:`Tracer` wraps the public
callables at each layer boundary (:func:`layer_targets`) when a traced
run starts and puts the originals back when it ends. Every call records
one span — name, start, end, the span that caused it, and the iteration
it belongs to — in memory; :meth:`Tracer.write` dumps them when the
benchmark ends. A span's *self* time is its duration minus the time its
child spans cover, so the self times of one iteration add up to its wall
time and each second is owned by exactly one layer.

Hot inner functions (MMU accesses, per-warp execution) are deliberately
not wrapped: a span per call would cost more than the call. ``micro.py``
times those directly instead.
"""

import contextlib
import functools
import importlib
import json
import time

NAME, START, END, PARENT, ITERATION = range(5)


def layer_targets():
    """``(owner, attribute, span name)`` for every wrapped callable.

    ``compile_source`` and ``verify_binary`` are patched where the CL
    runtime looks them up (its own module namespace), since that is the
    call the build gate makes.
    """
    runtime = importlib.import_module("repro.cl.runtime")
    from repro.core.platform import MobilePlatform
    from repro.cpu.routines import GuestRoutines
    from repro.driver.kbase import KBaseDriver
    from repro.gpu.jobmanager import JobManager
    from repro.gpu.shadercore import ComputeUnit

    queue = runtime.CommandQueue
    return [
        (MobilePlatform, "stage_bytes", "core.platform.stage_bytes"),
        (runtime, "compile_source", "clc.compile_source"),
        (runtime, "verify_binary", "gpu.verify.verify_binary"),
        (runtime.Program, "__init__", "cl.runtime.build_program"),
        (queue, "enqueue_write_buffer", "cl.runtime.write"),
        (queue, "enqueue_read_buffer", "cl.runtime.read"),
        (queue, "enqueue_copy_buffer", "cl.runtime.copy"),
        (queue, "enqueue_fill_buffer", "cl.runtime.fill"),
        (queue, "enqueue_nd_range", "cl.runtime.ndrange"),
        (GuestRoutines, "memcpy", "cpu.memcpy"),
        (GuestRoutines, "memset", "cpu.memset"),
        (KBaseDriver, "alloc_region", "driver.kbase.alloc_region"),
        (KBaseDriver, "build_descriptor", "driver.kbase.build_descriptor"),
        (KBaseDriver, "run_job", "driver.kbase.submit"),
        (KBaseDriver, "submit_and_wait", "driver.kbase.submit"),
        (JobManager, "run_job_chain", "gpu.jobmanager.run_job_chain"),
        (ComputeUnit, "run_workgroup", "gpu.shadercore.run_workgroup"),
    ]


class Tracer:
    """Records spans from wrapped callables and explicit :meth:`span`
    blocks. Single-threaded by design: the benchmark runs the simulator
    with ``num_host_threads=1``, so one stack names the causing span."""

    def __init__(self):
        self.spans = []
        self.roots = []  # indices of explicit spans nothing else caused
        self.iteration = None
        self._stack = []
        self._patched = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one explicit span; the harness opens one around the
        timed region of every traced iteration."""
        if not self._stack:
            self.roots.append(len(self.spans))
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    # -- patching -------------------------------------------------------------

    def install(self, targets=None):
        for owner, attribute, name in targets or layer_targets():
            original = vars(owner)[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        return self

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per-span self seconds (duration minus child durations), in
        span order."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def timed(self):
        """Per span, whether it lies inside a root span, that is inside
        the timed region of an iteration (platform bring-up before it
        also calls wrapped functions)."""
        inside = [False] * len(self.spans)
        for index in self.roots:
            inside[index] = True
        for index, span in enumerate(self.spans):
            if span[PARENT] >= 0 and inside[span[PARENT]]:
                inside[index] = True
        return inside

    def write(self, path, metadata=None):
        document = {
            "metadata": metadata or {},
            "fields": ["name", "start", "end", "parent", "iteration"],
            "roots": self.roots,
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
