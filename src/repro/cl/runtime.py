"""The OpenCL-like host runtime."""

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.errors import CLError, JobFault
from repro.hostcode import PROGRAM_CACHE_SIZE, BoundedTable
from repro.core.platform import MobilePlatform
from repro.gpu import launch
from repro.gpu.jobmanager import ClauseLedger
from repro.gpu.launch import LocalMemory
from repro.gpu.mmu import AS_TAG_SHIFT
from repro.mem.physical import PAGE_SHIFT


@dataclass
class Event:
    """A profiling event (clGetEventProfilingInfo-style).

    One event is recorded per enqueued command when the queue has
    profiling enabled; a kernel launch's keeps its job's ``result`` and
    derives ``stats`` from it when read. ``status`` is ``"complete"`` or
    ``"error"`` — a launch the driver could not recover (an unrecoverable
    :class:`~repro.errors.JobFault`) records an errored event, mirroring
    ``CL_EVENT_COMMAND_EXECUTION_STATUS`` going negative.
    """

    kind: str  # 'ndrange' | 'write' | 'read' | 'fill'
    name: str
    start: float
    end: float
    result: object = None
    status: str = "complete"

    @property
    def stats(self):
        """The launch's JobStats (None for any other command)."""
        return None if self.result is None else self.result.stats

    @property
    def duration(self):
        """Host wall-clock seconds the command took (simulation time)."""
        return self.end - self.start


class Buffer:
    """A device buffer living in GPU-mapped memory."""

    def __init__(self, context, nbytes, grow_on_fault=False):
        if nbytes <= 0:
            raise CLError("buffer size must be positive")
        self.context = context
        self.nbytes = int(nbytes)
        self.region = context._driver.alloc_region(
            self.nbytes, grow_on_fault=grow_on_fault)
        context.stat_buffers_allocated.increment()

    @property
    def gpu_va(self):
        return self.region.gpu_va


class Context:
    """Owns the simulated platform and tracks runtime-level statistics.

    With *tenant* (a :class:`~repro.driver.kbase.TenantContext` of the
    platform's driver) every allocation, binary upload and launch this
    context performs goes through that tenant — its private VA space,
    heap carve-out and statistics — instead of the platform's global
    driver surface. Contexts on different tenants share nothing but the
    GPU itself: separate build uploads, separate uniform regions,
    separate runtime counters (``tenant{i}.cl.runtime.*``).
    """

    def __init__(self, platform=None, tenant=None):
        if platform is None and tenant is not None:
            raise CLError("a tenant context needs its platform passed too")
        self.platform = platform or MobilePlatform()
        self.platform.initialize()
        self.tenant = tenant
        if tenant is not None and tenant.driver is not self.platform.driver:
            raise CLError("tenant belongs to a different platform's driver")
        self.cpu_seconds = 0.0  # host wall time spent simulating guest CPU
        # Opt-in soundness recorder: set to a list (or call
        # enable_analysis_log) and every synchronous launch appends a
        # record holding the static cost bounds for that launch next to
        # the observed dynamic counters (clause issues, data pages).
        self.analysis_log = None
        # runtime-level counters in the platform's unified registry
        # (get-or-create: several contexts may share one platform; each
        # tenant gets its own subtree so build/launch failures of one
        # client never show up in another's counters)
        scope_name = ("cl.runtime" if tenant is None
                      else f"tenant{tenant.tenant_id}.cl.runtime")
        scope = self.platform.stats_registry.scope(scope_name)
        self.stat_kernels_launched = scope.counter(
            "kernels_launched", "clEnqueueNDRangeKernel commands")
        self.stat_buffers_allocated = scope.counter(
            "buffers_allocated", "device buffers created")
        self.stat_buffer_writes = scope.counter(
            "buffer_writes", "host-to-device buffer transfers")
        self.stat_buffer_reads = scope.counter(
            "buffer_reads", "device-to-host buffer transfers")
        self.stat_bytes_written = scope.counter(
            "bytes_written", "bytes moved host-to-device")
        self.stat_bytes_read = scope.counter(
            "bytes_read", "bytes moved device-to-host")
        self.stat_kernels_failed = scope.counter(
            "kernels_failed",
            "launches surfacing an unrecoverable JobFault", golden=False)

    @property
    def _driver(self):
        """The driver surface this context allocates and submits through
        (the bound tenant when set, else the platform's global driver —
        both expose the same region/descriptor/submit API)."""
        if self.tenant is not None:
            return self.tenant
        return self.platform.driver

    @property
    def _tenant(self):
        """The tenant every allocation of this context actually lands in
        (the global driver surface delegates to the default tenant)."""
        if self.tenant is not None:
            return self.tenant
        return self.platform.driver.default_tenant

    def enable_analysis_log(self):
        """Start recording static-bound vs observed-counter records for
        every synchronous launch; returns the (live) list of records."""
        if self.analysis_log is None:
            self.analysis_log = []
        return self.analysis_log

    def alloc_buffer(self, nbytes, grow_on_fault=False):
        """Create a device buffer. With ``grow_on_fault`` the region is
        committed lazily: the driver maps pages as the GPU first touches
        them (kbase's demand-grown heap regions)."""
        return Buffer(self, nbytes, grow_on_fault=grow_on_fault)

    def buffer_from_array(self, array):
        array = np.ascontiguousarray(array)
        buffer = Buffer(self, array.nbytes)
        CommandQueue(self).enqueue_write_buffer(buffer, array)
        return buffer

    def build_program(self, source, version=None, defines=None):
        return Program(self, source, version=version, defines=defines)

    # -- guest CPU data movement -------------------------------------------------

    def guest_memcpy(self, dst_phys, src_phys, nbytes):
        """memcpy on the simulated guest CPU (timed: the Fig. 9 cost)."""
        start = time.perf_counter()
        self.platform.guest.memcpy(dst_phys, src_phys, nbytes)
        self.cpu_seconds += time.perf_counter() - start

    @property
    def guest_instructions(self):
        return self.platform.guest.instructions_executed


#: Build key -> (CompiledProgram, {kernel: report}) of every build that
#: passed the binary gate: nothing of a context, platform or buffer.
_builds = BoundedTable(PROGRAM_CACHE_SIZE)


# The build stack (compiler, verifier, cost analysis) loads on the first
# build or launch analysis, not with the runtime: a context that only
# moves data never loads it. The build calls the compiler and the gate
# through these two names.
def compile_source(source, options=None, defines=None):
    """:func:`repro.clc.compile_source`."""
    from repro.clc import compile_source as compile_

    return compile_(source, options=options, defines=defines)


def verify_binary(binary, ctx):
    """The binary gate, :func:`repro.gpu.verify.verify_binary`."""
    from repro.gpu.verify import verify_binary as gate

    return gate(binary, ctx)


def gated_build(source, version=None, defines=None):
    """The compiled program of *source* and its per-kernel build reports.

    Build acts like a driver-side verifier: beyond compiling, every
    kernel's *binary* is decoded and verified — the one build gate, so
    it sees exactly the bytes the driver maps — and error-severity
    findings fail the build with :class:`CLError` (the
    ``CL_BUILD_PROGRAM_FAILURE`` analogue). The gate is a pure function
    of the build key: it runs once per content per process; a build
    that raises keeps nothing and raises again. Both the CL runtime and
    the m2s baseline build here.
    """
    from repro.clc.compiler import build_key
    from repro.gpu.verify import VerifyContext

    def run_gate():
        compiled = compile_source(source, options=version, defines=defines)
        reports = {}
        for name, kernel in compiled.kernels.items():
            report = reports[name] = verify_binary(
                kernel.binary, VerifyContext.from_compiled_kernel(kernel))
            if not report.ok:
                details = "; ".join(str(f) for f in report.errors[:8])
                raise CLError(
                    f"program build failed: kernel {name!r} rejected by "
                    f"the binary verifier: {details}")
        return compiled, reports

    return _builds.lookup(build_key(source, version, defines), run_gate)


class Program:
    """A JIT-compiled program (:func:`gated_build`): one binary per kernel,
    uploaded on demand. The compiled program is shared with every build
    of the same content; the report dict and the uploads are its own."""

    def __init__(self, context, source, version=None, defines=None):
        self.context = context
        self.source = source
        self.compiled, reports = gated_build(source, version, defines)
        self.build_reports = dict(reports)
        self._uploaded = {}

    @property
    def kernel_names(self):
        return sorted(self.compiled.kernels)

    def kernel(self, name):
        return Kernel(self, self.compiled.kernel(name))

    def _binary_region(self, compiled_kernel):
        """Upload the kernel binary into GPU memory (once per kernel)."""
        region = self._uploaded.get(compiled_kernel.name)
        if region is None:
            platform = self.context.platform
            driver = self.context._driver
            binary = compiled_kernel.binary
            region = driver.alloc_region(len(binary), executable=True)
            staging = platform.stage_bytes(binary)
            self.context.guest_memcpy(region.phys, staging, len(binary))
            self._uploaded[compiled_kernel.name] = region
        return region


class Kernel:
    """A launchable kernel with bound arguments."""

    def __init__(self, program, compiled):
        self.program = program
        self.compiled = compiled
        self._args = [None] * len(compiled.params)
        self._uniform_region = None

    @property
    def name(self):
        return self.compiled.name

    def set_arg(self, index, value):
        if not 0 <= index < len(self._args):
            raise CLError(f"argument index {index} out of range for {self.name}")
        name, kind, _ty = self.compiled.params[index]
        if kind == "buffer" and not isinstance(value, Buffer):
            raise CLError(f"argument {name!r} expects a Buffer")
        if kind == "local_ptr" and not isinstance(value, LocalMemory):
            raise CLError(f"argument {name!r} expects LocalMemory")
        if kind == "scalar" and isinstance(value, (Buffer, LocalMemory)):
            raise CLError(f"argument {name!r} expects a scalar")
        self._args[index] = value

    def set_args(self, *values):
        if len(values) != len(self._args):
            raise CLError(
                f"{self.name} takes {len(self._args)} arguments, got {len(values)}"
            )
        for index, value in enumerate(values):
            self.set_arg(index, value)

    def analyze_launch(self, global_size, local_size, uniforms,
                       local_mem_size=None, tenant=None):
        """Static cost analysis of this kernel for one concrete launch.

        Builds the full-knowledge launch context (the encoded uniform
        image plus bound-buffer VAs/sizes and, with *tenant*, its mapped
        regions) and runs the cost analysis on it; returns ``(summary,
        bounds)``, both None when structural errors block the analysis.
        """
        from repro.gpu.verify import VerifyContext
        from repro.gpu.verify.analyze import analyze_program

        buffers = {}
        for position, ((_pname, kind, _ty), value) in enumerate(
                zip(self.compiled.params, self._args)):
            if kind == "buffer" and value is not None:
                buffers[position] = (value.gpu_va, value.nbytes)
        mapped = None
        if tenant is not None:
            mapped = sorted((r.gpu_va, r.gpu_va + r.size)
                            for r in tenant.live_regions)
        ctx = VerifyContext.from_launch_words(
            self.compiled, global_size, local_size, uniforms,
            buffers=buffers, local_bytes=local_mem_size or None,
            mapped_ranges=mapped)
        _report, summary, bounds = analyze_program(self.compiled.program,
                                                   ctx)
        return summary, bounds


class CommandQueue:
    """In-order command queue (execution is synchronous in the model)."""

    def __init__(self, context, profiling=False):
        self.context = context
        self.ledger = ClauseLedger()  # its synchronous launches
        self.kernels_launched = 0
        self.profiling = profiling
        self.events = []

    def _record_event(self, kind, name, start, result=None,
                      status="complete"):
        if self.profiling:
            self.events.append(Event(kind, name, start, time.perf_counter(),
                                     result=result, status=status))

    def _span(self, name, args=None):
        """A Chrome-trace span on the CL command track (no-op untraced)."""
        tracer = self.context.platform.events
        if tracer is None:
            return nullcontext()
        return tracer.span(name, "cl", "queue", args)

    # -- buffer transfers ------------------------------------------------------------

    def enqueue_write_buffer(self, buffer, array):
        start = time.perf_counter()
        array = np.ascontiguousarray(array)
        if array.nbytes > buffer.nbytes:
            raise CLError(
                f"write of {array.nbytes} bytes into {buffer.nbytes}-byte buffer"
            )
        platform = self.context.platform
        with self._span("clEnqueueWriteBuffer",
                        args={"bytes": int(array.nbytes)}):
            staging = platform.stage_bytes(array.tobytes())
            self.context.guest_memcpy(buffer.region.phys, staging, array.nbytes)
        self.context.stat_buffer_writes.increment()
        self.context.stat_bytes_written.add(int(array.nbytes))
        self._record_event("write", f"{array.nbytes}B", start)

    def enqueue_read_buffer(self, buffer, dtype=np.uint8, count=None):
        start = time.perf_counter()
        platform = self.context.platform
        nbytes = buffer.nbytes if count is None else count * np.dtype(dtype).itemsize
        with self._span("clEnqueueReadBuffer", args={"bytes": int(nbytes)}):
            staging = platform.stage_bytes(b"\x00" * nbytes)
            self.context.guest_memcpy(staging, buffer.region.phys, nbytes)
            raw = platform.memory.read_block(staging, nbytes)
        self.context.stat_buffer_reads.increment()
        self.context.stat_bytes_read.add(int(nbytes))
        self._record_event("read", f"{nbytes}B", start)
        return np.frombuffer(raw, dtype=dtype).copy()

    def enqueue_copy_buffer(self, src, dst, nbytes=None):
        """Device-to-device copy through the simulated-CPU memcpy path."""
        nbytes = min(src.nbytes, dst.nbytes) if nbytes is None else nbytes
        if nbytes > src.nbytes or nbytes > dst.nbytes:
            raise CLError(f"copy of {nbytes} bytes exceeds a buffer")
        start = time.perf_counter()
        self.context.guest_memcpy(dst.region.phys, src.region.phys, nbytes)
        self._record_event("copy", f"{nbytes}B", start)

    def enqueue_fill_buffer(self, buffer, byte_value=0):
        start = time.perf_counter()
        self.context.platform.guest.memset(
            buffer.region.phys, byte_value, buffer.nbytes
        )
        self.context.cpu_seconds += time.perf_counter() - start
        self._record_event("fill", f"{buffer.nbytes}B", start)

    # -- kernel launch ------------------------------------------------------------------

    def _stage_launch(self, kernel, global_size, local_size,
                      uniform_region=None):
        """Everything a launch does before the driver sees the job:
        sizes normalised, binary uploaded, uniform image built, staged
        and copied by the guest CPU into *uniform_region* (a fresh one
        when None). Returns the driver's job arguments and the image."""
        global_size, local_size = launch.normalize_sizes(global_size, local_size)
        context = self.context
        binary_region = kernel.program._binary_region(kernel.compiled)
        arg_words, local_mem_size = launch.bind_arguments(
            kernel.compiled, local_size,
            [value.gpu_va if isinstance(value, Buffer) else value
             for value in kernel._args])
        uniforms = launch.uniform_image(global_size, local_size, arg_words)
        if uniform_region is None:
            uniform_region = context._driver.alloc_region(uniforms.nbytes)
        staging = context.platform.stage_bytes(uniforms.tobytes())
        context.guest_memcpy(uniform_region.phys, staging, uniforms.nbytes)
        return {
            "global_size": global_size,
            "local_size": local_size,
            "binary_region": binary_region,
            "binary_size": len(kernel.compiled.binary),
            "uniform_region": uniform_region,
            "uniform_count": len(uniforms),
            "local_mem_size": local_mem_size,
        }, uniforms

    def enqueue_nd_range(self, kernel, global_size, local_size=None):
        """Launch *kernel*; returns the retired job's record (``stats``,
        ``cfg``: :class:`~repro.gpu.jobmanager.JobResult`). The kernel
        keeps one uniform region across its synchronous launches."""
        event_start = time.perf_counter()
        context = self.context
        platform = context.platform
        job_args, uniforms = self._stage_launch(
            kernel, global_size, local_size, kernel._uniform_region)
        kernel._uniform_region = job_args["uniform_region"]
        global_size = job_args["global_size"]
        local_size = job_args["local_size"]

        # soundness recorder: static bounds for this exact launch, plus a
        # pages_accessed snapshot so the post-run delta isolates this job
        record = None
        pages_before = None
        if context.analysis_log is not None:
            _summary, bounds = kernel.analyze_launch(
                global_size, local_size, uniforms,
                local_mem_size=job_args["local_mem_size"],
                tenant=context._tenant)
            record = {
                "kernel": kernel.name,
                "global_size": list(global_size),
                "local_size": list(local_size),
                "ok": bounds is not None,
                "bound_issues": None, "bound_pages": None,
                "loop_trips": {},
            }
            if bounds is not None:
                record["bound_issues"] = bounds.total_issues
                record["bound_pages"] = bounds.pages
                record["loop_trips"] = {str(h): n for h, n
                                        in bounds.loop_trips.items()}
            pages_before = set(platform.gpu.mmu.pages_accessed)

        span_args = {"kernel": kernel.name,
                     "global": list(global_size),
                     "local": list(local_size)}
        if context.tenant is not None:
            span_args["tenant"] = context.tenant.tenant_id
        with self._span("clEnqueueNDRangeKernel", args=span_args):
            try:
                context._driver.run_job(**job_args)
            except JobFault:
                # the driver exhausted its recovery ladder: surface the
                # fault as an errored event; the context, queue and other
                # buffers stay fully usable (kbase leaves the address
                # space intact after an unrecoverable job)
                context.stat_kernels_failed.increment()
                self._record_event("ndrange", kernel.name, event_start,
                                   status="error")
                raise
        result = platform.last_job_results()[-1]
        if record is not None:
            as_tag = context._tenant.as_id << AS_TAG_SHIFT
            data_pages = set()
            for value in kernel._args:
                if isinstance(value, Buffer):
                    first = value.gpu_va >> PAGE_SHIFT
                    last = (value.gpu_va + value.nbytes - 1) >> PAGE_SHIFT
                    data_pages.update(as_tag | page
                                      for page in range(first, last + 1))
            delta = set(platform.gpu.mmu.pages_accessed) - pages_before
            record["observed_issues"] = result.stats.clauses_executed
            record["observed_pages"] = len(delta & data_pages)
            context.analysis_log.append(record)
        self.ledger.add(result)
        self.kernels_launched += 1
        context.stat_kernels_launched.increment()
        self._record_event("ndrange", kernel.name, event_start,
                           result=result)
        return result

    def enqueue_nd_range_async(self, kernel, global_size, local_size=None):
        """Queue *kernel* with the driver's job-slot arbiter; returns the
        :class:`~repro.driver.kbase.PendingJob`.

        Unlike :meth:`enqueue_nd_range` nothing executes here — the job
        waits its scheduling turn until ``platform.driver.drain()`` runs
        the queue (several tenants' jobs interleave there under the QoS
        arbiter, with soft-stop preemption). Each async launch gets a
        fresh uniform region, so multiple in-flight launches of the same
        kernel never alias their arguments.
        """
        context = self.context
        job_args, _uniforms = self._stage_launch(kernel, global_size,
                                                 local_size)
        job = context._tenant.submit_job_async(**job_args, label=kernel.name)
        self.kernels_launched += 1
        context.stat_kernels_launched.increment()
        return job

    def finish(self):
        """All work is synchronous; provided for API familiarity."""
        return None
