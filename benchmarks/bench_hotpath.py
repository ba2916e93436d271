"""Hot-path micro-benchmark: quad memory pipeline vs scalar reference.

Times the two layers the vectorized memory pipeline optimizes and writes
``BENCH_hotpath.json`` (repo root) so future changes have a perf
trajectory to regress against:

- **micro**: loads/sec through the GPU MMU, replaying the lane-address
  shapes of the sgemm and SobelFilter inner loops (broadcast of a shared
  matrix element + contiguous row words) — one ``load_quad_u32`` against
  the seed's four ``load_u32`` calls, same machine, same run;
- **kernels**: end-to-end sgemm / SobelFilter wall-clock with the fast
  path disabled (``GPUMMU.fast_path_enabled = False``, the scalar seed
  path) and enabled, in alternating pairs (medians, and the spread of
  the pairs' speedups), plus interpreter clauses/sec and loads/sec, and
  the quads the MMU served against those of neither hot shape (calls
  into its residual routine: none on sgemm, a gated count);
- **mega**: end-to-end sgemm across the engine tiers — the scalar seed
  baseline against the workgroup-wide megakernel engine — asserting both
  report bit-identical JobStats;
- **mega_launch**: the fixed cost of the mega launch path — microseconds
  per one-workgroup job and per 64-lane workgroup of a 16-workgroup job —
  with the count that keeps it small: ``QuadWarp`` objects constructed
  to retire workgroups nobody inspects (none);
- **mega_clause**: what one converged trip of the sgemm inner loop costs
  on mega — Python-level calls (a ``sys.setprofile`` count: exact, and
  gated against the checked-in number) and microseconds — and what
  translating a clause costs, cold (emit + ``compile()``) and from the
  process-wide code cache (a second fresh platform must emit nothing);
- **mega_batch**: what a lockstep batch of workgroups buys and what it
  promises — microseconds per workgroup of one converged sgemm trip with
  1, 4, 16, ... workgroups to the row, up to ``BATCH_LANES``, and the
  counts: wide-port calls of one sgemm 128x64x128 job one group at a
  time and batched, batches abandoned on sgemm (none), batches run and
  abandoned on bfs (every job starts one: an abandon costs the rest of
  its own job only) and the ``QuadWarp`` objects its fallback builds
  (none), copies of retired registers the Job Manager path takes
  (none), ``BatchPort`` window cuts and merges on the system
  benchmark's sgemm, bfs and SLAM ``fast3`` runs (the port keeps its
  windows: no sgemm page is cut twice, and bfs's later jobs together cut
  no more windows than its first), register files per compute unit
  (one), the sgemm job's load calls and the load shadows among them
  (only C's: A and B are store-free), batches abandoned ``unshadowed``
  on sgemm, bfs and SLAM ``fast3`` (none), bfs's abandons (24) and the
  bincounts per bfs job that find the pages an access touches;
- **capacity_batch**: a MatrixTranspose whose full-width batch needs
  more window pages than the batch port has — batches run and abandoned,
  why, and the groups that ran one at a time (none: a batch out of port
  capacity runs again at half the width);
- **local_batch**: Reduction at its default size on mega — lockstep
  batches run and abandoned, seconds per run, and the multi-group
  local-memory jobs that started one group at a time (none: each slot of
  a batch has its own ``__local`` slab);
- **mega_masked**: what one step of the masked scheduler costs around a
  fall-through body — NumPy-level operations on the lane PCs and masks
  (exact, gated against the checked-in number) and microseconds — and
  how many masked steps of the SLAM express pipeline ran with every lane
  of the row active (none: such lanes go back to the chain functions);
- **build**: what building the nine SLAM kernels costs cold, per kernel
  (compile and the binary gate, the one build gate: one call per
  kernel), and how many gate calls a second build of the same content
  makes (none);
- **snapshot**: microseconds per registry snapshot of a two-tenant
  platform, and the ``JobStats`` derived: none by synchronous launches
  on a profiling queue (a launch returns its job's record, and the
  record derives its statistics when read), one by reading one record's
  twice, one per scope from its clause ledger by a snapshot, however
  many probes read it, and none by a second snapshot with no job
  between;
- **guest**: microseconds per KiB of a 64 KiB guest ``memcpy`` and
  ``memset`` on the DBT and the interpretive CPU engine, the guest
  instructions each retires (the same on both), and the function calls
  (Python and built-in) of a DBT ``memcpy`` / ``memset`` at 16 and at
  64 KiB (the same: the DBT runs a counted copy or fill loop as block
  transfers that call nothing per page, so its calls do not grow with
  the length; trip by trip they grow with every trip), and the regions
  a second fresh platform compiles for a guest ``memcpy`` (none: region
  code is kept per process, so it only translates);
- **startup**: the ``repro`` modules, and the source lines in them, that
  a fresh process imports to build a ``Context()`` and to load and
  expand the e2e farm config, with the seconds each took, and the
  build-stack modules among the farm load's (none: only a farm worker
  compiles, verifies and generates programs). Lines are the
  host-independent price of a start-up: a process that cannot write
  bytecode compiles every line it imports.

The report records the host (cores, Python, NumPy) beside the numbers.

Run directly: ``python benchmarks/bench_hotpath.py [--quick]``.
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import hostcode  # noqa: E402
from repro.cl import Context, runtime  # noqa: E402
from repro.core.platform import MobilePlatform, PlatformConfig  # noqa: E402
from repro.cpu import GuestRoutines  # noqa: E402
from repro.cl import CommandQueue  # noqa: E402
from repro.gpu import megakernel  # noqa: E402
from repro.gpu import mmu as mmu_module  # noqa: E402
from repro.gpu.device import GPUConfig  # noqa: E402
from repro.gpu.isa import (  # noqa: E402
    CONST_BASE, NOP_INSTR, Clause, Instruction, Op, Program, Tail)
from repro.gpu.mmu import BatchPort, GPUMMU  # noqa: E402
from repro.gpu.shadercore import WorkgroupShape  # noqa: E402
from repro.gpu.warp import QuadWarp  # noqa: E402
from repro.kernels import get_workload  # noqa: E402
from repro.mem import Bus, PhysicalMemory  # noqa: E402
from repro.slam import KFusionPipeline  # noqa: E402
from repro.slam.kernels import ALL_SOURCES  # noqa: E402

_OUTPUT = _REPO_ROOT / "BENCH_hotpath.json"


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def micro_mmu_loads(quads=2000, repeats=5):
    """The memory-bound inner-loop micro: MMU loads, quad vs 4x scalar.

    The address streams mirror the two access shapes of the sgemm inner
    loop (``a[row*k + i]`` broadcast to all lanes; ``b[i*n + col]``
    contiguous across lanes) and the SobelFilter row reads (contiguous).
    """
    context = Context(MobilePlatform(PlatformConfig()))
    mmu = context.platform.gpu.mmu
    buffer = context.alloc_buffer(256 * 1024)
    base = buffer.gpu_va
    streams = []
    for i in range(quads):
        if i % 3 == 0:
            streams.append([base + 16 * (i % 4096)] * 4)  # broadcast
        else:
            word = base + 16 * (i % 4096)
            streams.append([word, word + 4, word + 8, word + 12])

    def scalar():
        load = mmu.load_u32
        for quad in streams:
            for addr in quad:
                load(addr)

    def fast():
        load = mmu.load_quad_u32
        for quad in streams:
            load(quad)

    scalar()  # warm the TLBs and page views
    fast()
    scalar_seconds = _best(scalar, repeats)
    fast_seconds = _best(fast, repeats)
    return {
        "quads": quads,
        "scalar_seconds": scalar_seconds,
        "fast_seconds": fast_seconds,
        "scalar_us_per_quad": scalar_seconds / quads * 1e6,
        "fast_us_per_quad": fast_seconds / quads * 1e6,
        "speedup": scalar_seconds / fast_seconds,
    }


def kernel_end_to_end(workload, sizes, repeats=5):
    """End-to-end wall-clock, fast path off vs on, in *repeats*
    alternating pairs (one run of each, the order swapped every other
    pair so that drift favours neither): the median of each, the median
    of the pairs' speedups and their spread (the lowest and the highest
    pair), plus throughput rates, and per run the quads the MMU served
    (``quad_accesses``) and how many went to its residual routine
    (``general_quads``: calls into ``GPUMMU._quad_views``, the quads of
    neither hot shape)."""
    # a build is paid once per process: not by the first mode timed
    get_workload(workload, **sizes).prebuild()
    general = [0]
    views = GPUMMU._quad_views

    def counting_views(self, *args):
        general[0] += 1
        return views(self, *args)

    def timed(fast_path):
        config = PlatformConfig(
            gpu=GPUConfig(engine="interpreter", instrument=True)
        )
        context = Context(MobilePlatform(config))
        mmu = context.platform.gpu.mmu
        mmu.fast_path_enabled = fast_path
        general[0] = 0
        GPUMMU._quad_views = counting_views
        try:
            start = time.perf_counter()
            result = get_workload(workload, **sizes).run(context=context,
                                                         verify=True)
            elapsed = time.perf_counter() - start
        finally:
            GPUMMU._quad_views = views
        assert result.verified
        return elapsed, result.stats, mmu.quad_accesses, general[0]

    pairs = []
    for repeat in range(repeats):
        order = (False, True) if repeat % 2 == 0 else (True, False)
        pairs.append({fast: timed(fast) for fast in order})
    scalar_stats, fast_stats = pairs[-1][False][1], pairs[-1][True][1]
    assert vars(scalar_stats) == vars(fast_stats), \
        "fast path diverged from scalar statistics"
    scalar_seconds = float(np.median([pair[False][0] for pair in pairs]))
    fast_seconds = float(np.median([pair[True][0] for pair in pairs]))
    speedups = [pair[False][0] / pair[True][0] for pair in pairs]
    return {
        "sizes": sizes,
        "repeats": repeats,
        "scalar_seconds": scalar_seconds,
        "fast_seconds": fast_seconds,
        "speedup": float(np.median(speedups)),
        "speedup_spread": [min(speedups), max(speedups)],
        "clauses_per_sec": fast_stats.clauses_executed / fast_seconds,
        "loads_per_sec": fast_stats.main_mem_accesses / fast_seconds,
        "quad_accesses": pairs[-1][True][2],
        "general_quads": pairs[-1][True][3],
    }


def engine_end_to_end(workload, sizes, repeats=3):
    """End-to-end wall-clock per engine tier on one workload.

    The scalar seed baseline (interpreter, fast path off) against the
    workgroup-wide megakernel engine. Both tiers must report
    bit-identical JobStats — the same guarantee the conformance harness
    fuzzes — so the speedup is measured on provably equivalent runs.
    """
    get_workload(workload, **sizes).prebuild()

    def timed(engine, fast_path):
        best = float("inf")
        stats = None
        for _ in range(repeats):
            config = PlatformConfig(
                gpu=GPUConfig(engine=engine, instrument=True)
            )
            context = Context(MobilePlatform(config))
            context.platform.gpu.mmu.fast_path_enabled = fast_path
            start = time.perf_counter()
            result = get_workload(workload, **sizes).run(context=context,
                                                         verify=True)
            elapsed = time.perf_counter() - start
            assert result.verified
            best = min(best, elapsed)
            stats = result.stats
        return best, stats

    scalar_seconds, scalar_stats = timed("interpreter", False)
    mega_seconds, mega_stats = timed("mega", True)
    assert vars(scalar_stats) == vars(mega_stats), \
        "engine tiers diverged on JobStats"
    return {
        "sizes": sizes,
        "repeats": repeats,
        "scalar_seconds": scalar_seconds,
        "mega_seconds": mega_seconds,
        "mega_speedup": scalar_seconds / mega_seconds,
        "mega_clauses_per_sec": mega_stats.clauses_executed / mega_seconds,
        "mega_loads_per_sec": mega_stats.main_mem_accesses / mega_seconds,
    }


_SAXPY = """
__kernel void saxpy(__global float* y, __global const float* x, float a) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""


def _mega_context():
    return Context(MobilePlatform(PlatformConfig(
        gpu=GPUConfig(engine="mega", instrument=True))))


def mega_launch(jobs=64, repeats=5):
    """Fixed cost of a mega launch: *jobs* synchronous saxpy launches of
    1 and of 16 workgroups (64 lanes each), every one with another
    uniform, on one platform. The count is exact and is what the launch
    path promises: no ``QuadWarp`` built for workgroups the Job Manager
    retires unread."""
    context = _mega_context()
    queue = CommandQueue(context)
    kernel = context.build_program(_SAXPY).kernel("saxpy")
    x = context.buffer_from_array(np.ones(1024, dtype=np.float32))
    y = context.buffer_from_array(np.zeros(1024, dtype=np.float32))
    launched = [0]

    def launch(workgroups):
        def run_jobs():
            for _ in range(jobs):
                launched[0] += 1
                kernel.set_args(y, x, np.float32(launched[0]))
                queue.enqueue_nd_range(kernel, (64 * workgroups,), (64,))
        return run_jobs

    built = [0]
    init = QuadWarp.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    QuadWarp.__init__ = counting_init
    try:
        launch(1)()  # translate, fill the TLBs
        one = _best(launch(1), repeats)
        sixteen = _best(launch(16), repeats)
    finally:
        QuadWarp.__init__ = init
    return {
        "jobs": launched[0],
        "us_per_one_workgroup_job": one / jobs * 1e6,
        "us_per_workgroup_of_16": sixteen / jobs / 16 * 1e6,
        "quadwarps_built": built[0],
    }


#: Python-level calls one converged trip of the sgemm inner loop may
#: make on mega (two chain functions, two wide loads and the tier lookup
#: under each, the two shift rows, NumPy's count_nonzero wrappers); the
#: closure translator this replaced made 91
MAX_CALLS_PER_TRIP = 14


def mega_clause(repeats=3):
    """The converged inner loop of sgemm on mega, per trip, one
    workgroup to the row (the path every unbatched group takes;
    :func:`mega_batch` prices the batched one).

    Two runs that differ only in ``k`` differ by ``workgroups * dk``
    trips of the loop, so the differences of the Python-level call count
    (``sys.setprofile``, exact) and of the time spent inside the
    converged scheduler are the cost of exactly those trips. Run first:
    the cold translation is only cold once per process."""
    emits = []
    compile_source = megakernel.compile_source

    def counting_compile(source, filename, namespace):
        emits.append(filename)
        return compile_source(source, filename, namespace)

    run_uniform = megakernel.MegaKernel._run_uniform
    build = megakernel.MegaKernel.__init__
    # calls are counted inside the converged scheduler, outside the MMU's
    # view-cache miss path (that one is per page touched, not per trip)
    nesting = {run_uniform.__code__: 0, GPUMMU._resolve_view.__code__: 0}
    spent = {"seconds": 0.0, "calls": 0, "translate": [], "clauses": 0}

    def timed_uniform(self, *args):
        start = time.perf_counter()
        try:
            return run_uniform(self, *args)
        finally:
            spent["seconds"] += time.perf_counter() - start

    def timed_build(self, program, *ports):
        start = time.perf_counter()
        build(self, program, *ports)
        spent["translate"].append(time.perf_counter() - start)
        spent["clauses"] = len(program.clauses)

    def profile(frame, event, _arg):
        if frame.f_code in nesting:
            nesting[frame.f_code] += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call" and tuple(nesting.values()) == (1, 0):
            spent["calls"] += 1

    def run(k, counted=False):
        context = _mega_context()
        spent["seconds"] = spent["calls"] = 0
        if counted:
            sys.setprofile(profile)
        try:
            get_workload("sgemm", m=64, k=k, n=64).run(context=context,
                                                       verify=False)
        finally:
            sys.setprofile(None)
        return spent["seconds"], spent["calls"]

    # 8 rows of k floats per workgroup: with these k no access of the
    # loop straddles a page, so every trip takes the same path
    short, long_, workgroups = 16, 64, 64
    trips = workgroups * (long_ - short)
    batch_lanes = megakernel.BATCH_LANES
    megakernel.BATCH_LANES = 0
    megakernel.compile_source = counting_compile
    megakernel.MegaKernel._run_uniform = timed_uniform
    megakernel.MegaKernel.__init__ = timed_build
    try:
        run(short)  # the first platform of the process translates cold
        cold_emits = len(emits)
        run(short)  # a second fresh platform finds the code cached
        warm_emits = len(emits) - cold_emits
        cold, warm = spent["translate"][0], min(spent["translate"][1:])
        calls = [run(k, counted=True)[1] for k in (short, long_, long_)]
        seconds = min(run(long_)[0] for _ in range(repeats)) \
            - min(run(short)[0] for _ in range(repeats))
    finally:
        megakernel.BATCH_LANES = batch_lanes
        megakernel.compile_source = compile_source
        megakernel.MegaKernel._run_uniform = run_uniform
        megakernel.MegaKernel.__init__ = build
    return {
        "trips": trips,
        "calls_per_trip": (calls[1] - calls[0]) / trips,
        "calls_repeat_exactly": calls[1] == calls[2],
        "us_per_trip": seconds / trips * 1e6,
        "clauses": spent["clauses"],
        "translate_us_per_clause_cold":
            cold / spent["clauses"] * 1e6 if cold_emits else None,
        "translate_us_per_clause_warm": warm / spent["clauses"] * 1e6,
        "second_platform_emits": warm_emits,
    }


def mega_batch(repeats=3):
    """Lockstep batches: the per-workgroup cost of one converged sgemm
    trip by workgroups to the row (the difference of two runs that
    differ only in ``k``, as in :func:`mega_clause`), and the counts a
    batch is held to — all exact, none depends on the host."""
    run_uniform = megakernel.MegaKernel._run_uniform
    run_workgroup = megakernel.MegaKernel.run_workgroup
    window = BatchPort._window
    load = BatchPort.load_wide_u32
    shadow = BatchPort._shadow
    pages_touched = mmu_module._pages_touched
    init = QuadWarp.__init__
    kernel_init = megakernel.MegaKernel.__init__
    snapshot = megakernel.RetiredWarps.snapshot
    kernels = []  # every job's MegaKernel
    spent = [0.0]
    counted = {"cuts": [], "merges": 0, "quadwarps": 0}
    # load calls, load shadows, refresh bincounts and abandons by reason
    port = {}
    snapshots = [0]  # copies of retired registers, Job Manager path

    def timed_uniform(self, *args):
        start = time.perf_counter()
        try:
            return run_uniform(self, *args)
        finally:
            spent[0] += time.perf_counter() - start

    def counting_window(self, vaddrs):
        batch = [old for old in self._live if old.used == self._batch]
        cut = window(self, vaddrs)
        # windows of this batch absorbed into the new one
        counted["merges"] += sum(old not in self._live for old in batch)
        counted["cuts"].append((self._batch, cut.first, cut.pages))
        return cut

    def counting_init(self, *args, **kwargs):
        counted["quadwarps"] += 1
        init(self, *args, **kwargs)

    def counting_load(self, *args):
        port["loads"] += 1
        return load(self, *args)

    def counting_shadow(self, *args):
        port["shadows"] += 1
        return shadow(self, *args)

    def counting_pages(index):
        port["bincounts"] += 1
        return pages_touched(index)

    def recording_run(self, *args, **kwargs):
        try:
            return run_workgroup(self, *args, **kwargs)
        except mmu_module.BatchAbandoned as abandoned:
            port[abandoned.reason] = port.get(abandoned.reason, 0) + 1
            raise

    def recording_kernel(self, program, mem, *args, **kwargs):
        kernel_init(self, program, mem, *args, **kwargs)
        kernels.append(self)

    def counting_snapshot(self):
        snapshots[0] += 1
        return snapshot(self)

    def counting(run, *args, **kwargs):
        """``(what run returns, window merges, QuadWarps built)``; the
        windows cut stay in ``counted["cuts"]``, the port's counts in
        ``port``."""
        counted.update(cuts=[], merges=0, quadwarps=0)
        port.clear()
        port.update(loads=0, shadows=0, bincounts=0)
        result = run(*args, **kwargs)
        return result, counted["merges"], counted["quadwarps"]

    def jobs_and_batches(platform):
        snapshot = platform.stats_registry.snapshot()
        return [snapshot[f"gpu.jobmanager.{name}"] for name in
                ("jobs_retired", "batches_run", "batches_abandoned")]

    def sgemm(lanes, **sizes):
        """``(seconds converged, platform)`` of one sgemm with *lanes*
        lanes to the row."""
        megakernel.BATCH_LANES = lanes
        context = _mega_context()
        spent[0] = 0.0
        get_workload("sgemm", **sizes).run(context=context, verify=False)
        return spent[0], context.platform

    short, long_, workgroups = 16, 64, 64
    job = {"m": 128, "k": 64, "n": 128}
    batch_lanes = megakernel.BATCH_LANES
    megakernel.MegaKernel._run_uniform = timed_uniform
    try:
        us_per_workgroup_trip = {}
        for groups in _row_groups():
            seconds = [min(sgemm(64 * groups, m=64, k=k, n=64)[0]
                           for _ in range(repeats))
                       for k in (short, long_)]
            us_per_workgroup_trip[groups] = (seconds[1] - seconds[0]) \
                / (workgroups * (long_ - short)) * 1e6
        one_at_a_time = sgemm(0, **job)[1]
        BatchPort._window = counting_window
        BatchPort.load_wide_u32 = counting_load
        BatchPort._shadow = counting_shadow
        mmu_module._pages_touched = counting_pages
        QuadWarp.__init__ = counting_init
        megakernel.MegaKernel.__init__ = recording_kernel
        megakernel.MegaKernel.run_workgroup = recording_run
        megakernel.RetiredWarps.snapshot = counting_snapshot
        (_, batched), sgemm_merges, _ = counting(sgemm, batch_lanes, **job)
        sgemm_cuts = counted["cuts"]
        sgemm_port = dict(port)
        unit = batched.gpu.job_manager.unit
        port_calls = batched.gpu.mmu.wide_accesses
        sgemm_batches = (unit.batches_run, unit.batches_abandoned)
        # more programs on the same unit: bfs at the system benchmark's
        # size (its benign race trips the port in a level whose frontier
        # crosses a group boundary: that job finishes one group at a
        # time, the next starts batched again), then a stencil
        before = jobs_and_batches(batched)
        _, bfs_merges, bfs_quadwarps = counting(
            get_workload("bfs", n=1024, chord_every=64).run,
            context=Context(batched), verify=False)
        bfs_cuts = counted["cuts"]
        bfs_port = dict(port)
        bfs = [after - start
               for after, start in zip(jobs_and_batches(batched), before)]
        get_workload("SobelFilter").run(context=Context(batched),
                                        verify=False)
        _, slam_merges, _ = counting(KFusionPipeline("fast3").run_gpu,
                                     context=_mega_context())
        slam_cuts = len(counted["cuts"])
        slam_port = dict(port)
    finally:
        megakernel.BATCH_LANES = batch_lanes
        megakernel.MegaKernel._run_uniform = run_uniform
        megakernel.MegaKernel.run_workgroup = run_workgroup
        megakernel.MegaKernel.__init__ = kernel_init
        megakernel.RetiredWarps.snapshot = snapshot
        BatchPort._window = window
        BatchPort.load_wide_u32 = load
        BatchPort._shadow = shadow
        mmu_module._pages_touched = pages_touched
        QuadWarp.__init__ = init
    # the kernels of the jobs of the one unit the last three ran on
    kernels = [kernel for kernel in kernels
               if kernel.mem is batched.gpu.mmu]
    return {
        "us_per_workgroup_trip": us_per_workgroup_trip,
        "wide_port_calls_one_group_at_a_time":
            one_at_a_time.gpu.mmu.wide_accesses,
        "wide_port_calls_batched": port_calls,
        "sgemm_batches": sgemm_batches[0],
        "sgemm_batches_abandoned": sgemm_batches[1],
        "bfs_jobs": bfs[0],
        "bfs_batches": bfs[1],
        "bfs_batches_abandoned": bfs[2],
        "bfs_quadwarps_built": bfs_quadwarps,
        "snapshots": snapshots[0],
        "window_merges": {"sgemm": sgemm_merges, "bfs": bfs_merges,
                          "slam_fast3": slam_merges},
        # windows cut by each batch of the sgemm job, and the pages
        # their cuts laid out more than once
        "sgemm_window_cuts": [
            sum(batch == number for batch, _, _ in sgemm_cuts)
            for number in range(1, sgemm_batches[0] + 1)],
        "sgemm_pages_cut_again": _pages_cut_again(sgemm_cuts),
        # each bfs job starts one batch: its first job's cuts, then the
        # other 255 jobs' together
        "bfs_window_cuts_first_job":
            sum(batch == bfs_cuts[0][0] for batch, _, _ in bfs_cuts),
        "bfs_window_cuts_later_jobs":
            sum(batch != bfs_cuts[0][0] for batch, _, _ in bfs_cuts),
        "slam_fast3_window_cuts": slam_cuts,
        # the sgemm job's load calls and the loads among them that kept
        # a shadow: C's, which it stores (A and B are store-free)
        "sgemm_load_calls": sgemm_port["loads"],
        "sgemm_load_shadows": sgemm_port["shadows"],
        # bincounts finding the pages an access touches, per bfs job
        "bfs_refresh_bincounts_per_job": bfs_port["bincounts"] / bfs[0],
        # batches abandoned because a store met a window whose loads
        # went unshadowed: a stored buffer the program does not name
        "unshadowed_abandons": {
            name: counts.get("unshadowed", 0) for name, counts in
            (("sgemm", sgemm_port), ("bfs", bfs_port),
             ("slam_fast3", slam_port))},
        "kernels_on_the_unit": len({id(kernel.program)
                                    for kernel in kernels}),
        "register_files_per_unit": len({id(mega.file) for mega in kernels}),
    }


def _pages_cut_again(cuts):
    """Pages the ``(batch, first page, pages)`` window *cuts* laid out
    more than once."""
    pages = [page for _, first, count in cuts
             for page in range(first, first + count)]
    return len(pages) - len(set(pages))


def _row_groups():
    """Workgroups of 64 lanes to the row the ``us_per_workgroup_trip``
    rows price: 1, 4, 16, ... up to the batch width."""
    groups = [1]
    while groups[-1] * 4 < megakernel.BATCH_LANES // 64:
        groups.append(groups[-1] * 4)
    return groups + [megakernel.BATCH_LANES // 64]


#: a MatrixTranspose whose full-width batch needs more window pages than
#: the batch port has: each 64-lane group writes 8 output rows of 4 KiB
#: (1024 floats), so the 64 groups of a 4096-lane batch ask for 512
#: pages, and 32 groups for 256 plus the input's
CAPACITY_TRANSPOSE = {"width": 512, "height": 1024}


def capacity_batch():
    """MatrixTranspose at :data:`CAPACITY_TRANSPOSE` on mega, warm: the
    batches it runs and abandons, why, the groups that ran one at a time
    (none: a batch out of window space runs again at half the width),
    and its seconds."""
    from repro.instrument import EventTracer

    run_workgroup = megakernel.MegaKernel.run_workgroup
    alone = [0]

    def recording(self, shape, flat_group, budget=None, count=1, **job):
        alone[0] += count == 1
        return run_workgroup(self, shape, flat_group, budget, count, **job)

    def transpose(events=None):
        context = _mega_context()
        if events is not None:
            context.platform.attach_events(events)
        start = time.perf_counter()
        get_workload("MatrixTranspose", **CAPACITY_TRANSPOSE).run(
            context=context, verify=False)
        return time.perf_counter() - start, \
            context.platform.gpu.job_manager.unit

    transpose()  # build and translate
    events = EventTracer()
    megakernel.MegaKernel.run_workgroup = recording
    try:
        seconds, unit = transpose(events)
    finally:
        megakernel.MegaKernel.run_workgroup = run_workgroup
    reasons = {}
    for event in events.events():
        if event["name"] == "batch_abandoned":
            reason = event["args"]["reason"]
            reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "sizes": CAPACITY_TRANSPOSE,
        "batch_lanes": megakernel.BATCH_LANES,
        "seconds": seconds,
        "batches_run": unit.batches_run,
        "batches_abandoned": unit.batches_abandoned,
        "abandon_reasons": reasons,
        "groups_run_alone": alone[0],
    }


def local_batch(repeats=3):
    """Reduction on mega, warm: the batches one run starts and abandons,
    its best time over *repeats*, and its jobs of more than one group
    with a ``__local`` slab whose first call ran one group alone."""
    run_workgroup = megakernel.MegaKernel.run_workgroup
    jobs = []  # (groups, groups of the first call) of each local job

    def recording(self, shape, flat_group, budget=None, count=1,
                  local=None, **job):
        if not flat_group and local is not None and local.shape[1]:
            jobs.append((shape.total_groups, count))
        return run_workgroup(self, shape, flat_group, budget, count,
                             local=local, **job)

    def reduction():
        context = _mega_context()
        get_workload("Reduction").run(context=context, verify=False)
        return context.platform.gpu.job_manager.unit

    reduction()  # build and translate
    seconds = _best(reduction, repeats)
    megakernel.MegaKernel.run_workgroup = recording
    try:
        unit = reduction()
    finally:
        megakernel.MegaKernel.run_workgroup = run_workgroup
    return {
        "seconds": seconds,
        "batches_run": unit.batches_run,
        "batches_abandoned": unit.batches_abandoned,
        "local_jobs": len(jobs),
        "local_jobs_unbatched": sum(1 for groups, count in jobs
                                    if groups > 1 and count == 1),
    }


#: NumPy-level operations one masked step may make on the lane PCs and
#: the mask around a fall-through body with statistics on (min, ==,
#: count_nonzero, view, count_nonzero, the indexed store); 14 before the
#: waiting bit moved into the PC
MAX_CALLS_PER_MASKED_STEP = 6


class _CountedLanes(np.ndarray):
    """The per-lane PCs of one workgroup, counting every NumPy-level
    operation on them and on what derives from them (the masks): ufuncs
    and reductions, array functions, views and indexed stores."""

    calls = [0]

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(array):
            return np.asarray(array) \
                if isinstance(array, _CountedLanes) else array

        # a mask passed as where= is the clause body's use, not counted
        self.calls[0] += any(isinstance(array, _CountedLanes)
                             for array in (*inputs, *(out or ())))
        if out is not None:
            kwargs["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(
            *map(plain, inputs),
            **{name: plain(value) for name, value in kwargs.items()})
        if out is not None:
            return out[0]
        return result.view(_CountedLanes) \
            if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        self.calls[0] += 1
        return super().__array_function__(func, types, args, kwargs)

    def __setitem__(self, key, value):
        self.calls[0] += 1
        super().__setitem__(key, value)

    def view(self, *args):
        self.calls[0] += 1
        return super().view(*args)


def _fallthrough_program(clauses):
    """*clauses* one-slot clauses that fall through, then END."""
    bump = (Instruction(Op.IADD, dst=0, srca=0, srcb=CONST_BASE), NOP_INSTR)
    program = Program(clauses=[
        Clause(tuples=[bump], constants=[1],
               tail=Tail.FALLTHROUGH if index < clauses else Tail.END)
        for index in range(clauses + 1)])
    program.validate()
    return program


def mega_masked(workgroups=200, repeats=5):
    """The masked scheduler, per step and on the application.

    A 6-thread workgroup has dead lanes in its last quad and runs every
    clause masked; two programs that differ only in the number of
    fall-through clauses differ by that many masked steps, so the
    differences of the operation count (exact) and of the time are the
    cost of exactly those steps. The SLAM express pipeline is then run
    under ``sys.setprofile`` to see every masked step's mask."""
    shape = WorkgroupShape((6, 1, 1), (6, 1, 1))
    short, long_ = 8, 72
    run_masked = megakernel.MegaKernel._run_masked

    def counting_masked(self, state, pcs, *rest):
        return run_masked(self, state, pcs.view(_CountedLanes), *rest)

    def run(clauses, counted=False):
        kernel = megakernel.MegaKernel(_fallthrough_program(clauses),
                                       None, megakernel.RegisterFile(),
                                       np.zeros(1, dtype=np.uint32))
        counts = {}
        if counted:
            _CountedLanes.calls[0] = 0
            megakernel.MegaKernel._run_masked = counting_masked
            try:
                kernel.run_workgroup(shape, 0, counts=counts)
            finally:
                megakernel.MegaKernel._run_masked = run_masked
            return _CountedLanes.calls[0]

        def launch():
            for group in range(workgroups):
                kernel.run_workgroup(shape, group, counts=counts)
        return _best(launch, repeats)

    calls = [run(clauses, counted=True) for clauses in (short, long_, long_)]
    seconds = run(long_) - run(short)

    steps = {"masked": 0, "full_mask": 0}

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name.startswith("masked_") \
                and code.co_filename.startswith("<mega "):
            steps["masked"] += 1
            steps["full_mask"] += bool(frame.f_locals["mask"].all())

    context = _mega_context()
    sys.setprofile(profile)
    try:
        KFusionPipeline("express").run_gpu(context=context)
    finally:
        sys.setprofile(None)
    return {
        "steps": long_ - short,
        "calls_per_step": (calls[1] - calls[0]) / (long_ - short),
        "calls_repeat_exactly": calls[1] == calls[2],
        "us_per_step": seconds / workgroups / (long_ - short) * 1e6,
        "slam_express_masked_steps": steps["masked"],
        "slam_express_full_mask_steps": steps["full_mask"],
    }


def build():
    """Building the nine SLAM kernels: cold (compile and the binary gate
    per kernel) and again on a second fresh platform, which must find the
    verdicts kept. Gate calls are counted where the build looks the gate
    up."""
    source = ALL_SOURCES + "\n// a content nothing else in this run builds\n"
    calls = [0]
    gate = runtime.verify_binary

    def counted(*args, **kwargs):
        calls[0] += 1
        return gate(*args, **kwargs)

    def timed_build():
        context = Context(MobilePlatform(PlatformConfig()))
        calls[0] = 0
        start = time.perf_counter()
        program = context.build_program(source)
        return time.perf_counter() - start, calls[0], program

    runtime.verify_binary = counted
    try:
        cold_seconds, cold_calls, program = timed_build()
        warm_seconds, warm_calls, _ = timed_build()
    finally:
        runtime.verify_binary = gate
    kernels = len(program.kernel_names)
    return {
        "kernels": kernels,
        "cold_ms_per_kernel": cold_seconds / kernels * 1e3,
        "cold_gate_calls": cold_calls,
        "second_build_us": warm_seconds * 1e6,
        "second_build_gate_calls": warm_calls,
    }


def snapshot(repeats=5, launches=8):
    """*launches* synchronous saxpy jobs per tenant on a profiling queue
    of a two-tenant platform, then one registry snapshot: microseconds,
    and the ``JobStats`` derived, counted at the one derivation function
    — none by the launches (a launch returns its job's record, which
    derives its statistics only when read), one by reading the last
    record's ``stats`` twice, and one per scope (the Job Manager and
    each tenant) from its clause ledger by the snapshot, however many
    probes read it, and none by a second snapshot."""
    from repro.driver.kbase import TenancyConfig
    from repro.gpu import jobmanager

    derived = [0]
    derive = jobmanager.derive_stats

    def counting(*args):
        derived[0] += 1
        return derive(*args)

    platform = MobilePlatform(PlatformConfig(
        tenancy=TenancyConfig.symmetric(2)))
    registry = platform.stats_registry
    jobmanager.derive_stats = counting
    try:
        for tenant in platform.driver.tenants:
            context = Context(platform, tenant=tenant)
            kernel = context.build_program(_SAXPY).kernel("saxpy")
            kernel.set_args(context.alloc_buffer(64 * 4),
                            context.alloc_buffer(64 * 4), np.float32(2.0))
            queue = CommandQueue(context, profiling=True)
            records = [queue.enqueue_nd_range(kernel, (64,), (16,))
                       for _ in range(launches)]
        launch_derivations = derived[0]
        _reads = [records[-1].stats for _ in range(2)]
        read_derivations = derived[0] - launch_derivations
        derived[0] = 0
        registry.snapshot()
        first = derived[0]
        derived[0] = 0
        registry.snapshot()
        second = derived[0]
    finally:
        jobmanager.derive_stats = derive
    return {
        "launches": launches * len(platform.driver.tenants),
        "launch_derivations": launch_derivations,
        "record_read_twice_derivations": read_derivations,
        "scopes": 1 + len(platform.driver.tenants),
        "first_snapshot_derivations": first,
        "second_snapshot_derivations": second,
        "us": _best(registry.snapshot, repeats) * 1e6,
    }


def guest(nbytes=64 * 1024, short=16 * 1024, repeats=3):
    """Guest ``memcpy`` and ``memset`` of *nbytes* on both CPU engines,
    warm (translated, every page backed); and, on the DBT, the calls
    of Python and built-in functions (``sys.setprofile``, exact) one
    call of each makes at *short* and at *nbytes* bytes."""
    src, dst = 0x40_0000, 0x80_0000
    calls = [0]

    def profile(_frame, event, _arg):
        calls[0] += event in ("call", "c_call")

    out = {"bytes": nbytes}
    for engine in ("dbt", "interpretive"):
        routines = GuestRoutines(Bus(PhysicalMemory(1 << 24)), engine=engine)
        for name, value in (("memcpy", src), ("memset", 0x5A)):
            def one(length=nbytes):
                routines.call(name, dst, value, length)

            one()
            before = routines.instructions_executed
            seconds = _best(one, repeats)
            out[f"{engine}_{name}_us_per_kib"] = seconds / nbytes * 1024e6
            out[f"{engine}_{name}_instructions"] = \
                (routines.instructions_executed - before) // repeats
            if engine != "dbt":
                continue
            counts = []
            for length in (short, nbytes):
                one(length)
                calls[0] = 0
                sys.setprofile(profile)
                try:
                    one(length)
                finally:
                    sys.setprofile(None)
                counts.append(calls[0])
            out[f"dbt_{name}_calls"] = dict(zip((short, nbytes), counts))
    out["dbt_second_platform"] = second_platform_regions()
    return out


def second_platform_regions(nbytes=4096):
    """Regions a guest ``memcpy`` translates and compiles on a fresh
    platform, after another platform of the process ran it."""
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    for _ in range(2):
        platform = MobilePlatform(PlatformConfig())
        source = platform.stage_bytes(bytes(nbytes))
        target = platform.stage_bytes(bytes(nbytes))
        compiled.clear()
        hostcode.compile = counting
        try:
            platform.guest.memcpy(target, source, nbytes)
        finally:
            del hostcode.compile
    return {"translations": platform.guest.engine.translations,
            "compiles": len(compiled)}


#: modules only a build or a farm worker runs: a farm config load and
#: expansion imports none of them
BUILD_STACK = ("repro.clc.compiler", "repro.gpu.verify.pipeline",
               "repro.validate.progen", "repro.validate.conformance")

_STARTUP_PROBES = {
    "context": "from repro.cl import Context\nContext()\n",
    "farm_load": (
        "from repro.validate.farm import expand_cases, load_config\n"
        "expand_cases(load_config('benchmarks/e2e/farm_sweep.json'))\n"),
}

_STARTUP_REPORT = """
seconds = time.perf_counter() - start
modules = sorted(name for name in sys.modules if name.startswith("repro"))
lines = 0
for name in modules:
    path = getattr(sys.modules[name], "__file__", None)
    if path:
        with open(path, "rb") as handle:
            lines += handle.read().count(b"\\n")
print(json.dumps({"modules": modules, "lines": lines, "seconds": seconds}))
"""


def startup():
    """The ``repro`` imports of each start-up probe, each in a fresh
    interpreter (this one has imported everything)."""
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    out = {}
    for name, probe in _STARTUP_PROBES.items():
        source = ("import json, sys, time\nstart = time.perf_counter()\n"
                  + probe + _STARTUP_REPORT)
        found = json.loads(subprocess.run(
            [sys.executable, "-c", source], cwd=_REPO_ROOT, env=env,
            check=True, capture_output=True, text=True).stdout)
        out[name] = {"modules": len(found["modules"]),
                     "lines": found["lines"],
                     "seconds": found["seconds"],
                     "build_stack": sorted(
                         set(found["modules"]) & set(BUILD_STACK))}
    return out


def host_metadata():
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def run(quick=False):
    micro_repeats = 3 if quick else 7
    kernel_repeats = 1 if quick else 3
    pairs = 3 if quick else 5
    # explicit dims (not {}) so the report records what actually ran;
    # the non-quick sgemm sizes are the workload's defaults
    sgemm_sizes = {"m": 16, "k": 8, "n": 24} if quick else \
        {"m": 32, "k": 24, "n": 40}
    sobel_sizes = {"width": 32, "height": 24} if quick else \
        {"width": 48, "height": 32}
    clause = mega_clause(repeats=micro_repeats)  # first: translates cold
    report = {
        "quick": quick,
        "host": host_metadata(),
        "micro": micro_mmu_loads(repeats=micro_repeats),
        "kernels": {
            "sgemm": kernel_end_to_end("sgemm", sgemm_sizes,
                                       repeats=pairs),
            "SobelFilter": kernel_end_to_end("SobelFilter", sobel_sizes,
                                             repeats=pairs),
        },
        "mega": {
            "sgemm": engine_end_to_end("sgemm", sgemm_sizes,
                                       repeats=kernel_repeats),
        },
        "mega_launch": mega_launch(jobs=16 if quick else 64,
                                   repeats=micro_repeats),
        "mega_clause": clause,
        "mega_batch": mega_batch(repeats=micro_repeats),
        "local_batch": local_batch(repeats=micro_repeats),
        "capacity_batch": capacity_batch(),
        "mega_masked": mega_masked(workgroups=50 if quick else 200,
                                   repeats=micro_repeats),
        "build": build(),
        "snapshot": snapshot(repeats=micro_repeats),
        "guest": guest(repeats=1 if quick else 3),
        "startup": startup(),
    }
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes / fewer repeats (CI smoke run)")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    micro = report["micro"]
    print(f"micro (MMU loads): scalar {micro['scalar_us_per_quad']:.2f} "
          f"us/quad, fast {micro['fast_us_per_quad']:.2f} us/quad, "
          f"speedup {micro['speedup']:.2f}x")
    for name, row in report["kernels"].items():
        low, high = row["speedup_spread"]
        print(f"{name}: scalar {row['scalar_seconds'] * 1000:.1f} ms, "
              f"fast {row['fast_seconds'] * 1000:.1f} ms (medians of "
              f"{row['repeats']} pairs), speedup {row['speedup']:.2f}x "
              f"({low:.2f}-{high:.2f}x), "
              f"{row['clauses_per_sec']:,.0f} clauses/s, "
              f"{row['loads_per_sec']:,.0f} loads/s, "
              f"{row['general_quads']} of {row['quad_accesses']} quads "
              "of neither hot shape")
    for name, row in report["mega"].items():
        print(f"{name} engines: scalar "
              f"{row['scalar_seconds'] * 1000:.1f} ms, "
              f"mega {row['mega_seconds'] * 1000:.1f} ms "
              f"({row['mega_speedup']:.2f}x)")
    launch = report["mega_launch"]
    print(f"mega launch: {launch['us_per_one_workgroup_job']:.0f} us per "
          f"one-workgroup job, {launch['us_per_workgroup_of_16']:.0f} us "
          f"per workgroup of 16; {launch['quadwarps_built']} QuadWarps "
          f"over {launch['jobs']} jobs")
    clause = report["mega_clause"]
    cold = clause["translate_us_per_clause_cold"]
    print(f"mega clause: {clause['calls_per_trip']:g} Python calls and "
          f"{clause['us_per_trip']:.2f} us per converged sgemm trip; "
          f"translate {'n/a' if cold is None else format(cold, '.0f')} us "
          f"per clause cold, "
          f"{clause['translate_us_per_clause_warm']:.1f} us from the cache")
    batch = report["mega_batch"]
    per_trip = batch["us_per_workgroup_trip"]
    merges = batch["window_merges"]
    print(f"mega batch: "
          f"{' / '.join(format(us, '.2f') for us in per_trip.values())} "
          f"us per workgroup of a converged sgemm trip at "
          f"{' / '.join(map(str, per_trip))} workgroups to the row; "
          f"{batch['wide_port_calls_one_group_at_a_time']} -> "
          f"{batch['wide_port_calls_batched']} wide-port calls per sgemm "
          f"128x64x128 job; {batch['sgemm_batches_abandoned']} of "
          f"{batch['sgemm_batches']} sgemm batches abandoned; bfs "
          f"{batch['bfs_batches']} batches over {batch['bfs_jobs']} jobs, "
          f"{batch['bfs_batches_abandoned']} abandoned, "
          f"{batch['bfs_quadwarps_built']} QuadWarps; "
          f"{batch['snapshots']} register snapshots; window merges "
          f"{merges['sgemm']} / {merges['bfs']} / {merges['slam_fast3']} "
          f"(sgemm / bfs / SLAM fast3); window cuts per sgemm batch "
          f"{batch['sgemm_window_cuts']} "
          f"({batch['sgemm_pages_cut_again']} pages cut again), bfs "
          f"{batch['bfs_window_cuts_first_job']} in its first job and "
          f"{batch['bfs_window_cuts_later_jobs']} in the other "
          f"{batch['bfs_jobs'] - 1}, SLAM fast3 "
          f"{batch['slam_fast3_window_cuts']}; "
          f"{batch['register_files_per_unit']} register file(s) for "
          f"{batch['kernels_on_the_unit']} kernels; "
          f"{batch['sgemm_load_shadows']} of {batch['sgemm_load_calls']} "
          f"sgemm load calls shadowed; unshadowed abandons "
          f"{' / '.join(map(str, batch['unshadowed_abandons'].values()))} "
          f"(sgemm / bfs / SLAM fast3); "
          f"{batch['bfs_refresh_bincounts_per_job']:.2f} refresh bincounts "
          f"per bfs job")
    capacity = report["capacity_batch"]
    print(f"capacity batch: MatrixTranspose "
          f"{capacity['sizes']['width']}x{capacity['sizes']['height']} "
          f"{capacity['seconds'] * 1000:.0f} ms, "
          f"{capacity['batches_run']} batches "
          f"({capacity['batches_abandoned']} abandoned: "
          f"{capacity['abandon_reasons']}), "
          f"{capacity['groups_run_alone']} groups run one at a time")
    local = report["local_batch"]
    print(f"local batch: Reduction {local['seconds'] * 1000:.1f} ms, "
          f"{local['batches_run']} batches ({local['batches_abandoned']} "
          f"abandoned); {local['local_jobs_unbatched']} of "
          f"{local['local_jobs']} local-memory jobs started unbatched")
    masked = report["mega_masked"]
    print(f"mega masked: {masked['calls_per_step']:g} NumPy-level calls and "
          f"{masked['us_per_step']:.2f} us per masked fall-through step; "
          f"{masked['slam_express_full_mask_steps']} of "
          f"{masked['slam_express_masked_steps']} masked steps of SLAM "
          f"express ran with every lane active")
    built = report["build"]
    print(f"build: {built['cold_ms_per_kernel']:.1f} ms per kernel cold "
          f"({built['cold_gate_calls']} gate calls over "
          f"{built['kernels']} kernels), second build "
          f"{built['second_build_us']:.0f} us and "
          f"{built['second_build_gate_calls']} gate calls")
    snap = report["snapshot"]
    print(f"snapshot: {snap['launch_derivations']} JobStats derived by "
          f"{snap['launches']} launches, "
          f"{snap['record_read_twice_derivations']} by reading one "
          f"record's twice; {snap['us']:.0f} us per registry snapshot of "
          f"a two-tenant platform, {snap['first_snapshot_derivations']} "
          f"JobStats derived for {snap['scopes']} scopes, "
          f"{snap['second_snapshot_derivations']} on a second snapshot")
    guest_row = report["guest"]
    for name in ("memcpy", "memset"):
        dbt = guest_row[f"dbt_{name}_us_per_kib"]
        interp = guest_row[f"interpretive_{name}_us_per_kib"]
        calls = " / ".join(map(str, guest_row[f"dbt_{name}_calls"].values()))
        print(f"guest {name}: DBT {dbt:.1f} us/KiB, interpretive "
              f"{interp:.0f} us/KiB ({interp / dbt:.0f}x), "
              f"{guest_row[f'dbt_{name}_instructions']} instructions; "
              f"DBT calls at 16 / 64 KiB: {calls}")
    second = guest_row["dbt_second_platform"]
    print(f"guest memcpy on a second fresh platform: "
          f"{second['translations']} region(s) translated, "
          f"{second['compiles']} compiled")
    for name, row in report["startup"].items():
        print(f"startup {name}: {row['modules']} repro modules, "
              f"{row['lines']} lines, {row['seconds'] * 1000:.0f} ms; "
              f"build stack {row['build_stack'] or 'none'}")
    print(f"wrote {_OUTPUT}")
    failed = False
    if report["kernels"]["sgemm"]["general_quads"]:
        print("FAIL: interp sgemm sent a quad to the MMU's residual "
              "routine; its lanes are contiguous or broadcast, the two "
              "shapes load_quad_u32 / store_quad_u32 serve inline",
              file=sys.stderr)
        failed = True
    # sgemm 128x64x128: 256 groups of 64 lanes, 130 wide-port calls each
    width = megakernel.BATCH_LANES // 64
    if (batch["wide_port_calls_one_group_at_a_time"],
            batch["wide_port_calls_batched"]) != (33280, 33280 // width):
        print(f"FAIL: a sgemm 128x64x128 job makes 33280 wide-port calls "
              f"one group at a time and {33280 // width} in batches of "
              f"{width}", file=sys.stderr)
        failed = True
    if batch["sgemm_batches_abandoned"] \
            or batch["sgemm_batches"] != 256 // width:
        print(f"FAIL: sgemm 128x64x128 is {256 // width} batches, none "
              "abandoned", file=sys.stderr)
        failed = True
    # each sgemm batch loads 64 A and 64 B rows and C's tile; only C,
    # which the job stores, keeps a load shadow
    if (batch["sgemm_load_calls"], batch["sgemm_load_shadows"]) \
            != (129 * (256 // width), 256 // width):
        print(f"FAIL: a sgemm 128x64x128 job makes {129 * (256 // width)} "
              f"load calls and shadows {256 // width}, its loads of C: A "
              "and B are store-free", file=sys.stderr)
        failed = True
    if any(batch["unshadowed_abandons"].values()):
        print(f"FAIL: a store met a window whose loads went unshadowed "
              f"({batch['unshadowed_abandons']}): a kernel stores through "
              "a buffer its program does not name", file=sys.stderr)
        failed = True
    if batch["bfs_batches_abandoned"] != 24:
        print(f"FAIL: bfs (n=1024) abandoned "
              f"{batch['bfs_batches_abandoned']} batches, not 24: its "
              "benign races are the only conflicts", file=sys.stderr)
        failed = True
    # the port keeps its windows: a later batch cuts none over a page an
    # earlier one laid out, and a job of bfs finds the windows of the
    # jobs before it
    if batch["sgemm_pages_cut_again"]:
        print(f"FAIL: the sgemm 128x64x128 job cut "
              f"{batch['sgemm_pages_cut_again']} pages' windows again; a "
              "later batch keeps the windows an earlier one cut",
              file=sys.stderr)
        failed = True
    if batch["bfs_window_cuts_later_jobs"] \
            > batch["bfs_window_cuts_first_job"]:
        print("FAIL: bfs's later jobs cut more windows than its first "
              "job; the port keeps its windows across jobs",
              file=sys.stderr)
        failed = True
    if batch["snapshots"] != 0:
        print("FAIL: the Job Manager path copied retired registers "
              "nobody reads", file=sys.stderr)
        failed = True
    if not capacity["batches_abandoned"] or capacity["groups_run_alone"]:
        print("FAIL: the capacity MatrixTranspose must overflow the batch "
              "port at full width and run no group alone: a batch out of "
              "window space runs again at half the width",
              file=sys.stderr)
        failed = True
    if batch["bfs_batches"] != batch["bfs_jobs"]:
        print("FAIL: not every bfs job started one batch; an abandoned "
              "batch costs the rest of its own job only", file=sys.stderr)
        failed = True
    if batch["bfs_quadwarps_built"] != 0:
        print("FAIL: bfs built QuadWarps nobody read (the groups of an "
              "abandoned batch retire from the register file, as a "
              "committed batch does)", file=sys.stderr)
        failed = True
    if local["local_jobs_unbatched"] or not local["batches_run"]:
        print("FAIL: a multi-group Reduction job with a __local slab ran "
              "unbatched; each slot of a batch has its own slab",
              file=sys.stderr)
        failed = True
    if batch["register_files_per_unit"] != 1:
        print("FAIL: the kernels of one compute unit do not share one "
              "register file", file=sys.stderr)
        failed = True
    if masked["calls_per_step"] > MAX_CALLS_PER_MASKED_STEP \
            or not masked["calls_repeat_exactly"]:
        print(f"FAIL: {masked['calls_per_step']:g} NumPy-level calls per "
              f"masked step (checked-in: {MAX_CALLS_PER_MASKED_STEP}, and "
              f"the count must repeat exactly)", file=sys.stderr)
        failed = True
    if masked["slam_express_full_mask_steps"] != 0:
        print("FAIL: masked steps ran with every lane of the row active; "
              "re-converged lanes belong on the chain functions",
              file=sys.stderr)
        failed = True
    if built["cold_gate_calls"] != built["kernels"]:
        print(f"FAIL: a cold build made {built['cold_gate_calls']} gate "
              f"calls for {built['kernels']} kernels; the binary gate is "
              "the one gate", file=sys.stderr)
        failed = True
    if built["second_build_gate_calls"] != 0:
        print("FAIL: a second build of the same content ran a gate again",
              file=sys.stderr)
        failed = True
    if (snap["first_snapshot_derivations"],
            snap["second_snapshot_derivations"]) != (snap["scopes"], 0):
        print("FAIL: a registry snapshot must derive each scope's JobStats "
              "from its clause ledger once, and a second snapshot none",
              file=sys.stderr)
        failed = True
    if (snap["launch_derivations"],
            snap["record_read_twice_derivations"]) != (0, 1):
        print("FAIL: a launch must derive no JobStats, and reading one "
              "record's statistics twice must derive them once",
              file=sys.stderr)
        failed = True
    if clause["second_platform_emits"] != 0:
        print("FAIL: a second fresh platform emitted code for a program "
              "the process had already translated", file=sys.stderr)
        failed = True
    if clause["calls_per_trip"] > MAX_CALLS_PER_TRIP \
            or not clause["calls_repeat_exactly"]:
        print(f"FAIL: {clause['calls_per_trip']:g} Python calls per "
              f"converged trip (checked-in: {MAX_CALLS_PER_TRIP}, and the "
              f"count must repeat exactly)", file=sys.stderr)
        failed = True
    for name in ("memcpy", "memset"):
        if guest_row[f"dbt_{name}_instructions"] \
                != guest_row[f"interpretive_{name}_instructions"]:
            print(f"FAIL: a guest {name} retired a different instruction "
                  "count on the DBT and the interpretive engine",
                  file=sys.stderr)
            failed = True
        if len(set(guest_row[f"dbt_{name}_calls"].values())) != 1:
            print(f"FAIL: a DBT {name} made more Python calls at 64 KiB "
                  "than at 16 KiB: its loop ran trip by trip",
                  file=sys.stderr)
            failed = True
    if second["compiles"] or not second["translations"]:
        print("FAIL: a second fresh platform compiled a DBT region the "
              "process had already compiled", file=sys.stderr)
        failed = True
    if report["startup"]["farm_load"]["build_stack"]:
        print(f"FAIL: a farm config load imported the build stack "
              f"({report['startup']['farm_load']['build_stack']}); only a "
              "farm worker runs it", file=sys.stderr)
        failed = True
    # count-based, so it holds on any host: a regression back to eager
    # retirement fails here
    if launch["quadwarps_built"] != 0:
        print("FAIL: the mega launch path built QuadWarps nobody read",
              file=sys.stderr)
        failed = True
    if micro["speedup"] < 3.0:
        print("WARNING: micro speedup below the 3x floor", file=sys.stderr)
        failed = True
    if not report["quick"] \
            and report["mega"]["sgemm"]["mega_speedup"] < 10.0:
        print("WARNING: mega sgemm speedup below the 10x floor",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
