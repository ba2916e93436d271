"""Direct micro-timings of the layers a span per call would drown.

Each function calls public functions of one layer on a warm platform and
returns ``{layer metric: value}``. They run after the traced iterations
of a workload, on platforms of their own, so they never disturb the
golden statistics of the run being checked.

The cheap ones run in every traced run. The expensive ones run only in
the traced run of the workload they explain (``ASSIGNED``); on every
other workload they read 0, meaning "not measured here".
"""

import gc
import os
import shutil
import statistics
import time

import numpy as np

from repro.core.platform import GPU_BASE, MobilePlatform
from repro.gpu import regs
from repro.kernels import get_workload

from e2e.workloads import fresh_context

SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""

#: the tier ladder runs this one fixed problem on every engine
LADDER_DIMS = {"m": 32, "k": 24, "n": 40}
#: gemm_mega's kernel at a quarter of its size, so that ten alternating
#: instrument-off/on pairs fit in a run
OVERHEAD_DIMS = {"m": 64, "k": 32, "n": 64}
OVERHEAD_PAIRS = 10

#: the smoke-size problem for the two sgemm-based micro-timings
SMOKE_DIMS = {"m": 16, "k": 8, "n": 24}


def _best(function, repeats):
    """Fastest of *repeats* calls: for a micro-timing the minimum is the
    run least disturbed by the host."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def memory(platform, repeats):
    """``mem``: block transfers, the quad gather/scatter the MMU's quad
    tier falls back to (four same-page words per call), one MMIO read."""
    physical, bus = platform.memory, platform.bus
    base = 0x0800_0000  # low RAM above the staging window
    block = bytes(range(256)) * 4096  # 1 MiB
    physical.write_block(base, block)

    def block_round_trip():
        physical.write_block(base, block)
        physical.read_block(base, len(block))

    quads = [[base + 64 * index + 4 * lane for lane in (2, 0, 3, 1)]
             for index in range(1024)]
    values = np.arange(4, dtype=np.uint32)

    def gather():
        read = physical.gather_u32
        for quad in quads:
            read(quad)

    def scatter():
        write = physical.scatter_u32
        for quad in quads:
            write(quad, values)

    register = GPU_BASE + regs.GPU_ID
    reads = 2000

    def mmio():
        read = bus.read_u32
        for _ in range(reads):
            read(register)

    words = 4 * len(quads)
    return {
        "mem.block_mb_per_s":
            2 * len(block) / 1e6 / _best(block_round_trip, repeats),
        "mem.gather_ns_per_word": _best(gather, repeats) / words * 1e9,
        "mem.scatter_ns_per_word": _best(scatter, repeats) / words * 1e9,
        "mem.mmio_ns_per_access": _best(mmio, repeats) / reads * 1e9,
    }


def mmu(context, repeats, quads=1024):
    """``gpu.mmu``: the three access tiers on the lane-address shapes of
    the sgemm inner loop (a broadcast element, a contiguous row), as
    ``bench_hotpath`` replays them."""
    unit = context.platform.gpu.mmu
    base = context.alloc_buffer(256 * 1024).gpu_va
    streams = []
    for index in range(quads):
        word = base + 16 * (index % 4096)
        streams.append([word] * 4 if index % 3 == 0
                       else [word, word + 4, word + 8, word + 12])
    wide = [np.array(sum(streams[i:i + 16], []), dtype=np.int64)
            for i in range(0, quads, 16)]
    quad_values = np.arange(4, dtype=np.uint32)
    wide_values = np.arange(64, dtype=np.uint32)
    lanes = 4 * quads

    def scalar_load():
        load = unit.load_u32
        for quad in streams:
            for addr in quad:
                load(addr)

    def quad_load():
        load = unit.load_quad_u32
        for quad in streams:
            load(quad)

    def wide_load():
        load = unit.load_wide_u32
        for addrs in wide:
            load(addrs)

    def scalar_store():
        store = unit.store_u32
        for quad in streams:
            for addr in quad:
                store(addr, 7)

    def quad_store():
        store = unit.store_quad_u32
        for quad in streams:
            store(quad, quad_values)

    def wide_store():
        store = unit.store_wide_u32
        for addrs in wide:
            store(addrs, wide_values)

    out = {}
    for name, function in (
            ("scalar_ns_per_load", scalar_load),
            ("quad_ns_per_load", quad_load),
            ("wide_ns_per_load", wide_load),
            ("scalar_ns_per_store", scalar_store),
            ("quad_ns_per_store", quad_store),
            ("wide_ns_per_store", wide_store)):
        function()  # fill the TLB and the page-view caches
        out[f"gpu.mmu.{name}"] = _best(function, repeats) / lanes * 1e9
    return out


def guest_cpu(repeats, nbytes=64 * 1024):
    """``cpu``: one guest memcpy on each CPU engine."""
    out = {}
    for engine, metric in (("dbt", "cpu.dbt_mips"),
                           ("interpretive", "cpu.interp_mips")):
        platform = fresh_context(cpu_engine=engine).platform
        source = platform.stage_bytes(bytes(nbytes))
        target = platform.stage_bytes(bytes(nbytes))
        guest = platform.guest
        guest.memcpy(target, source, nbytes)  # translate the loop once
        before = guest.instructions_executed
        seconds = _best(lambda: guest.memcpy(target, source, nbytes),
                        repeats)
        retired = (guest.instructions_executed - before) / repeats
        out[metric] = retired / seconds / 1e6
    return out


def launches(context, repeats, batch=32, batches=8):
    """Fixed cost of one job: a one-workgroup saxpy launched
    synchronously, and queued through the arbiter then drained."""
    from repro.cl import CommandQueue

    queue = CommandQueue(context)
    x = context.buffer_from_array(np.ones(64, dtype=np.float32))
    y = context.buffer_from_array(np.ones(64, dtype=np.float32))
    kernel = context.build_program(SAXPY).kernel("saxpy")
    kernel.set_args(x, y, np.float32(2.0))
    queue.enqueue_nd_range(kernel, (64,), (64,))  # translate the kernel
    sync_launches = 64

    def synchronous():
        for _ in range(sync_launches):
            queue.enqueue_nd_range(kernel, (64,), (64,))

    def queued():
        # a tenant has 56 descriptor slots, so queue in batches
        for _ in range(batches):
            for _ in range(batch):
                queue.enqueue_nd_range_async(kernel, (64,), (64,))
            context.platform.driver.drain()

    return {
        "gpu.jobmanager.null_launch_us":
            _best(synchronous, repeats) / sync_launches * 1e6,
        "driver.kbase.async_us_per_job":
            _best(queued, max(1, repeats // 2)) / (batch * batches) * 1e6,
    }


def snapshot(platform, repeats):
    calls = 20

    def dump():
        for _ in range(calls):
            platform.stats_registry.snapshot()

    return {"instrument.snapshot_us": _best(dump, repeats) / calls * 1e6}


def checkpoint(platform, scratch):
    """``checkpoint``: save and restore the platform a workload left."""
    directory = os.path.join(scratch, "checkpoint")
    shutil.rmtree(directory, ignore_errors=True)
    try:
        start = time.perf_counter()
        platform.save_checkpoint(directory)
        saved = time.perf_counter()
        MobilePlatform.restore_checkpoint(directory)
        restored = time.perf_counter()
        size = sum(os.path.getsize(os.path.join(directory, name))
                   for name in os.listdir(directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"checkpoint.save_s": saved - start,
            "checkpoint.restore_s": restored - saved,
            "checkpoint.bytes": size}


def _sgemm_run(dims, engine, instrument=True, fast_path=True):
    context = fresh_context(engine, instrument=instrument)
    context.platform.gpu.mmu.fast_path_enabled = fast_path
    gc.collect()
    result = get_workload("sgemm", **dims).run(context=context)
    if not result.verified:
        raise RuntimeError(f"sgemm failed verification on {engine}")
    return result, context


def engine_ladder(workload, smoke):
    """``gpu.engine``: one fixed sgemm on all four tiers, which must
    report identical golden statistics."""
    dims = SMOKE_DIMS if smoke else LADDER_DIMS
    out, golden = {}, None
    for tier, engine, fast_path in (
            ("scalar", "interpreter", False), ("interp", "interpreter", True),
            ("jit", "jit", True), ("mega", "mega", True)):
        _sgemm_run(dims, engine, fast_path=fast_path)  # warm-up
        result, context = _sgemm_run(dims, engine, fast_path=fast_path)
        stats = context.platform.stats_registry.snapshot(golden_only=True)
        if golden is None:
            golden = stats
        elif stats != golden:
            raise RuntimeError(f"golden statistics differ on the {tier} tier")
        out[f"gpu.engine.{tier}_ns_per_instr"] = (
            result.total_seconds / stats["gpu.job.total_instrs"] * 1e9)
    return out


def instrument_overhead(workload, smoke):
    """``instrument``: what collecting statistics costs, as alternating
    off/on pairs, reported with its spread and never gated — the effect
    is smaller than the host's noise."""
    dims = SMOKE_DIMS if smoke else OVERHEAD_DIMS
    pairs = 2 if smoke else OVERHEAD_PAIRS
    _sgemm_run(dims, "mega")
    fractions = []
    for pair in range(pairs):
        order = (False, True) if pair % 2 == 0 else (True, False)
        seconds = {}
        for instrument in order:
            result, _ = _sgemm_run(dims, "mega", instrument=instrument)
            seconds[instrument] = result.total_seconds
        fractions.append(seconds[True] / seconds[False] - 1.0)
    q1, _, q3 = (statistics.quantiles(fractions, n=4)
                 if len(fractions) > 1 else (fractions[0],) * 3)
    return {"instrument.overhead_frac": statistics.median(fractions),
            "instrument.overhead_iqr": q3 - q1}


def farm(workload, smoke):
    """``validate.farm``: what the campaign machinery costs around the
    simulation — one worker against ``min(2, nproc)``, the start-up of a
    one-case campaign, and cases that simulate almost nothing."""
    from repro.validate.farm import run_farm

    empty_cases = 4 if smoke else 16

    def campaign(count):
        return {"name": "e2e-empty", "shard_size": 2, "sweeps": [
            {"kind": "selftest", "behaviors": ["ok"], "count": count}]}

    def timed(config, workers):
        start = time.perf_counter()
        run = run_farm(config, workers=workers)
        if not run.ok:
            raise RuntimeError("farm micro-campaign did not pass")
        return time.perf_counter() - start

    cases = len(workload.cases)
    one = timed(workload.config, 1)
    many = timed(workload.config, workload.workers)
    startup = timed(campaign(1), workload.workers)
    empty = timed(campaign(empty_cases), workload.workers)
    return {
        "validate.farm.w1_cases_per_s": cases / one,
        "validate.farm.scaling": one / many,
        "validate.farm.startup_s": startup,
        "validate.farm.empty_case_ms": empty / empty_cases * 1e3,
    }


#: the micro-timings too long to repeat in all six traced runs, by the
#: workload whose run takes them
ASSIGNED = {"gemm_mega": instrument_overhead, "gemm_interp": engine_ladder,
            "farm_sweep": farm}


def run(workload, context, scratch, smoke=False):
    """Every micro-timing due in *workload*'s traced run; *context* is
    the one its last iteration left (``None`` for the farm)."""
    repeats = 2 if smoke else 5
    warm = fresh_context(workload.engine)
    out = {}
    out.update(memory(warm.platform, repeats))
    out.update(mmu(warm, repeats, quads=128 if smoke else 1024))
    out.update(guest_cpu(repeats, nbytes=(4 if smoke else 64) * 1024))
    out.update(launches(warm, repeats))
    out.update(snapshot(warm.platform, repeats))
    if context is not None:
        out.update(checkpoint(context.platform, scratch))
    if workload.name in ASSIGNED:
        out.update(ASSIGNED[workload.name](workload, smoke))
    return out
