"""The six benchmark workloads.

Each class generates its inputs from the seed (the simulator only ever
sees generated inputs), knows how to run one closed-loop iteration on a
fresh platform, and checks the outputs against the NumPy oracle. The
seed changes the *data* a workload touches, never the *amount of work*:
a run-to-run difference must come from the code under test, not from
the draw (BFS depth, for one, swings by 70% across graph seeds).

``FULL`` sizes are what the benchmark measures; ``SMOKE`` sizes exist so
``test_e2e.py`` can exercise every code path in seconds.
"""

import hashlib
import json
import os
import time
from contextlib import nullcontext

import numpy as np

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig
from repro.kernels import get_workload
from repro.slam import KFusionPipeline

HERE = os.path.dirname(os.path.abspath(__file__))

FULL = {
    "gemm_mega": {"m": 128, "k": 64, "n": 128},
    "gemm_interp": {"m": 32, "k": 24, "n": 40},
    "bfs_mega": {"n": 1024, "chord_every": 64},
    "copy_dbt": {"nbytes": 512 * 1024},
    "slam_mega": {"config": "fast3"},
    "farm_sweep": {"conformance_seeds": 6, "budget": 5, "selftests": 8},
}
SMOKE = {
    "gemm_mega": {"m": 16, "k": 8, "n": 24},
    "gemm_interp": {"m": 16, "k": 8, "n": 24},
    "bfs_mega": {"n": 128, "chord_every": 16},
    "copy_dbt": {"nbytes": 8 * 1024},
    "slam_mega": {"config": "express"},
    "farm_sweep": {"conformance_seeds": 1, "budget": 2, "selftests": 2,
                   "skip": ["fault"]},
}


def fresh_context(engine="mega", cpu_engine="dbt", instrument=True):
    """A new platform and CL context: single-threaded simulator, so the
    benchmark never has more busy processes than it says it has."""
    gpu = GPUConfig(engine=engine, num_host_threads=1,
                    instrument=instrument)
    return Context(MobilePlatform(PlatformConfig(gpu=gpu,
                                                 cpu_engine=cpu_engine)))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


class Workload:
    """What the harness asks of a workload: ``context()`` (the fresh
    platform an iteration runs on), ``iterate(context, tracer)`` (the
    timed region; returns outputs and the queue's profiling events),
    ``check(outputs)`` (operations attempted, failed), and ``work`` /
    ``golden`` (counts and golden statistics of the iteration)."""

    engine = "mega"  # GPU engine of the platforms built for this workload
    #: seconds spent generating inputs and running the oracle, outside
    #: the timed region
    prepare_s = 0.0
    reference_s = 0.0
    #: an alternative ``iterate`` for traced runs, where the normal one
    #: does its work in other processes
    iterate_inprocess = None

    def __init__(self, name, seed, sizes):
        self.name = name
        self.seed = seed
        self.sizes = sizes

    def op_latencies(self, events):
        """Seconds per client-visible operation inside one iteration,
        where the workload has one finer than the iteration itself."""
        return []


class SimulatorWorkload(Workload):
    """Common shape of the five workloads that run on a platform."""

    cpu_engine = "dbt"
    root_span = "kernels.execute"

    def __init__(self, name, seed, sizes):
        super().__init__(name, seed, sizes)
        self.prepare()

    def context(self):
        return fresh_context(self.engine, self.cpu_engine)

    def work(self, context, outputs):
        """Work done by one iteration, read from the program's own
        registry, for the per-second metrics."""
        snapshot = context.platform.stats_registry.snapshot()
        return {
            "gpu_instrs": snapshot["gpu.job.total_instrs"],
            "jobs": snapshot["gpu.jobmanager.jobs_retired"],
            "guest_instrs": snapshot["cpu.core.instructions"],
        }

    def golden(self, context, outputs):
        return context.platform.stats_registry.snapshot(golden_only=True)


class KernelWorkload(SimulatorWorkload):
    """A registered ``repro.kernels`` workload driven through its public
    prepare / execute / reference / check protocol, so only ``execute``
    (the simulator) sits in the timed region."""

    kernel = ""

    def make_inputs(self, workload):
        workload.rng = np.random.default_rng(self.seed)
        return workload.prepare()

    def prepare(self):
        self.workload = get_workload(self.kernel, **self.sizes)
        self.inputs, self.prepare_s = _timed(
            lambda: self.make_inputs(self.workload))
        self.expected, self.reference_s = _timed(
            lambda: self.workload.reference(self.inputs))

    def iterate(self, context, tracer=None):
        # a profiling queue records one event per command: the per-level
        # latencies of bfs_mega come from the program's own clock
        queue = CommandQueue(context, profiling=True)
        with _span(tracer, self.root_span):
            outputs = self.workload.execute(context, queue, self.inputs)
        return outputs, queue.events

    def check(self, outputs):
        return 1, 0 if self.workload.check(outputs, self.expected) else 1


class Gemm(KernelWorkload):
    kernel = "sgemm"


class GemmInterp(Gemm):
    engine = "interpreter"


class Bfs(KernelWorkload):
    kernel = "bfs"

    def make_inputs(self, workload):
        """The workload's own graph with every node id rotated by a
        seed-drawn offset: an isomorphic graph, so the level structure
        (job count, frontier sizes) is the same for every seed while the
        lanes, workgroups and pages that are active all move."""
        base = workload.prepare()
        rows, cols = base["rows"], base["cols"]
        n = len(rows) - 1
        shift = int(np.random.default_rng(self.seed).integers(0, n))
        order = (np.arange(n) - shift) % n  # new node i is old order[i]
        degrees = np.diff(rows)[order]
        new_rows = np.zeros(n + 1, dtype=np.int32)
        new_rows[1:] = np.cumsum(degrees)
        new_cols = np.concatenate(
            [(cols[rows[old]:rows[old + 1]] + shift) % n for old in order])
        return {"rows": new_rows, "cols": new_cols.astype(np.int32),
                "src": (base["src"] + shift) % n}

    def op_latencies(self, events):
        """Seconds from writing the done flag to reading it back, per
        BFS level (the final read of the levels array is not a level)."""
        return [events[i + 2].end - events[i].start
                for i in range(0, len(events) - 2, 3)
                if events[i].kind == "write"
                and events[i + 1].kind == "ndrange"]


class CopyDbt(SimulatorWorkload):
    """The runtime's four transfer commands side by side, no launch."""

    root_span = "bench.copy_loop"
    fill_byte = 0x5A

    def prepare(self):
        nbytes = self.sizes["nbytes"]
        self.payload = np.random.default_rng(self.seed).integers(
            0, 256, nbytes, dtype=np.uint8)

    def iterate(self, context, tracer=None):
        nbytes = self.sizes["nbytes"]
        queue = CommandQueue(context, profiling=True)
        with _span(tracer, self.root_span):
            source = context.alloc_buffer(nbytes)
            target = context.alloc_buffer(nbytes)
            queue.enqueue_write_buffer(source, self.payload)
            queue.enqueue_copy_buffer(source, target)
            copied = queue.enqueue_read_buffer(target)
            queue.enqueue_fill_buffer(source, self.fill_byte)
            filled = queue.enqueue_read_buffer(source, count=64)
        return (copied, filled), queue.events

    def check(self, outputs):
        copied, filled = outputs
        ok = (np.array_equal(copied, self.payload)
              and bool((filled == self.fill_byte).all()))
        return 1, 0 if ok else 1

    def work(self, context, outputs):
        # write + copy + read + fill of the buffer, plus the 64-byte
        # read-back that checks the fill
        return dict(super().work(context, outputs),
                    bytes=4 * self.sizes["nbytes"] + 64)


class _SeededPipeline(KFusionPipeline):
    """KFusion with the depth-sensor noise drawn from the benchmark
    seed; the scene, resolution and iteration counts are unchanged."""

    def __init__(self, config, seed):
        super().__init__(config)
        self.noise_seed = 1234 + 1000 * seed

    def frame_mm(self, index):
        from repro.slam.scene import synthetic_depth_frame

        depth = synthetic_depth_frame(
            self.config.width, self.config.height, frame_index=index,
            seed=self.noise_seed)
        return (depth * 1000.0).astype(np.uint32)


class Slam(SimulatorWorkload):
    root_span = "slam.run_gpu"

    def prepare(self):
        self.pipeline = _SeededPipeline(self.sizes["config"], self.seed)
        (_, self.expected), self.reference_s = _timed(
            self.pipeline.run_native)

    def iterate(self, context, tracer=None):
        with _span(tracer, self.root_span):
            metrics, raycast = self.pipeline.run_gpu(context=context)
        return (metrics, raycast), ()

    def check(self, outputs):
        metrics, raycast = outputs
        # same tolerances as tests/test_slam.py
        ok = (np.allclose(raycast, self.expected, rtol=5e-3, atol=5e-3)
              and bool((raycast > 0).any()) and metrics["kernels"] > 10)
        return 1, 0 if ok else 1

    def work(self, context, outputs):
        return dict(super().work(context, outputs),
                    frames=self.pipeline.config.frames)


class FarmSweep(Workload):
    """A pinned mixed campaign run through ``run_farm``.

    The seed draws which conformance programs run, out of a pool of
    generator seeds on which all three engines agree: the fuzzer does
    find real divergences (generator seed 306000, program 2: interp
    leaves 0x00000000 in r24 where mega leaves 0x80000000), and a
    benchmark workload must be one on which no operation fails. The
    fault-injection seeds stay pinned: they pick where the fault lands,
    which changes how much recovery work a case does.
    """

    CONFORMANCE_POOL = 64  # generator seeds 0..63 pass on interp+fast+mega

    def __init__(self, name, seed, sizes):
        from repro.validate.farm import expand_cases, load_config

        super().__init__(name, seed, sizes)
        self.workers = min(2, os.cpu_count() or 1)
        with open(os.path.join(HERE, "farm_sweep.json")) as handle:
            document = json.load(handle)
        document["sweeps"] = [sweep for sweep in document["sweeps"]
                              if sweep["kind"] not in sizes.get("skip", ())]
        for sweep in document["sweeps"]:
            if sweep["kind"] == "conformance":
                sweep["seeds"] = sorted(
                    int(pick) for pick in np.random.default_rng(seed).choice(
                        self.CONFORMANCE_POOL, sizes["conformance_seeds"],
                        replace=False))
                sweep["budget"] = sizes["budget"]
            elif sweep["kind"] == "selftest":
                sweep["count"] = sizes["selftests"]
        self.config = load_config(document)
        self.cases = expand_cases(self.config)
        self.first_report = None

    def context(self):
        return None  # every case builds its own platform

    def iterate(self, context=None, tracer=None):
        from repro.validate.farm import run_farm

        return run_farm(self.config, workers=self.workers), ()

    def iterate_inprocess(self, context=None, tracer=None):
        """The same cases executed in this process, folded into the same
        report: the campaign's simulation content without its spawn,
        transport and journal."""
        from repro.validate.farm import (
            FarmRun,
            build_report,
            plan_shards,
            report_to_bytes,
        )
        from repro.validate.farm.worker import execute_case

        with _span(tracer, "validate.farm.inprocess"):
            outcomes = {case["id"]: execute_case(case, None)
                        for case in self.cases}
            shards = plan_shards([case["id"] for case in self.cases],
                                 self.config.shard_size)
            report = build_report(self.config, outcomes, shards)
            run = FarmRun(report=report,
                          report_bytes=report_to_bytes(report))
        return run, ()

    def check(self, run):
        """One operation per case (verdict ``pass``) plus one for the
        report, whose bytes must repeat exactly across iterations."""
        report = run.report
        failed = report["totals"]["cases"] - report["totals"]["pass"]
        if self.first_report is None:
            self.first_report = run.report_bytes
        elif run.report_bytes != self.first_report:
            failed += 1
        return report["totals"]["cases"] + 1, failed

    def work(self, context, run):
        return {"cases": run.report["totals"]["cases"]}

    def golden(self, context, run):
        return {"report_sha256":
                hashlib.sha256(run.report_bytes).hexdigest()}


CLASSES = {"gemm_mega": Gemm, "gemm_interp": GemmInterp,
           "bfs_mega": Bfs, "copy_dbt": CopyDbt, "slam_mega": Slam,
           "farm_sweep": FarmSweep}


def make(name, seed=0, smoke=False):
    return CLASSES[name](name, seed, (SMOKE if smoke else FULL)[name])
