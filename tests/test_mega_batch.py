"""Tests: lockstep batches of workgroups on the mega tier.

The Job Manager hands the mega engine as many consecutive workgroups as
fill ``BATCH_LANES`` lanes; they run side by side in one register file
behind the MMU's batch port, which buffers stores and abandons the batch
at the first access that running the groups one after another could have
answered differently. Whatever it does — commit or abandon — must be what
the reference order does: memory image, retired registers, ``JobStats``,
``translations`` and ``pages_accessed`` equal mega one group at a time
and the interpreter, bit for bit.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform
from repro.errors import JobFault
from repro.gpu import megakernel
from repro.gpu.isa import REG_GROUP_FLAT
from repro.gpu.mmu import BatchAbandoned
from repro.gpu.shadercore import ComputeUnit
from repro.instrument.stats import job_stats
from repro.kernels import WORKLOADS, get_workload
from repro.kernels.replayable import REPLAYABLE
from repro.mem import PAGE_SIZE
from repro.validate.corpus import dict_to_case, load_entries
from repro.validate.runner import DifferentialRunner, make_kernel_case

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


# -- observation ------------------------------------------------------------------


@pytest.fixture
def batches(monkeypatch):
    """Every batch mega is asked to run while installed, as ``(first
    group, count, reason it was abandoned for or None)``."""
    seen = []
    run = megakernel.MegaKernel.run_workgroup

    def recording(self, shape, flat_group, budget=None, count=1, **job):
        if count == 1:
            return run(self, shape, flat_group, budget, **job)
        try:
            warps = run(self, shape, flat_group, budget, count, **job)
        except BatchAbandoned as abandoned:
            seen.append((flat_group, count, abandoned.reason))
            raise
        seen.append((flat_group, count, None))
        return warps

    monkeypatch.setattr(megakernel.MegaKernel, "run_workgroup", recording)
    return seen


def _record_retired(patch):
    """A digest of every warp the compute units retire from here on
    (live lanes' registers and temporaries, in dispatch order): the same
    bytes whether a call retired one group or a batch of them."""
    digest = hashlib.sha256()
    run = ComputeUnit.run_workgroup

    def recording(self, *args):
        warps = run(self, *args)  # none from an abandoned batch
        for warp in warps:
            digest.update(warp.regs[warp.live].tobytes())
            digest.update(warp.temps[warp.live].tobytes())
        return warps

    patch.setattr(ComputeUnit, "run_workgroup", recording)
    return digest


def _observe(monkeypatch, mode, run, one_at_a_time=False):
    """What ``run(platform)`` leaves behind on a fresh *mode* platform
    that must not depend on how its workgroups were grouped; with
    *one_at_a_time* no row fits two workgroups, so every group takes
    today's path."""
    platform = MobilePlatform.for_mode(mode)
    with monkeypatch.context() as patch:
        if one_at_a_time:
            patch.setattr(megakernel, "BATCH_LANES", 0)
        registers = _record_retired(patch)
        error = run(platform)
    image = hashlib.sha256()
    for chunk in platform.memory.dump_pages():  # backed pages, zero or not
        image.update(chunk)
    unit = platform.gpu.job_manager.unit
    return {
        "error": error,
        "memory": image.hexdigest(),
        "registers": registers.hexdigest(),
        "golden": platform.stats_registry.snapshot(golden_only=True),
        "pages": frozenset(platform.gpu.mmu.pages_accessed),
    }, (unit.batches_run, unit.batches_abandoned)


def _assert_grouping_invisible(monkeypatch, run):
    """Batched == one group at a time == interpreter; returns the
    batched run's ``(batches run, abandoned)``."""
    batched, counts = _observe(monkeypatch, "mega", run)
    single, none = _observe(monkeypatch, "mega", run, one_at_a_time=True)
    assert none == (0, 0)
    reference, _ = _observe(monkeypatch, "interpreter", run)
    for other in (single, reference):
        for key, value in batched.items():
            assert value == other[key], key
    return counts


# -- every shipped kernel ------------------------------------------------------------


def _workload(build):
    def run(platform):
        workload = build()
        try:
            assert workload.run(context=Context(platform)).verified
        except JobFault as fault:
            assert workload.expects_failure
            return str(fault)
        return None

    return run


#: the ``WORKLOADS`` whose kernels load or store ``__local`` memory: each
#: slot of a batch has its own slab, so they run batched too
LOCAL_MEMORY = {"BinomialOption", "MatrixTranspose", "Reduction",
                "ScanLargeArrays", "clblas_sgemm"}


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda name=name: get_workload(name), id=name)
      for name in sorted(WORKLOADS)),
    *(pytest.param(cls, id=f"replayable-{name}")
      for name, cls in sorted(REPLAYABLE.items()))])
def test_shipped_kernels_batched_equal_the_reference_order(build,
                                                           monkeypatch,
                                                           request):
    """``WORKLOADS`` and ``REPLAYABLE`` on a full platform: the physical
    memory image (backed pages included), every retired register, every
    golden statistic and the set of pages the GPU touched."""
    run, abandoned = _assert_grouping_invisible(monkeypatch,
                                                _workload(build))
    assert abandoned <= run
    if request.node.callspec.id in LOCAL_MEMORY:
        assert run > 0


def test_slam_express_batched_equals_the_reference_order(monkeypatch):
    from repro.slam import KFusionPipeline

    def run(platform):
        KFusionPipeline("express").run_gpu(context=Context(platform))

    # (groups of the job, groups of the call) of every mega call of the
    # pipeline's one kernel with a local slab, reduce_sum, that starts a
    # job of the batched run
    reduce_sum = []
    record = megakernel.MegaKernel.run_workgroup

    def recording(self, shape, flat_group, budget=None, count=1,
                  local=None, **job):
        if local is not None and local.shape[1] and not flat_group \
                and megakernel.BATCH_LANES:
            reduce_sum.append((shape.total_groups, count))
        return record(self, shape, flat_group, budget, count, local=local,
                      **job)

    monkeypatch.setattr(megakernel.MegaKernel, "run_workgroup", recording)
    ran, abandoned = _assert_grouping_invisible(monkeypatch, run)
    # every stage runs batched and commits, reduce_sum's too
    assert ran >= 10 and not abandoned
    assert any(groups > 1 for groups, _ in reduce_sum)
    assert all(count > 1 for groups, count in reduce_sum if groups > 1)


# -- the conformance corpus, and the three planted conflicts ---------------------------


def _run_three_ways(case, monkeypatch):
    """*case* through the differential runner on the interpreter, mega
    batched and mega one group at a time: registers of every thread,
    memory, JobStats, translations and pages all equal."""
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    results, mismatches = runner.run_case(case)
    assert not mismatches, "\n".join(str(m) for m in mismatches)
    with monkeypatch.context() as patch:
        patch.setattr(megakernel, "BATCH_LANES", 0)
        single = runner._run_quad(case, "mega", None)
    mismatches = runner._compare_pair(
        results["mega"], replace(single, engine="mega, one at a time"))
    assert not mismatches, "\n".join(str(m) for m in mismatches)
    return results["mega"]


_ENTRIES = [pytest.param(entry, id=os.path.basename(path))
            for path, entry in load_entries(CORPUS)
            if entry.get("expect", "match") == "match"]


@pytest.mark.parametrize("entry", _ENTRIES)
def test_corpus_entries_batched_equal_the_reference_order(
        entry, monkeypatch, batches):
    _run_three_ways(dict_to_case(entry), monkeypatch)
    planted = entry["name"].partition("batch-")[2]
    if planted:
        # group 1 loads what group 0 stored / group 0 stores what group
        # 1 loaded earlier / two groups store one word from different
        # clauses: each must abandon, for its own rule
        assert batches == [(0, 4, planted)]
    else:  # atomics never batch; what does, commits
        assert all(reason is None for *_, reason in batches)


# -- a batch on a bare unit -------------------------------------------------------------

# stores to b are buffered clause by clause; the *last* clause stores
# the words the next group loaded at the start (rule S)
_LATE_CONFLICT = """
__kernel void k(__global int* a, __global int* b, int n) {
    int i = get_global_id(0);
    int v = a[(i + n - 8) % n];
    b[i] = v * 3;
    b[i + n] = v + i;
    if (get_group_id(0) > 0) {
        a[i] = v + 1;
    }
}
"""


def _late_conflict(context, n=64):
    queue = CommandQueue(context)
    a = context.buffer_from_array(np.arange(n, dtype=np.int32) * 7)
    b = context.alloc_buffer(8 * n)  # not backed until the GPU stores
    kernel = context.build_program(_LATE_CONFLICT).kernel("k")
    kernel.set_args(a, b, n)
    queue.enqueue_nd_range(kernel, (n,), (8,))
    return np.concatenate([queue.enqueue_read_buffer(a, np.int32),
                           queue.enqueue_read_buffer(b, np.int32)])


def test_an_abandoned_batch_leaves_no_trace(monkeypatch):
    """Memory (backed pages included), the MMU's counters and the job's
    JobStats (as computed from the unit's records) after a batch
    abandoned in its last clause — stores already buffered — are those
    from before it started."""
    platform = MobilePlatform.for_mode("mega")
    mmu, abandoned = platform.gpu.mmu, []
    run_batch = ComputeUnit._run_batch

    def state(unit, program, shape):
        stats = job_stats(program.clauses, unit.clause_counts,
                          unit.groups_started, shape)
        return (platform.memory.dump_pages(), mmu.translations,
                set(mmu.pages_accessed), mmu.wide_accesses,
                mmu.wide_fallbacks, stats.get_state())

    def checking(self, *args):
        program, _uniforms, _mem, shape = args[:4]
        before = state(self, program, shape)
        warps = run_batch(self, *args)
        if warps is None:
            abandoned.append(args[-2:])
            assert state(self, program, shape) == before
        return warps

    monkeypatch.setattr(ComputeUnit, "_run_batch", checking)
    batched = _late_conflict(Context(platform))
    assert abandoned == [(0, 8)]
    unit = platform.gpu.job_manager.unit
    assert (unit.batches_run, unit.batches_abandoned) == (1, 1)
    reference = _late_conflict(Context(MobilePlatform.for_mode("interpreter")))
    np.testing.assert_array_equal(batched, reference)
    assert platform.stats_registry.snapshot(golden_only=True)[
        "gpu.mmu.translations"] > 0


# -- an abandoned batch costs its job -------------------------------------------------------

# every lane stores to a[to[i]] what it loaded from a[i]: with `to` the
# identity each group keeps to its own words, and a lane sent one word
# past its group stores a word the next group loaded (rule S)
_REDIRECTED = """
__kernel void k(__global int* a, __global const int* to) {
    int i = get_global_id(0);
    a[to[i]] = a[i] * 3 + 1;
}
"""


def test_the_job_after_an_abandoned_batch_starts_batched(monkeypatch,
                                                          batches):
    """Two jobs of one kernel on one platform: the first job's data
    conflicts across groups, the second's does not. Only the first falls
    back to one group at a time; the second commits in one batch, and
    both leave what the reference order leaves."""
    n = 64

    def run(platform):
        context = Context(platform)
        queue = CommandQueue(context)
        kernel = context.build_program(_REDIRECTED).kernel("k")
        a = context.buffer_from_array(np.arange(n, dtype=np.int32) * 5)
        crossing = np.arange(n, dtype=np.int32)
        crossing[7] = 8  # group 0's last lane: group 1's first word
        for to in (crossing, np.arange(n, dtype=np.int32)):
            kernel.set_args(a, context.buffer_from_array(to))
            queue.enqueue_nd_range(kernel, (n,), (8,))

    assert _assert_grouping_invisible(monkeypatch, run) == (2, 1)
    assert batches == [(0, 8, "store-after-load"), (0, 8, None)]


def test_bfs_on_the_job_manager_path_builds_no_quadwarps(monkeypatch):
    """The levels of a frontier crossing a group boundary abandon their
    batches; neither those batches' groups, run one at a time, nor the
    committed ones retire through a ``QuadWarp``."""
    from repro.gpu.warp import QuadWarp

    built = []
    init = QuadWarp.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    platform = MobilePlatform.for_mode("mega")
    monkeypatch.setattr(QuadWarp, "__init__", counting)
    assert get_workload("bfs", n=256).run(context=Context(platform)).verified
    snapshot = platform.stats_registry.snapshot()
    assert snapshot["gpu.jobmanager.batches_abandoned"] > 0
    assert snapshot["gpu.jobmanager.batches_run"] \
        == snapshot["gpu.jobmanager.jobs_retired"]
    assert not built


def test_retired_warps_of_a_batch_span_its_groups_in_order(batches):
    case = make_kernel_case(
        "__kernel void k(__global int* out) {"
        " out[get_global_id(0)] = get_group_id(0); }", "k", (96,), (8,),
        buffers=[np.zeros(96, dtype=np.int32)], name="batch-order")
    flats = []
    run = ComputeUnit.run_workgroup

    def recording(self, *args):
        warps = run(self, *args)
        flats.append([int(warp.regs[0, REG_GROUP_FLAT]) for warp in warps])
        assert all((warp.regs[:, REG_GROUP_FLAT]
                    == warp.regs[0, REG_GROUP_FLAT]).all() for warp in warps)
        return warps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ComputeUnit, "run_workgroup", recording)
        DifferentialRunner(engines=("mega",), trace=False).run_case(case)
    assert batches == [(0, 12, None)]
    # two quads per group, twelve groups, one call
    assert flats == [[group for group in range(12) for _ in range(2)]]


def test_a_job_slice_limit_cuts_a_batch(monkeypatch, batches):
    """JOB_SLICE parks a job after a number of workgroups that is no
    multiple of the batch width: the last batch is cut to the groups
    left, and exactly the reference's groups have run."""
    from repro.driver.kbase import PREEMPTED
    from repro.gpu import regs

    monkeypatch.setattr(megakernel, "BATCH_LANES", 1024)  # 16 groups

    def sliced(mode, n=64 * 40, budget=21):
        platform = MobilePlatform.for_mode(mode).initialize()
        context, driver = Context(platform), platform.driver
        queue = CommandQueue(context)
        kernel = context.build_program(
            "__kernel void fill(__global int* out) {"
            " int i = get_global_id(0); out[i] = i * 3 + 1; }").kernel("fill")
        out = context.alloc_buffer(4 * n)
        queue.enqueue_fill_buffer(out, 0)
        kernel.set_args(out)
        job = queue.enqueue_nd_range_async(kernel, (n,), (64,))
        driver._write(regs.JOB_SLICE, budget)
        driver._job_slice = budget
        assert driver.submit_and_wait(job.descriptor_va) is PREEMPTED
        return queue.enqueue_read_buffer(out, np.int32, count=n)

    batched = sliced("mega")
    assert batches == [(0, 16, None), (16, 5, None)]
    np.testing.assert_array_equal(batched, sliced("interpreter"))
    assert batched[21 * 64 - 1] and not batched[21 * 64:].any()


def _one_clause(tuples, constants):
    """A one-clause program of *tuples* and *constants* that ends."""
    from repro.gpu.isa import Clause, Program, Tail

    built = Program(clauses=[Clause(tuples=tuples, constants=constants,
                                    tail=Tail.END)])
    built.validate()
    return built


class _QuietPort:
    """A wide-capable memory port that is never accessed."""

    def load_wide_u32(self, vaddrs, lanes=None):
        return None

    def store_wide_u32(self, vaddrs, values, lanes=None):
        return None


def test_programs_alternating_on_one_register_file_keep_their_constants():
    """A narrow program's constant rows are register words of a wider
    layout: a wide constant-free program in between writes them, and the
    narrow one must start from its own constants again, not from what
    was left there."""
    from repro.gpu.isa import CONST_BASE, REG_LOCAL_ID, Instruction, Op
    from repro.gpu.shadercore import WorkgroupShape

    # r0..r15 <- the local id (no lane of 16..63 reads zero): no constants
    wide = _one_clause(
        [(Instruction(Op.MOV, dst=2 * pair, srca=REG_LOCAL_ID),
          Instruction(Op.MOV, dst=2 * pair + 1, srca=REG_LOCAL_ID))
         for pair in range(8)], [])
    narrow = _one_clause([(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                           Instruction(Op.MOV, dst=1, srca=CONST_BASE + 1))],
                         [0x5EED, 0xFEED])

    unit = ComputeUnit("mega")
    unit.prepare(64, instrument=False)
    uniforms, mem = np.zeros(4, dtype=np.uint32), _QuietPort()
    files = set()
    shapes = {id(wide): WorkgroupShape((64, 1, 1), (64, 1, 1)),
              id(narrow): WorkgroupShape((8, 1, 1), (8, 1, 1))}
    for which in (wide, narrow, wide, narrow, wide, narrow):
        warps = unit.run_workgroup(which, uniforms, mem, shapes[id(which)],
                                   0)
        files.add(id(unit._mega.file))
        if which is narrow:
            for warp in warps:
                assert (warp.regs[:, 0] == 0x5EED).all()
                assert (warp.regs[:, 1] == 0xFEED).all()
        else:
            lanes = np.concatenate([warp.regs[:, 7] for warp in warps])
            np.testing.assert_array_equal(lanes, np.arange(64))
    assert files == {id(megakernel.register_file())}


def test_host_threads_never_share_a_register_file():
    """A run rewrites its register file's rows and views, so the units
    of each host thread run in a file of that thread's: units on racing
    threads (more threads than cores, a short switch interval), each
    running a program of its own constant, retire their own value."""
    import sys
    import threading

    from repro.gpu.isa import CONST_BASE, Instruction, Op
    from repro.gpu.shadercore import WorkgroupShape

    shape = WorkgroupShape((64, 1, 1), (64, 1, 1))
    files, wrong = [], []

    def worker(constant):
        program = _one_clause([(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                                Instruction(Op.MOV, dst=1, srca=0))],
                              [constant])
        unit = ComputeUnit("mega")
        unit.prepare(64, instrument=False)
        for _ in range(40):
            warps = unit.run_workgroup(program, np.zeros(4, dtype=np.uint32),
                                       _QuietPort(), shape, 0)
            got = {int(v) for warp in warps for v in warp.regs[:, 1]}
            if got != {constant}:
                wrong.append((constant, got))
        files.append(unit._mega.file)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(0xC0DE + n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert len({id(file) for file in files}) == len(threads)
    assert megakernel.register_file() not in files


# -- pages a batch must leave to the reference -------------------------------------------


def _paged_case(words=3 * PAGE_SIZE // 4):
    """Every group writes its own 64 bytes of a three-page buffer."""
    return make_kernel_case(
        "__kernel void k(__global int* out, int stride) {"
        " int i = get_global_id(0); out[i * stride] = i + 1; }", "k",
        (192,), (16,), buffers=[np.zeros(words, dtype=np.int32)],
        scalars=[words // 192], name="batch-pages")


def test_a_read_only_page_inside_a_batch_takes_the_reference_fault_path(
        monkeypatch, batches):
    """The middle page loses its write permission: the batch abandons at
    the port, and one group at a time every engine raises the fault of
    the same lane."""
    from repro.mem import PageTableBuilder, PTE_READ

    map_page = PageTableBuilder.map_page
    case = _paged_case()
    middle = case.regions[0][1] + PAGE_SIZE

    def read_only_middle(self, va, frame, flags):
        map_page(self, va, frame, PTE_READ if va == middle else flags)

    monkeypatch.setattr(PageTableBuilder, "map_page", read_only_middle)
    runner = DifferentialRunner(engines=("interp", "mega"), trace=False)
    results, mismatches = runner.run_case(case)
    assert batches == [(0, 12, "port")]
    assert [m.kind for m in mismatches] == ["crash", "crash"]
    assert results["interp"].error == results["mega"].error
    assert "permission denied" in results["mega"].error


def test_a_grow_on_fault_page_inside_a_batch_grows_on_the_reference_path(
        monkeypatch, batches):
    """A heap region grows page by page under the GPU's stores: the
    batch meets an unmapped page and abandons, the same groups then
    fault, grow and resume exactly as on the interpreter."""
    monkeypatch.setattr(megakernel, "BATCH_LANES", 1024)  # 16 groups
    grown = []

    def run(platform):
        workload = REPLAYABLE["fillseq"](n=4 * PAGE_SIZE // 4)
        assert workload.run(context=Context(platform)).verified
        grown.append(platform.driver.pages_grown)

    # the region's first page is committed up front: its groups commit
    assert _assert_grouping_invisible(monkeypatch, run) == (2, 1)
    assert batches == [(0, 16, None), (16, 16, "port")]
    assert grown[0] and grown == [grown[0]] * 3


# -- a batch the port has no room for -------------------------------------------------------

# group g writes its eight words on page g * stride of `out`, after
# `rounds` stores to its own words of `scratch`
_SPREAD = """
__kernel void k(__global int* out, __global int* scratch, int stride,
                int rounds) {
    int i = get_global_id(0);
    for (int r = 0; r < rounds; r++) {
        scratch[i] = i * r;
    }
    out[get_group_id(0) * stride * 1024 + get_local_id(0)] = i + 1;
}
"""


def _spread(platform, groups=16, stride=40, rounds=1, jobs=2):
    """*jobs* launches of :data:`_SPREAD` over *groups* groups of eight
    lanes; returns the words the groups wrote."""
    context = Context(platform)
    queue = CommandQueue(context)
    kernel = context.build_program(_SPREAD).kernel("k")
    out = context.alloc_buffer(groups * stride * PAGE_SIZE)
    scratch = context.alloc_buffer(4 * 8 * groups)
    for _ in range(jobs):
        kernel.set_args(out, scratch, stride, rounds)
        queue.enqueue_nd_range(kernel, (8 * groups,), (8,))
    words = queue.enqueue_read_buffer(out, np.int32)
    return words.reshape(groups, -1)[:, :8].tolist()


@pytest.mark.parametrize("limit, spread, reason", [
    # eight groups 40 pages apart need a 512-page window, four 128
    ("_PORT_PAGES", {"stride": 40}, "port-full"),
    # eight groups of eight lanes buffer 8 x 768 bytes of stores
    ("_STORE_BUFFER_BYTES", {"stride": 1, "rounds": 7}, "store-bound"),
])
def test_a_capacity_abandon_retries_at_half_width(monkeypatch, batches,
                                                  limit, spread, reason):
    """A batch that only ran out of port capacity runs again at half the
    width, and the rest of its job no wider; the next job starts at
    full width again. Whatever the grouping, the memory image, golden
    statistics and pages are the reference order's."""
    from repro.gpu import mmu as mmu_module

    assert mmu_module._PORT_PAGES == 256
    monkeypatch.setattr(megakernel, "BATCH_LANES", 64)  # eight groups
    if limit == "_STORE_BUFFER_BYTES":
        monkeypatch.setattr(mmu_module, limit, 4096)
    written = []

    def run(platform):
        written.append(_spread(platform, **spread))

    assert _assert_grouping_invisible(monkeypatch, run) == (10, 2)
    job = [(0, 8, reason), (0, 4, None), (4, 4, None), (8, 4, None),
           (12, 4, None)]
    assert batches == job + job
    assert written[0] == [[8 * g + lane + 1 for lane in range(8)]
                          for g in range(16)]
    assert written == [written[0]] * 3


def test_a_port_that_stays_full_runs_its_groups_alone(monkeypatch,
                                                      batches):
    """Two groups 256 pages apart fit no window: the width halves down
    to one group at a time."""
    monkeypatch.setattr(megakernel, "BATCH_LANES", 32)  # four groups

    def run(platform):
        _spread(platform, groups=4, stride=256, jobs=1)

    assert _assert_grouping_invisible(monkeypatch, run) == (2, 2)
    assert batches == [(0, 4, "port-full"), (0, 2, "port-full")]


def test_the_job_manager_path_takes_no_snapshot(monkeypatch):
    """Nobody reads the warps a job retires through a Context: a batched
    sgemm and bfs (whose abandoned batches run again one group at a
    time) read them off the register file's own rows, never a copy."""
    owned = []
    init = megakernel.RetiredWarps.__init__

    def recording(self, rows, shape):
        owned.append(rows.flags.owndata)
        init(self, rows, shape)

    monkeypatch.setattr(megakernel.RetiredWarps, "__init__", recording)
    platform = MobilePlatform.for_mode("mega")
    context = Context(platform)
    assert get_workload("sgemm", m=128, k=64, n=128).run(
        context=context).verified
    assert get_workload("bfs", n=1024, chord_every=64).run(
        context=context).verified
    unit = platform.gpu.job_manager.unit
    assert unit.batches_run > unit.batches_abandoned > 0
    assert owned and not any(owned)


# -- random cross-group traffic ------------------------------------------------------------

_STEP = st.tuples(st.sampled_from(["load", "store"]),
                  st.sampled_from(["x", "y"]),
                  st.sampled_from(["all", "lane", "group"]))
_THREADS = 32


def _traffic_source(steps):
    """Two buffers, one access per step, each through its own index map
    (row ``k`` of ``maps``, never stored): loads fold into ``acc``,
    stores write a value that names the thread and the step."""
    lines = ["__kernel void k(__global int* x, __global int* y,",
             "                __global int* maps, int n) {",
             "    int i = get_global_id(0);",
             "    int g = get_group_id(0);",
             "    int acc = i * 5 + 1;"]
    guards = {"all": "{}", "lane": "if (i & 1) {{ {} }}",
              "group": "if (g & 1) {{ {} }}"}
    for k, (kind, buffer, guard) in enumerate(steps):
        at = f"{buffer}[maps[{k} * n + i]]"
        access = f"acc += {at};" if kind == "load" \
            else f"{at} = acc * 3 + {k};"
        lines.append("    " + guards[guard].format(access))
    lines += ["    y[n + i] = acc;", "}"]
    return "\n".join(lines)


def _traffic_data(draw, steps):
    """``(maps, seed)`` of one launch of the kernel of *steps*."""
    # mostly group-private targets, so that batches commit too
    private = draw(st.booleans())
    index = st.integers(0, _THREADS - 1)
    maps = [[draw(index) if not private or draw(st.integers(0, 9)) == 0
             else thread for thread in range(_THREADS)] for _ in steps]
    return maps, draw(st.integers(0, 2 ** 31 - 1))


@st.composite
def _traffic(draw):
    steps = draw(st.lists(_STEP, min_size=1, max_size=4))
    return steps, *_traffic_data(draw, steps)


def _check_traffic(example):
    steps, maps, seed = example
    rng = np.random.default_rng(seed)
    # one quad per group: what a group's own lanes see of each other is
    # lockstep on every engine, so any difference is between groups
    case = make_kernel_case(
        _traffic_source(steps), "k", (_THREADS,), (4,),
        buffers=[rng.integers(0, 99, _THREADS).astype(np.int32),
                 rng.integers(0, 99, 2 * _THREADS).astype(np.int32),
                 np.array(maps, dtype=np.int32).reshape(-1)],
        scalars=[_THREADS], name="batch-traffic")
    with pytest.MonkeyPatch.context() as patch:
        _run_three_ways(case, patch)


@given(_traffic())
@settings(max_examples=40, deadline=None)
def test_random_cross_group_traffic_equals_the_reference_order(example):
    _check_traffic(example)


@pytest.mark.fuzz
@given(_traffic())
@settings(max_examples=2000, deadline=None)
def test_random_cross_group_traffic_campaign(example):
    _check_traffic(example)


@st.composite
def _traffic_jobs(draw):
    """One kernel of :func:`_traffic`, launched two or three times, each
    with its own index maps and data."""
    steps = draw(st.lists(_STEP, min_size=1, max_size=4))
    return steps, [_traffic_data(draw, steps)
                   for _ in range(draw(st.integers(2, 3)))]


def _check_traffic_jobs(example):
    """Consecutive jobs on one platform, two batches of four groups
    each: one job's abandon leaves the next job batched, and costs at
    most the rest of its own job."""
    steps, jobs = example

    def run(platform):
        context = Context(platform)
        queue = CommandQueue(context)
        kernel = context.build_program(_traffic_source(steps)).kernel("k")
        for maps, seed in jobs:
            rng = np.random.default_rng(seed)
            kernel.set_args(*(context.buffer_from_array(data) for data in (
                rng.integers(0, 99, _THREADS).astype(np.int32),
                rng.integers(0, 99, 2 * _THREADS).astype(np.int32),
                np.array(maps, dtype=np.int32).reshape(-1))), _THREADS)
            queue.enqueue_nd_range(kernel, (_THREADS,), (4,))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(megakernel, "BATCH_LANES", 16)
        ran, abandoned = _assert_grouping_invisible(patch, run)
    assert abandoned <= len(jobs) <= ran


@given(_traffic_jobs())
@settings(max_examples=15, deadline=None)
def test_random_cross_group_traffic_over_jobs_equals_the_reference_order(
        example):
    _check_traffic_jobs(example)


@pytest.mark.fuzz
@given(_traffic_jobs())
@settings(max_examples=500, deadline=None)
def test_random_cross_group_traffic_over_jobs_campaign(example):
    _check_traffic_jobs(example)


# -- what a trace shows of a batch ----------------------------------------------------------


def test_a_batch_is_one_workgroup_span_and_an_abandon_an_instant():
    from repro.instrument import EventTracer

    platform = MobilePlatform.for_mode("mega")
    tracer = EventTracer()
    platform.attach_events(tracer)
    _late_conflict(Context(platform))
    events = tracer.events()
    spans = [event["args"] for event in events
             if event["name"] == "workgroup" and event["ph"] == "B"]
    # the batch, then its eight groups one at a time
    assert spans[0] == {"group": 0, "groups": 8, "warps": 16}
    assert [span["group"] for span in spans[1:]] == list(range(8))
    (abandoned,) = [event for event in events
                    if event["name"] == "batch_abandoned"]
    jobmanager = {event["tid"] for event in events
                  if event["name"] == "job"}
    assert abandoned["ph"] == "i" and {abandoned["tid"]} == jobmanager
    assert abandoned["args"] == {"reason": "store-after-load", "group": 0}


# -- the port alone ---------------------------------------------------------------------------

_BASE = 0x40_0000


def _port(count=2, lanes=4, pages=8, holes=()):
    """A batch port over *pages* consecutive read-write pages (all but
    *holes*), word ``i`` holding ``i``; slots of *lanes* lanes each."""
    from repro.gpu.mmu import GPUMMU
    from repro.mem import PTE_READ, PTE_WRITE, PageTableBuilder, \
        PhysicalMemory

    memory = PhysicalMemory(1 << 22)
    frames = iter(range(0x10_0000, 0x20_0000, PAGE_SIZE))
    builder = PageTableBuilder(memory, lambda: next(frames))
    words = np.arange(pages * PAGE_SIZE // 4, dtype=np.uint32)
    for page in range(pages):
        if page not in holes:
            frame = 0x20_0000 + 2 * page * PAGE_SIZE
            builder.map_page(_BASE + page * PAGE_SIZE, frame,
                             PTE_READ | PTE_WRITE)
            memory.write_block(frame, words[page * 1024:(page + 1) * 1024]
                               .tobytes())
    mmu = GPUMMU(memory)
    mmu.set_page_table(builder.root)
    mmu.enabled = True
    return mmu, mmu.begin_batch(count, lanes)


def _words(*indices):
    return _BASE + 4 * np.array(indices, dtype=np.int64)


def test_port_serves_loads_from_the_start_and_applies_stores_at_commit():
    mmu, port = _port()
    across = _words(1022, 1023, 1024, 1025, 5, 5, 2048, 2049)
    np.testing.assert_array_equal(port.load_wide_u32(across),
                                  (across - _BASE) >> 2)
    own = _words(*range(3000, 3008))
    assert port.store_wide_u32(own, np.arange(8, dtype=np.uint32) + 70)
    assert mmu.translations == 0 and not mmu.pages_accessed
    assert mmu.load_u32(int(own[3])) == 3003  # nothing has left the port
    before = mmu.translations
    port.commit()
    assert mmu.translations == before + 16 and mmu.wide_accesses == 2
    assert {page - (_BASE >> 12) for page in mmu.pages_accessed} \
        == {0, 1, 2}
    assert mmu.load_u32(int(own[3])) == 73


def test_port_window_that_grows_keeps_its_shadows():
    """Slot 1 loads a word; a later access leaves the window, which is
    rebuilt over both; slot 0 storing that word still trips rule S."""
    _, port = _port()
    port.load_wide_u32(_words(0, 1, 2, 3, 10, 11, 12, 13))
    port.load_wide_u32(_words(1000, 1001, 1002, 1003,
                              3000, 3001, 3002, 3003))
    assert port.store_wide_u32(  # slot 1 may store what slot 0 loaded
        _words(20, 21, 22, 23, 0, 1, 2, 3), np.zeros(8, np.uint32))
    with pytest.raises(BatchAbandoned, match="store-after-load"):
        port.store_wide_u32(_words(10, 21, 22, 23, 30, 31, 32, 33),
                            np.zeros(8, np.uint32))


@pytest.mark.parametrize("access, reason", [
    (lambda port: port.load_wide_u32(_words(0, 1, 2, 3, 4, 5, 6, 7) + 2),
     "port"),   # unaligned lanes
    (lambda port: port.load_wide_u32(_words(0, 1, 2, 3, 4, 5, 6, 3 * 1024)),
     "port"),   # a lane on an unmapped page
    (lambda port: port.load_wide_u32(_words(0, 1, 2, 3, 4, 5, 6, 1 << 24)),
     "port"),   # more window than the port has
    (lambda port: [port.store_wide_u32(_words(*range(i, i + 8)),
                                       np.zeros(8, np.uint32))
                   for i in range(0, 1024, 8)], "store-bound"),
])
def test_port_abandons_what_it_cannot_promise(monkeypatch, access, reason):
    from repro.gpu import mmu as mmu_module

    monkeypatch.setattr(mmu_module, "_STORE_BUFFER_BYTES", 4096)
    _, port = _port(holes=(3,))
    with pytest.raises(BatchAbandoned, match=reason):
        access(port)


def test_port_pages_between_the_lanes_are_not_the_batch_s(monkeypatch):
    """A strided access makes one window over pages it never touches
    (one of them unmapped): only the touched pages are counted, backed
    or checked."""
    mmu, port = _port(holes=(1,))
    strided = _words(0, 1, 2, 3, 2048, 2049, 2050, 2051)
    np.testing.assert_array_equal(port.load_wide_u32(strided),
                                  (strided - _BASE) >> 2)
    port.commit()
    assert {page - (_BASE >> 12) for page in mmu.pages_accessed} == {0, 2}
