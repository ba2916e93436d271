"""Tests: deterministic checkpoint/restore and crash-resilient resume.

The load-bearing assertions: a checkpoint restored into a **fresh
process** finishes bit-identically to a straight run (outputs, golden
stats, carve-out digests) on every engine and under multi-tenancy; a
checkpoint taken mid-``drain`` with a PREEMPTED job requeued in the
arbiter replays exactly; any corrupted checkpoint or farm journal fails
closed with :class:`CheckpointError`; and a farm campaign killed at an
arbitrary point resumes to a byte-identical ``report.json``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointError,
    atomic_write_bytes,
    restore_checkpoint,
    save_checkpoint,
)
from repro.checkpoint.format import MANIFEST_FILE, MEMORY_FILE, STATE_FILE
from repro.checkpoint.harness import (
    ENGINE_MODES,
    compare_records,
    default_spec,
    run_differential,
)
from repro.inject.plan import SITES, FaultPlan, FaultSpec

#: the engine modes, plus ``fast``: a pinned benchmark sweep still names
#: that alias, and the harness spec a checkpoint carries keeps the spelling,
#: so the alias must survive a save/restore round trip like the mode it spells
CHECKPOINT_ENGINES = sorted({*ENGINE_MODES, "fast"})

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

SCALE_SRC = """
__kernel void scale(__global float* out, __global const float* in,
                    float factor) {
    int i = get_global_id(0);
    out[i] = in[i] * factor;
}
"""


# ---------------------------------------------------------------------------
# differential: checkpoint -> restore -> finish == straight run


@pytest.mark.parametrize("engine_mode", CHECKPOINT_ENGINES)
def test_fresh_process_restore_bit_identical_two_tenants(engine_mode):
    """The tentpole contract: save, restore in a brand-new process,
    finish — outputs, golden stats and carve-out digests all equal the
    uninterrupted run's, on every engine, with the arbiter in play."""
    problems = run_differential(
        default_spec(engine_mode=engine_mode, tenants=2),
        fresh_process=True)
    assert problems == []


@pytest.mark.parametrize("engine_mode", CHECKPOINT_ENGINES)
def test_in_process_restore_bit_identical_single_client(engine_mode):
    problems = run_differential(
        default_spec(engine_mode=engine_mode, tenants=0),
        fresh_process=False)
    assert problems == []


# ---------------------------------------------------------------------------
# checkpoint at a preemption boundary (job in flight)


def _two_tenant_platform():
    from repro.core.platform import MobilePlatform, PlatformConfig
    from repro.driver.kbase import TenancyConfig, TenantSpec

    tenancy = TenancyConfig([TenantSpec("fg0", qos="fg"),
                             TenantSpec("bg0", qos="bg")])
    return MobilePlatform(
        PlatformConfig(tenancy=tenancy)).initialize()


def _submit_scale_jobs(platform, size=256):
    """Two async scale jobs per tenant (64 workgroups each at local
    size 4 — enough for the bg QoS slice to force preemptions)."""
    from repro.cl import CommandQueue, Context

    readers = []
    for tenant in platform.driver.tenants:
        context = Context(platform, tenant=tenant)
        queue = CommandQueue(context)
        program = context.build_program(SCALE_SRC)
        for index in range(2):
            rng = np.random.default_rng(
                100 + 10 * tenant.tenant_id + index)
            data = rng.random(size, dtype=np.float32)
            buf_in = context.buffer_from_array(data)
            buf_out = context.alloc_buffer(size * 4)
            kernel = program.kernel("scale")
            kernel.set_arg(0, buf_out)
            kernel.set_arg(1, buf_in)
            kernel.set_arg(2, np.float32(1.5 + index))
            queue.enqueue_nd_range_async(kernel, (size,), (4,))
            readers.append((queue, buf_out))
    return readers


def _final_record(platform):
    memory = platform.memory
    return {
        "golden": platform.stats_registry.snapshot(golden_only=True),
        "carveouts": {name: memory.carveout_digest(name)
                      for name in memory.carveout_names},
    }


def test_checkpoint_mid_drain_with_preempted_job(tmp_path):
    """A checkpoint taken between dispatches — with a soft-stopped job
    requeued as PREEMPTED in the arbiter — restores and finishes
    bit-identically to the uninterrupted run."""
    reference = _two_tenant_platform()
    _submit_scale_jobs(reference)
    reference.driver.drain()
    expected = _final_record(reference)

    platform = _two_tenant_platform()
    _submit_scale_jobs(platform)
    platform.driver.drain(max_dispatches=3)
    queued = [job
              for per_tenant in platform.driver.arbiter._queues.values()
              for backlog in per_tenant.values()
              for job in backlog]
    assert queued, "checkpoint boundary left no queued work"
    assert any(job.preemptions > 0 for job in queued), \
        "expected a PREEMPTED job requeued at the boundary"

    directory = str(tmp_path / "ckpt")
    save_checkpoint(platform, directory)
    del platform

    restored, _extra = restore_checkpoint(directory)
    restored.driver.drain()
    resumed = _final_record(restored)
    assert expected["golden"] == resumed["golden"]
    assert expected["carveouts"] == resumed["carveouts"]


# ---------------------------------------------------------------------------
# state added after the serializer was written must survive: each
# TenantContext's live_regions and the queued jobs' tenant binding


def test_restore_keeps_queued_jobs_and_regions(tmp_path):
    platform = _two_tenant_platform()
    _submit_scale_jobs(platform)
    grown = platform.driver.tenants[0].alloc_region(
        8 * 4096, grow_on_fault=True)
    platform.driver.drain(max_dispatches=1)
    saved_jobs = [job.get_state()
                  for job in platform.driver.arbiter.queued_jobs()]
    assert saved_jobs
    saved_regions = [len(tenant.live_regions)
                     for tenant in platform.driver.tenants]

    directory = str(tmp_path / "ckpt")
    save_checkpoint(platform, directory)
    restored, _extra = restore_checkpoint(directory)
    driver = restored.driver
    assert [job.get_state()
            for job in driver.arbiter.queued_jobs()] == saved_jobs
    assert all(job.tenant is driver.tenants[job.tenant_id]
               for job in driver.arbiter.queued_jobs())
    assert [len(tenant.live_regions)
            for tenant in driver.tenants] == saved_regions
    for tenant in driver.tenants:
        # free_region filters by identity: the restored handles must be
        # the live_regions entries themselves, not equal copies
        assert any(region is tenant._descriptor_region
                   for region in tenant.live_regions)
    twin = next(region for region in driver.tenants[0].live_regions
                if region.gpu_va == grown.gpu_va)
    assert twin.growable and twin == grown
    before = len(driver.tenants[0].live_regions)
    driver.tenants[0].free_region(twin)
    assert len(driver.tenants[0].live_regions) == before - 1
    assert not driver.tenants[0].handle_fault(grown.gpu_va + 4096, "w")


FILL_SRC = """
__kernel void fill(__global int* out, int n) {
    out[get_global_id(0)] = n + get_global_id(0);
}
"""


def _launch_on(platform, tenant_id, source, name, make_args):
    """One synchronous 64-thread launch of kernel *name* of *source* by a
    fresh client of tenant *tenant_id*, its arguments made by
    ``make_args(context)``; returns the client's program."""
    from repro.cl import CommandQueue, Context

    context = Context(platform, tenant=platform.driver.tenant(tenant_id))
    program = context.build_program(source)
    kernel = program.kernel(name)
    kernel.set_args(*make_args(context))
    CommandQueue(context).enqueue_nd_range(kernel, (64,), (8,))
    return program


def _scale_args(context):
    return (context.alloc_buffer(64 * 4),
            context.buffer_from_array(np.arange(64, dtype=np.float32)),
            np.float32(2))


def _fill_args(n):
    return lambda context: (context.alloc_buffer(64 * 4), np.int32(n))


def _ledger_stats(platform):
    golden = platform.stats_registry.snapshot(golden_only=True)
    return {key: value for key, value in golden.items()
            if key.startswith(("gpu.job.", "tenant0.gpu.job.",
                               "tenant1.gpu.job."))}


def test_ledgers_restore_a_program_whose_binary_was_freed(tmp_path,
                                                          monkeypatch):
    """The clause ledgers save each program's image beside its table: a
    program whose binary region was freed before the save restores from
    the checkpoint alone (the process-wide decode table emptied, the
    guest copy unmapped), and one job later every job total equals the
    uninterrupted run's."""
    from repro.gpu import jobmanager
    from repro.hostcode import BoundedTable

    def run(bounce):
        platform = _two_tenant_platform()
        scale = _launch_on(platform, 0, SCALE_SRC, "scale", _scale_args)
        _launch_on(platform, 1, FILL_SRC, "fill", _fill_args(3))
        platform.driver.tenant(0).free_region(scale._uploaded["scale"])
        if bounce:
            save_checkpoint(platform, str(tmp_path / "ckpt"))
            monkeypatch.setattr(jobmanager, "_programs", BoundedTable(
                jobmanager.DECODE_TABLE_SIZE))
            platform, _extra = restore_checkpoint(str(tmp_path / "ckpt"))
            # only the fill binary is still mapped to re-decode from
            assert [key[0] for key in
                    platform.gpu.job_manager._decode_cache] == [1]
        assert len(platform.gpu.job_manager.ledger.tables) == 2
        _launch_on(platform, 1, FILL_SRC, "fill", _fill_args(4))
        return _ledger_stats(platform)

    straight = run(bounce=False)
    assert straight["tenant1.gpu.job.threads_launched"] == 128
    assert run(bounce=True) == straight


# ---------------------------------------------------------------------------
# corruption fails closed


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """One small real checkpoint the corruption tests each copy."""
    platform = _two_tenant_platform()
    _submit_scale_jobs(platform)
    platform.driver.drain(max_dispatches=2)
    directory = str(tmp_path_factory.mktemp("ckpt") / "snap")
    save_checkpoint(platform, directory, extra={"marker": 42})
    return directory


def _copy_checkpoint(source, destination):
    import shutil

    shutil.copytree(source, destination)
    return str(destination)


def test_restore_returns_extra_payload(saved_checkpoint):
    platform, extra = restore_checkpoint(saved_checkpoint)
    assert extra == {"marker": 42}
    platform.driver.drain()


def test_bit_flip_in_memory_fails_closed(saved_checkpoint, tmp_path):
    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "flip")
    path = os.path.join(directory, MEMORY_FILE)
    with open(path, "r+b") as handle:
        handle.seek(4096 + 17)
        byte = handle.read(1)
        handle.seek(4096 + 17)
        handle.write(bytes([byte[0] ^ 0x40]))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        restore_checkpoint(directory)


def test_truncated_state_fails_closed(saved_checkpoint, tmp_path):
    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "trunc")
    path = os.path.join(directory, STATE_FILE)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        restore_checkpoint(directory)


def test_missing_manifest_fails_closed(saved_checkpoint, tmp_path):
    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "nomani")
    os.unlink(os.path.join(directory, MANIFEST_FILE))
    with pytest.raises(CheckpointError, match="missing or unreadable"):
        restore_checkpoint(directory)


def test_version_skew_fails_closed(saved_checkpoint, tmp_path):
    """A manifest of another version, a manifest that is well-formed JSON
    but no object, and a digest-valid state of the wrong shape are each
    a CheckpointError, not the AttributeError / TypeError / KeyError of
    reading them as a checkpoint."""
    from repro.checkpoint import load_checkpoint_dir, write_checkpoint_dir

    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "ver")
    path = os.path.join(directory, MANIFEST_FILE)
    with open(path) as handle:
        manifest = json.load(handle)
    manifest["checkpoint_version"] = 99
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(CheckpointError, match="unsupported checkpoint"):
        restore_checkpoint(directory)
    with open(path, "w") as handle:
        json.dump([], handle)
    with pytest.raises(CheckpointError, match="manifest .* is not an object"):
        load_checkpoint_dir(directory)
    _state, memory, manifest = load_checkpoint_dir(saved_checkpoint)
    for shape, raw in (("list", b"[]"), ("empty", b"{}")):
        resealed = str(tmp_path / shape)
        write_checkpoint_dir(resealed, raw, memory, manifest["golden"])
        with pytest.raises(CheckpointError, match="state .* is not an object"):
            restore_checkpoint(resealed)


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_older_layout_fails_closed(saved_checkpoint, tmp_path, version):
    """Each older layout is refused by its manifest, before any state is
    read: version 2 saved a per-unit ``core_stats`` table the Job
    Manager no longer has, version 3 ``GPUConfig.collect_cfg`` in the
    config section, version 4 running ``JobStats`` totals where clause
    ledgers are saved now, version 5 the driver's recovery and arbiter
    policies, each queued job's ``cost_hint`` and the tenancy config's
    ``arbiter`` / ``qos_classes``."""
    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "old")
    path = os.path.join(directory, MANIFEST_FILE)
    with open(path) as handle:
        manifest = json.load(handle)
    manifest["checkpoint_version"] = version
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(
            CheckpointError,
            match=f"unsupported checkpoint version {version} .*version 6"):
        restore_checkpoint(directory)


def test_tampered_golden_manifest_fails_closed(saved_checkpoint,
                                               tmp_path):
    """Even a self-consistent edit of the sealed golden snapshot is
    caught: the restored platform's recomputed stats must reproduce
    the manifest's."""
    directory = _copy_checkpoint(saved_checkpoint, tmp_path / "golden")
    path = os.path.join(directory, MANIFEST_FILE)
    with open(path) as handle:
        manifest = json.load(handle)
    key = sorted(manifest["golden"])[0]
    manifest["golden"][key] = 123456789
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(CheckpointError,
                       match="does not reproduce"):
        restore_checkpoint(directory)


def _drop_config_key(config):
    del config["tenancy"]


def _mistype_config_key(config):
    config["memory_sise"] = config.pop("memory_size")


def _mistype_gpu_key(config):
    config["gpu"]["engin"] = config["gpu"].pop("engine")


def _drop_tenancy_key(config):
    del config["tenancy"]["tenants"]


def _gpu_section_not_a_mapping(config):
    config["gpu"] = "mega"


def _two_host_threads(config):
    config["gpu"]["num_host_threads"] = 2


def _misspelled_engine(config):
    config["gpu"]["engine"] = "warp9"


@pytest.mark.parametrize("edit", [
    _drop_config_key, _mistype_config_key, _mistype_gpu_key,
    _drop_tenancy_key, _gpu_section_not_a_mapping, _two_host_threads,
    _misspelled_engine])
def test_hand_edited_config_section_fails_closed(saved_checkpoint, tmp_path,
                                                 edit):
    """A digest-valid checkpoint whose *config* section lacks, mistypes
    or misvalues a key: the error is a CheckpointError, not the KeyError
    / TypeError / ValueError the config constructors raise."""
    from repro.checkpoint import (
        load_checkpoint_dir,
        state_to_bytes,
        write_checkpoint_dir,
    )

    state, memory, manifest = load_checkpoint_dir(saved_checkpoint)
    edit(state["config"])
    directory = str(tmp_path / "edited")
    # resealed: both digests are valid for the edited payload
    write_checkpoint_dir(directory, state_to_bytes(state), memory,
                         manifest["golden"])
    with pytest.raises(CheckpointError, match="config section"):
        restore_checkpoint(directory)


def test_a_saved_interpreter_spelling_restores_as_interp(saved_checkpoint,
                                                        tmp_path):
    """A checkpoint's config may carry ``"interpreter"``, the spelling
    ``GPUConfig`` stored before it kept the mode name: it restores
    through the alias as ``interp``, and the restored platform drains."""
    from repro.checkpoint import (
        load_checkpoint_dir,
        state_to_bytes,
        write_checkpoint_dir,
    )

    state, memory, manifest = load_checkpoint_dir(saved_checkpoint)
    state["config"]["gpu"]["engine"] = "interpreter"
    directory = str(tmp_path / "interpreter")
    write_checkpoint_dir(directory, state_to_bytes(state), memory,
                         manifest["golden"])
    platform, _extra = restore_checkpoint(directory)
    assert platform.config.gpu.engine == "interp"
    assert platform.gpu.job_manager.unit.engine == "interp"
    platform.driver.drain()


def test_saved_stat_of_another_kind_fails_closed(saved_checkpoint, tmp_path):
    """The registry saves and restores counters only: a digest-valid
    state whose registry entry names any other kind is a CheckpointError,
    not a stat the restore invents."""
    from repro.checkpoint import (
        load_checkpoint_dir,
        state_to_bytes,
        write_checkpoint_dir,
    )

    state, memory, manifest = load_checkpoint_dir(saved_checkpoint)
    saved = state["platform"]["stats_registry"]["stats"]
    assert saved and all(item["kind"] == "counter" for item in saved)
    saved[0]["kind"] = "distribution"
    directory = str(tmp_path / "edited")
    write_checkpoint_dir(directory, state_to_bytes(state), memory,
                         manifest["golden"])
    with pytest.raises(CheckpointError, match="only counters are saved"):
        restore_checkpoint(directory)


def test_empty_directory_fails_closed(tmp_path):
    with pytest.raises(CheckpointError):
        restore_checkpoint(str(tmp_path / "void"))


# ---------------------------------------------------------------------------
# periodic auto-checkpoint


def test_auto_checkpoint_every_n_jobs(tmp_path):
    from repro.cl import CommandQueue, Context
    from repro.core.platform import MobilePlatform

    platform = MobilePlatform().initialize()
    directory = str(tmp_path / "auto")
    platform.enable_auto_checkpoint(directory, every_jobs=2)

    context = Context(platform)
    queue = CommandQueue(context)
    program = context.build_program(SCALE_SRC)
    for index in range(4):
        data = np.arange(64, dtype=np.float32) + index
        buf_in = context.buffer_from_array(data)
        buf_out = context.alloc_buffer(64 * 4)
        kernel = program.kernel("scale")
        kernel.set_arg(0, buf_out)
        kernel.set_arg(1, buf_in)
        kernel.set_arg(2, np.float32(2.0))
        queue.enqueue_nd_range(kernel, (64,), (4,))

    assert sorted(name for name in os.listdir(directory)
                  if name.startswith("ckpt-")) \
        == ["ckpt-0001", "ckpt-0002"]
    with open(os.path.join(directory, "LATEST")) as handle:
        latest = handle.read().strip()
    assert latest == "ckpt-0002"
    restored, _extra = restore_checkpoint(
        os.path.join(directory, latest))
    golden = restored.stats_registry.snapshot(golden_only=True)
    retired = [key for key in golden if key.endswith("jobs_retired")]
    assert retired and all(golden[key] == 4 for key in retired)

    # disabling removes the hook
    platform.enable_auto_checkpoint(directory, every_jobs=None)
    assert platform.driver.on_job_retired is None


@pytest.mark.parametrize("sync", [True, False], ids=["sync", "arbitrated"])
def test_auto_checkpoint_counts_a_tenant_job_once(tmp_path, sync):
    """``every_jobs=1`` over three jobs of one tenant writes three
    checkpoints on either tenant route, each holding the job whose
    retirement triggered it."""
    from repro.cl import CommandQueue, Context

    platform = _two_tenant_platform()
    directory = str(tmp_path / "auto")
    platform.enable_auto_checkpoint(directory, every_jobs=1)
    context = Context(platform, tenant=platform.driver.tenant(1))
    queue = CommandQueue(context)
    kernel = context.build_program(SCALE_SRC).kernel("scale")
    kernel.set_args(context.alloc_buffer(64 * 4),
                    context.buffer_from_array(
                        np.arange(64, dtype=np.float32)),
                    np.float32(2.0))
    for _ in range(3):
        if sync:
            queue.enqueue_nd_range(kernel, (64,), (4,))
        else:
            queue.enqueue_nd_range_async(kernel, (64,), (4,))
    platform.driver.drain()

    names = sorted(name for name in os.listdir(directory)
                   if name.startswith("ckpt-"))
    assert names == ["ckpt-0001", "ckpt-0002", "ckpt-0003"]
    for jobs, name in enumerate(names, start=1):
        restored, _extra = restore_checkpoint(
            os.path.join(directory, name))
        golden = restored.stats_registry.snapshot(golden_only=True)
        assert golden["tenant1.job.jobs_completed"] == jobs
        assert golden["tenant1.gpu.job.threads_launched"] == 64 * jobs


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_bytes(b"old")
    atomic_write_bytes(str(path), b"new contents")
    assert path.read_bytes() == b"new contents"
    assert os.listdir(tmp_path) == ["artifact.json"]


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec JSON round-trip (property-based)


_KEYED_SITES = sorted(site for site, (keyed, _) in SITES.items()
                      if keyed)
_OCC_SITES = sorted(site for site, (keyed, _) in SITES.items()
                    if not keyed)

_params = st.dictionaries(
    st.sampled_from(["kind", "mask", "offset", "stall_rounds"]),
    st.integers(0, 255), max_size=2)
_count = st.one_of(st.none(), st.integers(1, 3))
_tenant = st.one_of(st.none(), st.just(1))

_spec = st.one_of(
    st.builds(FaultSpec, site=st.sampled_from(_KEYED_SITES),
              key=st.integers(0, 1 << 20), count=_count,
              params=_params, tenant=_tenant),
    st.builds(FaultSpec, site=st.sampled_from(_OCC_SITES),
              occurrence=st.integers(1, 5), count=_count,
              params=_params, tenant=_tenant),
)


def _drive(injector, plan):
    """A deterministic probe sequence derived from the plan; returns
    every fire() result so two injectors can be compared shot-for-shot."""
    injector.current_tenant = 1
    shots = []
    for spec in plan.specs:
        if SITES[spec.site][0]:
            probes = [spec.key, spec.key, spec.key + 1, spec.key]
        else:
            probes = [None] * (spec.occurrence + 2)
        for key in probes:
            shots.append(injector.fire(spec.site, key=key))
    return shots


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_spec, min_size=1, max_size=4),
       name=st.sampled_from(["", "scenario-x"]),
       seed=st.one_of(st.none(), st.integers(0, 99)))
def test_fault_plan_json_round_trip_fires_identically(specs, name, seed):
    from repro.inject.injector import FaultInjector

    plan = FaultPlan(specs, name=name, seed=seed)
    # serialize -> (real JSON text) -> load: dataclass-equal specs
    revived = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert revived.specs == plan.specs
    assert revived.name == plan.name
    assert revived.seed == plan.seed
    # and the revived plan injects the exact same firing sequence
    original = FaultInjector(plan)
    replayed = FaultInjector(revived)
    assert _drive(original, plan) == _drive(replayed, revived)
    assert original.fired == replayed.fired
    assert original.log == replayed.log


# ---------------------------------------------------------------------------
# farm journal + resume


FARM_CONFIG = {
    "name": "ckpt-farm",
    "shard_size": 1,
    "sweeps": [{"kind": "selftest", "behaviors": ["ok"], "count": 4},
               {"kind": "lint", "targets": ["builtin:sgemm"]}],
}


def test_farm_resume_is_byte_identical(tmp_path):
    from repro.validate.farm import resume_farm, run_farm

    straight = run_farm(FARM_CONFIG, workers=2,
                        outdir=str(tmp_path / "straight"))
    assert straight.ok

    # simulate a crash: keep the journal, drop the report and some
    # journaled outcomes
    import shutil

    crashed = str(tmp_path / "crashed")
    shutil.copytree(str(tmp_path / "straight"), crashed)
    os.unlink(os.path.join(crashed, "report.json"))
    cases_dir = os.path.join(crashed, "resume", "cases")
    names = sorted(os.listdir(cases_dir))
    for name in names[::2]:
        os.unlink(os.path.join(cases_dir, name))

    # the remainder runs on a pool, or in the calling process
    for workers in (2, 0):
        resuming = f"{crashed}-w{workers}"
        shutil.copytree(crashed, resuming)
        resumed = resume_farm(resuming, workers=workers)
        assert resumed.ok
        assert resumed.report_bytes == straight.report_bytes
        with open(os.path.join(resuming, "report.json"), "rb") as handle:
            assert handle.read() == straight.report_bytes


def test_farm_resume_with_nothing_left_to_run(tmp_path):
    """A complete journal resumes without spawning any workers and
    still reproduces the report byte-for-byte."""
    from repro.validate.farm import resume_farm, run_farm

    outdir = str(tmp_path / "done")
    straight = run_farm(FARM_CONFIG, workers=2, outdir=outdir)
    os.unlink(os.path.join(outdir, "report.json"))
    resumed = resume_farm(outdir, workers=2)
    assert resumed.report_bytes == straight.report_bytes
    assert resumed.run_info["respawns"] == 0


def test_corrupted_journal_entry_fails_closed(tmp_path):
    from repro.validate.farm import resume_farm, run_farm

    outdir = str(tmp_path / "run")
    run_farm(FARM_CONFIG, workers=2, outdir=outdir)
    cases_dir = os.path.join(outdir, "resume", "cases")
    victim = os.path.join(cases_dir, sorted(os.listdir(cases_dir))[0])
    with open(victim) as handle:
        entry = json.load(handle)
    entry["outcome"]["verdict"] = "fail"       # digest no longer matches
    with open(victim, "w") as handle:
        json.dump(entry, handle)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        resume_farm(outdir)


def test_missing_journal_fails_closed(tmp_path):
    from repro.validate.farm import resume_farm

    with pytest.raises(CheckpointError, match="no farm journal"):
        resume_farm(str(tmp_path / "never-ran"))


def test_journal_file_names_do_not_collide():
    from repro.validate.farm.journal import case_file_name

    assert case_file_name("a/b") != case_file_name("a_b")
    assert case_file_name("x") == case_file_name("x")


@pytest.mark.slow
def test_farm_resume_after_sigkill(tmp_path):
    """Kill an entire farm campaign (manager + workers) with SIGKILL at
    an arbitrary point, then ``resume_farm`` finishes it with a
    byte-identical report."""
    from repro.validate.farm import resume_farm, run_farm

    outdir = str(tmp_path / "killed")
    script = (
        "from repro.validate.farm import run_farm\n"
        f"run_farm({FARM_CONFIG!r}, workers=1, outdir={outdir!r})\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env,
        start_new_session=True,       # its workers die with it
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cases_dir = os.path.join(outdir, "resume", "cases")
    deadline = time.monotonic() + 180
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if os.path.isdir(cases_dir) \
                    and len(os.listdir(cases_dir)) >= 2:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()

    straight = run_farm(FARM_CONFIG, workers=2,
                        outdir=str(tmp_path / "straight"))
    resumed = resume_farm(outdir, workers=2)
    assert resumed.report_bytes == straight.report_bytes
    with open(os.path.join(outdir, "report.json"), "rb") as handle:
        assert handle.read() == straight.report_bytes


@pytest.mark.slow
def test_checkpoint_sweep_is_every_engine_mode_by_tenancy():
    from repro.validate.farm import FarmConfigError, load_config, run_farm

    config = load_config(os.path.join(os.path.dirname(SRC_ROOT), "examples",
                                      "farm", "checkpoint.json"))
    run = run_farm(config, workers=2)
    assert run.ok, run.summary()
    assert [case["id"] for case in run.report["cases"]] == sorted(
        f"checkpoint/{mode}/tenants={tenants}"
        for mode in ENGINE_MODES for tenants in (0, 2))
    with pytest.raises(FarmConfigError, match="unknown keys"):
        load_config({"sweeps": [{"kind": "checkpoint", "tenants": [4]}]})


# ---------------------------------------------------------------------------
# CLI output-directory handling


def test_cli_farm_unwritable_out_exits_two(tmp_path, capsys):
    from repro.tools.cli import main

    config = tmp_path / "farm.json"
    config.write_text(json.dumps(FARM_CONFIG))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    assert main(["farm", "run", str(config),
                 "--out", str(blocker / "sub")]) == 2
    assert "cannot create output directory" in capsys.readouterr().out


def test_cli_trace_unwritable_output_exits_two(tmp_path, capsys):
    from repro.tools.cli import main

    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    assert main(["trace", "missing.cl",
                 "--output", str(blocker / "sub" / "t.json")]) == 2
    assert "cannot create output directory" in capsys.readouterr().out


def test_cli_faultcampaign_unwritable_repro_dir_exits_two(tmp_path,
                                                          capsys):
    from repro.tools.cli import main

    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    assert main(["faultcampaign",
                 "--write-repros", str(blocker / "sub")]) == 2
    assert "cannot create output directory" in capsys.readouterr().out


def test_cli_farm_resume_round_trip(tmp_path, capsys):
    from repro.tools.cli import main
    from repro.validate.farm import run_farm

    outdir = str(tmp_path / "out")
    straight = run_farm(FARM_CONFIG, workers=2, outdir=outdir)
    os.unlink(os.path.join(outdir, "report.json"))
    assert main(["farm", "resume", outdir]) == 0
    assert "RESULT farm status=ok" in capsys.readouterr().out
    with open(os.path.join(outdir, "report.json"), "rb") as handle:
        assert handle.read() == straight.report_bytes
