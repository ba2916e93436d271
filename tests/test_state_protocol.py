"""Tests: the component state protocol (``repro.state.Stateful``).

- **Drift guard** — every instance attribute of every ``Stateful``
  reachable from a used platform is either checkpointed by its own class
  or listed in :data:`TRANSIENT` with a reason. Adding an attribute
  without classifying it fails here, not in a long-run divergence.
- **Round trips** — ``restore(save(p)).get_state() == p.get_state()``
  and ``PlatformConfig.from_plain(c.to_plain()) == c``.
- **Cut-anywhere property** — a checkpoint at a random step boundary or
  mid-``drain``, on any engine, single-client or 2-tenant, clean or
  with an armed recoverable fault plan, finishes byte-equal to the
  uninterrupted run (tier-1: a few in-process examples; ``-m fuzz``:
  wide, restoring in a fresh process through the checkpoint harness);
  so does every cut taken from the ``on_job_retired`` hook.
- **Golden-stat manifest** — ``golden_stats_manifest.json`` is the
  written definition of "bit-exact": which stats exist and which are
  golden. A stat that appears, vanishes or flips its flag fails here.
"""

import collections
import contextlib
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import harness, restore_checkpoint, save_checkpoint
from repro.cl import CommandQueue, Context
from repro.core.platform import MobilePlatform, PlatformConfig
from repro.driver.kbase import GPU_VA_BASE, TenancyConfig, TenantSpec
from repro.gpu.device import GPUConfig
from repro.inject.injector import FaultInjector
from repro.inject.plan import FaultPlan, FaultSpec
from repro.state import Stateful

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden_stats_manifest.json")

SCALE_SRC = """
__kernel void scale(__global float* out, __global const float* in,
                    float factor) {
    int i = get_global_id(0);
    out[i] = in[i] * factor;
}
"""


def _launch(platform, tenant=None, sync=True, size=64, seed=0):
    """One scale job through a fresh CL context; returns the output
    buffer's ``(phys, nbytes)`` so it can be read back after the host
    handles are gone."""
    context = Context(platform, tenant=tenant)
    queue = CommandQueue(context)
    kernel = context.build_program(SCALE_SRC).kernel("scale")
    data = np.random.default_rng(seed).random(size, dtype=np.float32)
    out = context.alloc_buffer(size * 4)
    kernel.set_args(out, context.buffer_from_array(data), np.float32(1.5))
    if sync:
        queue.enqueue_nd_range(kernel, (size,), (4,))
    else:
        queue.enqueue_nd_range_async(kernel, (size,), (4,))
    return out.region.phys, out.nbytes


def _fg_bg():
    return TenancyConfig([TenantSpec("fg0", qos="fg"),
                          TenantSpec("bg0", qos="bg")])


def _used_single_client():
    platform = MobilePlatform()
    _launch(platform)
    return platform


def _used_two_tenants_with_queued_jobs():
    platform = MobilePlatform(PlatformConfig(tenancy=_fg_bg())).initialize()
    for tenant in platform.driver.tenants:
        for index in range(2):
            _launch(platform, tenant, sync=False, size=256, seed=index)
    platform.driver.drain(max_dispatches=2)
    assert platform.driver.arbiter.waiting
    return platform


def _used_with_injector():
    platform = MobilePlatform().initialize()
    platform.attach_injector(FaultInjector(FaultPlan([
        FaultSpec("irq.lost", count=1),
        FaultSpec("core.hang", key=3),
        FaultSpec("descriptor.read", occurrence=9)])))
    _launch(platform)
    assert platform._injector.total_fired == 2
    return platform


USED_PLATFORMS = (_used_single_client, _used_two_tenants_with_queued_jobs,
                  _used_with_injector)


# ---------------------------------------------------------------------------
# drift guard

_WIRING = "wiring to another component, rebuilt from config"
_CACHE = "pure accelerator, dropped (rebuilt on demand)"
_CONSTANT = "construction constant, rebuilt from config"
_OBSERVER = "host-process observer, not platform state"

#: class name -> {attribute: why it is not checkpointed}
TRANSIENT = {
    "MobilePlatform": {
        "config": "saved beside the state as state.json's config section",
        "memory": "saved as memory.bin (PhysicalMemory.dump_pages)",
        "bus": _WIRING, "events": _OBSERVER,
    },
    "NetworkDevice": {"on_transmit": _OBSERVER},
    "BlockDevice": {
        "_memory": _WIRING,
        "_image": "saved in memory.bin beside the physical pages",
    },
    "CPU": {
        "bus": _WIRING,
        **dict.fromkeys(
            ("regs", "pc", "halted", "ecall_pending"),
            "guest routines run to completion between checkpoints and "
            "every call resets these"),
    },
    "GPUDevice": {
        "config": _CONSTANT, "_irq_callback": _WIRING,
        "mmu": "a platform component of its own (gpu.mmu)",
        "job_manager": "a platform component of its own (gpu.job_manager)",
        "last_results": "host-side JobResult handles of the last chain",
    },
    "GPUMMU": {
        "_memory": _WIRING, "_fault_handler": _WIRING, "_injector": _WIRING,
        "_page_view": _WIRING,
        "_walker": "rebuilt by set_page_table from the saved root",
        "_tlb": _CACHE, "_rview": _CACHE, "_wview": _CACHE, "_runs": _CACHE,
        "_fast": "derived by _update_fast from restored fields",
    },
    "JobManager": {
        "mmu": _WIRING, "injector": _WIRING,
        "events": _OBSERVER, "tracer": _OBSERVER,
        "instrument": _CONSTANT,
        "_decode_cache": "keys are saved; rewarm_decode_cache re-decodes "
                         "them through TenantContext.read_va",
        "unit": "the execution unit: its engine, local slab and register "
                  "file (the code mega emits sits in gpu.megakernel's "
                  "process-wide cache, keyed by program bytes: host "
                  "state, found warm or emitted again), " + _CACHE,
    },
    "ClauseLedger": {"_stats": "derived from the tables when read"},
    "KBaseDriver": {
        "bus": _WIRING, "irqc": _WIRING, "_gpu": _WIRING,
        "injector": _WIRING,
        "gpu_mmio_base": _CONSTANT,
        "heap_base": _CONSTANT, "heap_size": _CONSTANT,
        "tenancy": _CONSTANT,
        "_default_tenant": "alias of tenants[0]",
        "events": _OBSERVER, "on_job_retired": _OBSERVER,
        "_grow_lock": "host lock",
    },
    "TenantContext": {
        "driver": _WIRING,
        "tenant_id": _CONSTANT, "as_id": _CONSTANT, "name": _CONSTANT,
        "qos": _CONSTANT, "_descriptor_slots": _CONSTANT,
    },
    "PhysAllocator": {
        "memory": _WIRING,
        "base": _CONSTANT, "size": _CONSTANT, "_end": _CONSTANT,
    },
    "PageTableBuilder": {"_memory": _WIRING, "_alloc_frame": _WIRING},
    "FaultInjector": {
        "events": _OBSERVER, "_lock": "host lock",
        "_keyed": "armed specs rebuilt from the saved plan; their "
                  "remaining counts are saved as 'remaining'",
        "_occ": "as _keyed",
    },
    "Counter": dict.fromkeys(
        ("name", "desc", "golden"),
        "saved beside the value by StatsRegistry.get_state"),
}


def _walk(root):
    """Every ``Stateful`` reachable from *root* through containers and
    the attributes of ``repro.*`` objects."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset,
                            collections.deque)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro.") \
                and hasattr(obj, "__dict__"):
            if isinstance(obj, Stateful):
                found.append(obj)
            stack.extend(vars(obj).values())
    return found


def _checkpointed_names(obj):
    """Attribute names *obj*'s own class accounts for: its declared
    fields and children, and whatever its ``get_state()`` writes (a key
    ``k`` accounts for the attribute ``k`` or ``_k``)."""
    cls = type(obj)
    keys = set(obj.get_state())
    return (set(cls.state_fields()) | set(cls.TRANSIENT)
            | {path.split(".")[0] for path in cls.STATE_CHILDREN}
            | keys | {"_" + key for key in keys})


def test_every_attribute_is_checkpointed_or_classified():
    seen_attrs = collections.defaultdict(set)
    problems = []
    for build in USED_PLATFORMS:
        for obj in _walk(build()):
            name = type(obj).__name__
            attrs = set(vars(obj))
            seen_attrs[name] |= attrs
            covered = _checkpointed_names(obj)
            listed = set(TRANSIENT.get(name, ()))
            problems += [
                f"{name}.{attr}: not in STATE_FIELDS/get_state() and "
                f"not in this file's TRANSIENT table"
                for attr in sorted(attrs - covered - listed)]
            problems += [
                f"{name}.{attr}: listed TRANSIENT but checkpointed"
                for attr in sorted(attrs & covered & listed)]
    for name, table in TRANSIENT.items():
        assert name in seen_attrs, f"TRANSIENT names unreached class {name}"
        problems += [f"{name}.{attr}: stale TRANSIENT entry"
                     for attr in sorted(set(table) - seen_attrs[name])]
    assert not problems, "\n".join(sorted(set(problems)))


def test_walk_reaches_every_component_class():
    reached = {type(obj).__name__
               for build in USED_PLATFORMS for obj in _walk(build())}
    assert reached >= {
        "MobilePlatform", "UART", "Timer", "InterruptController",
        "NetworkDevice", "BlockDevice", "CPU", "GPUDevice", "SystemStats",
        "GPUMMU", "JobManager", "ClauseLedger", "KBaseDriver",
        "TenantContext",
        "PhysAllocator", "PageTableBuilder", "JobSlotArbiter", "PendingJob",
        "FaultInjector", "StatsRegistry", "Counter"}


def test_state_fields_cannot_name_a_property():
    """Restore writes ``__dict__`` directly, so a property (whose setter
    could flush a TLB or count a register write) cannot be a field."""

    class Device(Stateful):
        STATE_FIELDS = ("enabled",)

        def __init__(self):
            self._enabled = False

        @property
        def enabled(self):
            return self._enabled

    with pytest.raises(KeyError):
        Device().get_state()
    with pytest.raises(KeyError):
        Device().set_state({"enabled": True})


# ---------------------------------------------------------------------------
# round trips


def _bounce(platform, directory):
    save_checkpoint(platform, str(directory))
    restored, _extra = restore_checkpoint(str(directory))
    return restored


@pytest.mark.parametrize("build", USED_PLATFORMS,
                         ids=lambda build: build.__name__)
def test_restored_state_equals_saved_state(build, tmp_path):
    platform = build()
    restored = _bounce(platform, tmp_path / "ckpt")
    assert restored.get_state() == platform.get_state()
    assert restored.config == platform.config
    # and the state is plain JSON: a second save is byte-identical
    assert json.dumps(restored.get_state(), sort_keys=True) \
        == json.dumps(platform.get_state(), sort_keys=True)


@pytest.mark.parametrize("config", [
    PlatformConfig(),
    PlatformConfig(gpu=GPUConfig(engine="mega"),
                   cpu_engine="interpretive", tenancy=_fg_bg()),
], ids=["default", "two-tenant"])
def test_config_plain_round_trip(config):
    plain = json.loads(json.dumps(config.to_plain()))
    assert PlatformConfig.from_plain(plain) == config


def test_config_plain_drops_only_the_tracer():
    config = PlatformConfig(gpu=GPUConfig(tracer=object()))
    revived = PlatformConfig.from_plain(config.to_plain())
    assert revived.gpu.tracer is None
    assert revived == PlatformConfig()


# ---------------------------------------------------------------------------
# cut-anywhere property

STEPS = 2
_BASE_PAGE = GPU_VA_BASE >> 12


def _spec(site, **fields):
    return st.builds(lambda **drawn: {"site": site, "count": 1, **drawn},
                     **fields)


_occurrence = st.integers(1, 6)

#: one transient fault at a site the recovery ladder recovers from
_recoverable = st.one_of(
    _spec("mmu.page", key=st.integers(_BASE_PAGE, _BASE_PAGE + 12),
          params=st.fixed_dictionaries({
              "kind": st.sampled_from(["translation", "permission"]),
              "access": st.sampled_from(["r", "w"])})),
    _spec("core.hang", key=st.integers(0, 7)),
    _spec("descriptor.read", occurrence=_occurrence,
          params=st.fixed_dictionaries({
              "offset": st.integers(0, 3), "mask": st.integers(1, 255)})),
    _spec("irq.lost", occurrence=_occurrence),
    _spec("irq.spurious", occurrence=_occurrence,
          params=st.just({"line": "mmu"})),
)
_plans = st.one_of(
    st.none(),
    st.lists(_recoverable, min_size=1, max_size=2)
    .map(lambda specs: {"specs": specs}))
_engine_modes = st.sampled_from(sorted(harness.ENGINE_MODES))


def _armed(platform, plan):
    if plan is not None:
        platform.attach_injector(FaultInjector(FaultPlan.from_dict(plan)))
    return platform


def _build(engine_mode, tenants, plan):
    return _armed(harness.build_platform(harness.default_spec(
        engine_mode=engine_mode, tenants=tenants)), plan)


def _play(engine_mode, tenants, plan, cut, scratch):
    """Run STEPS steps of scale jobs (one synchronous launch, or two
    arbitrated launches per tenant drained together). ``cut=(step, k)``
    bounces the platform through a checkpoint in that step: at its
    boundary (``k is None``, and always for a single client) or after
    ``drain(max_dispatches=k)``. Returns the bit-identity surface."""
    platform = _build(engine_mode, tenants, plan)
    digests = []
    for step in range(STEPS):
        cut_here = cut is not None and cut[0] == step
        mid_drain = cut_here and tenants and cut[1] is not None
        if cut_here and not mid_drain:
            platform = _bounce(platform, scratch)
        if not tenants:
            outputs = [_launch(platform, size=128, seed=step)]
        else:
            # two per tenant: the second keeps the arbiter's queue
            # non-empty, so bg's first job is sliced and preempted
            outputs = [_launch(platform, tenant, sync=False, size=128,
                               seed=10 * step + 2 * tenant.tenant_id + twice)
                       for tenant in platform.driver.tenants
                       for twice in range(2)]
            if mid_drain:
                platform.driver.drain(max_dispatches=cut[1])
                platform = _bounce(platform, scratch)
            platform.driver.drain()
        digests += [
            hashlib.sha256(platform.memory.read_block(phys, nbytes))
            .hexdigest() for phys, nbytes in outputs]
    return harness.record_run(platform, digests)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(engine_mode=_engine_modes, tenants=st.sampled_from([0, 2]),
       plan=_plans,
       cut=st.tuples(st.integers(0, STEPS - 1),
                     st.one_of(st.none(), st.integers(1, 5))))
def test_checkpoint_anywhere_is_invisible(tmp_path, engine_mode, tenants,
                                          plan, cut):
    straight = _play(engine_mode, tenants, plan, None, None)
    resumed = _play(engine_mode, tenants, plan, cut, tmp_path / "ckpt")
    assert harness.compare_records(straight, resumed) == []


@pytest.mark.parametrize("engine_mode", ["interp", "mega"])
def test_hook_time_checkpoints_are_invisible(tmp_path, engine_mode):
    """Cuts taken from ``on_job_retired``: ``every_jobs=1`` on a
    two-tenant arbitrated run writes one checkpoint per job, and every
    one of them, restored and drained, finishes byte-equal to the
    uninterrupted run."""
    def submit(platform):
        return [_launch(platform, tenant, sync=False, size=128,
                        seed=2 * tenant.tenant_id + twice)
                for tenant in platform.driver.tenants
                for twice in range(2)]

    def finish(platform, outputs):
        platform.driver.drain()
        return harness.record_run(platform, [
            hashlib.sha256(platform.memory.read_block(phys, nbytes))
            .hexdigest() for phys, nbytes in outputs])

    straight = _build(engine_mode, 2, None)
    expected = finish(straight, submit(straight))

    platform = _build(engine_mode, 2, None)
    outputs = submit(platform)
    platform.enable_auto_checkpoint(str(tmp_path), every_jobs=1)
    assert harness.compare_records(expected, finish(platform, outputs)) == []
    # bg's first job was sliced and replayed: a preempted slice retires
    # nothing, so the cuts are one per job, not one per dispatch
    assert platform.driver.preemptions > 0
    names = sorted(name for name in os.listdir(tmp_path)
                   if name.startswith("ckpt-"))
    assert names == [f"ckpt-{index:04d}"
                     for index in range(1, len(outputs) + 1)]
    for name in names:
        restored, _extra = restore_checkpoint(str(tmp_path / name))
        assert harness.compare_records(
            expected, finish(restored, outputs)) == [], name


@contextlib.contextmanager
def _harness_arms(plan):
    """Make the checkpoint harness attach *plan* to every platform it
    builds. The resuming subprocess builds none: the injector rides in
    the checkpoint."""
    original = harness.build_platform

    harness.build_platform = lambda spec: _armed(original(spec), plan)
    try:
        yield
    finally:
        harness.build_platform = original


@pytest.mark.fuzz
@settings(max_examples=40, deadline=None)
@given(engine_mode=_engine_modes, tenants=st.sampled_from([0, 2]),
       plan=_plans, stop_after=st.integers(1, 2), seed=st.integers(0, 99))
def test_fresh_process_checkpoint_anywhere_is_invisible(
        engine_mode, tenants, plan, stop_after, seed):
    spec = harness.default_spec(engine_mode=engine_mode, tenants=tenants,
                                steps=3, seed=seed)
    with _harness_arms(plan):
        assert harness.run_differential(
            spec, fresh_process=True, stop_after=stop_after) == []


# ---------------------------------------------------------------------------
# golden-stat manifest


def _registry_manifests():
    single = MobilePlatform()
    Context(single)
    multi = MobilePlatform(PlatformConfig(
        tenancy=TenancyConfig.symmetric(2)))
    for tenant in multi.driver.tenants:
        Context(multi, tenant=tenant)
    return {label: [[stat.name, stat.golden]
                    for stat in platform.stats_registry.stats()]
            for label, platform in (("single_client", single),
                                    ("two_tenants", multi))}


def test_golden_stat_manifest_is_unchanged():
    """To change the manifest on purpose, run this file as a script
    (``PYTHONPATH=src python tests/test_state_protocol.py``) and commit
    the rewritten JSON with the reason."""
    with open(MANIFEST_PATH) as handle:
        recorded = json.load(handle)
    current = _registry_manifests()
    assert sorted(recorded) == sorted(current)
    problems = []
    for label in sorted(current):
        before = dict(map(tuple, recorded[label]))
        after = dict(map(tuple, current[label]))
        for name in sorted(set(before) | set(after)):
            if name not in after:
                problems.append(f"{label}: {name} vanished")
            elif name not in before:
                problems.append(
                    f"{label}: {name} appeared (golden={after[name]})")
            elif before[name] != after[name]:
                problems.append(
                    f"{label}: {name} golden flag {before[name]} -> "
                    f"{after[name]}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    # one stat per line, so a manifest change reads as a line diff
    sections = [
        json.dumps(label) + ": [\n"
        + ",\n".join(json.dumps(entry) for entry in stats) + "\n]"
        for label, stats in sorted(_registry_manifests().items())]
    with open(MANIFEST_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(sections) + "\n}\n")
