"""Platform assembly (the paper's Versatile-Express/Juno-like model).

Memory map::

    0x0000_0000 .. 0x0FFF_FFFF   low RAM (guest code, staging buffers)
    0x1000_0000                  UART
    0x1001_0000                  timer
    0x1002_0000                  interrupt controller
    0x1003_0000                  block device
    0x1004_0000                  GPU control registers
    0x2000_0000 ..               driver heap (buffers, page tables, jobs)
"""

import os
from dataclasses import asdict, dataclass, field, replace

from repro.cpu.devices import (
    UART,
    BlockDevice,
    InterruptController,
    NetworkDevice,
    Timer,
)
from repro.cpu.routines import GuestRoutines
from repro.driver.kbase import KBaseDriver, TenancyConfig
from repro.gpu import regs as gpu_regs
from repro.gpu.device import (  # noqa: F401 - re-exports the engine names
    DEFAULT_ENGINE,
    ENGINE_MODES,
    ENGINE_NAMES,
    GPUConfig,
    GPUDevice,
    resolve_engine,
)
from repro.instrument.registry import StatsRegistry
from repro.mem.bus import Bus
from repro.mem.physical import PhysicalMemory
from repro.state import Stateful

UART_BASE = 0x1000_0000
TIMER_BASE = 0x1001_0000
IRQC_BASE = 0x1002_0000
BLOCK_BASE = 0x1003_0000
GPU_BASE = 0x1004_0000
NET_BASE = 0x1005_0000

GUEST_CODE_BASE = 0x0010_0000
STAGING_BASE = 0x0080_0000
STAGING_SIZE = 0x0400_0000  # 64 MiB staging window
HEAP_BASE = 0x2000_0000
HEAP_SIZE = 0x4000_0000  # 1 GiB driver heap


@dataclass
class PlatformConfig:
    """Full-platform configuration.

    Attributes:
        gpu: GPU configuration (cores, host threads, instrumentation).
        cpu_engine: "dbt" (our simulator) or "interpretive" (baseline mode).
        memory_size: physical memory size in bytes.
        tenancy: optional :class:`~repro.driver.kbase.TenancyConfig`;
            the driver then hosts one :class:`TenantContext` per entry
            (private VA space + heap carve-out each) and the platform
            registers a ``tenant{i}.*`` stats subtree per tenant. None
            keeps the single-client driver.
    """

    gpu: GPUConfig = field(default_factory=GPUConfig)
    cpu_engine: str = "dbt"
    memory_size: int = 1 << 32
    tenancy: object = None

    def to_plain(self):
        """Every field of every level as plain JSON data, except
        ``GPUConfig.tracer`` — a host-process observer, not platform
        configuration."""
        return asdict(replace(self, gpu=replace(self.gpu, tracer=None)))

    @classmethod
    def from_plain(cls, plain):
        tenancy = plain["tenancy"]
        return cls(**{
            **plain, "gpu": GPUConfig(**plain["gpu"]),
            "tenancy": (None if tenancy is None
                        else TenancyConfig.from_plain(tenancy))})


class MobilePlatform(Stateful):
    """A fully wired simulated mobile CPU/GPU platform."""

    #: attribute paths of the :class:`~repro.state.Stateful` components,
    #: in restore order (physical memory, which holds the page tables
    #: and descriptors these re-point at, is restored before any of them)
    COMPONENTS = ("uart", "timer", "irqc", "net", "block", "guest.cpu",
                  "gpu", "gpu.mmu", "gpu.job_manager", "driver",
                  "stats_registry")
    STATE_CHILDREN = COMPONENTS
    STATE_FIELDS = ("_staging_next",)

    def __init__(self, config=None):
        self.config = config or PlatformConfig()
        self.memory = PhysicalMemory(self.config.memory_size)
        self.bus = Bus(self.memory)

        self.uart = UART()
        self.timer = Timer()
        self.irqc = InterruptController()
        self.block = BlockDevice(self.memory)
        self.net = NetworkDevice()
        self.gpu = GPUDevice(
            self.memory, config=self.config.gpu, irq_callback=self._gpu_irq
        )

        self.bus.map_device("uart", UART_BASE, 0x1000, self.uart)
        self.bus.map_device("timer", TIMER_BASE, 0x1000, self.timer)
        self.bus.map_device("irqc", IRQC_BASE, 0x1000, self.irqc)
        self.bus.map_device("block", BLOCK_BASE, 0x1000, self.block)
        self.bus.map_device("net", NET_BASE, 0x1000, self.net)
        self.bus.map_device("gpu", GPU_BASE, gpu_regs.MMIO_WINDOW_SIZE, self.gpu)

        self.guest = GuestRoutines(
            self.bus, code_base=GUEST_CODE_BASE, engine=self.config.cpu_engine
        )
        self.driver = KBaseDriver(
            self.bus, self.irqc, GPU_BASE, heap_base=HEAP_BASE,
            heap_size=HEAP_SIZE, tenancy=self.config.tenancy
        )
        # direct GPU handle for statistics capture only (per-tenant
        # clause ledgers, MMU translation deltas); control stays MMIO
        self.driver.attach_gpu(self.gpu)
        # the driver's page-fault worker resolves translation misses in
        # grow-on-fault regions synchronously, so the faulting GPU access
        # resumes (kbase's parked-transaction page-fault handling)
        self.gpu.mmu.set_fault_handler(self.driver.handle_page_fault)
        self._injector = None
        self._staging_next = STAGING_BASE

        # cross-layer observability: every layer registers its counters
        # into one hierarchical registry; the event tracer is attached on
        # demand (attach_events) since tracing is opt-in
        self.stats_registry = StatsRegistry()
        self.events = None
        self._register_stats()

    @classmethod
    def for_mode(cls, mode, tenancy=None, instrument=True):
        """The platform factory of every campaign: a fresh, not yet
        initialized platform running engine *mode*, one of
        :data:`ENGINE_NAMES`."""
        return cls(PlatformConfig(
            gpu=GPUConfig(engine=mode, instrument=instrument),
            tenancy=tenancy))

    def _register_stats(self):
        registry = self.stats_registry
        self.guest.register_stats(registry.scope("cpu.core"))
        self.driver.register_stats(registry.scope("driver.kbase"))
        self.gpu.register_stats(registry.scope("gpu"))
        # recovery-ladder headline counters at the driver scope root
        driver_scope = registry.scope("driver")
        driver_scope.probe("resets", lambda: self.driver.resets,
                           desc="GPU resets issued by the recovery ladder")
        driver_scope.probe("retries", lambda: self.driver.retries,
                           desc="job resubmissions by the recovery ladder")
        # per-tenant subtrees exist only when tenancy is configured, so
        # single-client golden snapshots are unchanged
        if self.config.tenancy is not None:
            for tenant in self.driver.tenants:
                tenant.register_stats(
                    registry.scope(f"tenant{tenant.tenant_id}"))
        # injection counters bind through self._injector so attaching or
        # swapping injectors never re-registers (probes are get-or-create)
        from repro.inject.plan import SITES

        inject_scope = registry.scope("inject")
        for site in sorted(SITES):
            inject_scope.probe(
                site.replace(".", "_"),
                (lambda s=site: self._injector.fired[s]
                 if self._injector is not None else 0),
                desc=f"faults injected at {site}", golden=False)
        inject_scope.probe(
            "total",
            lambda: (self._injector.total_fired
                     if self._injector is not None else 0),
            desc="total faults injected", golden=False)

    def attach_events(self, tracer):
        """Attach an :class:`~repro.instrument.tracing.EventTracer`; the
        driver and the GPU start emitting job-lifecycle spans into it.
        Pass None to detach."""
        self.events = tracer
        self.driver.events = tracer
        self.gpu.job_manager.events = tracer
        return tracer

    def attach_injector(self, injector):
        """Attach a :class:`~repro.inject.FaultInjector` to every
        registered injection site (driver allocator and IRQ paths, GPU
        MMU, job manager, shader cores). Pass None to detach; the
        platform then behaves exactly as if no injector ever existed."""
        self._injector = injector
        self.driver.injector = injector
        self.gpu.mmu.set_injector(injector)
        self.gpu.job_manager.injector = injector
        return injector

    def _gpu_irq(self, gpu):
        """Route GPU interrupt assertions to the interrupt controller."""
        self.timer.tick()
        if gpu.job_irq_pending:
            injector = self._injector
            if injector is None or injector.fire("irq.lost") is None:
                self.irqc.raise_irq(InterruptController.SRC_GPU_JOB)
            # else: the JOB line assertion is dropped on the floor — the
            # driver's completion poll detects rawstat with no pending
            # line and recovers (a "lost" IRQ)
        if gpu.mmu_irq_pending:
            self.irqc.raise_irq(InterruptController.SRC_GPU_MMU)

    # -- staging (host <-> guest data exchange) -------------------------------

    def stage_bytes(self, data):
        """Place host bytes into the staging window; returns their address.

        The staging window models the user-space buffer the application
        hands to the runtime; moving it into GPU memory is then a guest
        (simulated-CPU) memcpy.
        """
        if len(data) > STAGING_SIZE:
            raise ValueError("staging window exceeded")
        if self._staging_next + len(data) > STAGING_BASE + STAGING_SIZE:
            self._staging_next = STAGING_BASE
        address = self._staging_next
        self.memory.write_block(address, data)
        self._staging_next += (len(data) + 63) & ~63
        return address

    def initialize(self):
        """Run the driver's GPU bring-up; idempotent."""
        if not self.driver.initialized:
            self.driver.initialize_gpu()
        return self

    # -- checkpoint/restore ---------------------------------------------------

    def get_state(self):
        """The whole platform's mutable state except memory contents.

        Nothing host-side (CL ``Buffer``/``Kernel`` handles, event
        tracers, injected callables) is included — those belong to the
        process, not the platform."""
        state = super().get_state()
        state["injector"] = (None if self._injector is None
                             else self._injector.get_state())
        return state

    def set_state(self, state):
        """Overwrite this platform — freshly built from the same config,
        never initialized, physical memory already reloaded — with
        :meth:`get_state` output."""
        from repro.inject.injector import FaultInjector

        super().set_state(state)
        # after the driver: binaries are read through the tenants'
        # restored page tables, which moves no golden MMU counter
        self.gpu.job_manager.rewarm_decode_cache(
            state["gpu.job_manager"]["decode_cache_keys"],
            lambda as_id, va, size:
                self.driver.tenant(as_id).read_va(va, size))
        self.attach_injector(
            None if state["injector"] is None
            else FaultInjector.from_state(state["injector"]))

    def save_checkpoint(self, directory, extra=None):
        """Snapshot the whole platform into *directory*.

        See :mod:`repro.checkpoint`: a versioned, SHA-256-manifested
        directory restorable into a fresh process bit-identically.
        *extra* is an optional JSON-serializable payload returned by
        :meth:`restore_checkpoint` (RNG streams, harness step state).
        """
        from repro.checkpoint import save_checkpoint

        return save_checkpoint(self, directory, extra=extra)

    @staticmethod
    def restore_checkpoint(directory):
        """Rebuild a platform from a checkpoint directory.

        Returns ``(platform, extra)``. Digest verification fails closed
        with :class:`~repro.errors.CheckpointError` on any corruption.
        """
        from repro.checkpoint import restore_checkpoint

        return restore_checkpoint(directory)

    def enable_auto_checkpoint(self, directory, every_jobs=16,
                               extra_fn=None):
        """Snapshot into ``directory/ckpt-NNNN`` every *every_jobs*
        retired jobs, atomically updating ``directory/LATEST`` to name
        the newest complete checkpoint. Pass ``every_jobs=None`` (or 0)
        to disable. *extra_fn*, when given, is called at each snapshot
        and its JSON-serializable return value stored as the
        checkpoint's ``extra`` payload.
        """
        from repro.checkpoint import atomic_write_text, save_checkpoint

        if not every_jobs:
            self.driver.on_job_retired = None
            return
        os.makedirs(directory, exist_ok=True)
        progress = {"since": 0, "seq": 0}

        def snapshot():
            progress["since"] += 1
            if progress["since"] < every_jobs:
                return
            progress["since"] = 0
            progress["seq"] += 1
            name = f"ckpt-{progress['seq']:04d}"
            extra = extra_fn() if extra_fn is not None else None
            save_checkpoint(self, os.path.join(directory, name),
                            extra=extra)
            # LATEST lands only after the checkpoint's manifest, so it
            # always names a complete, verifiable snapshot
            atomic_write_text(os.path.join(directory, "LATEST"),
                              name + "\n")

        self.driver.on_job_retired = snapshot

    # -- statistics -----------------------------------------------------------------

    def system_stats(self):
        return self.gpu.snapshot_system_stats()

    def last_job_results(self):
        return self.gpu.last_results
