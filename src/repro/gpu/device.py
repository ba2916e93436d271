"""Top-level GPU device on the system bus.

Exposes the control-register file (:mod:`repro.gpu.regs`) to the CPU side,
owns the GPU MMU and the Job Manager, and drives the interrupt line. All
register traffic and interrupt assertions are counted into
:class:`~repro.instrument.stats.SystemStats` (Table III).
"""

from dataclasses import dataclass

from repro.errors import BusError, JobFault, JobHang, JobPreempted
from repro.gpu import regs
from repro.gpu.jobmanager import JobManager
from repro.gpu.mmu import GPUMMU
from repro.instrument.stats import SystemStats
from repro.mem.bus import MMIODevice
from repro.state import Stateful

#: the execution tiers every harness, farm provider and CLI ``choices=``
#: sweeps; the scalar-MMU ablation is a knob on the built platform
#: (``gpu.mmu.fast_path_enabled``), not a mode
ENGINE_MODES = ("interp", "mega")
#: the mode run wherever a caller names none
DEFAULT_ENGINE = "mega"

#: other spellings of ``interp``: ``interpreter``, which saved checkpoints
#: and pinned configurations carry, and ``fast`` and ``jit``, which pinned
#: benchmark configurations name (``benchmarks/e2e``)
ENGINE_ALIASES = {"interpreter": "interp", "fast": "interp", "jit": "interp"}

#: every name :func:`resolve_engine` takes
ENGINE_NAMES = (*ENGINE_MODES, *ENGINE_ALIASES)


def resolve_engine(name):
    """The :data:`ENGINE_MODES` member *name* spells; ``ValueError`` for a
    name outside :data:`ENGINE_NAMES`."""
    if name not in ENGINE_NAMES:
        raise ValueError(f"unknown engine mode {name!r}; "
                         f"known: {ENGINE_NAMES}")
    return ENGINE_ALIASES.get(name, name)


@dataclass
class GPUConfig:
    """Static GPU configuration.

    Attributes:
        num_shader_cores: modelled physical shader cores (G71 MP8 -> 8),
            as ``SHADER_PRESENT`` reports them; every job runs on the Job
            Manager's one execution unit whatever the count.
        num_host_threads: must be 1; kept because pinned benchmark
            configurations pass it.
        instrument: collect per-job program-execution statistics, the
            divergence CFG (Fig. 6, ``JobResult.cfg``) included.
        tracer: optional instruction tracer (see repro.validate) recording
            every executed instruction's result — the paper's validation
            "instruction tracing mode".
        engine: a name :func:`resolve_engine` takes, stored as the mode
            it spells (:data:`DEFAULT_ENGINE` if none): ``"mega"``
            translates every program to workgroup-wide host code,
            ``"interp"`` is the reference quad interpreter.
    """

    num_shader_cores: int = 8
    num_host_threads: int = 1
    instrument: bool = True
    tracer: object = None
    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        self.engine = resolve_engine(self.engine)
        if self.num_host_threads != 1:
            raise ValueError(f"num_host_threads={self.num_host_threads!r}: "
                             "the GPU model runs one execution unit")


class GPUDevice(MMIODevice, Stateful):
    """The simulated Mali-G71-like GPU."""

    # the register file and command counters; the MMU and the Job Manager
    # are components of their own
    STATE_FIELDS = (
        "_shader_ready", "_job_irq_rawstat", "_job_irq_mask",
        "_mmu_irq_rawstat", "_mmu_irq_mask", "_job_status", "_fault_reason",
        "_job_count", "_submit_lo", "_pgd_lo", "_pgd_hi", "_job_slice",
        "soft_resets", "job_soft_stops", "job_hard_stops",
    )
    STATE_CHILDREN = ("system_stats",)

    def __init__(self, memory, config=None, irq_callback=None):
        self.config = config or GPUConfig()
        self.mmu = GPUMMU(memory)
        self.job_manager = JobManager(
            self.mmu,
            self.config.engine,
            instrument=self.config.instrument,
            tracer=self.config.tracer,
        )
        self.system_stats = SystemStats()
        self._irq_callback = irq_callback
        self._shader_ready = 0
        self._job_irq_rawstat = 0
        self._job_irq_mask = 0
        self._mmu_irq_rawstat = 0
        self._mmu_irq_mask = 0
        self._job_status = regs.JOB_STATUS_IDLE
        self._fault_reason = regs.REASON_NONE
        self._job_count = 0
        self._submit_lo = 0
        self._pgd_lo = 0
        self._pgd_hi = 0
        self._job_slice = 0  # JOB_SLICE: workgroup budget, 0 = unlimited
        self.last_results = []
        # recovery-ladder bookkeeping (driver-issued commands)
        self.soft_resets = 0
        self.job_soft_stops = 0
        self.job_hard_stops = 0

    # -- IRQ handling -----------------------------------------------------------

    @property
    def job_irq_pending(self):
        """Unmasked JOB interrupt bits (the JOB line is asserted)."""
        return self._job_irq_rawstat & self._job_irq_mask

    @property
    def mmu_irq_pending(self):
        """Unmasked MMU interrupt bits (the MMU line is asserted)."""
        return self._mmu_irq_rawstat & self._mmu_irq_mask

    def _assert_irq(self):
        self.system_stats.interrupts_asserted += 1
        if self._irq_callback is not None:
            self._irq_callback(self)

    def _raise_job_irq(self, bits):
        self._job_irq_rawstat |= bits
        if self._job_irq_rawstat & self._job_irq_mask:
            self._assert_irq()

    def _raise_mmu_irq(self, bits):
        self._mmu_irq_rawstat |= bits
        if self._mmu_irq_rawstat & self._mmu_irq_mask:
            self._assert_irq()

    # -- register file -----------------------------------------------------------

    def read_reg(self, offset):
        self.system_stats.ctrl_reg_reads += 1
        if offset == regs.GPU_ID:
            return regs.GPU_ID_VALUE
        if offset == regs.SHADER_PRESENT:
            return (1 << self.config.num_shader_cores) - 1
        if offset == regs.SHADER_READY:
            return self._shader_ready
        if offset == regs.JOB_IRQ_RAWSTAT:
            return self._job_irq_rawstat
        if offset == regs.JOB_IRQ_MASK:
            return self._job_irq_mask
        if offset == regs.JOB_STATUS:
            return self._job_status
        if offset == regs.JOB_COUNT:
            return self._job_count
        if offset == regs.JOB_FAULT_REASON:
            return self._fault_reason
        if offset == regs.MMU_IRQ_RAWSTAT:
            return self._mmu_irq_rawstat
        if offset == regs.MMU_IRQ_MASK:
            return self._mmu_irq_mask
        if offset == regs.MMU_PGD_LO:
            return self._pgd_lo
        if offset == regs.MMU_PGD_HI:
            return self._pgd_hi
        if offset == regs.MMU_ENABLE:
            return int(self.mmu.enabled)
        if offset == regs.MMU_FAULT_ADDR_LO:
            return self.mmu.fault_addr & 0xFFFFFFFF
        if offset == regs.MMU_FAULT_ADDR_HI:
            return (self.mmu.fault_addr >> 32) & 0xFFFFFFFF
        if offset == regs.MMU_FAULT_STATUS:
            return self.mmu.fault_status
        if offset == regs.MMU_AS:
            return self.mmu.address_space
        if offset == regs.JOB_SLICE:
            return self._job_slice
        raise BusError(f"read of unknown GPU register 0x{offset:x}")

    def write_reg(self, offset, value):
        self.system_stats.ctrl_reg_writes += 1
        if offset == regs.PWR_ON:
            self._shader_ready |= value & ((1 << self.config.num_shader_cores) - 1)
        elif offset == regs.PWR_OFF:
            self._shader_ready &= ~value
        elif offset == regs.JOB_IRQ_CLEAR:
            self._job_irq_rawstat &= ~value
        elif offset == regs.JOB_IRQ_MASK:
            self._job_irq_mask = value
        elif offset == regs.JOB_SUBMIT_LO:
            self._submit_lo = value
        elif offset == regs.JOB_SUBMIT_HI:
            self._doorbell(self._submit_lo | (value << 32))
        elif offset == regs.MMU_IRQ_CLEAR:
            self._mmu_irq_rawstat &= ~value
        elif offset == regs.MMU_IRQ_MASK:
            self._mmu_irq_mask = value
        elif offset == regs.MMU_PGD_LO:
            self._pgd_lo = value
            self._update_pgd()
        elif offset == regs.MMU_PGD_HI:
            self._pgd_hi = value
            self._update_pgd()
        elif offset == regs.MMU_ENABLE:
            self.mmu.enabled = bool(value & 1)
            if self.mmu.enabled:
                self.mmu.flush_tlb()
        elif offset == regs.MMU_FLUSH:
            # TLB invalidate only; shader binaries are immutable while
            # mapped, so the decode cache survives ("decoded exactly once")
            self.mmu.flush_tlb()
            self.system_stats.tlb_flushes += 1
        elif offset == regs.MMU_AS:
            self.mmu.address_space = value
        elif offset == regs.JOB_SLICE:
            self._job_slice = value
        elif offset == regs.GPU_COMMAND:
            if value & regs.GPU_COMMAND_SOFT_RESET:
                self._soft_reset()
        elif offset == regs.JOB_COMMAND:
            self._job_command(value)
        else:
            raise BusError(f"write of unknown GPU register 0x{offset:x}")

    def _job_command(self, value):
        """Soft/hard-stop the job slot: acknowledge the watchdog latch.

        The model runs jobs to a stopping point synchronously, so by the
        time the driver issues the stop the slot has already been parked;
        the command clears the hang latch so the slot can be resubmitted.
        """
        if value == regs.JOB_COMMAND_SOFT_STOP:
            self.job_soft_stops += 1
        elif value == regs.JOB_COMMAND_HARD_STOP:
            self.job_hard_stops += 1
        else:
            raise BusError(f"unknown JOB_COMMAND 0x{value:x}")
        self._job_status = regs.JOB_STATUS_IDLE
        self._fault_reason = regs.REASON_NONE

    def _soft_reset(self):
        """GPU_COMMAND soft reset: return the device to its power-on
        state. The driver must redo the whole bring-up sequence (power,
        IRQ masks, page-table base) before the next submission; the
        decode cache is lost with the rest of the device state."""
        self.soft_resets += 1
        self._shader_ready = 0
        self._job_irq_rawstat = 0
        self._job_irq_mask = 0
        self._mmu_irq_rawstat = 0
        self._mmu_irq_mask = 0
        self._job_status = regs.JOB_STATUS_IDLE
        self._fault_reason = regs.REASON_NONE
        self._submit_lo = 0
        self._job_slice = 0
        self.mmu.address_space = 0
        self.mmu.enabled = False
        self.mmu.flush_tlb()
        self.mmu.fault_addr = 0
        self.mmu.fault_status = 0
        self.job_manager.invalidate_decode_cache()

    def _update_pgd(self):
        self.mmu.set_page_table(self._pgd_lo | (self._pgd_hi << 32))

    # -- job execution ---------------------------------------------------------------

    def _doorbell(self, descriptor_va):
        """Job submission: run the descriptor chain on the shader cores."""
        if not self._shader_ready:
            self._job_status = regs.JOB_STATUS_FAULT
            self._raise_job_irq(regs.JOB_IRQ_FAULT)
            return
        try:
            results = self.job_manager.run_job_chain(
                descriptor_va, workgroup_budget=self._job_slice or None)
        except JobPreempted:
            # the budgeted prefix completed; park the slot with the
            # soft-stop reason so the driver requeues instead of walking
            # the recovery ladder (no MMU state to latch, not a fault)
            self._job_status = regs.JOB_STATUS_FAULT
            self._fault_reason = regs.REASON_SOFT_STOPPED
            self._raise_job_irq(regs.JOB_IRQ_FAULT)
            return
        except JobFault as exc:
            self.system_stats.mmu_faults += 1
            self._job_status = regs.JOB_STATUS_FAULT
            if isinstance(exc, JobHang):
                # the progress watchdog parked the slot: no MMU state to
                # latch, the driver reads REASON_HANG and runs the
                # soft-stop -> hard-stop -> reset ladder
                self._fault_reason = regs.REASON_HANG
            else:
                self._fault_reason = (
                    regs.REASON_MMU
                    if getattr(exc, "fault_class", "mmu") == "mmu"
                    else regs.REASON_DESCRIPTOR)
                self.mmu.fault_status = self.mmu.fault_status or 1
                self._raise_mmu_irq(regs.MMU_IRQ_FAULT)
            self._raise_job_irq(regs.JOB_IRQ_FAULT)
            return
        self.last_results = results
        self._job_count += len(results)
        self.system_stats.compute_jobs += len(results)
        self._job_status = regs.JOB_STATUS_DONE
        self._fault_reason = regs.REASON_NONE
        self._raise_job_irq(regs.JOB_IRQ_DONE)

    # -- statistics snapshot ------------------------------------------------------------

    def snapshot_system_stats(self):
        """Return SystemStats including the MMU's distinct-page count."""
        self.system_stats.pages_accessed = len(self.mmu.pages_accessed)
        return self.system_stats

    def register_stats(self, scope):
        """Register the GPU hierarchy under *scope* (typically ``gpu``):
        Table III interaction counters, the Job Manager / core warp
        groups, and the MMU."""
        from repro.instrument.registry import register_mmu_stats

        stats = self.system_stats
        for field_name, desc in (
            ("ctrl_reg_reads", "control-register reads (Table III)"),
            ("ctrl_reg_writes", "control-register writes (Table III)"),
            ("interrupts_asserted", "IRQ line assertions (Table III)"),
            ("compute_jobs", "compute jobs submitted (Table III)"),
            ("mmu_faults", "jobs terminated by an MMU fault"),
            ("tlb_flushes", "MMU_FLUSH TLB invalidations"),
        ):
            scope.probe(field_name,
                        (lambda s=stats, f=field_name: getattr(s, f)),
                        desc=desc)
        self.job_manager.register_stats(scope)
        register_mmu_stats(scope.scope("mmu"), self.mmu)
        faults = scope.scope("faults")
        faults.probe("mmu_injected", lambda: self.mmu.injected_faults,
                     desc="MMU faults raised by the fault injector",
                     golden=False)
        faults.probe("page_faults_resolved",
                     lambda: self.mmu.page_faults_resolved,
                     desc="translation misses resolved by the driver's "
                          "page-fault worker (grow-on-fault)")
        faults.probe("watchdog_timeouts",
                     lambda: self.job_manager.watchdog_timeouts,
                     desc="jobs parked by the progress watchdog")
        faults.probe("descriptor_corruptions",
                     lambda: self.job_manager.descriptor_corruptions,
                     desc="descriptor reads corrupted by the injector",
                     golden=False)
        faults.probe("soft_resets", lambda: self.soft_resets,
                     desc="GPU_COMMAND soft resets executed")
        faults.probe("job_soft_stops", lambda: self.job_soft_stops,
                     desc="JOB_COMMAND soft-stops received")
        faults.probe("job_hard_stops", lambda: self.job_hard_stops,
                     desc="JOB_COMMAND hard-stops received")
