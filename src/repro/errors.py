"""Exception hierarchy for the simulator.

Every subsystem raises a subclass of :class:`SimError`, so callers can
distinguish simulator faults from ordinary Python errors.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class MemoryError_(SimError):
    """Physical memory access outside any mapped region."""


class BusError(SimError):
    """MMIO access to an unmapped or misaligned device address."""


class MMUFault(SimError):
    """Address translation failure (unmapped page or permission violation).

    Attributes:
        vaddr: faulting virtual address.
        access: 'r', 'w' or 'x'.
    """

    def __init__(self, vaddr, access, message=""):
        super().__init__(message or f"MMU fault at 0x{vaddr:x} ({access})")
        self.vaddr = vaddr
        self.access = access


class DecodeError(SimError):
    """Invalid instruction or clause encoding."""


class GuestError(SimError):
    """Guest CPU program fault (bad opcode, misaligned access, ...)."""


class CompileError(SimError):
    """Kernel-language compilation failure.

    Attributes:
        line: 1-based source line of the error, or None.
        col: 1-based source column of the error, or None.
    """

    def __init__(self, message, line=None, col=None):
        location = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col


class CLError(SimError):
    """OpenCL-like runtime API misuse (bad arg index, wrong sizes, ...)."""


class DriverError(SimError):
    """GPU kernel-driver failure (out of VA space, bad descriptor, ...)."""


class CheckpointError(SimError):
    """A checkpoint could not be saved, verified or restored.

    Raised whenever an on-disk snapshot is missing, truncated, corrupted
    (digest mismatch) or carries an unknown format version. Restore fails
    closed: a checkpoint that does not verify is never partially applied.
    """


class CorpusError(SimError):
    """A conformance-corpus entry could not be read or materialized:
    unreadable or malformed JSON, an unknown format, a missing or
    wrong-typed field. The message names the file."""


class UsageError(SimError):
    """A command line names something that does not exist, cannot be
    read or is out of range; the CLI prints it as one line and exits 2."""


class UnknownWorkloadError(SimError, KeyError):
    """No workload of that name in the registry (still the ``KeyError``
    a failed registry lookup has always raised)."""

    def __str__(self):
        # KeyError's would repr() the message
        return self.args[0]


class IRQMismatchError(DriverError):
    """The interrupt controller and the GPU's raw IRQ status disagree.

    Raised by the driver's completion poll when the GPU reports work done
    (or faulted) in ``JOB_IRQ_RAWSTAT`` but the interrupt controller never
    latched the line (a *lost* IRQ), or the controller shows a pending GPU
    line with nothing backing it in the raw status (a *spurious* IRQ).

    Attributes:
        pending: the IRQC pending bitmask observed.
        rawstat: the GPU ``JOB_IRQ_RAWSTAT`` value observed.
        kind: ``'lost'`` or ``'spurious'``.
    """

    def __init__(self, pending, rawstat, kind):
        super().__init__(
            f"{kind} IRQ: irqc pending=0x{pending:x} "
            f"gpu rawstat=0x{rawstat:x}")
        self.pending = pending
        self.rawstat = rawstat
        self.kind = kind


class WatchdogTimeout(SimError):
    """A job exceeded its progress budget (the hardware job-slot timeout).

    Progress is measured in scheduler rounds and executed clauses — never
    wall-clock time — so identical runs trip the watchdog identically.

    Attributes:
        flat_group: flat workgroup id that exhausted its budget.
        consumed: progress units consumed when the watchdog fired.
    """

    def __init__(self, flat_group, consumed, message=""):
        super().__init__(
            message or f"workgroup {flat_group} exceeded progress budget "
                       f"({consumed} units)")
        self.flat_group = flat_group
        self.consumed = consumed


class JobFault(SimError):
    """A GPU job terminated with a fault (MMU fault, invalid clause, ...)."""


class JobHang(JobFault):
    """A GPU job was stopped by the progress watchdog (soft/hard stop)."""


class JobPreempted(JobFault):
    """A GPU job was parked at its ``JOB_SLICE`` workgroup budget.

    Raised by the job manager after running exactly the budgeted prefix
    of workgroups; the driver's arbiter soft-stops the slot and requeues
    the job at the tail of its class queue. Deterministic: the prefix is
    the first N flat workgroup ids, never a wall-clock cut.

    Attributes:
        completed: flat workgroups run before the slice expired.
        total: total workgroups of the job.
    """

    def __init__(self, completed, total, message=""):
        super().__init__(
            message or f"job sliced after {completed}/{total} workgroups")
        self.completed = completed
        self.total = total
        self.fault_class = "preempt"
