"""Instruction-trace recording and differential comparison."""

from dataclasses import dataclass

import numpy as np

from repro.gpu.isa import REG_GLOBAL_ID


@dataclass(frozen=True)
class TraceEvent:
    """One observed instruction effect for one thread."""

    op: str
    dst: int
    element: int
    value: int

    def __repr__(self):
        return f"{self.op} d{self.dst}[{self.element}]=0x{self.value:08x}"


class InstructionTracer:
    """Records per-thread instruction effects.

    Works with every engine: mega's traced code calls :meth:`record`, the
    quad-warp executor :meth:`record_quad`, the scalar baseline
    :meth:`record_scalar`. Threads are keyed by their global id triple,
    so traces from differently-scheduled engines align.
    """

    def __init__(self):
        self.by_thread = {}
        self._threads = []  # the thread of every event, in recording order

    def _append(self, key, event):
        self.by_thread.setdefault(key, []).append(event)
        self._threads.append(key)

    def rollback(self, total_events):
        """Drop every event recorded since :attr:`total_events` read
        *total_events* (an abandoned lockstep batch's)."""
        threads = self._threads
        while len(threads) > total_events:
            key = threads.pop()
            events = self.by_thread[key]
            events.pop()
            if not events:
                del self.by_thread[key]

    def record(self, rows, lanes, op, dst, values, element=0):
        """The lanes' *values* for instruction *op* with destination field
        *dst*: ``rows[r]`` is register *r* as a lane vector, *lanes* lane
        indices (None: every lane)."""
        gx, gy, gz = rows[REG_GLOBAL_ID:REG_GLOBAL_ID + 3]
        for lane in range(len(values)) if lanes is None else lanes:
            self._append((int(gx[lane]), int(gy[lane]), int(gz[lane])),
                         TraceEvent(op, dst, element,
                                    int(values[lane]) & 0xFFFFFFFF))

    def record_quad(self, warp, mask, instr, values, element=0):
        self.record(warp.regs.T, np.flatnonzero(mask), instr.op.name,
                    instr.dst, values, element)

    def record_scalar(self, thread, instr, value, element=0):
        regs = thread.regs
        key = (regs[REG_GLOBAL_ID], regs[REG_GLOBAL_ID + 1],
               regs[REG_GLOBAL_ID + 2])
        self._append(key, TraceEvent(instr.op.name, instr.dst, element,
                                     int(value) & 0xFFFFFFFF))

    @property
    def total_events(self):
        return len(self._threads)


@dataclass
class TraceMismatch:
    """First point of divergence between two traces."""

    thread: tuple
    index: int
    ours: object  # TraceEvent or None (missing)
    reference: object

    def __str__(self):
        return (f"thread {self.thread} diverges at instruction {self.index}: "
                f"ours={self.ours!r} reference={self.reference!r}")


def compare_traces(ours, reference):
    """Diff two :class:`InstructionTracer` contents.

    Returns a list of :class:`TraceMismatch` (empty when the engines are
    instruction-for-instruction identical — the paper's "100% architectural
    accuracy" check).
    """
    mismatches = []
    threads = set(ours.by_thread) | set(reference.by_thread)
    for thread in sorted(threads):
        mine = ours.by_thread.get(thread, [])
        theirs = reference.by_thread.get(thread, [])
        for index in range(max(len(mine), len(theirs))):
            a = mine[index] if index < len(mine) else None
            b = theirs[index] if index < len(theirs) else None
            if a != b:
                mismatches.append(TraceMismatch(thread, index, a, b))
                break  # report first divergence per thread
    return mismatches

