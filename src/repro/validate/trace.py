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

    Works with both engines: the quad-warp executor calls
    :meth:`record_quad` (one call covers up to four lanes), the scalar
    baseline calls :meth:`record_scalar`. Threads are keyed by their global
    id triple, so traces from differently-scheduled engines align.
    """

    def __init__(self):
        self.by_thread = {}

    def _append(self, key, event):
        self.by_thread.setdefault(key, []).append(event)

    def record_quad(self, warp, mask, instr, values, element=0):
        regs = warp.regs
        for lane in np.flatnonzero(mask):
            key = (int(regs[lane, REG_GLOBAL_ID]),
                   int(regs[lane, REG_GLOBAL_ID + 1]),
                   int(regs[lane, REG_GLOBAL_ID + 2]))
            self._append(key, TraceEvent(instr.op.name, instr.dst, element,
                                         int(values[lane]) & 0xFFFFFFFF))

    def record_scalar(self, thread, instr, value, element=0):
        regs = thread.regs
        key = (regs[REG_GLOBAL_ID], regs[REG_GLOBAL_ID + 1],
               regs[REG_GLOBAL_ID + 2])
        self._append(key, TraceEvent(instr.op.name, instr.dst, element,
                                     int(value) & 0xFFFFFFFF))

    @property
    def total_events(self):
        return sum(len(events) for events in self.by_thread.values())


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

