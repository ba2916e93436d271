"""Guest CPU simulation.

The paper simulates the Arm CPU with full-system dynamic binary translation
(DBT). We substitute a compact 64-bit RISC guest ISA (we cannot ship an
AArch64 Linux stack), with two execution engines over the same binaries:

- :class:`~repro.cpu.core.Interpreter` — decodes every instruction on every
  execution (how Multi2Sim-class simulators run CPU code);
- :class:`~repro.cpu.core.DBTCore` — translates guest code a region at a
  time into one cached host function each (the paper's JIT/DBT approach).

The OpenCL runtime routes bulk data movement (buffer writes/reads) through
guest routines executed on this CPU, so CPU-side driver cost scales with
input size exactly as in Fig. 9.
"""

from repro.cpu.isa import CpuOp
from repro.cpu.assembler import assemble
from repro.cpu.core import CPU, DBTCore, Interpreter
from repro.cpu.routines import GuestRoutines

__all__ = ["CpuOp", "assemble", "CPU", "DBTCore", "Interpreter", "GuestRoutines"]
