"""Compiler driver: source -> compiled kernels.

The entry point :func:`compile_source` runs the full pipeline for every
kernel in the translation unit and returns a :class:`CompiledProgram` with
per-kernel binaries and metadata — the artifact the OpenCL runtime's
``clBuildProgram`` equivalent hands to the driver.
"""

from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.hostcode import PROGRAM_CACHE_SIZE, BoundedTable
from repro.clc.codegen import generate_program
from repro.clc.ir import Const
from repro.clc.lower import KernelLowering
from repro.clc.parser import parse
from repro.clc.passes import (
    eliminate_dead_code,
    local_copyprop,
    prune_unreachable,
    unroll_loops,
)
from repro.clc.regalloc import SpillRequired, allocate_registers
from repro.clc.schedule import assign_temporaries, schedule_block
from repro.clc.spill import spill_vreg, spillable_candidates
from repro.clc.versions import DEFAULT_VERSION, CompilerOptions
from repro.gpu.encoding import encode_program


@dataclass
class CompiledKernel:
    """One compiled kernel: binary image + launch metadata.

    Attributes:
        name: kernel function name.
        binary: encoded program image (what the driver maps for the GPU).
        program: the decoded form (for offline inspection/disassembly).
        work_registers: GRF registers used (the Fig. 1 "Registers" metric).
        local_static_size: bytes of ``__local`` arrays declared in-kernel.
        scratch_per_thread: bytes of per-thread private-array scratch.
        params: list of (name, kind, type); kind in buffer/scalar/local_ptr.
        uniform_count: words of the uniform image (:mod:`repro.gpu.launch`).
    """

    name: str
    binary: bytes
    program: object
    work_registers: int
    local_static_size: int
    scratch_per_thread: int
    params: list
    uniform_count: int

    def static_metrics(self):
        """Static code metrics (slot/NOP counts, clause sizes)."""
        sizes = {}
        for clause in self.program.clauses:
            sizes[clause.size] = sizes.get(clause.size, 0) + 1
        return {
            "clauses": len(self.program.clauses),
            "slots": self.program.static_slot_count,
            "nops": self.program.static_nop_count,
            "registers": self.work_registers,
            "clause_sizes": sizes,
            "binary_bytes": len(self.binary),
        }


@dataclass
class CompiledProgram:
    """All kernels of a translation unit, compiled with one option set."""

    options: CompilerOptions
    kernels: dict = field(default_factory=dict)

    def kernel(self, name):
        try:
            return self.kernels[name]
        except KeyError:
            raise CompileError(f"no kernel named {name!r}") from None


_MAX_SPILL_ROUNDS = 16


def _patch_layout_markers(fn):
    """Write the (current) scratch-layout sizes into their marker MOVs.

    Called before every scheduling round: the clause constant pools
    snapshot these values, and spilling grows ``scratch_per_thread``.
    """
    marker = getattr(fn, "scratch_size_marker", None)
    if marker is not None:
        marker.srcs = (Const.from_int(fn.scratch_per_thread),)
    marker = getattr(fn, "local_base_marker", None)
    if marker is not None:
        marker.srcs = (Const.from_int(fn.local_static_size),)


def compile_kernel(kernel_ast, options):
    """Run the pipeline for a single kernel AST."""
    if options.unroll_limit > 1:
        kernel_ast.body = unroll_loops(kernel_ast.body, options.unroll_limit)

    fn = KernelLowering(kernel_ast, options).lower()

    prune_unreachable(fn)
    if options.copyprop:
        local_copyprop(fn)
    if options.dce:
        eliminate_dead_code(fn)

    # schedule + allocate, spilling the longest-lived value and retrying
    # whenever pressure exceeds the GRF
    for _round in range(_MAX_SPILL_ROUNDS):
        _patch_layout_markers(fn)  # sizes may grow as spills are added
        block_plans = {
            id(block): schedule_block(block.instrs,
                                      dual_issue=options.dual_issue)
            for block in fn.blocks
        }
        temp_map = (
            assign_temporaries(block_plans, fn) if options.temp_forward
            else {}
        )
        try:
            assignment, registers_used = allocate_registers(
                fn, block_plans, temp_map
            )
            break
        except SpillRequired as exc:
            eligible = spillable_candidates(fn)
            victim = next((c for c in exc.candidates if c in eligible), None)
            if victim is None:
                raise CompileError(
                    f"kernel {fn.name!r}: register pressure cannot be "
                    "relieved by spilling"
                ) from exc
            spill_vreg(fn, victim)
    else:
        raise CompileError(
            f"kernel {fn.name!r}: still over register budget after "
            f"{_MAX_SPILL_ROUNDS} spill rounds"
        )

    program = generate_program(fn, block_plans, assignment, temp_map)
    return CompiledKernel(
        name=fn.name,
        binary=encode_program(program),
        program=program,
        work_registers=registers_used,
        local_static_size=fn.local_static_size,
        scratch_per_thread=fn.scratch_per_thread,
        params=list(fn.params),
        uniform_count=fn.uniform_count,
    )


#: Compiled programs by build key, handed to every producer of binaries
#: (CL runtime, m2s, conformance, lint): never written after insertion.
_programs = BoundedTable(PROGRAM_CACHE_SIZE)


def build_key(source, options=None, defines=None):
    """What determines a compile: the text, the resolved options and the
    defines in the order given (the preprocessor substitutes in that
    order), each value as the ``str()`` it is substituted as."""
    if not isinstance(options, CompilerOptions):
        options = CompilerOptions.from_version(
            DEFAULT_VERSION if options is None else options)
    return source, options, tuple(
        (name, str(value)) for name, value in (defines or {}).items())


def compile_source(source, options=None, defines=None):
    """Compile kernel-language *source*; returns a :class:`CompiledProgram`
    — the stored one when this process compiled the same thing before.

    Args:
        source: kernel-language text (may contain several ``__kernel``
            functions).
        options: a :class:`CompilerOptions`, a version ("5.6" .. "6.2",
            as a string or a number), or None for the default version.
        defines: mapping of preprocessor defines (like ``-D`` options).
    """
    key = build_key(source, options, defines)

    def compile_unit():
        unit = parse(source, defines)
        if not unit.kernels:
            raise CompileError("no kernel functions found")
        compiled = CompiledProgram(options=key[1])
        for kernel_ast in unit.kernels:
            compiled.kernels[kernel_ast.name] = compile_kernel(
                kernel_ast, key[1])
        return compiled

    return _programs.lookup(key, compile_unit)
