"""Per-opcode operand model: what each instruction slot reads and writes.

ALU source arity is the arity column of the op table the engines execute
from (:mod:`repro.gpu.ops`); the memory ops mirror the executor's
``_read``/``_write`` calls one for one. Structural and dataflow findings
therefore correspond one-to-one to dynamic behaviour:

- a missing required source or destination raises ``GuestError`` at
  ``_read``/``_write`` time;
- wide LD writes ``dst .. dst+width-1`` directly into the GRF array
  (a non-GRF base is an out-of-range array index, i.e. a crash);
- wide ST reads ``srcb .. srcb+width-1`` through the ordinary operand
  port (each expanded operand must itself be readable).
"""

from repro.gpu import ops
from repro.gpu.isa import NUM_GRF, OPERAND_NONE, Op

_SRC_FIELDS = ("srca", "srcb", "srcc")


def source_arity(op):
    """How many source fields (srca..) the executor reads for *op*."""
    if op is Op.LD:
        return 1  # srca = address
    if op is Op.ST:
        return 2  # srca = address, srcb = value base
    if op is Op.ATOM:
        return 2  # srca = address, srcb = operand
    if op is Op.NOP or op is Op.LDU:
        return 0
    return ops.arity(op)


def required_sources(instr):
    """``(field_name, operand)`` pairs the executor will ``_read``.

    Wide ST expands to one entry per element (``srcb+e``), exactly as
    the executor issues them.
    """
    op = instr.op
    if op is Op.ST:
        pairs = [("srca", instr.srca)]
        for element in range(instr.mem_width):
            pairs.append(("srcb", instr.srcb + element
                          if instr.srcb != OPERAND_NONE else OPERAND_NONE))
        return pairs
    return [(_SRC_FIELDS[i], getattr(instr, _SRC_FIELDS[i]))
            for i in range(source_arity(op))]


def ignored_sources(instr):
    """Source fields that are set but never read by the executor."""
    extras = []
    for i in range(source_arity(instr.op), 3):
        value = getattr(instr, _SRC_FIELDS[i])
        if value != OPERAND_NONE:
            extras.append((_SRC_FIELDS[i], value))
    return extras


def requires_dst(op):
    """True when the executor unconditionally ``_write``s a destination
    (so OPERAND_NONE there is a dynamic GuestError)."""
    return op not in (Op.NOP, Op.ST)


def written_registers(instr):
    """Operand numbers this slot writes (wide LD expands per element).

    The values are raw operand field numbers; callers classify them.
    LD element targets must be GRF — the executor indexes the register
    array directly, so ``dst + width - 1`` must stay below NUM_GRF.
    """
    op = instr.op
    if op is Op.NOP or op is Op.ST:
        return ()
    if op is Op.LD:
        if instr.dst == OPERAND_NONE:
            return (OPERAND_NONE,)
        return tuple(instr.dst + e for e in range(instr.mem_width))
    return (instr.dst,)


def ld_overflows_grf(instr):
    """Wide LD whose element targets run past the register file."""
    return (instr.op is Op.LD and instr.dst != OPERAND_NONE
            and instr.dst < NUM_GRF
            and instr.dst + instr.mem_width > NUM_GRF)
