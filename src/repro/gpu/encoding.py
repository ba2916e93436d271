"""Binary encoding of GPU shader programs.

The simulated GPU executes *binary* shader programs from guest memory, just
as the paper's simulator executes the exact Mali binaries produced by the
vendor JIT compiler. The JIT compiler (:mod:`repro.clc`) encodes to this
format, the driver places the bytes in GPU-visible memory, and the shader
cores decode from memory (decode-once, cached — Section III-B3).

Layout (all little-endian):

========== ==================================================================
offset      contents
========== ==================================================================
0x00        u32 magic ``0x42494650`` ("PFIB")
0x04        u32 number of clauses
0x08        u32 * num_clauses: byte offset of each clause from program start
...pad      to 8-byte alignment
clauses     per clause: one u64 header, ``2 * ntuples`` u64 instruction
            words, then ``nconsts`` u32 constants padded to u64 alignment
========== ==================================================================

Clause header word:

=========== =========================================
bits         field
=========== =========================================
0-3          ntuples - 1
4-9          nconsts
10-12        tail kind
13-20        cond_reg
21-36        target clause index
60-63        0xB (sanity nibble)
=========== =========================================

Instruction word: ``op(8) | dst(8) | srca(8) | srcb(8) | srcc(8) |
flags(8) | imm(16)`` from bit 0 upward.
"""

import struct

from repro.errors import DecodeError
from repro.gpu.isa import Clause, Instruction, Op, Program, Tail

MAGIC = 0x42494650
_HEADER_MAGIC = 0xB


def encode_instruction(instr):
    """Pack an :class:`~repro.gpu.isa.Instruction` into a 64-bit word."""
    return (
        (int(instr.op) & 0xFF)
        | ((instr.dst & 0xFF) << 8)
        | ((instr.srca & 0xFF) << 16)
        | ((instr.srcb & 0xFF) << 24)
        | ((instr.srcc & 0xFF) << 32)
        | ((instr.flags & 0xFF) << 40)
        | ((instr.imm & 0xFFFF) << 48)
    )


def decode_instruction(word):
    """Unpack a 64-bit instruction word."""
    opcode = word & 0xFF
    try:
        op = Op(opcode)
    except ValueError:
        raise DecodeError(f"invalid opcode 0x{opcode:02x}") from None
    return Instruction(
        op=op,
        dst=(word >> 8) & 0xFF,
        srca=(word >> 16) & 0xFF,
        srcb=(word >> 24) & 0xFF,
        srcc=(word >> 32) & 0xFF,
        flags=(word >> 40) & 0xFF,
        imm=(word >> 48) & 0xFFFF,
    )


def _encode_clause_header(clause):
    return (
        ((clause.size - 1) & 0xF)
        | ((len(clause.constants) & 0x3F) << 4)
        | ((int(clause.tail) & 0x7) << 10)
        | ((clause.cond_reg & 0xFF) << 13)
        | ((clause.target & 0xFFFF) << 21)
        | (_HEADER_MAGIC << 60)
    )


def encode_clause(clause):
    """Encode one clause to bytes (header, slots, padded constant pool)."""
    clause.validate()
    words = [_encode_clause_header(clause)]
    for fma, add in clause.tuples:
        words.append(encode_instruction(fma))
        words.append(encode_instruction(add))
    blob = struct.pack(f"<{len(words)}Q", *words)
    if clause.constants:
        consts = list(clause.constants)
        if len(consts) % 2:
            consts.append(0)
        blob += struct.pack(f"<{len(consts)}I", *(value & 0xFFFFFFFF for value in consts))
    return blob


def _unpack(fmt, data, offset, what):
    """``struct.unpack_from`` for which a short read is a typed error."""
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise DecodeError(
            f"image ends inside the {what} at offset 0x{offset:x}") from None


def decode_clause(data, offset):
    """Decode one clause from *data* at *offset*; returns (clause, end)."""
    (header,) = _unpack("<Q", data, offset, "clause header")
    if header >> 60 != _HEADER_MAGIC:
        raise DecodeError(f"bad clause header at offset 0x{offset:x}")
    ntuples = (header & 0xF) + 1
    nconsts = (header >> 4) & 0x3F
    tail = Tail((header >> 10) & 0x7)
    cond_reg = (header >> 13) & 0xFF
    target = (header >> 21) & 0xFFFF
    position = offset + 8
    tuples = []
    for _ in range(ntuples):
        fma_word, add_word = _unpack("<QQ", data, position, "tuple words")
        tuples.append((decode_instruction(fma_word), decode_instruction(add_word)))
        position += 16
    padded = nconsts + (nconsts % 2)
    constants = list(_unpack(f"<{nconsts}I", data, position, "constant pool"))
    position += 4 * padded
    return (
        Clause(tuples=tuples, constants=constants, tail=tail, cond_reg=cond_reg, target=target),
        position,
    )


def encode_program(program):
    """Encode a :class:`~repro.gpu.isa.Program` to its binary image."""
    program.validate()
    clause_blobs = [encode_clause(clause) for clause in program.clauses]
    table_size = 8 + 4 * len(clause_blobs)
    table_size += (-table_size) % 8
    offsets = []
    position = table_size
    for blob in clause_blobs:
        offsets.append(position)
        position += len(blob)
    out = struct.pack("<II", MAGIC, len(clause_blobs))
    out += struct.pack(f"<{len(offsets)}I", *offsets)
    out += b"\x00" * ((-len(out)) % 8)
    return out + b"".join(clause_blobs)


def decode_program(data):
    """Decode a binary image back into a :class:`~repro.gpu.isa.Program`,
    which keeps the image (``program.image``) as the key of what is built
    from it.

    This is the shader core's decode phase. The Job Manager keeps the
    result per binary address, and the process per image, so that "the
    entire shader program is decoded exactly once" however many
    platforms run it.
    """
    magic, num_clauses = _unpack("<II", data, 0, "program header")
    if magic != MAGIC:
        raise DecodeError(f"bad program magic 0x{magic:08x}")
    offsets = _unpack(f"<{num_clauses}I", data, 8, "clause table")
    clauses = []
    for offset in offsets:
        clause, _ = decode_clause(data, offset)
        clauses.append(clause)
    program = Program(clauses=clauses)
    program.validate()
    program.image = bytes(data)
    return program
