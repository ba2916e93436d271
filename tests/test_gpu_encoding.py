"""Unit + property tests: GPU binary encoding round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.gpu.encoding import (
    decode_clause,
    decode_instruction,
    decode_program,
    encode_clause,
    encode_instruction,
    encode_program,
)
from repro.gpu.isa import (
    CONST_BASE,
    NOP_INSTR,
    OPERAND_NONE,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
    can_use_add_slot,
)

_add_ops = sorted(op for op in Op if can_use_add_slot(op))
_all_ops = sorted(Op)


def _instruction_strategy():
    return st.builds(
        Instruction,
        op=st.sampled_from(_all_ops),
        dst=st.integers(0, 255),
        srca=st.integers(0, 255),
        srcb=st.integers(0, 255),
        srcc=st.integers(0, 255),
        flags=st.integers(0, 255),
        imm=st.integers(0, 0xFFFF),
    )


def _clause_strategy():
    fma = _instruction_strategy()
    add = st.builds(
        Instruction,
        op=st.sampled_from(_add_ops),
        dst=st.integers(0, 255),
        srca=st.integers(0, 255),
        srcb=st.integers(0, 255),
        srcc=st.integers(0, 255),
        flags=st.integers(0, 255),
        imm=st.integers(0, 0xFFFF),
    )
    return st.builds(
        Clause,
        tuples=st.lists(st.tuples(fma, add), min_size=1, max_size=8),
        constants=st.lists(st.integers(0, 0xFFFFFFFF), max_size=16),
        tail=st.sampled_from([Tail.FALLTHROUGH, Tail.END, Tail.BARRIER]),
        cond_reg=st.integers(0, 63),
        target=st.integers(0, 100),
    )


class TestInstructionEncoding:
    @given(_instruction_strategy())
    @settings(max_examples=200)
    def test_roundtrip(self, instr):
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_invalid_opcode_rejected(self):
        with pytest.raises(DecodeError):
            decode_instruction(0xEE)  # no such opcode


class TestClauseEncoding:
    @given(_clause_strategy())
    @settings(max_examples=100)
    def test_roundtrip(self, clause):
        blob = encode_clause(clause)
        decoded, end = decode_clause(blob, 0)
        assert end == len(blob) or end == len(blob)  # fully consumed
        assert decoded.tuples == clause.tuples
        assert decoded.constants == list(clause.constants)
        assert decoded.tail == clause.tail
        assert decoded.target == clause.target

    def test_add_slot_class_enforced(self):
        bad = Clause(
            tuples=[(NOP_INSTR, Instruction(Op.FMA, dst=0, srca=1, srcb=2,
                                            srcc=3))],
            tail=Tail.END,
        )
        with pytest.raises(ValueError):
            encode_clause(bad)

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            encode_clause(Clause(tuples=[], tail=Tail.END))

    def test_oversized_clause_rejected(self):
        tuples = [(NOP_INSTR, NOP_INSTR)] * 9
        with pytest.raises(ValueError):
            encode_clause(Clause(tuples=tuples, tail=Tail.END))

    def test_bad_header_detected(self):
        with pytest.raises(DecodeError):
            decode_clause(b"\x00" * 32, 0)


class TestProgramEncoding:
    def _simple_program(self, num_clauses=3):
        clauses = []
        for index in range(num_clauses):
            tail = Tail.END if index == num_clauses - 1 else Tail.FALLTHROUGH
            clauses.append(Clause(
                tuples=[(Instruction(Op.MOV, dst=index, srca=CONST_BASE),
                         NOP_INSTR)],
                constants=[index * 10],
                tail=tail,
            ))
        return Program(clauses=clauses)

    def test_roundtrip(self):
        program = self._simple_program()
        image = encode_program(program)
        decoded = decode_program(image)
        assert len(decoded.clauses) == 3
        for original, restored in zip(program.clauses, decoded.clauses):
            assert restored.tuples == original.tuples
            assert restored.constants == original.constants
            assert restored.tail == original.tail

    def test_bad_magic(self):
        with pytest.raises(DecodeError):
            decode_program(b"\x00" * 64)

    def test_truncated(self):
        with pytest.raises(DecodeError):
            decode_program(b"\x01")

    def test_every_short_read_is_a_decode_error(self):
        # header, clause table, clause header, tuple words and constant
        # pool all end somewhere in here
        program = self._simple_program()
        program.clauses[1].constants = [1, 2, 3]
        image = encode_program(program)
        ended_inside = set()
        for cut in range(len(image)):
            try:
                decode_program(image[:cut])
            except DecodeError as exc:
                ended_inside.add(str(exc).split(" the ")[1].split(" at ")[0])
        assert ended_inside == {"program header", "clause table",
                                "clause header", "tuple words",
                                "constant pool"}

    def test_branch_target_validated(self):
        program = self._simple_program()
        program.clauses[0].tail = Tail.JUMP
        program.clauses[0].target = 99
        with pytest.raises(ValueError):
            encode_program(program)

    def test_final_fallthrough_rejected(self):
        program = self._simple_program()
        program.clauses[-1].tail = Tail.FALLTHROUGH
        with pytest.raises(ValueError):
            encode_program(program)

    @given(st.integers(1, 20))
    @settings(max_examples=20)
    def test_variable_length_programs(self, n):
        program = self._simple_program(n)
        decoded = decode_program(encode_program(program))
        assert len(decoded.clauses) == n

    def test_static_metrics(self):
        program = self._simple_program()
        assert program.static_slot_count == 6
        assert program.static_nop_count == 3
