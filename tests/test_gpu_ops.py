"""The GPU op table (repro.gpu.ops): completeness, width independence
(of the rows and of the forms the megakernel emits from them), the
FMIN/FMAX rule, and the arity-gated source reads every engine derives
from it.
"""

import types

import numpy as np
import pytest

from repro.baselines.m2s import M2SSimulator
from repro.errors import GuestError
from repro.gpu import ops
from repro.gpu.isa import (
    CONST_BASE,
    CmpMode,
    Clause,
    Instruction,
    NOP_INSTR,
    OPERAND_NONE,
    Op,
    Program,
    Tail,
)
from repro.gpu.megakernel import MegaKernel, RegisterFile, emitted_code
from repro.gpu.shadercore import WorkgroupShape
from repro.gpu.verify import model
from repro.gpu.warp import ClauseInterpreter, QuadWarp
from repro.validate import progen

_NOT_ROWS = {Op.NOP, Op.LD, Op.ST, Op.LDU, Op.ATOM, Op.CMP}


def _one_slot_program(instr, constant=0x3F800000):
    return Program(clauses=[
        Clause(tuples=[(instr, NOP_INSTR)], constants=[constant],
               tail=Tail.END)])


# -- (a) completeness ------------------------------------------------------------

def test_every_alu_op_has_exactly_one_row():
    assert set(ops.OPS) == set(Op) - _NOT_ROWS


@pytest.mark.parametrize("op", sorted(ops.OPS), ids=lambda op: op.name)
def test_arity_consumers_agree_with_row(op):
    row = ops.OPS[op]
    assert row.arity in (1, 2, 3)
    assert model.source_arity(op) == progen.op_arity(op) == row.arity


def test_cmp_arity_and_compare_modes():
    assert model.source_arity(Op.CMP) == progen.op_arity(Op.CMP) == 2
    a = np.array([1, 0x80000000, 0x7FC00000], dtype=np.uint32)
    b = np.array([2, 1, 0x7FC00000], dtype=np.uint32)
    assert list(ops.compare(CmpMode.ULT)(a, b)) == [1, 0, 0]
    assert list(ops.compare(CmpMode.ILT)(a, b)) == [1, 1, 0]
    assert list(ops.compare(CmpMode.FNE)(a, b)) == [1, 1, 1]  # NaN != NaN
    assert all(ops.compare(mode)(a, b).dtype == np.uint32
               for mode in CmpMode)


# -- (b) width independence --------------------------------------------------------

_WIDTHS = (4, 16, 67, 256)
# The float arithmetic rows propagate a NaN source's payload. With two or
# more NaN sources the survivor is whichever operand the host's add/mul
# sees first, and for the *commutative* operations NumPy's SIMD body and
# its scalar tail present them in different orders — so FADD, FMUL and FMA
# are not width-independent on that operand class (FSUB cannot be
# reordered and is). Which payload survives is unspecified by contract
# (docs/internals.md section 5, "NaN payloads"); everything else must be
# exact.
_PAYLOAD_OPS = {Op.FADD, Op.FMUL, Op.FMA}


def _is_nan(bits):
    return (bits & 0x7FFFFFFF) > 0x7F800000


def _operands(arity, op, rng, count):
    special = np.array(progen.SPECIAL_BITS, dtype=np.uint32)
    srcs = []
    for _ in range(arity):
        values = rng.integers(0, 1 << 32, count, dtype=np.uint64) \
            .astype(np.uint32)
        pick = rng.random(count) < 0.6
        values[pick] = rng.choice(special, int(pick.sum()))
        srcs.append(values)
    if op in _PAYLOAD_OPS:
        crowded = sum(_is_nan(s).astype(int) for s in srcs) >= 2
        for s in srcs[1:]:
            s[crowded] = 0x3F800000
    return srcs


@pytest.mark.parametrize(
    "op", sorted(set(ops.OPS) - progen.GEN_EXCLUDED), ids=lambda op: op.name)
def test_row_is_width_and_layout_independent(op):
    fn, arity = ops.OPS[op][:2]
    rng = np.random.default_rng(int(op))
    for width in _WIDTHS:
        srcs = _operands(arity, op, rng, width)
        lane_at_a_time = np.array(
            [int(fn(*[s[i:i + 1] for s in srcs])[0]) for i in range(width)],
            dtype=np.uint32)
        whole = fn(*srcs)
        assert whole.dtype == np.uint32 and whole.shape == (width,)
        np.testing.assert_array_equal(whole, lane_at_a_time, err_msg=op.name)
        # the quad interpreter hands the rows strided register columns
        strided = [np.repeat(s, 3)[::3] for s in srcs]
        np.testing.assert_array_equal(fn(*strided), lane_at_a_time,
                                      err_msg=f"{op.name} strided")


@pytest.mark.parametrize("mode", sorted(CmpMode), ids=lambda m: m.name)
def test_compare_is_width_independent(mode):
    fn = ops.compare(mode)
    rng = np.random.default_rng(int(mode))
    for width in _WIDTHS:
        a, b = _operands(2, Op.CMP, rng, width)
        expected = [int(fn(a[i:i + 1], b[i:i + 1])[0]) for i in range(width)]
        assert list(fn(a, b)) == expected


# -- (c) the forms the megakernel emits ------------------------------------------------
#
# out= into a register row (aliasing a source or not), where= a lane mask,
# the table's value function called on rows: each must give, lane for
# lane, what the row's value function gives on copies of the sources.

_CONST_ROW = 66  # the one constant of a one-slot program
# (dst, srca, srcb, srcc) as register rows; None is the constant operand
_LAYOUTS = {
    "distinct": (0, 1, 2, 3),
    "dst-is-srca": (1, 1, 2, 3),
    "dst-is-srcb": (2, 1, 2, 3),
    "dst-is-srcc": (3, 1, 2, 3),
    "all-one-row": (1, 1, 1, 1),
    "temps": (64, 64, 65, 2),
    "const-first": (0, None, 2, 3),
    "const-last": (5, 1, None, None),
}


def _check_emitted_forms(instr_for, fn, arity, op, seed):
    rng = np.random.default_rng(seed)
    special = np.array(progen.SPECIAL_BITS, dtype=np.uint32)
    for name, (dst, *srcs) in _LAYOUTS.items():
        srcs = srcs[:arity]
        constant = 0x3F800000 if op in _PAYLOAD_OPS \
            else int(rng.choice(special))
        operands = [CONST_BASE if s is None else s for s in srcs]
        program = _one_slot_program(instr_for(dst, *operands), constant)
        code = emitted_code(program)
        kernel = MegaKernel(program, None, RegisterFile())
        for width in _WIDTHS_MEGA:
            shape = WorkgroupShape((width, 1, 1), (width, 1, 1))
            values = dict(zip(dict.fromkeys(s for s in srcs if s is not None),
                              _operands(arity, op, rng, width)))
            values[None] = np.full(width, constant, np.uint32)
            before = rng.integers(0, 1 << 32, width, dtype=np.uint64) \
                .astype(np.uint32)
            masks = [None, np.ones(width, bool), rng.random(width) < 0.5,
                     np.arange(width) == width - 3]
            for mask in masks:
                state = kernel._init_state(shape, 0)
                state.regs[dst] = before
                for row, lanes in values.items():
                    if row is not None:
                        state.regs[row] = lanes
                expected = fn(*[state.regs[_CONST_ROW if s is None else s]
                                .copy() for s in srcs])
                if mask is not None:
                    expected = np.where(mask, expected, state.regs[dst])
                with np.errstate(all="ignore"):
                    if mask is None:
                        code.chains[0][0](state, {}, 1)
                    else:
                        code.masked[0][0](state, mask)
                np.testing.assert_array_equal(
                    state.regs[dst], expected,
                    err_msg=f"{op.name} {name} width {width} "
                            f"mask {None if mask is None else mask.sum()}")


_WIDTHS_MEGA = (4, 16, 68, 256)


@pytest.mark.parametrize("op", sorted(ops.OPS), ids=lambda op: op.name)
def test_emitted_forms_match_the_row(op):
    fn, arity = ops.OPS[op][:2]
    _check_emitted_forms(
        lambda dst, *srcs: Instruction(
            op, dst, *srcs, *[OPERAND_NONE] * (3 - arity)),
        fn, arity, op, int(op))


@pytest.mark.parametrize("mode", sorted(CmpMode), ids=lambda m: m.name)
def test_emitted_compare_matches_compare(mode):
    _check_emitted_forms(
        lambda dst, a, b: Instruction(Op.CMP, dst, a, b, flags=int(mode)),
        ops.compare(mode), 2, Op.CMP, 100 + int(mode))


def test_only_single_ufunc_rows_take_the_out_form():
    """Hazard of ``out=`` with dst == src: a row that is several NumPy
    steps must compute through its value function first."""
    import linecache

    for op, row in ops.OPS.items():
        program = _one_slot_program(
            Instruction(op, 1, *[1] * row.arity,
                        *[OPERAND_NONE] * (3 - row.arity)))
        text = "".join(linecache.getlines(emitted_code(program).filename))
        assert ("out=" in text) == (row.ufunc is not None), op.name
        assert (f"fn_{op.name}(" in text) == (row.ufunc is None), op.name
    for op in (Op.FMA, Op.FMIN, Op.FMAX, Op.ISHL, Op.ISHR, Op.IASHR,
               Op.IDIV, Op.UREM, Op.F2I, Op.U2F, Op.SELECT, Op.FRCP):
        assert ops.OPS[op].ufunc is None, op.name


# -- FMIN/FMAX rule ------------------------------------------------------------------

_PZ, _NZ, _ONE, _TWO = 0x00000000, 0x80000000, 0x3F800000, 0x40000000
_QNAN, _SNAN, _NEG_QNAN = 0x7FC00000, 0x7F800001, 0xFFC00123

_MINMAX_CASES = [
    # a, b, fmin, fmax
    (_PZ, _NZ, _NZ, _PZ),
    (_NZ, _PZ, _NZ, _PZ),
    (_NZ, _NZ, _NZ, _NZ),
    (_ONE, _TWO, _ONE, _TWO),
    (_TWO, _ONE, _ONE, _TWO),
    (_QNAN, _ONE, _ONE, _ONE),
    (_ONE, _SNAN, _ONE, _ONE),
    (_SNAN, _NZ, _NZ, _NZ),
    (_NEG_QNAN, 0xFF800000, 0xFF800000, 0xFF800000),
    (_SNAN, _NEG_QNAN, _QNAN, _QNAN),
    (_QNAN, _QNAN, _QNAN, _QNAN),
]


@pytest.mark.parametrize("a,b,fmin,fmax", _MINMAX_CASES)
def test_fmin_fmax_rule_in_table_and_reference(a, b, fmin, fmax):
    for op, expected in ((Op.FMIN, fmin), (Op.FMAX, fmax)):
        for width in (1, 4, 64):
            out = ops.OPS[op].fn(np.full(width, a, np.uint32),
                                 np.full(width, b, np.uint32))
            assert [int(x) for x in out] == [expected] * width, op.name
        # the Multi2Sim-style baseline states the same rule independently
        assert M2SSimulator._alu(op, None, a, b, 0) == expected, op.name


# -- F2I / F2U: NaN is 0, everything else saturates ----------------------------------

_CONVERT_BITS = [
    0x7FC00000, 0x7F800001, 0xFFC00123, 0x7FFFFFFF, 0xFF800001,  # NaNs
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,         # zeros, infs
    0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,         # denormals
    0x4F000000, 0x4EFFFFFF, 0x4F000001,                     # around 2^31
    0xCF000000, 0xCEFFFFFF, 0xCF000001,                     # around -2^31
    0x4F800000, 0x4F7FFFFF, 0x4F800001,                     # around 2^32
    0x3FC00000, 0xBFC00000, 0x3F7FFFFF, 0xBF7FFFFF, 0x42F6E979,
]


def _convert_reference(bits, low, high):
    """One lane in plain Python: truncation toward zero of the value
    clamped to [low, high]."""
    import struct

    value, = struct.unpack("<f", struct.pack("<I", bits))
    if value != value:
        return 0
    return int(max(low, min(high, value))) & 0xFFFFFFFF


@pytest.mark.parametrize("op,low,high", [
    (Op.F2I, -2 ** 31, 2 ** 31 - 1), (Op.F2U, 0, 2 ** 32 - 1)],
    ids=["F2I", "F2U"])
def test_float_to_int_against_a_scalar_reference(op, low, high):
    import warnings

    expected = [_convert_reference(bits, low, high)
                for bits in _CONVERT_BITS]
    program = _one_slot_program(
        Instruction(op, 1, 2, OPERAND_NONE, OPERAND_NONE))
    code = emitted_code(program)
    kernel = MegaKernel(program, None, RegisterFile())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # signalling NaNs included
        for width in (1, 4, 32, 68):
            bits = np.resize(np.array(_CONVERT_BITS, np.uint32), width)
            want = np.resize(np.array(expected, np.uint32), width)
            np.testing.assert_array_equal(ops.OPS[op].fn(bits), want)
            if width % 4:
                continue
            shape = WorkgroupShape((width, 1, 1), (width, 1, 1))
            for mask in (None, np.arange(width) % 3 != 1):
                state = kernel._init_state(shape, 0)
                state.regs[1] = 0xABCD
                state.regs[2] = bits
                if mask is None:
                    code.chains[0][0](state, {}, 1)
                else:
                    code.masked[0][0](state, mask)
                    want = np.where(mask, want, 0xABCD)
                np.testing.assert_array_equal(state.regs[1], want)


# -- missing required source -----------------------------------------------------------

def _run_interp(program):
    ClauseInterpreter(program, np.zeros(1, np.uint32), mem=None) \
        .run_warp(QuadWarp())


def _run_mega(program):
    port = types.SimpleNamespace(load_wide_u32=None, store_wide_u32=None)
    kernel = MegaKernel(program, port, RegisterFile(), np.zeros(1, np.uint32))
    kernel.run_workgroup(WorkgroupShape((4, 1, 1), (4, 1, 1)), 0)


_ENGINES = [_run_interp, _run_mega]


@pytest.mark.parametrize("run", _ENGINES, ids=["interp", "mega"])
@pytest.mark.parametrize("instr", [
    Instruction(Op.FADD, dst=0, srca=1),
    Instruction(Op.FMA, dst=0, srca=1, srcb=CONST_BASE),
    Instruction(Op.CMP, dst=0, srcb=1, flags=int(CmpMode.IEQ)),
], ids=["fadd-srcb", "fma-srcc", "cmp-srca"])
def test_missing_required_source_faults_on_every_engine(run, instr):
    with pytest.raises(GuestError, match="invalid source operand 255"):
        run(_one_slot_program(instr))


@pytest.mark.parametrize("run", _ENGINES, ids=["interp", "mega"])
def test_bad_source_in_unreachable_clause_is_harmless(run):
    # the fault belongs to the *issue* of the slot, not to translation
    dead = Clause(tuples=[(Instruction(Op.FADD, dst=0, srca=1), NOP_INSTR)],
                  tail=Tail.END)
    live = Clause(tuples=[(Instruction(Op.MOV, dst=0, srca=1), NOP_INSTR)],
                  tail=Tail.END)
    run(Program(clauses=[live, dead]))


_BAD_LDU = Clause(tuples=[(Instruction(Op.LDU, dst=0, imm=7), NOP_INSTR)],
                  tail=Tail.END)


@pytest.mark.parametrize("run", _ENGINES, ids=["interp", "mega"])
def test_uniform_index_past_the_table_in_unreachable_clause_is_harmless(run):
    # uniforms are bound per job, so the bounds check cannot run at
    # translation: like a bad source, it belongs to the issue of the slot
    live = Clause(tuples=[(Instruction(Op.MOV, dst=0, srca=1), NOP_INSTR)],
                  tail=Tail.END)
    run(Program(clauses=[live, _BAD_LDU]))


@pytest.mark.parametrize("run", _ENGINES, ids=["interp", "mega"])
def test_uniform_index_past_the_table_is_a_guest_error(run):
    # the helpers bind a 1-word table; a raw IndexError must not leak
    with pytest.raises(GuestError, match="uniform index 7 out of range"):
        run(Program(clauses=[_BAD_LDU]))


@pytest.mark.parametrize("run", _ENGINES, ids=["interp", "mega"])
def test_fields_beyond_the_arity_are_never_read(run):
    # FABS reads one source; garbage in srcb/srcc must not be touched
    run(_one_slot_program(Instruction(Op.FABS, dst=0, srca=1, srcb=200,
                                      srcc=99)))
