"""A Multi2Sim-style functional GPU simulator.

Models the execution strategy of Multi2Sim's functional mode as the paper
describes it (Fig. 2c):

- the OpenCL runtime is *intercepted*: kernels are launched by a direct
  function call with host-managed buffers — no driver, no job descriptors,
  no GPU MMU, no interrupts (so it cannot produce the paper's system-level
  statistics);
- threads execute *scalars*, one work-item at a time (no quad warps);
- instructions are re-decoded from the binary on every clause visit (no
  decode cache);
- only instruction breakdowns and job dimensions are reported.

It executes the *same* kernel binaries as the full-system simulator, so
outputs are comparable bit-for-bit; only the execution machinery differs —
which is exactly what the Fig. 8 speed comparison measures.
"""

import struct

import numpy as np

from repro.errors import GuestError
from repro.gpu import launch
from repro.gpu.encoding import decode_clause
from repro.gpu.isa import (
    ATOM_MODE_SHIFT,
    CONST_BASE,
    NUM_GRF,
    REG_GLOBAL_ID,
    REG_GROUP_FLAT,
    REG_GROUP_ID,
    REG_LANE,
    REG_LOCAL_ID,
    TEMP_BASE,
    CmpMode,
    Op,
    Tail,
    is_const,
    is_grf,
    is_temp,
)
from repro.gpu.ops import atomic_apply

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")


def _to_f(bits):
    return _F32.unpack(_U32.pack(bits & 0xFFFFFFFF))[0]


def _from_f(value):
    return _U32.unpack(_F32.pack(np.float32(value)))[0]


def _to_i(bits):
    bits &= 0xFFFFFFFF
    return bits - (1 << 32) if bits & 0x80000000 else bits


def _is_nan_bits(bits):
    bits &= 0xFFFFFFFF
    return (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0


# Float ops whose NaN *payload* propagation differs between NumPy's scalar
# and vector code paths (which operand's payload survives, and whether
# signalling NaNs are quieted). The quad engines compute on vectors, so for
# NaN inputs the scalar ALU delegates to a 1-element vector computation.
# With one NaN source that computation is width-independent (the payload
# that survives is the only one there is). With two or more it is not for
# the commutative operations (FADD, FMUL, FMA): an x86 add/mul keeps its
# *first* operand's payload, and NumPy's SIMD body and scalar tail present
# the operands in different orders, so the surviving payload can differ
# between a 4-lane and a 67-lane issue of the same instruction. Which
# payload survives is unspecified by contract (docs/internals.md section
# 5, "NaN payloads"); tests/test_gpu_ops.py excludes exactly that operand
# class. FMIN/FMAX never propagate a payload and are plain scalar code
# below.
_NAN_PROPAGATING = {Op.FADD, Op.FSUB, Op.FMUL, Op.FMA}
_QNAN_BITS = 0x7FC00000  # canonical quiet NaN


def _vector_alu_f(op, a, b, c):
    va = np.array([a & 0xFFFFFFFF], dtype=np.uint32).view(np.float32)
    vb = np.array([b & 0xFFFFFFFF], dtype=np.uint32).view(np.float32)
    with np.errstate(all="ignore"):
        if op is Op.FADD:
            result = va + vb
        elif op is Op.FSUB:
            result = va - vb
        elif op is Op.FMUL:
            result = va * vb
        else:  # FMA
            vc = np.array([c & 0xFFFFFFFF], dtype=np.uint32).view(np.float32)
            result = va * vb + vc
    return int(result.astype(np.float32).view(np.uint32)[0])


class M2SStats:
    """Multi2Sim-style minimal report: instruction breakdown + dimensions."""

    def __init__(self):
        self.arith = 0
        self.load_store = 0
        self.nop = 0
        self.control_flow = 0
        self.threads = 0

    @property
    def total(self):
        return self.arith + self.load_store + self.nop + self.control_flow


class _Thread:
    __slots__ = ("regs", "temps", "pc", "at_barrier", "done")

    def __init__(self):
        self.regs = [0] * NUM_GRF
        self.temps = [0, 0]
        self.pc = 0
        self.at_barrier = False
        self.done = False


class M2SSimulator:
    """Functional-mode baseline simulator with an intercepted runtime."""

    def __init__(self, memory_size=1 << 26, instrument=True, tracer=None,
                 capture_registers=False):
        self.memory = bytearray(memory_size)
        self._next_alloc = 4096
        self.instrument = instrument
        self.stats = M2SStats()
        self.decodes = 0
        self.tracer = tracer
        # retired architectural state keyed by global-id triple, filled when
        # capture_registers is set (the conformance harness compares it
        # against the quad engines' final warp registers)
        self.retired_registers = {} if capture_registers else None

    # -- intercepted runtime: host-managed flat memory -------------------------

    def alloc(self, nbytes):
        base = self._next_alloc
        self._next_alloc += (nbytes + 63) & ~63
        if self._next_alloc > len(self.memory):
            raise GuestError("m2s memory exhausted")
        return base

    def write(self, addr, array):
        data = np.ascontiguousarray(array).tobytes()
        self.memory[addr:addr + len(data)] = data

    def read(self, addr, count, dtype=np.float32):
        nbytes = count * np.dtype(dtype).itemsize
        return np.frombuffer(bytes(self.memory[addr:addr + nbytes]),
                             dtype=dtype).copy()

    def buffer_from_array(self, array):
        addr = self.alloc(np.ascontiguousarray(array).nbytes)
        self.write(addr, array)
        return addr

    # -- kernel launch (direct call, no driver) ----------------------------------

    def run_kernel(self, compiled_kernel, global_size, local_size, args,
                   local_bytes=None):
        """Launch a compiled kernel; *args* are u32 values (addresses from
        :meth:`alloc` for buffers, raw bits for scalars, byte offsets for
        local pointers). *local_bytes* is the workgroup slab size, as
        :func:`repro.gpu.launch.bind_arguments` returns it; by default
        4 KiB of dynamic local arguments above the compiler's layout."""
        global_size, local_size = launch.normalize_sizes(global_size,
                                                         local_size)
        uniforms = launch.uniform_image(global_size, local_size,
                                        args).tolist()
        num_groups = tuple(
            uniforms[launch.U_NUM_GROUPS:launch.U_NUM_GROUPS + 3])

        binary = compiled_kernel.binary
        magic, num_clauses = struct.unpack_from("<II", binary, 0)
        offsets = struct.unpack_from(f"<{num_clauses}I", binary, 8)

        if local_bytes is None:
            local_bytes = launch.local_base(compiled_kernel, local_size) + 4096

        total_groups = num_groups[0] * num_groups[1] * num_groups[2]
        for flat_group in range(total_groups):
            self._run_group(binary, offsets, uniforms, flat_group,
                            num_groups, local_size, local_bytes)
        if self.instrument:
            self.stats.threads += (
                global_size[0] * global_size[1] * global_size[2]
            )

    def _run_group(self, binary, offsets, uniforms, flat_group, num_groups,
                   local_size, local_bytes):
        gx = flat_group % num_groups[0]
        gy = (flat_group // num_groups[0]) % num_groups[1]
        gz = flat_group // (num_groups[0] * num_groups[1])
        lx_size, ly_size, lz_size = local_size
        threads = []
        count = lx_size * ly_size * lz_size
        for linear in range(count):
            lx = linear % lx_size
            ly = (linear // lx_size) % ly_size
            lz = linear // (lx_size * ly_size)
            thread = _Thread()
            regs = thread.regs
            regs[REG_GLOBAL_ID] = gx * lx_size + lx
            regs[REG_GLOBAL_ID + 1] = gy * ly_size + ly
            regs[REG_GLOBAL_ID + 2] = gz * lz_size + lz
            regs[REG_LOCAL_ID] = lx
            regs[REG_LOCAL_ID + 1] = ly
            regs[REG_LOCAL_ID + 2] = lz
            regs[REG_GROUP_ID] = gx
            regs[REG_GROUP_ID + 1] = gy
            regs[REG_GROUP_ID + 2] = gz
            regs[REG_GROUP_FLAT] = flat_group
            regs[REG_LANE] = linear & 3
            threads.append(thread)

        local = [0] * (local_bytes // 4)
        while True:
            progressed = False
            for thread in threads:
                if thread.done or thread.at_barrier:
                    continue
                self._run_thread(thread, binary, offsets, uniforms, local)
                progressed = True
            if all(t.done for t in threads):
                if self.retired_registers is not None:
                    for thread in threads:
                        regs = thread.regs
                        key = (regs[REG_GLOBAL_ID], regs[REG_GLOBAL_ID + 1],
                               regs[REG_GLOBAL_ID + 2])
                        self.retired_registers[key] = (
                            tuple(regs), tuple(thread.temps))
                return
            if all(t.done or t.at_barrier for t in threads):
                for thread in threads:
                    thread.at_barrier = False
            elif not progressed:  # pragma: no cover - safety net
                raise GuestError("m2s scheduling deadlock")

    def _run_thread(self, thread, binary, offsets, uniforms, local):
        stats = self.stats if self.instrument else None
        steps = 0
        while not thread.done and not thread.at_barrier:
            # per-visit re-decode: the Multi2Sim behaviour our decode cache
            # is contrasted against
            clause, _end = decode_clause(binary, offsets[thread.pc])
            self.decodes += 1
            for fma, add in clause.tuples:
                for instr in (fma, add):
                    if instr.op is Op.NOP:
                        if stats:
                            stats.nop += 1
                        continue
                    self._execute(thread, clause, instr, uniforms, local, stats)
            tail = clause.tail
            if tail is Tail.FALLTHROUGH:
                thread.pc += 1
            elif tail is Tail.END:
                thread.done = True
            elif tail is Tail.JUMP:
                thread.pc = clause.target
                if stats:
                    stats.control_flow += 1
            elif tail is Tail.BARRIER:
                thread.pc += 1
                thread.at_barrier = True
            else:
                cond = thread.regs[clause.cond_reg] != 0
                if tail is Tail.BRANCH_Z:
                    cond = not cond
                thread.pc = clause.target if cond else thread.pc + 1
                if stats:
                    stats.control_flow += 1
            steps += 1
            if steps > 1_000_000:
                raise GuestError("m2s thread stuck")

    # -- scalar instruction execution ------------------------------------------------

    def _read_op(self, thread, clause, operand):
        if is_grf(operand):
            return thread.regs[operand]
        if is_temp(operand):
            return thread.temps[operand - TEMP_BASE]
        if is_const(operand):
            return clause.constants[operand - CONST_BASE]
        raise GuestError(f"bad operand {operand}")

    def _write_op(self, thread, operand, bits):
        bits &= 0xFFFFFFFF
        if is_grf(operand):
            thread.regs[operand] = bits
        elif is_temp(operand):
            thread.temps[operand - TEMP_BASE] = bits
        else:
            raise GuestError(f"bad destination {operand}")

    def _mem_load(self, addr, local_mem, is_local):
        if is_local:
            return local_mem[addr >> 2]
        return _U32.unpack_from(self.memory, addr)[0]

    def _mem_store(self, addr, bits, local_mem, is_local):
        if is_local:
            local_mem[addr >> 2] = bits & 0xFFFFFFFF
        else:
            _U32.pack_into(self.memory, addr, bits & 0xFFFFFFFF)

    def _execute(self, thread, clause, instr, uniforms, local, stats):
        op = instr.op
        tracer = self.tracer
        if op is Op.LD:
            if stats:
                stats.load_store += 1
            addr = self._read_op(thread, clause, instr.srca)
            for element in range(instr.mem_width):
                bits = self._mem_load(addr + 4 * element, local,
                                      instr.mem_is_local)
                self._write_op(thread, instr.dst + element, bits)
                if tracer is not None:
                    tracer.record_scalar(thread, instr, bits, element=element)
            return
        if op is Op.ST:
            if stats:
                stats.load_store += 1
            addr = self._read_op(thread, clause, instr.srca)
            for element in range(instr.mem_width):
                bits = self._read_op(thread, clause, instr.srcb + element)
                self._mem_store(addr + 4 * element, bits, local,
                                instr.mem_is_local)
                if tracer is not None:
                    tracer.record_scalar(thread, instr, bits, element=element)
            return
        if op is Op.LDU:
            if stats:
                stats.load_store += 1
            self._write_op(thread, instr.dst, uniforms[instr.imm])
            if tracer is not None:
                tracer.record_scalar(thread, instr, uniforms[instr.imm])
            return
        if op is Op.ATOM:
            if stats:
                stats.load_store += 1
            addr = self._read_op(thread, clause, instr.srca)
            operand = self._read_op(thread, clause, instr.srcb)
            mode = (instr.flags >> ATOM_MODE_SHIFT) & 0x7
            current = self._mem_load(addr, local, instr.mem_is_local)
            updated = atomic_apply(mode, current, operand & 0xFFFFFFFF)
            self._mem_store(addr, updated, local, instr.mem_is_local)
            self._write_op(thread, instr.dst, current)
            if tracer is not None:
                tracer.record_scalar(thread, instr, current)
            return
        if stats:
            stats.arith += 1
        a = self._read_op(thread, clause, instr.srca) \
            if instr.srca != 255 else 0
        b = self._read_op(thread, clause, instr.srcb) \
            if instr.srcb != 255 else 0
        c = self._read_op(thread, clause, instr.srcc) \
            if instr.srcc != 255 else 0
        result = self._alu(op, instr, a, b, c)
        self._write_op(thread, instr.dst, result)
        if tracer is not None:
            tracer.record_scalar(thread, instr, result)

    @staticmethod
    def _alu(op, instr, a, b, c):
        if op in _NAN_PROPAGATING and (
                _is_nan_bits(a) or _is_nan_bits(b)
                or (op is Op.FMA and _is_nan_bits(c))):
            return _vector_alu_f(op, a, b, c)
        with np.errstate(all="ignore"):
            if op is Op.MOV:
                return a
            if op is Op.FADD:
                return _from_f(np.float32(_to_f(a)) + np.float32(_to_f(b)))
            if op is Op.FSUB:
                return _from_f(np.float32(_to_f(a)) - np.float32(_to_f(b)))
            if op is Op.FMUL:
                return _from_f(np.float32(_to_f(a)) * np.float32(_to_f(b)))
            if op is Op.FMA:
                return _from_f(np.float32(_to_f(a)) * np.float32(_to_f(b))
                               + np.float32(_to_f(c)))
            if op is Op.FMIN or op is Op.FMAX:
                # Arm FPMin/FPMax with default NaN: a NaN loses to a
                # number, two NaNs give the canonical quiet NaN, and of
                # two zeros FMIN takes -0 and FMAX +0
                if _is_nan_bits(a):
                    return _QNAN_BITS if _is_nan_bits(b) else b
                if _is_nan_bits(b):
                    return a
                fa, fb = _to_f(a), _to_f(b)
                if fa == fb:
                    return a | b if op is Op.FMIN else a & b
                return a if (fa < fb) == (op is Op.FMIN) else b
            if op is Op.FABS:
                return a & 0x7FFFFFFF
            if op is Op.FNEG:
                return a ^ 0x80000000
            if op is Op.FFLOOR:
                return _from_f(np.floor(np.float32(_to_f(a))))
            if op is Op.FRCP:
                return _from_f(np.float32(1.0) / np.float32(_to_f(a)))
            if op is Op.FSQRT:
                return _from_f(np.sqrt(np.float32(_to_f(a))))
            if op is Op.FRSQ:
                return _from_f(np.float32(1.0) / np.sqrt(np.float32(_to_f(a))))
            if op is Op.FEXP:
                return _from_f(np.exp(np.float32(_to_f(a))))
            if op is Op.FLOG:
                return _from_f(np.log(np.float32(_to_f(a))))
            if op is Op.FSIN:
                return _from_f(np.sin(np.float32(_to_f(a))))
            if op is Op.FCOS:
                return _from_f(np.cos(np.float32(_to_f(a))))
            if op is Op.F2I:
                # saturating conversion; NaN -> 0 (matches the quad engine)
                value = _to_f(a)
                if value != value:
                    return 0
                value = max(-2147483648.0, min(2147483647.0, value))
                return int(value) & 0xFFFFFFFF
            if op is Op.F2U:
                value = _to_f(a)
                if value != value:
                    return 0
                value = max(0.0, min(4294967295.0, value))
                return int(value) & 0xFFFFFFFF
            if op is Op.I2F:
                return _from_f(float(_to_i(a)))
            if op is Op.U2F:
                return _from_f(float(a & 0xFFFFFFFF))
        if op is Op.IADD:
            return a + b
        if op is Op.ISUB:
            return a - b
        if op is Op.IMUL:
            return a * b
        if op is Op.IAND:
            return a & b
        if op is Op.IOR:
            return a | b
        if op is Op.IXOR:
            return a ^ b
        if op is Op.ISHL:
            return a << (b & 31)
        if op is Op.ISHR:
            return (a & 0xFFFFFFFF) >> (b & 31)
        if op is Op.IASHR:
            return (_to_i(a) >> (b & 31)) & 0xFFFFFFFF
        if op is Op.IMIN:
            return min(_to_i(a), _to_i(b)) & 0xFFFFFFFF
        if op is Op.IMAX:
            return max(_to_i(a), _to_i(b)) & 0xFFFFFFFF
        if op is Op.UMIN:
            return min(a & 0xFFFFFFFF, b & 0xFFFFFFFF)
        if op is Op.UMAX:
            return max(a & 0xFFFFFFFF, b & 0xFFFFFFFF)
        if op is Op.IABS:
            return abs(_to_i(a)) & 0xFFFFFFFF
        if op is Op.IDIV:
            ia, ib = _to_i(a), _to_i(b)
            return (int(ia / ib) if ib else 0) & 0xFFFFFFFF
        if op is Op.IREM:
            ia, ib = _to_i(a), _to_i(b)
            return (ia - int(ia / ib) * ib if ib else 0) & 0xFFFFFFFF
        if op is Op.UDIV:
            ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            return ua // ub if ub else 0
        if op is Op.UREM:
            ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            return ua % ub if ub else 0
        if op is Op.CMP:
            return 1 if _compare(CmpMode(instr.flags), a, b) else 0
        if op is Op.SELECT:
            return a if c != 0 else b
        raise GuestError(f"m2s: unimplemented op {op!r}")


def _compare(mode, a, b):
    if mode <= CmpMode.FGE:
        fa, fb = _to_f(a), _to_f(b)
        return {
            CmpMode.FEQ: fa == fb, CmpMode.FNE: fa != fb, CmpMode.FLT: fa < fb,
            CmpMode.FLE: fa <= fb, CmpMode.FGT: fa > fb, CmpMode.FGE: fa >= fb,
        }[mode]
    if mode <= CmpMode.IGE:
        ia, ib = _to_i(a), _to_i(b)
        return {
            CmpMode.IEQ: ia == ib, CmpMode.INE: ia != ib, CmpMode.ILT: ia < ib,
            CmpMode.ILE: ia <= ib, CmpMode.IGT: ia > ib, CmpMode.IGE: ia >= ib,
        }[mode]
    ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
    return {
        CmpMode.ULT: ua < ub, CmpMode.ULE: ua <= ub,
        CmpMode.UGT: ua > ub, CmpMode.UGE: ua >= ub,
    }[mode]
