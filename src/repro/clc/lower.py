"""Semantic analysis and lowering: typed AST -> IR.

Typing and lowering are fused (classic for small compilers): expressions
are checked and converted as they are lowered, and any violation raises
:class:`~repro.errors.CompileError` with a source position.

Key mappings:

- kernel arguments -> uniform slots 10+ ("Constant Read" port); slots 0-9
  hold the NDRange description (global size, local size, num groups, dim);
- ``get_*_id`` builtins -> dispatcher-preloaded GRF registers;
- ``__local`` arrays -> statically laid out workgroup-local memory;
- private arrays with compile-time-constant indices -> registers; with
  dynamic indices -> per-thread scratch carved out of local memory;
- float division -> ``FMUL(a, FRCP(b))`` (the GPU has no divide pipe);
- ``&&``/``||``/ternary-with-memory -> real control flow (short-circuit);
- ``vload4``/``vstore4`` -> wide LD/ST when the compiler version supports
  vector load/store, else scalarized accesses.
"""

from repro.errors import CompileError
from repro.clc import ast
from repro.clc.ir import Const, IRFunction, IRInstr, Special, VReg
from repro.clc.types import (
    BOOL,
    FLOAT,
    INT,
    UINT,
    VOID,
    PointerType,
    ScalarType,
    VectorType,
    is_arithmetic,
    is_pointer,
    is_scalar,
    is_vector,
    unify_arithmetic,
)
from repro.gpu.isa import (
    ATOM_ADD,
    ATOM_AND,
    ATOM_MAX,
    ATOM_MIN,
    ATOM_MODE_SHIFT,
    ATOM_OR,
    ATOM_SUB,
    ATOM_XCHG,
    ATOM_XOR,
    REG_GLOBAL_ID,
    REG_GROUP_ID,
    REG_LOCAL_ID,
    CmpMode,
    MEM_SPACE_LOCAL,
    Op,
)
from repro.gpu.launch import (
    U_FIRST_ARG,
    U_GLOBAL_SIZE,
    U_LOCAL_SIZE,
    U_NUM_GROUPS,
    U_WORK_DIM,
)

_MEMBER_INDEX = {"x": 0, "y": 1, "z": 2, "w": 3, "s0": 0, "s1": 1, "s2": 2, "s3": 3}

# builtin name -> (atomic mode, implicit-operand-of-one)
_ATOMIC_MODES = {
    "atomic_add": (ATOM_ADD, False), "atom_add": (ATOM_ADD, False),
    "atomic_sub": (ATOM_SUB, False), "atom_sub": (ATOM_SUB, False),
    "atomic_min": (ATOM_MIN, False), "atomic_max": (ATOM_MAX, False),
    "atomic_and": (ATOM_AND, False), "atomic_or": (ATOM_OR, False),
    "atomic_xor": (ATOM_XOR, False), "atomic_xchg": (ATOM_XCHG, False),
    "atomic_inc": (ATOM_ADD, True), "atomic_dec": (ATOM_SUB, True),
}

_CMP_BY_TYPE = {
    "float": {"==": CmpMode.FEQ, "!=": CmpMode.FNE, "<": CmpMode.FLT,
              "<=": CmpMode.FLE, ">": CmpMode.FGT, ">=": CmpMode.FGE},
    "int": {"==": CmpMode.IEQ, "!=": CmpMode.INE, "<": CmpMode.ILT,
            "<=": CmpMode.ILE, ">": CmpMode.IGT, ">=": CmpMode.IGE},
    "uint": {"==": CmpMode.IEQ, "!=": CmpMode.INE, "<": CmpMode.ULT,
             "<=": CmpMode.ULE, ">": CmpMode.UGT, ">=": CmpMode.UGE},
}


class VecValue:
    """A vector rvalue: per-component scalar operands."""

    __slots__ = ("elements", "element_type")

    def __init__(self, elements, element_type):
        self.elements = list(elements)
        self.element_type = element_type

    @property
    def width(self):
        return len(self.elements)


class _Symbol:
    """Resolved name: kind in {'scalar', 'vector', 'param', 'regarray',
    'scratcharray', 'localarray'}."""

    __slots__ = ("kind", "ty", "vreg", "members", "uniform_index", "offset",
                 "count", "space")

    def __init__(self, kind, ty, **attrs):
        self.kind = kind
        self.ty = ty
        self.vreg = attrs.get("vreg")
        self.members = attrs.get("members")
        self.uniform_index = attrs.get("uniform_index")
        self.offset = attrs.get("offset")
        self.count = attrs.get("count")
        self.space = attrs.get("space")


class _BlockBuffer:
    """Instruction sink used when emitting a detached prologue."""

    def __init__(self):
        self.instrs = []

    def emit(self, instr):
        self.instrs.append(instr)
        return instr


def emit_scratch_base(fn):
    """Materialize the per-thread scratch base register for *fn*.

    Layout: ``[static __local arrays][per-thread scratch][dynamic local
    args]``; the base is ``local_static_size + flat_local_id *
    scratch_per_thread``. Both sizes are patched into marker MOVs by the
    compiler driver once they are final. The computation is inserted at
    the *front* of the entry block so it dominates every use.

    Idempotent: reuses an existing base if one was already emitted (the
    register spiller calls this after lowering).
    """
    existing = getattr(fn, "scratch_base_vreg", None)
    if existing is not None:
        return existing
    entry = fn.blocks[0]
    prologue = _BlockBuffer()

    def emit_new(op, srcs=(), imm=0, name=""):
        dst = fn.new_vreg(name)
        prologue.emit(IRInstr(op, dst=dst, srcs=tuple(srcs), imm=imm))
        return dst

    lsx = emit_new(Op.LDU, imm=U_LOCAL_SIZE, name="lsx")
    lsy = emit_new(Op.LDU, imm=U_LOCAL_SIZE + 1, name="lsy")
    term1 = emit_new(Op.IMUL, srcs=(Special(REG_LOCAL_ID + 1), lsx))
    plane = emit_new(Op.IMUL, srcs=(lsx, lsy))
    term2 = emit_new(Op.IMUL, srcs=(Special(REG_LOCAL_ID + 2), plane))
    flat = emit_new(Op.IADD, srcs=(Special(REG_LOCAL_ID), term1))
    flat = emit_new(Op.IADD, srcs=(flat, term2))
    size_placeholder = fn.new_vreg("scrsz")
    marker = prologue.emit(IRInstr(Op.MOV, dst=size_placeholder,
                                   srcs=(Const.from_int(0),)))
    fn.scratch_size_marker = marker
    scaled = emit_new(Op.IMUL, srcs=(flat, size_placeholder))
    base_placeholder = fn.new_vreg("loff")
    base_marker = prologue.emit(IRInstr(Op.MOV, dst=base_placeholder,
                                        srcs=(Const.from_int(0),)))
    fn.local_base_marker = base_marker
    base = emit_new(Op.IADD, srcs=(scaled, base_placeholder), name="scrbase")
    base.no_temp = True
    for instr in prologue.instrs:
        for reg in instr.defs():
            reg.no_spill = True
    entry.instrs[0:0] = prologue.instrs
    fn.scratch_base_vreg = base
    return base


class _LoopContext:
    __slots__ = ("break_block", "continue_block")

    def __init__(self, break_block, continue_block):
        self.break_block = break_block
        self.continue_block = continue_block


def _has_memory_access(node):
    """True if lowering *node* may emit a load/store (fault hazard)."""
    if node is None:
        return False
    if isinstance(node, (ast.Index, ast.Deref)):
        return True
    if isinstance(node, ast.Call):
        if node.name.startswith(("vload", "vstore")):
            return True
        return any(_has_memory_access(a) for a in node.args)
    for attr in ("operand", "left", "right", "cond", "then", "other", "base"):
        child = getattr(node, attr, None)
        if isinstance(child, ast.Node) and _has_memory_access(child):
            return True
    if isinstance(node, ast.VectorConstructor):
        return any(_has_memory_access(a) for a in node.args)
    return False


def _collect_array_index_info(node, info):
    """Record, per identifier, whether all Index expressions on it use
    compile-time constant indices."""
    if node is None or not isinstance(node, ast.Node):
        return
    if isinstance(node, ast.Index) and isinstance(node.base, ast.Identifier):
        name = node.base.name
        constant = _static_const(node.index) is not None
        info[name] = info.get(name, True) and constant
    for attr in ("operand", "left", "right", "cond", "then", "other", "base",
                 "index", "init", "step", "body", "value", "target", "expr"):
        _collect_array_index_info(getattr(node, attr, None), info)
    for attr in ("statements", "args"):
        for child in getattr(node, attr, []) or []:
            _collect_array_index_info(child, info)


def _static_const(node):
    """Evaluate a compile-time constant expression; None if not constant."""
    if isinstance(node, ast.IntLiteral):
        return node.value
    if isinstance(node, ast.FloatLiteral):
        return node.value
    if isinstance(node, ast.Unary):
        value = _static_const(node.operand)
        if value is None:
            return None
        if node.op == "-":
            return -value
        if node.op == "~" and isinstance(value, int):
            return ~value & 0xFFFFFFFF
        if node.op == "!":
            return 0 if value else 1
        return None
    if isinstance(node, ast.Cast):
        value = _static_const(node.operand)
        if value is None:
            return None
        if isinstance(node.target, ScalarType) and node.target.is_integer:
            return int(value)
        if isinstance(node.target, ScalarType) and node.target.is_float:
            return float(value)
        return None
    if isinstance(node, ast.Binary):
        left = _static_const(node.left)
        right = _static_const(node.right)
        if left is None or right is None:
            return None
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if right == 0:
                    return None
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right)
                return left / right
            if node.op == "%":
                return left - int(left / right) * right if right else None
            if node.op == "<<":
                return (left << right) & 0xFFFFFFFF
            if node.op == ">>":
                return left >> right
            if node.op == "&":
                return left & right
            if node.op == "|":
                return left | right
            if node.op == "^":
                return left ^ right
        except TypeError:
            return None
    return None


class KernelLowering:
    """Lowers one kernel function to an :class:`IRFunction`."""

    def __init__(self, kernel, options):
        self.kernel = kernel
        self.options = options
        self.fn = IRFunction(kernel.name)
        self._scopes = [{}]
        self._block = None
        self._exit_block = None
        self._loops = []
        self._ldu_cache = {}
        self._scratch_base = None
        self._local_offset = 0
        self._scratch_offset = 0
        self._array_const_info = {}

    # -- entry point -----------------------------------------------------------

    def lower(self):
        kernel = self.kernel
        _collect_array_index_info(kernel.body, self._array_const_info)
        self._block = self.fn.new_block("entry")
        self._exit_block = None

        for position, param in enumerate(kernel.params):
            self._declare_param(param, U_FIRST_ARG + position)
        self.fn.uniform_count = U_FIRST_ARG + len(kernel.params)

        self._lower_statement(kernel.body)
        if self._block.terminator is None:
            self._block.terminator = ("end",)
        if self._exit_block is not None:
            self._exit_block.terminator = ("end",)
        self.fn.local_static_size = self._local_offset
        self.fn.scratch_per_thread = self._scratch_offset
        self.fn.validate()
        return self.fn

    # -- scope helpers -----------------------------------------------------------

    def _declare(self, name, symbol, node):
        scope = self._scopes[-1]
        if name in scope:
            raise CompileError(f"redeclaration of {name!r}", node.line, node.col)
        scope[name] = symbol

    def _resolve(self, name, node):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise CompileError(f"undeclared identifier {name!r}", node.line, node.col)

    def _declare_param(self, param, uniform_index):
        ty = param.ty
        if is_pointer(ty):
            kind = "param"
            self.fn.params.append(
                (param.name, "local_ptr" if ty.space == "local" else "buffer", ty)
            )
        elif is_scalar(ty) and ty.name != "void":
            kind = "param"
            self.fn.params.append((param.name, "scalar", ty))
        else:
            raise CompileError(
                f"unsupported parameter type {ty}", param.line, param.col
            )
        self._declare(param.name, _Symbol(kind, ty, uniform_index=uniform_index),
                      param)

    # -- emission helpers ----------------------------------------------------------

    def _emit(self, op, dst=None, srcs=(), flags=0, imm=0, group=None):
        instr = IRInstr(op, dst=dst, srcs=tuple(srcs), flags=flags, imm=imm,
                        group=group)
        self._block.emit(instr)
        return instr

    def _emit_to_new(self, op, srcs=(), flags=0, imm=0, name=""):
        dst = self.fn.new_vreg(name)
        self._emit(op, dst=dst, srcs=srcs, flags=flags, imm=imm)
        return dst

    def _new_block(self, name):
        block = self.fn.new_block(name)
        return block

    def _switch_to(self, block):
        self._block = block
        self._ldu_cache.pop(None, None)

    def _ldu(self, index, name="u"):
        """Load a uniform slot.

        With ``hoist_uniforms`` (modern-compiler behaviour) each slot is
        loaded once into the entry block and kept in a register; without it
        (older toolchains) the uniform port is re-read in every basic block
        that needs the value.
        """
        if getattr(self.options, "hoist_uniforms", True):
            cached = self._ldu_cache.get(index)
            if cached is not None:
                return cached
            entry = self.fn.blocks[0]
            dst = self.fn.new_vreg(name)
            dst.no_temp = True
            instr = IRInstr(Op.LDU, dst=dst, imm=index)
            if self._block is entry:
                entry.emit(instr)
            else:
                entry.instrs.append(instr)
            self._ldu_cache[index] = dst
            return dst
        key = (id(self._block), index)
        cached = self._ldu_cache.get(key)
        if cached is not None:
            return cached
        dst = self._emit_to_new(Op.LDU, imm=index, name=name)
        self._ldu_cache[key] = dst
        return dst

    def _materialize(self, value, name="v"):
        """Ensure *value* is a VReg (branch conditions must live in GRF)."""
        if isinstance(value, VReg):
            return value
        return self._emit_to_new(Op.MOV, srcs=(value,), name=name)

    def _assign_into(self, target_vreg, value, min_index):
        """Move *value* into *target_vreg*, retargeting the producing
        instruction instead of emitting a MOV when the value is a fresh
        temporary (``index >= min_index``, i.e. created while lowering this
        right-hand side) just computed by the last instruction of this
        block — a standard destination-coalescing peephole."""
        instrs = self._block.instrs
        if (isinstance(value, VReg) and instrs
                and instrs[-1].dst is value
                and value.index >= min_index
                and instrs[-1].op not in (Op.LDU, Op.LD)
                and value.group is None and not value.no_temp
                and target_vreg.group is None):
            instrs[-1].dst = target_vreg
            return
        self._emit(Op.MOV, dst=target_vreg, srcs=(value,))

    # -- conversions ------------------------------------------------------------------

    def _convert(self, value, from_ty, to_ty, node):
        if from_ty == to_ty:
            return value
        if is_vector(from_ty) or is_vector(to_ty):
            return self._convert_vector(value, from_ty, to_ty, node)
        if is_pointer(from_ty) and is_pointer(to_ty):
            return value
        if is_pointer(from_ty) or is_pointer(to_ty):
            if is_pointer(from_ty) and to_ty in (INT, UINT):
                return value
            raise CompileError(f"cannot convert {from_ty} to {to_ty}",
                               node.line, node.col)
        if not is_arithmetic(from_ty) or not is_arithmetic(to_ty):
            raise CompileError(f"cannot convert {from_ty} to {to_ty}",
                               node.line, node.col)
        if isinstance(value, Const):
            return self._convert_const(value, from_ty, to_ty)
        if from_ty.is_float and to_ty.is_integer:
            op = Op.F2I if to_ty.is_signed else Op.F2U
            return self._emit_to_new(op, srcs=(value,))
        if from_ty.is_integer and to_ty.is_float:
            op = Op.I2F if from_ty.is_signed else Op.U2F
            return self._emit_to_new(op, srcs=(value,))
        return value  # int <-> uint <-> bool: same bits

    @staticmethod
    def _convert_const(const, from_ty, to_ty):
        if from_ty.is_float and to_ty.is_integer:
            return Const.from_int(int(const.as_float))
        if from_ty.is_integer and to_ty.is_float:
            value = const.as_int if from_ty.is_signed else const.bits
            return Const.from_float(float(value))
        return const

    def _convert_vector(self, value, from_ty, to_ty, node):
        if is_vector(from_ty) and is_vector(to_ty) and from_ty.width == to_ty.width:
            elements = [
                self._convert(e, from_ty.element, to_ty.element, node)
                for e in value.elements
            ]
            return VecValue(elements, to_ty.element)
        if is_scalar(from_ty) and is_vector(to_ty):
            scalar = self._convert(value, from_ty, to_ty.element, node)
            return VecValue([scalar] * to_ty.width, to_ty.element)
        raise CompileError(f"cannot convert {from_ty} to {to_ty}",
                           node.line, node.col)

    # -- statements ------------------------------------------------------------------------

    def _lower_statement(self, stmt):
        if self._block.terminator is not None:
            # unreachable code after return/break: absorb into a dead block
            self._switch_to(self._new_block("dead"))
        if isinstance(stmt, ast.Block):
            self._scopes.append({})
            try:
                for child in stmt.statements:
                    self._lower_statement(child)
            finally:
                self._scopes.pop()
        elif isinstance(stmt, ast.Declaration):
            self._lower_declaration(stmt)
        elif isinstance(stmt, ast.Assignment):
            self._lower_assignment(stmt)
        elif isinstance(stmt, ast.ExprStatement):
            self._lower_expr_statement(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._loops:
                raise CompileError("break outside a loop", stmt.line, stmt.col)
            self._block.terminator = ("jump", self._loops[-1].break_block)
        elif isinstance(stmt, ast.Continue):
            if not self._loops:
                raise CompileError("continue outside a loop", stmt.line, stmt.col)
            self._block.terminator = ("jump", self._loops[-1].continue_block)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise CompileError("kernels cannot return a value",
                                   stmt.line, stmt.col)
            if self._exit_block is None:
                self._exit_block = self.fn.new_block("exit")
            self._block.terminator = ("jump", self._exit_block)
        else:
            raise CompileError(f"unsupported statement {type(stmt).__name__}",
                               stmt.line, stmt.col)

    def _lower_expr_statement(self, stmt):
        expr = stmt.expr
        if isinstance(expr, ast.Call) and expr.name == "barrier":
            next_block = self._new_block("postbar")
            self._block.terminator = ("barrier", next_block)
            self._switch_to(next_block)
            return
        if isinstance(expr, ast.Call) and expr.name.startswith("vstore"):
            self._lower_call(expr)
            return
        # pure expression statement: evaluate for faults/side effects
        self._rvalue(expr)

    def _lower_declaration(self, decl):
        ty = decl.ty
        if decl.array_size is not None:
            self._lower_array_declaration(decl)
            return
        if is_pointer(ty):
            vreg = self.fn.new_vreg(decl.name)
            self._declare(decl.name, _Symbol("scalar", ty, vreg=vreg), decl)
            if decl.init is not None:
                value, vty = self._rvalue(decl.init)
                if not is_pointer(vty):
                    raise CompileError("pointer initializer must be a pointer",
                                       decl.line, decl.col)
                self._emit(Op.MOV, dst=vreg, srcs=(value,))
            return
        if decl.space == "local":
            raise CompileError("__local variables must be arrays",
                               decl.line, decl.col)
        if is_vector(ty):
            members = [self.fn.new_vreg(f"{decl.name}{i}") for i in range(ty.width)]
            symbol = _Symbol("vector", ty, members=members)
            self._declare(decl.name, symbol, decl)
            if decl.init is not None:
                value, vty = self._rvalue(decl.init)
                value = self._convert(value, vty, ty, decl)
                for member, element in zip(members, value.elements):
                    self._emit(Op.MOV, dst=member, srcs=(element,))
            return
        if not (is_scalar(ty) and ty.name != "void"):
            raise CompileError(f"cannot declare variable of type {ty}",
                               decl.line, decl.col)
        vreg = self.fn.new_vreg(decl.name)
        self._declare(decl.name, _Symbol("scalar", ty, vreg=vreg), decl)
        if decl.init is not None:
            snapshot = self.fn.next_vreg_index
            value, vty = self._rvalue(decl.init)
            value = self._convert(value, vty, ty, decl)
            self._assign_into(vreg, value, snapshot)

    def _lower_array_declaration(self, decl):
        size = _static_const(decl.array_size)
        if not isinstance(size, int) or size <= 0:
            raise CompileError("array size must be a positive constant",
                               decl.line, decl.col)
        ty = decl.ty
        if not is_scalar(ty):
            raise CompileError("only scalar element arrays are supported",
                               decl.line, decl.col)
        if decl.space == "local":
            offset = self._local_offset
            self._local_offset += 4 * size
            symbol = _Symbol("localarray", ty, offset=offset, count=size)
            self._declare(decl.name, symbol, decl)
            return
        # private array: registers when every index is constant, else
        # per-thread scratch in local memory
        if self._array_const_info.get(decl.name, True) and size <= 32:
            members = [self.fn.new_vreg(f"{decl.name}_{i}") for i in range(size)]
            symbol = _Symbol("regarray", ty, members=members, count=size)
        else:
            offset = self._scratch_offset
            self._scratch_offset += 4 * size
            symbol = _Symbol("scratcharray", ty, offset=offset, count=size)
        self._declare(decl.name, symbol, decl)
        if decl.init is not None:
            raise CompileError("array initializers are not supported",
                               decl.line, decl.col)

    # -- assignment --------------------------------------------------------------------------

    def _lower_assignment(self, stmt):
        target = stmt.target
        if stmt.op != "=":
            binary_op = stmt.op[:-1]
            value_expr = ast.Binary(op=binary_op, left=target, right=stmt.value,
                                    line=stmt.line, col=stmt.col)
        else:
            value_expr = stmt.value

        if isinstance(target, ast.Identifier):
            symbol = self._resolve(target.name, target)
            if symbol.kind == "scalar":
                snapshot = self.fn.next_vreg_index
                value, vty = self._rvalue(value_expr)
                value = self._convert(value, vty, symbol.ty, stmt)
                self._assign_into(symbol.vreg, value, snapshot)
                return
            if symbol.kind == "vector":
                value, vty = self._rvalue(value_expr)
                value = self._convert(value, vty, symbol.ty, stmt)
                for member, element in zip(symbol.members, value.elements):
                    self._emit(Op.MOV, dst=member, srcs=(element,))
                return
            raise CompileError(f"cannot assign to {target.name!r}",
                               stmt.line, stmt.col)
        if isinstance(target, ast.Member):
            base = target.base
            if not isinstance(base, ast.Identifier):
                raise CompileError("can only assign to components of variables",
                                   stmt.line, stmt.col)
            symbol = self._resolve(base.name, base)
            if symbol.kind != "vector":
                raise CompileError("component assignment requires a vector",
                                   stmt.line, stmt.col)
            index = _MEMBER_INDEX.get(target.name)
            if index is None or index >= symbol.ty.width:
                raise CompileError(f"bad component .{target.name}",
                                   stmt.line, stmt.col)
            snapshot = self.fn.next_vreg_index
            value, vty = self._rvalue(value_expr)
            value = self._convert(value, vty, symbol.ty.element, stmt)
            self._assign_into(symbol.members[index], value, snapshot)
            return
        if isinstance(target, (ast.Index, ast.Deref)):
            self._lower_store(target, value_expr, stmt)
            return
        raise CompileError("invalid assignment target", stmt.line, stmt.col)

    def _lower_store(self, target, value_expr, stmt):
        destination = self._address_of(target)
        kind = destination[0]
        if kind == "reg":
            _, vreg, elem_ty = destination
            snapshot = self.fn.next_vreg_index
            value, vty = self._rvalue(value_expr)
            value = self._convert(value, vty, elem_ty, stmt)
            self._assign_into(vreg, value, snapshot)
            return
        _, addr, elem_ty, local = destination
        value, vty = self._rvalue(value_expr)
        value = self._convert(value, vty, elem_ty, stmt)
        flags = MEM_SPACE_LOCAL if local else 0
        data = self._materialize(value, "st")
        self._emit(Op.ST, srcs=(addr,), flags=flags, group=[data])

    # -- addresses -------------------------------------------------------------------------------

    def _address_of(self, node):
        """Resolve an Index/Deref target.

        Returns ("reg", vreg, elem_ty) for register arrays, or
        ("mem", addr_value, elem_ty, is_local).
        """
        if isinstance(node, ast.Deref):
            value, ty = self._rvalue(node.operand)
            if not is_pointer(ty):
                raise CompileError("cannot dereference a non-pointer",
                                   node.line, node.col)
            return ("mem", self._materialize(value, "addr"), ty.pointee,
                    ty.space == "local")
        assert isinstance(node, ast.Index)
        base = node.base
        if isinstance(base, ast.Identifier):
            symbol = self._resolve(base.name, base)
            if symbol.kind == "regarray":
                index = _static_const(node.index)
                if index is None:
                    raise CompileError(
                        f"register array {base.name!r} requires constant indices",
                        node.line, node.col,
                    )
                if not 0 <= index < symbol.count:
                    raise CompileError(
                        f"index {index} out of bounds for {base.name!r}",
                        node.line, node.col,
                    )
                return ("reg", symbol.members[index], symbol.ty)
            if symbol.kind == "scratcharray":
                addr = self._scratch_address(symbol, node)
                return ("mem", addr, symbol.ty, True)
            if symbol.kind == "localarray":
                addr = self._indexed_address(Const.from_int(symbol.offset),
                                             node.index, node)
                return ("mem", addr, symbol.ty, True)
        value, ty = self._rvalue(base)
        if not is_pointer(ty):
            raise CompileError("cannot index a non-pointer", node.line, node.col)
        addr = self._indexed_address(value, node.index, node)
        return ("mem", addr, ty.pointee, ty.space == "local")

    def _indexed_address(self, base_value, index_expr, node):
        index, ity = self._rvalue(index_expr)
        if not (is_scalar(ity) and ity.is_integer):
            raise CompileError("array index must be an integer",
                               node.line, node.col)
        if isinstance(index, Const):
            if index.as_int == 0:
                return base_value  # ptr[0] / *ptr: no address arithmetic
            byte_offset = Const.from_int(index.as_int * 4)
        else:
            byte_offset = self._emit_to_new(Op.ISHL,
                                            srcs=(index, Const.from_int(2)))
        if isinstance(base_value, Const) and isinstance(byte_offset, Const):
            return Const.from_int(base_value.as_int + byte_offset.as_int)
        addr = self._emit_to_new(Op.IADD, srcs=(base_value, byte_offset), name="addr")
        return addr

    def _scratch_address(self, symbol, node):
        base = self._scratch_base_value()
        offset_value = self._indexed_address(Const.from_int(symbol.offset),
                                             node.index, node)
        return self._emit_to_new(Op.IADD, srcs=(base, offset_value), name="scr")

    def _scratch_base_value(self):
        """Per-thread scratch base inside local memory (see
        :func:`emit_scratch_base`)."""
        if self._scratch_base is not None:
            return self._scratch_base
        self._scratch_base = emit_scratch_base(self.fn)
        return self._scratch_base

    # -- control flow ---------------------------------------------------------------------------------

    def _cond_vreg(self, expr):
        """Lower a condition to a GRF register tested against zero."""
        value, ty = self._rvalue(expr)
        if is_vector(ty) or is_pointer(ty):
            raise CompileError("condition must be scalar", expr.line, expr.col)
        if ty.is_float:
            value = self._emit_to_new(
                Op.CMP, srcs=(self._materialize(value), Const.from_float(0.0)),
                flags=int(CmpMode.FNE),
            )
        cond = self._materialize(value, "cond")
        cond.no_temp = True
        return cond

    def _lower_if(self, stmt):
        cond = self._cond_vreg(stmt.cond)
        cond_block = self._block
        then_block = self._new_block("then")
        if stmt.other is not None:
            else_block = self._new_block("else")
        join_block = None

        # taken (cond == 0) -> skip the then-branch
        skip_target = else_block if stmt.other is not None else None

        self._switch_to(then_block)
        self._lower_statement(stmt.then)
        then_end = self._block

        if stmt.other is not None:
            self._switch_to(else_block)
            self._lower_statement(stmt.other)
            else_end = self._block
            join_block = self._new_block("join")
            cond_block.terminator = ("branchz", cond, else_block, then_block)
            if then_end.terminator is None:
                then_end.terminator = ("jump", join_block)
            if else_end.terminator is None:
                else_end.terminator = ("jump", join_block)
        else:
            join_block = self._new_block("join")
            cond_block.terminator = ("branchz", cond, join_block, then_block)
            if then_end.terminator is None:
                then_end.terminator = ("jump", join_block)
        self._switch_to(join_block)

    def _lower_for(self, stmt):
        self._scopes.append({})
        try:
            if stmt.init is not None:
                self._lower_statement(stmt.init)
            head = self._new_block("loop")
            body = None
            exit_block = self.fn.new_block("exit")
            self.fn.blocks.remove(exit_block)  # re-append after body blocks
            self._block.terminator = ("jump", head)
            self._switch_to(head)
            if stmt.cond is not None:
                cond = self._cond_vreg(stmt.cond)
                head_end = self._block
                body = self._new_block("body")
                head_end.terminator = ("branchz", cond, exit_block, body)
            else:
                body = self._new_block("body")
                self._block.terminator = ("jump", body)
            step_block = self.fn.new_block("step")
            self.fn.blocks.remove(step_block)
            self._loops.append(_LoopContext(exit_block, step_block))
            self._switch_to(body)
            self._lower_statement(stmt.body)
            if self._block.terminator is None:
                self._block.terminator = ("jump", step_block)
            self._loops.pop()
            self.fn.blocks.append(step_block)
            self._switch_to(step_block)
            if stmt.step is not None:
                self._lower_statement(stmt.step)
            self._block.terminator = ("jump", head)
            self.fn.blocks.append(exit_block)
            self._switch_to(exit_block)
        finally:
            self._scopes.pop()

    def _lower_while(self, stmt):
        head = self._new_block("while")
        exit_block = self.fn.new_block("exit")
        self.fn.blocks.remove(exit_block)
        self._block.terminator = ("jump", head)
        self._switch_to(head)
        cond = self._cond_vreg(stmt.cond)
        head_end = self._block
        body = self._new_block("body")
        head_end.terminator = ("branchz", cond, exit_block, body)
        self._loops.append(_LoopContext(exit_block, head))
        self._switch_to(body)
        self._lower_statement(stmt.body)
        if self._block.terminator is None:
            self._block.terminator = ("jump", head)
        self._loops.pop()
        self.fn.blocks.append(exit_block)
        self._switch_to(exit_block)

    def _lower_do_while(self, stmt):
        body = self._new_block("do")
        exit_block = self.fn.new_block("exit")
        self.fn.blocks.remove(exit_block)
        head = body
        self._block.terminator = ("jump", body)
        cond_block_holder = []
        self._loops.append(_LoopContext(exit_block, None))
        self._switch_to(body)
        # continue in a do-while jumps to the condition check; create it now
        cond_block = self.fn.new_block("docond")
        self.fn.blocks.remove(cond_block)
        self._loops[-1].continue_block = cond_block
        self._lower_statement(stmt.body)
        if self._block.terminator is None:
            self._block.terminator = ("jump", cond_block)
        self._loops.pop()
        self.fn.blocks.append(cond_block)
        self._switch_to(cond_block)
        cond = self._cond_vreg(stmt.cond)
        self._block.terminator = ("branch", cond, head, exit_block)
        self.fn.blocks.append(exit_block)
        self._switch_to(exit_block)
        del cond_block_holder

    # -- expressions -------------------------------------------------------------------------------------

    def _rvalue(self, expr):
        """Lower an expression; returns (value, type)."""
        if isinstance(expr, ast.IntLiteral):
            ty = UINT if expr.unsigned else INT
            return Const.from_int(expr.value), ty
        if isinstance(expr, ast.FloatLiteral):
            return Const.from_float(expr.value), FLOAT
        if isinstance(expr, ast.Identifier):
            return self._lower_identifier(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Cast):
            value, ty = self._rvalue(expr.operand)
            return self._convert(value, ty, expr.target, expr), expr.target
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, (ast.Index, ast.Deref)):
            return self._lower_load(expr)
        if isinstance(expr, ast.AddressOf):
            return self._lower_address_of(expr)
        if isinstance(expr, ast.Member):
            return self._lower_member(expr)
        if isinstance(expr, ast.VectorConstructor):
            return self._lower_vector_constructor(expr)
        raise CompileError(f"unsupported expression {type(expr).__name__}",
                           expr.line, expr.col)

    def _lower_identifier(self, expr):
        symbol = self._resolve(expr.name, expr)
        if symbol.kind == "scalar":
            return symbol.vreg, symbol.ty
        if symbol.kind == "vector":
            return VecValue(list(symbol.members), symbol.ty.element), symbol.ty
        if symbol.kind == "param":
            value = self._ldu(symbol.uniform_index, name=expr.name)
            return value, symbol.ty
        if symbol.kind == "localarray":
            return Const.from_int(symbol.offset), PointerType(symbol.ty, "local")
        raise CompileError(f"cannot use array {expr.name!r} as a value",
                           expr.line, expr.col)

    def _lower_load(self, expr):
        destination = self._address_of(expr)
        if destination[0] == "reg":
            _, vreg, elem_ty = destination
            return vreg, elem_ty
        _, addr, elem_ty, local = destination
        flags = MEM_SPACE_LOCAL if local else 0
        dst = self.fn.new_vreg("ld")
        self._emit(Op.LD, dst=dst, srcs=(self._materialize(addr, "addr"),),
                   flags=flags, group=[dst])
        return dst, elem_ty

    def _lower_address_of(self, expr):
        """``&lvalue``: the address of a memory-resident element."""
        target = expr.operand
        if not isinstance(target, (ast.Index, ast.Deref)):
            raise CompileError("& requires an array element or *pointer",
                               expr.line, expr.col)
        destination = self._address_of(target)
        if destination[0] == "reg":
            raise CompileError(
                "cannot take the address of a register-allocated array "
                "element", expr.line, expr.col,
            )
        _, addr, elem_ty, local = destination
        return addr, PointerType(elem_ty, "local" if local else "global")

    def _lower_member(self, expr):
        value, ty = self._rvalue(expr.base)
        if not is_vector(ty):
            raise CompileError("component access requires a vector",
                               expr.line, expr.col)
        index = _MEMBER_INDEX.get(expr.name)
        if index is None or index >= ty.width:
            raise CompileError(f"bad component .{expr.name}", expr.line, expr.col)
        return value.elements[index], ty.element

    def _lower_vector_constructor(self, expr):
        target = expr.target
        if len(expr.args) == 1:
            value, ty = self._rvalue(expr.args[0])
            return self._convert(value, ty, target, expr), target
        if len(expr.args) != target.width:
            raise CompileError(
                f"(float{target.width}) constructor needs {target.width} values",
                expr.line, expr.col,
            )
        elements = []
        for arg in expr.args:
            value, ty = self._rvalue(arg)
            elements.append(self._convert(value, ty, target.element, expr))
        return VecValue(elements, target.element), target

    def _lower_unary(self, expr):
        value, ty = self._rvalue(expr.operand)
        if expr.op == "-":
            if is_vector(ty):
                op = Op.FNEG if ty.element.is_float else None
                if op is None:
                    raise CompileError("cannot negate this vector type",
                                       expr.line, expr.col)
                elements = [self._emit_to_new(op, srcs=(e,)) for e in value.elements]
                return VecValue(elements, ty.element), ty
            if ty.is_float:
                if isinstance(value, Const):
                    return Const.from_float(-value.as_float), ty
                return self._emit_to_new(Op.FNEG, srcs=(value,)), ty
            if isinstance(value, Const):
                return Const.from_int(-value.as_int), ty
            return self._emit_to_new(Op.ISUB, srcs=(Const.from_int(0), value)), ty
        if expr.op == "~":
            if not (is_scalar(ty) and ty.is_integer):
                raise CompileError("~ requires an integer", expr.line, expr.col)
            return self._emit_to_new(
                Op.IXOR, srcs=(value, Const.from_int(0xFFFFFFFF))
            ), ty
        if expr.op == "!":
            if is_vector(ty):
                raise CompileError("! requires a scalar", expr.line, expr.col)
            if ty.is_float:
                result = self._emit_to_new(
                    Op.CMP, srcs=(self._materialize(value), Const.from_float(0.0)),
                    flags=int(CmpMode.FEQ),
                )
            else:
                result = self._emit_to_new(
                    Op.CMP, srcs=(self._materialize(value), Const.from_int(0)),
                    flags=int(CmpMode.IEQ),
                )
            return result, INT
        raise CompileError(f"unsupported unary {expr.op!r}", expr.line, expr.col)

    _BIN_FLOAT = {"+": Op.FADD, "-": Op.FSUB, "*": Op.FMUL,
                  "min": Op.FMIN, "max": Op.FMAX}
    _BIN_INT = {"+": Op.IADD, "-": Op.ISUB, "*": Op.IMUL, "&": Op.IAND,
                "|": Op.IOR, "^": Op.IXOR, "<<": Op.ISHL}

    def _lower_binary(self, expr):
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        left, lty = self._rvalue(expr.left)
        right, rty = self._rvalue(expr.right)
        # pointer arithmetic
        if is_pointer(lty) and op in ("+", "-") and is_scalar(rty) and rty.is_integer:
            offset = right
            if isinstance(offset, Const):
                delta = offset.as_int * 4 * (1 if op == "+" else -1)
                if isinstance(left, Const):
                    return Const.from_int(left.as_int + delta), lty
                return self._emit_to_new(
                    Op.IADD, srcs=(left, Const.from_int(delta))
                ), lty
            scaled = self._emit_to_new(Op.ISHL, srcs=(offset, Const.from_int(2)))
            gop = Op.IADD if op == "+" else Op.ISUB
            return self._emit_to_new(gop, srcs=(self._materialize(left), scaled)), lty
        if is_vector(lty) or is_vector(rty):
            return self._lower_vector_binary(expr, op, left, lty, right, rty)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            common = unify_arithmetic(lty, rty, expr.line, expr.col)
            left = self._convert(left, lty, common, expr)
            right = self._convert(right, rty, common, expr)
            mode = _CMP_BY_TYPE[common.name if common.name != "bool" else "int"][op]
            result = self._emit_to_new(
                Op.CMP, srcs=(self._materialize(left), self._materialize(right)),
                flags=int(mode),
            )
            return result, INT
        common = unify_arithmetic(lty, rty, expr.line, expr.col)
        left = self._convert(left, lty, common, expr)
        right = self._convert(right, rty, common, expr)
        folded = self._fold_binary(op, left, right, common)
        if folded is not None:
            return folded, common
        if common.is_float:
            if op == "/":
                rcp = self._emit_to_new(Op.FRCP, srcs=(right,))
                return self._emit_to_new(Op.FMUL, srcs=(left, rcp)), common
            gop = self._BIN_FLOAT.get(op)
            if gop is None:
                raise CompileError(f"operator {op!r} not defined for float",
                                   expr.line, expr.col)
            return self._emit_to_new(gop, srcs=(left, right)), common
        # integer
        if op == "/":
            gop = Op.IDIV if common.is_signed else Op.UDIV
            return self._emit_to_new(gop, srcs=(left, right)), common
        if op == "%":
            gop = Op.IREM if common.is_signed else Op.UREM
            return self._emit_to_new(gop, srcs=(left, right)), common
        if op == ">>":
            gop = Op.IASHR if common.is_signed else Op.ISHR
            return self._emit_to_new(gop, srcs=(left, right)), common
        gop = self._BIN_INT.get(op)
        if gop is None:
            raise CompileError(f"operator {op!r} not defined for integers",
                               expr.line, expr.col)
        return self._emit_to_new(gop, srcs=(left, right)), common

    @staticmethod
    def _fold_binary(op, left, right, ty):
        if not (isinstance(left, Const) and isinstance(right, Const)):
            return None
        try:
            if ty.is_float:
                a, b = left.as_float, right.as_float
                value = {"+": a + b, "-": a - b, "*": a * b,
                         "/": (a / b) if b else None}.get(op)
                if value is None:
                    return None
                return Const.from_float(value)
            a = left.as_int if ty.is_signed else left.bits
            b = right.as_int if ty.is_signed else right.bits
            if op == "/":
                if b == 0:
                    return None
                value = int(a / b)
            elif op == "%":
                if b == 0:
                    return None
                value = a - int(a / b) * b
            else:
                value = {
                    "+": a + b, "-": a - b, "*": a * b, "&": a & b, "|": a | b,
                    "^": a ^ b, "<<": a << (b & 31), ">>": a >> (b & 31),
                }.get(op)
            if value is None:
                return None
            return Const.from_int(value)
        except (OverflowError, ValueError, ZeroDivisionError, KeyError):
            return None

    def _lower_vector_binary(self, expr, op, left, lty, right, rty):
        if is_vector(lty) and is_vector(rty):
            if lty.width != rty.width:
                raise CompileError("vector width mismatch", expr.line, expr.col)
            width = lty.width
        else:
            width = lty.width if is_vector(lty) else rty.width
        element = FLOAT  # only float vectors support arithmetic here
        lvec = left if is_vector(lty) else VecValue(
            [self._convert(left, lty, element, expr)] * width, element
        )
        rvec = right if is_vector(rty) else VecValue(
            [self._convert(right, rty, element, expr)] * width, element
        )
        gop = self._BIN_FLOAT.get(op)
        if op == "/":
            elements = []
            for a, b in zip(lvec.elements, rvec.elements):
                rcp = self._emit_to_new(Op.FRCP, srcs=(b,))
                elements.append(self._emit_to_new(Op.FMUL, srcs=(a, rcp)))
            return VecValue(elements, element), VectorType(element, width)
        if gop is None:
            raise CompileError(f"vector operator {op!r} unsupported",
                               expr.line, expr.col)
        elements = [
            self._emit_to_new(gop, srcs=(a, b))
            for a, b in zip(lvec.elements, rvec.elements)
        ]
        return VecValue(elements, element), VectorType(element, width)

    def _bool_value(self, expr):
        """Lower *expr* to a 0/1 integer VReg."""
        value, ty = self._rvalue(expr)
        if is_vector(ty) or is_pointer(ty):
            raise CompileError("boolean context requires a scalar",
                               expr.line, expr.col)
        if ty.is_float:
            return self._emit_to_new(
                Op.CMP, srcs=(self._materialize(value), Const.from_float(0.0)),
                flags=int(CmpMode.FNE),
            )
        return self._emit_to_new(
            Op.CMP, srcs=(self._materialize(value), Const.from_int(0)),
            flags=int(CmpMode.INE),
        )

    def _lower_logical(self, expr):
        """Short-circuit && / || with real control flow."""
        result = self.fn.new_vreg("logic")
        result.no_temp = True
        is_and = expr.op == "&&"
        first = self._bool_value(expr.left)
        self._emit(Op.MOV, dst=result, srcs=(first,))
        cond_block = self._block
        rhs_block = self._new_block("rhs")
        join_block = self.fn.new_block("ljoin")
        self.fn.blocks.remove(join_block)
        if is_and:
            # skip rhs when first == 0
            cond_block.terminator = ("branchz", first, join_block, rhs_block)
        else:
            cond_block.terminator = ("branch", first, join_block, rhs_block)
        self._switch_to(rhs_block)
        second = self._bool_value(expr.right)
        self._emit(Op.MOV, dst=result, srcs=(second,))
        self._block.terminator = ("jump", join_block)
        self.fn.blocks.append(join_block)
        self._switch_to(join_block)
        return result, INT

    def _lower_ternary(self, expr):
        if not (_has_memory_access(expr.then) or _has_memory_access(expr.other)):
            cond = self._bool_value(expr.cond)
            then_value, then_ty = self._rvalue(expr.then)
            other_value, other_ty = self._rvalue(expr.other)
            if is_vector(then_ty) or is_vector(other_ty):
                raise CompileError("vector ternary is not supported",
                                   expr.line, expr.col)
            common = unify_arithmetic(then_ty, other_ty, expr.line, expr.col)
            then_value = self._convert(then_value, then_ty, common, expr)
            other_value = self._convert(other_value, other_ty, common, expr)
            result = self._emit_to_new(
                Op.SELECT, srcs=(then_value, other_value, cond)
            )
            return result, common
        # memory on one side: lower with control flow to preserve faults
        cond = self._cond_vreg(expr.cond)
        result = self.fn.new_vreg("tern")
        result.no_temp = True
        cond_block = self._block
        then_block = self._new_block("tthen")
        else_block = self.fn.new_block("telse")
        self.fn.blocks.remove(else_block)
        join_block = self.fn.new_block("tjoin")
        self.fn.blocks.remove(join_block)
        cond_block.terminator = ("branchz", cond, else_block, then_block)
        self._switch_to(then_block)
        then_value, then_ty = self._rvalue(expr.then)
        self._emit(Op.MOV, dst=result, srcs=(then_value,))
        self._block.terminator = ("jump", join_block)
        self.fn.blocks.append(else_block)
        self._switch_to(else_block)
        other_value, other_ty = self._rvalue(expr.other)
        common = unify_arithmetic(then_ty, other_ty, expr.line, expr.col)
        self._emit(Op.MOV, dst=result,
                   srcs=(self._convert(other_value, other_ty, common, expr),))
        self._block.terminator = ("jump", join_block)
        self.fn.blocks.append(join_block)
        self._switch_to(join_block)
        return result, common

    # -- builtin calls ------------------------------------------------------------------------------------

    _UNARY_FLOAT_BUILTINS = {
        "sqrt": Op.FSQRT, "native_sqrt": Op.FSQRT, "half_sqrt": Op.FSQRT,
        "rsqrt": Op.FRSQ, "native_rsqrt": Op.FRSQ,
        "exp": Op.FEXP, "native_exp": Op.FEXP,
        "log": Op.FLOG, "native_log": Op.FLOG,
        "fabs": Op.FABS, "floor": Op.FFLOOR,
        "sin": Op.FSIN, "native_sin": Op.FSIN,
        "cos": Op.FCOS, "native_cos": Op.FCOS,
        "native_recip": Op.FRCP,
    }

    def _float_arg(self, expr, index=0, name=""):
        value, ty = self._rvalue(expr.args[index])
        return self._convert(value, ty, FLOAT, expr)

    def _lower_call(self, expr):
        name = expr.name
        nargs = len(expr.args)
        if name in ("get_global_id", "get_local_id", "get_group_id"):
            dim = _static_const(expr.args[0]) if nargs == 1 else None
            if dim not in (0, 1, 2):
                raise CompileError(f"{name} needs a constant dimension 0-2",
                                   expr.line, expr.col)
            base = {"get_global_id": REG_GLOBAL_ID, "get_local_id": REG_LOCAL_ID,
                    "get_group_id": REG_GROUP_ID}[name]
            return Special(base + dim), UINT
        if name in ("get_global_size", "get_local_size", "get_num_groups"):
            dim = _static_const(expr.args[0]) if nargs == 1 else None
            if dim not in (0, 1, 2):
                raise CompileError(f"{name} needs a constant dimension 0-2",
                                   expr.line, expr.col)
            slot = {"get_global_size": U_GLOBAL_SIZE, "get_local_size": U_LOCAL_SIZE,
                    "get_num_groups": U_NUM_GROUPS}[name]
            return self._ldu(slot + dim, name=name), UINT
        if name == "get_work_dim":
            return self._ldu(U_WORK_DIM), UINT
        if name in self._UNARY_FLOAT_BUILTINS:
            if nargs != 1:
                raise CompileError(f"{name} takes one argument", expr.line, expr.col)
            value = self._float_arg(expr)
            return self._emit_to_new(self._UNARY_FLOAT_BUILTINS[name],
                                     srcs=(value,)), FLOAT
        if name in ("fmin", "fmax"):
            a = self._float_arg(expr, 0)
            b = self._float_arg(expr, 1)
            op = Op.FMIN if name == "fmin" else Op.FMAX
            return self._emit_to_new(op, srcs=(a, b)), FLOAT
        if name in ("min", "max"):
            left, lty = self._rvalue(expr.args[0])
            right, rty = self._rvalue(expr.args[1])
            common = unify_arithmetic(lty, rty, expr.line, expr.col)
            left = self._convert(left, lty, common, expr)
            right = self._convert(right, rty, common, expr)
            if common.is_float:
                op = Op.FMIN if name == "min" else Op.FMAX
            elif common.is_signed:
                op = Op.IMIN if name == "min" else Op.IMAX
            else:
                op = Op.UMIN if name == "min" else Op.UMAX
            return self._emit_to_new(op, srcs=(left, right)), common
        if name == "clamp":
            inner = ast.Call(name="max", args=[expr.args[0], expr.args[1]],
                             line=expr.line, col=expr.col)
            outer = ast.Call(name="min", args=[inner, expr.args[2]],
                             line=expr.line, col=expr.col)
            return self._lower_call(outer)
        if name in ("mad", "fma"):
            a = self._float_arg(expr, 0)
            b = self._float_arg(expr, 1)
            c = self._float_arg(expr, 2)
            return self._emit_to_new(Op.FMA, srcs=(a, b, c)), FLOAT
        if name in ("pow", "powr", "native_powr"):
            a = self._float_arg(expr, 0)
            b = self._float_arg(expr, 1)
            lg = self._emit_to_new(Op.FLOG, srcs=(a,))
            prod = self._emit_to_new(Op.FMUL, srcs=(b, lg))
            return self._emit_to_new(Op.FEXP, srcs=(prod,)), FLOAT
        if name == "native_divide":
            a = self._float_arg(expr, 0)
            b = self._float_arg(expr, 1)
            rcp = self._emit_to_new(Op.FRCP, srcs=(b,))
            return self._emit_to_new(Op.FMUL, srcs=(a, rcp)), FLOAT
        if name == "abs":
            value, ty = self._rvalue(expr.args[0])
            if ty.is_float:
                return self._emit_to_new(Op.FABS, srcs=(value,)), FLOAT
            return self._emit_to_new(Op.IABS, srcs=(value,)), ty
        if name == "select":
            a, aty = self._rvalue(expr.args[0])
            b, bty = self._rvalue(expr.args[1])
            c, _cty = self._rvalue(expr.args[2])
            common = unify_arithmetic(aty, bty, expr.line, expr.col)
            a = self._convert(a, aty, common, expr)
            b = self._convert(b, bty, common, expr)
            # OpenCL: select(a, b, c) == c ? b : a
            return self._emit_to_new(
                Op.SELECT, srcs=(b, a, self._materialize(c))
            ), common
        if name == "mul24":
            left, _ = self._rvalue(expr.args[0])
            right, _ = self._rvalue(expr.args[1])
            return self._emit_to_new(Op.IMUL, srcs=(left, right)), INT
        if name in ("convert_int", "convert_uint", "convert_float"):
            target = {"convert_int": INT, "convert_uint": UINT,
                      "convert_float": FLOAT}[name]
            value, ty = self._rvalue(expr.args[0])
            return self._convert(value, ty, target, expr), target
        if name in ("as_int", "as_uint", "as_float"):
            target = {"as_int": INT, "as_uint": UINT, "as_float": FLOAT}[name]
            value, _ty = self._rvalue(expr.args[0])
            return value, target  # bit-level reinterpretation
        if name in ("vload2", "vload4"):
            return self._lower_vload(expr, 2 if name == "vload2" else 4)
        if name in ("vstore2", "vstore4"):
            self._lower_vstore(expr, 2 if name == "vstore2" else 4)
            return Const.from_int(0), VOID
        if name in _ATOMIC_MODES:
            return self._lower_atomic(expr, name)
        if name == "barrier":
            raise CompileError("barrier() must be a standalone statement",
                               expr.line, expr.col)
        raise CompileError(f"unknown function {name!r}", expr.line, expr.col)

    def _lower_atomic(self, expr, name):
        """OpenCL 1.x atomics: atomic_add(p, v) etc.; returns the old
        value. ``atomic_inc``/``atomic_dec`` take only the pointer."""
        mode, implicit_one = _ATOMIC_MODES[name]
        expected = 1 if implicit_one else 2
        if len(expr.args) != expected:
            raise CompileError(f"{name} takes {expected} argument(s)",
                               expr.line, expr.col)
        pointer, pty = self._rvalue(expr.args[0])
        if not is_pointer(pty):
            raise CompileError(f"{name} requires a pointer argument",
                               expr.line, expr.col)
        if not pty.pointee.is_integer:
            raise CompileError(f"{name} requires an integer pointer",
                               expr.line, expr.col)
        if implicit_one:
            value = Const.from_int(1)
            vty = pty.pointee
        else:
            value, vty = self._rvalue(expr.args[1])
            if not (is_scalar(vty) and vty.is_integer):
                raise CompileError(f"{name} operand must be an integer",
                                   expr.line, expr.col)
        flags = (mode << ATOM_MODE_SHIFT) | (
            MEM_SPACE_LOCAL if pty.space == "local" else 0
        )
        dst = self.fn.new_vreg("atom")
        self._emit(Op.ATOM, dst=dst,
                   srcs=(self._materialize(pointer, "aaddr"),
                         self._materialize(value, "aval")),
                   flags=flags)
        return dst, pty.pointee

    # -- vector memory -------------------------------------------------------------------------------

    def _vector_address(self, expr, width):
        """vloadN/vstoreN addressing: base pointer + offset * width * 4."""
        offset_expr = expr.args[0] if expr.name.startswith("vload") else expr.args[1]
        ptr_expr = expr.args[1] if expr.name.startswith("vload") else expr.args[2]
        ptr, pty = self._rvalue(ptr_expr)
        if not is_pointer(pty) or not pty.pointee.is_float:
            raise CompileError("vload/vstore require a float pointer",
                               expr.line, expr.col)
        offset, oty = self._rvalue(offset_expr)
        if not oty.is_integer:
            raise CompileError("vload/vstore offset must be an integer",
                               expr.line, expr.col)
        stride_shift = 3 if width == 2 else 4
        if isinstance(offset, Const):
            byte_offset = Const.from_int(offset.as_int << stride_shift)
        else:
            byte_offset = self._emit_to_new(
                Op.ISHL, srcs=(offset, Const.from_int(stride_shift))
            )
        if isinstance(ptr, Const) and isinstance(byte_offset, Const):
            addr = Const.from_int(ptr.as_int + byte_offset.as_int)
        else:
            addr = self._emit_to_new(Op.IADD, srcs=(ptr, byte_offset), name="vaddr")
        local = pty.space == "local"
        return self._materialize(addr, "vaddr"), local

    def _lower_vload(self, expr, width):
        addr, local = self._vector_address(expr, width)
        space_flag = MEM_SPACE_LOCAL if local else 0
        if self.options.vector_ls:
            group = self.fn.new_group(width, "vl")
            width_flag = 1 if width == 2 else 2
            self._emit(Op.LD, dst=group[0], srcs=(addr,),
                       flags=width_flag | space_flag, group=group)
            elements = list(group)
        else:
            # older toolchains scalarize wide accesses
            elements = []
            for i in range(width):
                element_addr = self._emit_to_new(
                    Op.IADD, srcs=(addr, Const.from_int(4 * i))
                ) if i else addr
                dst = self.fn.new_vreg(f"vl{i}")
                self._emit(Op.LD, dst=dst, srcs=(element_addr,),
                           flags=space_flag, group=[dst])
                elements.append(dst)
        return VecValue(elements, FLOAT), VectorType(FLOAT, width)

    def _lower_vstore(self, expr, width):
        value, vty = self._rvalue(expr.args[0])
        if not is_vector(vty) or vty.width != width:
            raise CompileError(f"vstore{width} requires a float{width} value",
                               expr.line, expr.col)
        addr, local = self._vector_address(expr, width)
        space_flag = MEM_SPACE_LOCAL if local else 0
        if self.options.vector_ls:
            group = self.fn.new_group(width, "vs")
            for member, element in zip(group, value.elements):
                self._emit(Op.MOV, dst=member, srcs=(element,))
            width_flag = 1 if width == 2 else 2
            self._emit(Op.ST, srcs=(addr,), flags=width_flag | space_flag,
                       group=group)
        else:
            for i, element in enumerate(value.elements):
                element_addr = self._emit_to_new(
                    Op.IADD, srcs=(addr, Const.from_int(4 * i))
                ) if i else addr
                data = self._materialize(element, "vs")
                self._emit(Op.ST, srcs=(element_addr,), flags=space_flag,
                           group=[data])
