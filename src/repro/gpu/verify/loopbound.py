"""Loop-bound inference over clause CFGs.

Back edges in the clause CFG (tail edges whose target index does not
exceed the source index) define natural loops; for each loop this module
tries to prove a **sound upper bound on the number of back-edge
traversals** from the induction idiom the code producers emit:

    i = init              # in a preheader clause outside the body
    head: ...
          i = i +/- step  # exactly one in-body update, constant step
          c = CMP(i, limit)   # limit loop-invariant
          BRANCH/BRANCH_Z back into the body (or out of it)

The derivation runs entirely in the :mod:`absint` domain, so ``init``
and ``limit`` stay *symbolic* (NDRange symbols, uniform argument slots,
intervals) until a launch-time :class:`VerifyContext` pins them; the
:class:`TripBound` then evaluates to a concrete trip count. Widening in
the abstract fixpoint only ever grows intervals, so a bound derived from
the stabilized states over-approximates every concrete execution.

Anything the pattern matcher cannot prove stays ``None`` (unbounded):
callers must treat an unbounded loop as "no static claim", never as
zero.
"""

from dataclasses import dataclass

from repro.gpu.isa import CmpMode, Op, Tail, is_const, is_grf
from repro.gpu.verify import absint, model
from repro.gpu.verify.memory import offset_interval

# A concrete trip-count evaluation refuses to reason past this magnitude:
# the induction variable must provably stay inside signed-32-bit range so
# machine wraparound cannot invalidate the monotonicity argument.
_WRAP_LIMIT = 1 << 31

# Negating a continue-condition: NOT cmp(a, b) == negated_cmp(a, b).
_NEGATE = {
    CmpMode.IEQ: CmpMode.INE, CmpMode.INE: CmpMode.IEQ,
    CmpMode.ILT: CmpMode.IGE, CmpMode.IGE: CmpMode.ILT,
    CmpMode.ILE: CmpMode.IGT, CmpMode.IGT: CmpMode.ILE,
    CmpMode.ULT: CmpMode.UGE, CmpMode.UGE: CmpMode.ULT,
    CmpMode.ULE: CmpMode.UGT, CmpMode.UGT: CmpMode.ULE,
}

# Swapping operands: cmp(a, b) == swapped_cmp(b, a).
_SWAP = {
    CmpMode.IEQ: CmpMode.IEQ, CmpMode.INE: CmpMode.INE,
    CmpMode.ILT: CmpMode.IGT, CmpMode.IGT: CmpMode.ILT,
    CmpMode.ILE: CmpMode.IGE, CmpMode.IGE: CmpMode.ILE,
    CmpMode.ULT: CmpMode.UGT, CmpMode.UGT: CmpMode.ULT,
    CmpMode.ULE: CmpMode.UGE, CmpMode.UGE: CmpMode.ULE,
}

_UNSIGNED = {CmpMode.ULT, CmpMode.ULE, CmpMode.UGT, CmpMode.UGE}


def _ceil_div(a, b):
    return -((-a) // b)


def _mode_view(interval, signed):
    """Map a math-integer interval onto the value domain a compare mode
    actually sees (machine values are the math values mod 2^32):
    signed [-2^31, 2^31) or unsigned [0, 2^32). Intervals that map
    non-monotonically (straddle a wrap seam) yield ``None``."""
    lo, hi = interval
    if signed:
        if -(1 << 31) <= lo and hi < (1 << 31):
            return interval
        if (1 << 31) <= lo and hi < (1 << 32):
            return (lo - (1 << 32), hi - (1 << 32))
        return None
    if 0 <= lo and hi < (1 << 32):
        return interval
    if -(1 << 31) <= lo and hi < 0:
        return (lo + (1 << 32), hi + (1 << 32))
    return None


_SIGNED_MODES = {CmpMode.ILT, CmpMode.ILE, CmpMode.IGT, CmpMode.IGE}


@dataclass(frozen=True)
class TripBound:
    """A symbolic bound on back-edge traversals of one natural loop.

    ``mode`` is the *continue* condition normalized to
    ``mode(induction, limit)``; ``kind`` names the induction update:
    ``linear`` (``i += step``, *step* signed), ``shr`` (``i >>= step``,
    logical) or ``shl`` (``i <<= step``). ``init``/``limit`` are
    abstract values evaluated against a launch context when a concrete
    count is needed. ``None`` fields mean the loop resisted analysis
    and carries no bound.
    """

    head: int
    latch: int
    body: frozenset
    exit_clause: int = None
    induction_reg: int = None
    mode: CmpMode = None
    kind: str = "linear"
    step: int = 0
    init: object = None  # absint.AVal
    limit: object = None  # absint.AVal

    @property
    def analyzed(self):
        return self.mode is not None

    def max_back_edges(self, ctx):
        """Concrete upper bound on back-edge traversals, or ``None``.

        Sound against update-before-compare and update-after-compare
        orderings alike: at the t-th back edge the continue condition
        held at a compare where at least t-1 updates had executed, so
        the compared value had moved at least t-1 steps from ``init``.
        """
        if not self.analyzed:
            return None
        init = _aval_interval(self.init, ctx)
        limit = _aval_interval(self.limit, ctx)
        if self.kind in ("shr", "ashr"):
            return self._shr_trips(init, limit)
        if self.kind == "shl":
            return self._shl_trips(init, limit)
        if init is None or limit is None:
            return None
        mode, step = self.mode, self.step
        init = _mode_view(init, mode in _SIGNED_MODES)
        limit = _mode_view(limit, mode in _SIGNED_MODES)
        if init is None or limit is None:
            return None
        if mode in (CmpMode.IEQ,):
            return None  # "continue while equal" never bounds
        if mode is CmpMode.INE:
            # continue while i != L: exact-const arithmetic only
            if init[0] != init[1] or limit[0] != limit[1] or step == 0:
                return None
            delta = limit[0] - init[0]
            if delta % step or delta // step < 0:
                return None
            trips = delta // step
        elif mode in (CmpMode.ILT, CmpMode.ULT, CmpMode.ILE, CmpMode.ULE):
            if step <= 0:
                return None
            gap = limit[1] - init[0]
            trips = (_ceil_div(gap, step)
                     if mode in (CmpMode.ILT, CmpMode.ULT)
                     else gap // step + 1)
        elif mode in (CmpMode.IGT, CmpMode.UGT, CmpMode.IGE, CmpMode.UGE):
            if step >= 0:
                return None
            gap = init[1] - limit[0]
            trips = (_ceil_div(gap, -step)
                     if mode in (CmpMode.IGT, CmpMode.UGT)
                     else gap // -step + 1)
        else:
            return None  # float compare: NaN breaks monotonicity
        trips = max(0, trips)
        # the induction value must stay inside signed-32-bit range for
        # the whole run, else machine wraparound voids the monotonicity
        worst = max(abs(init[0]), abs(init[1])) + (trips + 1) * abs(self.step)
        if worst >= _WRAP_LIMIT:
            return None
        return trips

    def _shr_trips(self, init, limit):
        """``i >>= k`` against ``i > 0`` / ``i != 0``: a right shift by
        k >= 1 drains the value's bits, so back edges cannot outlast
        ``ceil(bits(init)/k)`` regardless of compare ordering (at the
        t-th back edge at least t-1 shifts had executed and the value
        was still nonzero).

        An *arithmetic* shift (``ashr``) keeps a negative value negative
        forever (``-1 >> 1 == -1``), so it is only sound against the
        strictly-positive signed continue condition ``IGT 0`` — which a
        negative value exits immediately, and positive values (31
        significant bits at most) drain exactly like the logical shift.
        """
        if self.kind == "ashr":
            if self.mode is not CmpMode.IGT:
                return None
        elif self.mode not in (CmpMode.IGT, CmpMode.UGT, CmpMode.INE):
            return None
        if limit != (0, 0):
            return None
        bits = 31 if self.kind == "ashr" else 32
        if init is not None:
            view = _mode_view(init, signed=False)
            if view is not None:
                bits = min(bits, max(1, view[1].bit_length()))
        return _ceil_div(bits, self.step)

    def _shl_trips(self, init, limit):
        """``i <<= k`` against ``i < L`` / ``i <= L``: from a positive
        start the value at least doubles per iteration, and the limit
        ceiling guarantees it never wraps (nor, for signed compares,
        turns negative) before crossing L."""
        if self.mode not in (CmpMode.ILT, CmpMode.ULT, CmpMode.ILE,
                             CmpMode.ULE):
            return None
        if init is None or limit is None:
            return None
        signed = self.mode in _SIGNED_MODES
        init = _mode_view(init, signed=False)
        limit = _mode_view(limit, signed)
        if init is None or limit is None or init[0] < 1:
            return None
        shift = self.step
        target = limit[1] + (1 if self.mode in (CmpMode.ILE, CmpMode.ULE)
                             else 0)
        ceiling = 1 << ((31 if signed else 32) - shift)
        if target > ceiling:
            return None  # the shifted value could wrap past the limit
        value, trips = init[0], 0
        while value < target and trips <= 40:
            value <<= shift
            trips += 1
        return None if trips > 40 else trips

    def describe(self):
        """Human-readable symbolic form for reports/annotations."""
        if not self.analyzed:
            return "unbounded"
        update = {"shr": f">>{self.step}", "ashr": f">>{self.step}",
                  "shl": f"<<{self.step}"}.get(self.kind,
                                               f"step {self.step:+d}")
        return (f"r{self.induction_reg} {self.mode.name.lower()} "
                f"{_aval_text(self.limit)} from {_aval_text(self.init)} "
                f"{update}")


def _aval_text(aval):
    if aval is None or aval.top:
        return "?"
    parts = []
    if aval.base is not None:
        parts.append(f"u{aval.base[1]}")
    if aval.coeff:
        parts.append(f"{aval.coeff}*{aval.sym}")
    if aval.lo == aval.hi:
        if aval.lo or not parts:
            parts.append(str(aval.lo))
    else:
        parts.append(f"[{aval.lo},{aval.hi}]")
    return "+".join(parts)


def _aval_interval(aval, ctx):
    """Concrete [lo, hi] of an abstract value under *ctx*, or None."""
    if aval is None or aval.top:
        return None
    offset = offset_interval(aval, ctx)
    if offset is None:
        return None
    if aval.base is None:
        return offset
    value = ctx.slot_known_value(aval.base[1])
    if value is None:
        return None
    return (value + offset[0], value + offset[1])


def find_back_edges(cfg):
    """``(source, target)`` tail edges that do not increase the index."""
    edges = []
    for index in sorted(cfg.reachable):
        for succ in cfg.successors[index]:
            if succ <= index:
                edges.append((index, succ))
    return edges


def natural_body(cfg, head, latch):
    """Clauses of the natural loop: head plus everything that reaches
    the latch without passing through the head."""
    body = {head, latch}
    stack = [latch]
    while stack:
        node = stack.pop()
        if node == head:
            continue
        for pred in cfg.predecessors[node]:
            if pred not in body and pred in cfg.reachable:
                body.add(pred)
                stack.append(pred)
    return frozenset(body)


def _writes_in_body(program, body, reg):
    """Clause indices in *body* whose slots write GRF *reg*."""
    sites = []
    for index in sorted(body):
        for tuple_index, (fma, add) in enumerate(
                program.clauses[index].tuples):
            for slot_name, instr in (("fma", fma), ("add", add)):
                if reg in model.written_registers(instr):
                    sites.append((index, tuple_index, slot_name))
    return sites


def _exit_candidates(program, cfg, body, head, latch):
    """Body clauses whose conditional tail leaves the body, paired with
    their in-body ("stay") successor — candidates for the loop's
    continue condition. Only exits every head-to-latch path crosses
    qualify: an avoidable break cannot bound the iteration count."""
    candidates = []
    for index in sorted(body):
        clause = program.clauses[index]
        if clause.tail not in (Tail.BRANCH, Tail.BRANCH_Z):
            continue
        succs = cfg.successors[index]
        inside = [s for s in succs if s in body]
        outside = [s for s in succs if s not in body]
        if len(inside) != 1 or not outside:
            continue
        if index != latch and not _dominates_latch(
                cfg, body, head, latch, index):
            continue
        candidates.append((index, inside[0]))
    return candidates


def _dominates_latch(cfg, body, head, latch, node):
    """Every in-body path head->latch passes through *node*."""
    if node == head or node == latch:
        return True
    seen = {head}
    stack = [head]
    while stack:
        current = stack.pop()
        if current == latch:
            return False
        for succ in cfg.successors[current]:
            if succ in body and succ != node and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return True


def _value_before(program, ctx, absres, clause_index, stop, operand):
    """Abstract value of *operand* just before slot *stop* of a clause,
    replayed from the stabilized entry state."""
    clause = program.clauses[clause_index]
    state = dict(absres.entry_states.get(clause_index) or {})
    if not state:
        return absint.TOP_VARYING
    for tuple_index, (fma, add) in enumerate(clause.tuples):
        for slot_name, instr in (("fma", fma), ("add", add)):
            if (tuple_index, slot_name) == stop:
                return absint.read_aval(state, clause, operand)
            absint.transfer_slot(state, clause, instr, ctx, None,
                                 (clause_index, tuple_index, slot_name))
    return absint.read_aval(state, clause, operand)


def _find_cmp(program, exit_clause, cond_reg):
    """The last CMP writing *cond_reg* in the exit clause, if any."""
    found = None
    for tuple_index, (fma, add) in enumerate(
            program.clauses[exit_clause].tuples):
        for slot_name, instr in (("fma", fma), ("add", add)):
            if (instr.op is Op.CMP and instr.dst == cond_reg
                    and is_grf(cond_reg)):
                found = (tuple_index, slot_name, instr)
    return found


def _preheader_value(program, cfg, ctx, absres, body, head, reg):
    """Join of *reg* at the loop entry, over every out-of-body
    predecessor of the head (the preheader out-states)."""
    if head == 0 and not any(p not in body for p in cfg.predecessors[0]):
        # entry clause is the head with no explicit preheader
        return absint.entry_state().get(reg, absint.TOP_VARYING)
    value = None
    for pred in cfg.predecessors[head]:
        if pred in body:
            continue
        entry = absres.entry_states.get(pred)
        if entry is None:
            return None
        state = dict(entry)
        absint.transfer_clause(program.clauses[pred], pred, state, ctx)
        out = state.get(reg, absint.TOP_VARYING)
        value = out if value is None else absint.join(value, out)
    return value


def analyze_loop(program, cfg, ctx, absres, head, latch):
    """Derive a :class:`TripBound` for the (head, latch) back edge."""
    body = natural_body(cfg, head, latch)
    unanalyzed = TripBound(head=head, latch=latch, body=body)
    # single-entry check: init values come from the preheader, so a
    # side entrance into the body would void them
    for node in body:
        if node == head:
            continue
        if any(p not in body for p in cfg.predecessors[node]
               if p in cfg.reachable):
            return unanalyzed
    for exit_clause, stay in _exit_candidates(program, cfg, body, head,
                                              latch):
        clause = program.clauses[exit_clause]
        cmp_site = _find_cmp(program, exit_clause, clause.cond_reg)
        if cmp_site is None:
            continue
        tuple_index, slot_name, cmp_instr = cmp_site
        try:
            mode = CmpMode(cmp_instr.flags)
        except ValueError:
            continue
        if mode not in _NEGATE:
            continue  # float compares carry no integer monotonicity
        # the condition value that *stays in the loop*
        taken_on_true = clause.tail is Tail.BRANCH
        stay_is_target = (stay == clause.target
                          and stay != exit_clause + 1)
        continue_on_true = stay_is_target == taken_on_true
        bound = _bound_from_cmp(
            program, cfg, ctx, absres, body, head, exit_clause,
            (tuple_index, slot_name), cmp_instr, mode, continue_on_true)
        if bound is not None:
            return TripBound(head=head, latch=latch, body=body,
                             exit_clause=exit_clause, **bound)
    return unanalyzed


def _bound_from_cmp(program, cfg, ctx, absres, body, head, exit_clause,
                    cmp_slot, cmp_instr, mode, continue_on_true):
    if not continue_on_true:
        mode = _NEGATE[mode]
    for ind_operand, lim_operand, oriented in (
            (cmp_instr.srca, cmp_instr.srcb, mode),
            (cmp_instr.srcb, cmp_instr.srca, _SWAP.get(mode))):
        if oriented is None or not is_grf(ind_operand):
            continue
        writes = _writes_in_body(program, body, ind_operand)
        if len(writes) != 1:
            continue
        update = _update_of(program, ctx, absres, writes[0], ind_operand)
        if update is None:
            continue
        kind, step = update
        # the limit must be loop-invariant: a const-pool operand, or a
        # register no body clause writes
        if is_grf(lim_operand) and _writes_in_body(program, body,
                                                   lim_operand):
            continue
        if not (is_grf(lim_operand) or is_const(lim_operand)):
            continue
        limit = _value_before(program, ctx, absres, exit_clause,
                              cmp_slot, lim_operand)
        init = _preheader_value(program, cfg, ctx, absres, body, head,
                                ind_operand)
        if limit is None or init is None:
            continue
        return {"induction_reg": ind_operand, "mode": oriented,
                "kind": kind, "step": step, "init": init, "limit": limit}
    return None


def _update_of(program, ctx, absres, write_site, reg):
    """Classify the single in-body self-update of *reg*: ``("linear",
    signed_step)`` for ``reg +/-= const``, ``("shr", k)`` /
    ``("shl", k)`` for constant shifts by k >= 1, else ``None``."""
    clause_index, tuple_index, slot_name = write_site
    clause = program.clauses[clause_index]
    fma, add = clause.tuples[tuple_index]
    instr = fma if slot_name == "fma" else add
    if instr.op not in (Op.IADD, Op.ISUB, Op.ISHR, Op.IASHR, Op.ISHL) \
            or instr.dst != reg:
        return None
    if instr.srca == reg:
        other = instr.srcb
    elif instr.srcb == reg and instr.op is Op.IADD:
        other = instr.srca
    else:
        return None
    value = _value_before(program, ctx, absres, clause_index,
                          (tuple_index, slot_name), other)
    if not value.is_exact_const:
        return None
    if instr.op in (Op.ISHR, Op.IASHR, Op.ISHL):
        amount = value.lo & 0xFFFFFFFF
        if not 1 <= (amount & 31) == amount:
            return None  # the machine masks shifts to 5 bits
        return ({Op.ISHR: "shr", Op.IASHR: "ashr",
                 Op.ISHL: "shl"}[instr.op], amount)
    step = value.lo & 0xFFFFFFFF
    if step >= _WRAP_LIMIT:
        step -= 1 << 32  # two's-complement negative step
    return ("linear", -step if instr.op is Op.ISUB else step)


def find_loops(program, cfg, ctx, absres):
    """All natural loops of the program as :class:`TripBound` records.

    Back edges sharing a head are merged into one *unanalyzed* loop
    (multi-latch loops defeat the single-update induction pattern).
    """
    by_head = {}
    for latch, head in find_back_edges(cfg):
        by_head.setdefault(head, []).append(latch)
    loops = []
    for head in sorted(by_head):
        latches = by_head[head]
        if len(latches) > 1:
            body = frozenset().union(
                *[natural_body(cfg, head, latch) for latch in latches])
            loops.append(TripBound(head=head, latch=max(latches),
                                   body=body))
            continue
        loops.append(analyze_loop(program, cfg, ctx, absres, head,
                                  latches[0]))
    return loops
