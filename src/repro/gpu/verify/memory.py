"""Memory passes: abstract out-of-bounds and workgroup race detection.

Built on the :mod:`absint` address values. Two kinds of claim:

- **OOB**: the access's absolute address interval misses every mapped
  page (ERROR; *must-fault* when the clause is unavoidable — checked
  dynamically by the differential suite) or leaves its declared buffer
  region (ERROR when fully outside, WARNING when only the upper bound
  escapes);
- **races**: per-workgroup W/W and R/W conflicts on global or local
  memory with no intervening barrier. Error-severity race claims are
  reserved for *provable* conflicts: a non-atomic store whose address is
  uniform across the workgroup (every thread hits the same words), in an
  unavoidable clause, with a known workgroup size > 1. Anything weaker
  (unknown launch geometry, avoidable clause) is a WARNING.
"""

from repro.gpu.verify.report import Finding, Severity

PASS_NAME = "memory"

_SYM_TO_CTX = {"gid": "gid_max", "lid": "lid_max"}


def _finding(code, severity, message, access, **kw):
    return Finding(code=code, severity=severity, message=message,
                   clause=access.clause, tuple_index=access.tuple_index,
                   slot=access.slot, pass_name=PASS_NAME, **kw)


def _sym_range(sym, ctx):
    if sym is None:
        return (0, 0)
    if sym == "lane":
        return (0, 3)
    bound = getattr(ctx, _SYM_TO_CTX.get(sym, ""), None)
    return None if bound is None else (0, bound)


def offset_interval(aval, ctx):
    """Interval of ``coeff*sym + [lo, hi]``, or None when unbounded."""
    if aval.top:
        return None
    srange = _sym_range(aval.sym, ctx)
    if srange is None:
        return None
    terms = (aval.coeff * srange[0], aval.coeff * srange[1])
    return (aval.lo + min(terms), aval.hi + max(terms))


def absolute_interval(aval, ctx):
    offset = offset_interval(aval, ctx)
    if offset is None:
        return None
    if aval.base is None:
        interval = offset
    else:
        value = ctx.slot_known_value(aval.base[1])
        if value is None:
            return None
        interval = (value + offset[0], value + offset[1])
    # The wraparound guard applies to base-less intervals too: the
    # machine computes addresses mod 2^32, so an abstract value outside
    # [0, 2^32) may alias back into mapped VAs — make no claim.
    if interval[0] < 0 or interval[1] >= 1 << 32:
        return None
    return interval


def span_bytes(access):
    return 4 * access.width


def run(program, cfg, ctx, absres, report):
    unavoidable = cfg.unavoidable()
    phases = cfg.phases()
    for access in absres.accesses:
        if access.local:
            _check_local_bounds(access, ctx, unavoidable, report)
        else:
            _check_global_bounds(access, ctx, unavoidable, report)
    _check_races(absres.accesses, ctx, unavoidable, phases, report)


def _check_global_bounds(access, ctx, unavoidable, report):
    span = span_bytes(access)
    interval = absolute_interval(access.addr, ctx)
    if interval is not None and ctx.mapped_ranges is not None:
        lo, hi = interval[0], interval[1] + span - 1
        if ctx.is_mapped(lo, hi + 1) is False:
            report.add(_finding(
                "oob-access", Severity.ERROR,
                f"{access.kind.upper()} address range "
                f"0x{lo:x}..0x{hi:x} hits no mapped page",
                access, must_fault=access.clause in unavoidable))
            return
    base = access.addr.base
    if base is None or base[1] not in ctx.buffers:
        return
    info = ctx.buffers[base[1]]
    if info.size is None:
        return
    offset = offset_interval(access.addr, ctx)
    if offset is None:
        return
    lo, hi = offset[0], offset[1] + span - 1
    name = info.name or f"u{base[1]}"
    if lo >= info.size or hi < 0:
        report.add(_finding(
            "oob-access", Severity.ERROR,
            f"{access.kind.upper()} offset {lo}..{hi} lies entirely "
            f"outside buffer {name} ({info.size} bytes)", access))
    elif hi >= info.size or lo < 0:
        report.add(_finding(
            "possible-oob", Severity.WARNING,
            f"{access.kind.upper()} offset may reach {lo}..{hi}, outside "
            f"buffer {name} ({info.size} bytes)", access))


def _check_local_bounds(access, ctx, unavoidable, report):
    if ctx.local_bytes is None or access.addr.base is not None:
        return
    offset = offset_interval(access.addr, ctx)
    if offset is None:
        return
    lo, hi = offset[0], offset[1] + span_bytes(access) - 1
    if hi >= ctx.local_bytes or lo < 0:
        report.add(_finding(
            "local-oob", Severity.ERROR,
            f"local {access.kind.upper()} offset {lo}..{hi} exceeds the "
            f"{ctx.local_bytes}-byte workgroup slab", access))


def _comparable_interval(access, ctx):
    """Absolute (preferred) or base-relative interval for overlap tests."""
    interval = absolute_interval(access.addr, ctx)
    if interval is not None:
        return (None, interval)
    offset = offset_interval(access.addr, ctx)
    if offset is not None and access.addr.base is not None:
        return (access.addr.base, offset)
    return None


def _check_races(accesses, ctx, unavoidable, phases, report):
    known_parallel = (ctx.threads_per_group is not None
                      and ctx.threads_per_group > 1)
    single_threaded = (ctx.threads_per_group == 1
                       or ctx.threads == 1)
    maybe_parallel = known_parallel or (ctx.threads_per_group is None
                                        and ctx.assume_parallel)
    if single_threaded:
        return

    # Self-races: one non-atomic store executed by every thread of the
    # group at a group-uniform address.
    for access in accesses:
        if access.kind != "st" or access.addr.varies_in_group:
            continue
        if known_parallel and access.clause in unavoidable:
            report.add(_finding(
                "race-ww", Severity.ERROR,
                "every thread of the workgroup stores to the same "
                "address with no ordering (write/write race)", access))
        elif maybe_parallel:
            # A guarded (avoidable) uniform store is the common
            # "if (lid == 0) out[...] = acc" idiom: note, not warning.
            severity = (Severity.WARNING if access.clause in unavoidable
                        else Severity.NOTE)
            report.add(_finding(
                "possible-race-ww", severity,
                "store address is uniform across the workgroup; "
                "concurrent threads would conflict", access))

    # Pair races: two distinct sites with provably-overlapping uniform
    # footprints in the same barrier phase (forward-only CFGs only).
    if phases is None:
        return
    sites = []
    for access in accesses:
        if access.addr.varies_in_group or access.addr.top:
            continue
        comparable = _comparable_interval(access, ctx)
        if comparable is not None:
            sites.append((access, comparable))
    for i, (first, (base_a, int_a)) in enumerate(sites):
        for second, (base_b, int_b) in sites[i + 1:]:
            if first.local != second.local:
                continue
            kinds = {first.kind, second.kind}
            if "st" not in kinds and kinds != {"atom", "ld"}:
                continue  # need a non-atomic write, or atomic-vs-plain-read
            if (first.clause, first.tuple_index, first.slot) == \
                    (second.clause, second.tuple_index, second.slot):
                continue
            if base_a != base_b:
                continue
            lo = max(int_a[0], int_b[0])
            hi = min(int_a[1] + span_bytes(first) - 1,
                     int_b[1] + span_bytes(second) - 1)
            if lo > hi:
                continue
            if phases.get(first.clause) != phases.get(second.clause):
                continue
            code = "race-ww" if "ld" not in kinds else "race-rw"
            provable = (known_parallel
                        and first.clause in unavoidable
                        and second.clause in unavoidable)
            report.add(_finding(
                code if provable else f"possible-{code}",
                Severity.ERROR if provable else Severity.WARNING,
                f"{first.kind.upper()} overlaps {second.kind.upper()} in "
                f"clause {second.clause} with no intervening barrier "
                f"({'write/write' if code == 'race-ww' else 'read/write'}"
                f" race)", first))
