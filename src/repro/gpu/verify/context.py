"""Launch/build context handed to the verifier.

The verifier runs in two situations with very different amounts of
knowledge:

- **build time** (clc codegen, ``clBuildProgram``): the kernel's uniform
  layout is known (which slots hold buffer VAs, local offsets, scalars)
  but launch geometry, buffer sizes and the memory map are not;
- **launch/fuzz time** (progen differential cases): everything is known —
  VAs, region sizes, NDRange, mapped pages — enabling must-fault and
  must-race claims.

:class:`VerifyContext` carries whichever facts are available; every pass
degrades gracefully when a field is ``None``.
"""

from dataclasses import dataclass, field

from repro.gpu.launch import (
    U_FIRST_ARG,
    U_GLOBAL_SIZE,
    U_LOCAL_SIZE,
    U_NUM_GROUPS,
)


@dataclass
class BufferInfo:
    """A kernel argument backed by global memory."""

    slot: int  # uniform slot holding the base VA
    size: int = None  # usable bytes from the base, when known
    va: int = None  # concrete base VA, when known
    name: str = ""


@dataclass
class VerifyContext:
    """Facts about the build/launch the verifier may rely on.

    Attributes:
        uniform_count: number of valid uniform slots (LDU bound).
        buffers: uniform slot -> :class:`BufferInfo` for buffer args.
        scalar_slots: uniform slots holding scalar argument bits.
        local_slots: uniform slots holding local-memory byte offsets.
        uniform_values: uniform slot -> known concrete value.
        local_bytes: size of the workgroup-local slab, when known.
        mapped_ranges: sorted list of (lo, hi) half-open VA ranges that
            are mapped; None when the memory map is unknown.
        threads: total threads in the launch, when known.
        threads_per_group: workgroup size, when known.
        assume_parallel: treat unknown launch geometry as >1 thread per
            group for race *warnings* (never for error-severity claims).
    """

    name: str = ""
    uniform_count: int = None
    buffers: dict = field(default_factory=dict)
    scalar_slots: set = field(default_factory=set)
    local_slots: set = field(default_factory=set)
    uniform_values: dict = field(default_factory=dict)
    local_bytes: int = None
    mapped_ranges: list = None
    threads: int = None
    threads_per_group: int = None
    assume_parallel: bool = True

    @property
    def gid_max(self):
        """Inclusive bound on global id x, or None."""
        return None if self.threads is None else max(self.threads - 1, 0)

    @property
    def lid_max(self):
        """Inclusive bound on local id x, or None."""
        if self.threads_per_group is None:
            return None
        return max(self.threads_per_group - 1, 0)

    def slot_known_value(self, slot):
        """Concrete value of a uniform slot if the context pins one."""
        value = self.uniform_values.get(slot)
        if value is not None:
            return value
        info = self.buffers.get(slot)
        if info is not None and info.va is not None:
            return info.va & 0xFFFFFFFF
        return None

    def is_mapped(self, lo, hi):
        """Whether [lo, hi) intersects any mapped range (None = unknown)."""
        if self.mapped_ranges is None:
            return None
        for rlo, rhi in self.mapped_ranges:
            if lo < rhi and hi > rlo:
                return True
        return False

    @classmethod
    def from_compiled_kernel(cls, compiled):
        """Build-time context from a clc :class:`CompiledKernel`."""
        ctx = cls(name=compiled.name, uniform_count=compiled.uniform_count)
        for position, (pname, kind, _ty) in enumerate(compiled.params):
            slot = U_FIRST_ARG + position
            if kind == "buffer":
                ctx.buffers[slot] = BufferInfo(slot=slot, name=pname)
            elif kind == "local_ptr":
                ctx.local_slots.add(slot)
            else:
                ctx.scalar_slots.add(slot)
        return ctx

    @classmethod
    def from_launch(cls, compiled, global_size, local_size,
                    buffer_sizes=None, local_bytes=None):
        """Launch-time context: build-time facts plus NDRange geometry.

        *buffer_sizes* maps argument position -> usable bytes.
        """
        ctx = cls.from_compiled_kernel(compiled)
        gx, gy, gz = global_size
        lx, ly, lz = local_size
        ctx.threads = gx * gy * gz
        ctx.threads_per_group = lx * ly * lz
        ctx.uniform_values[U_GLOBAL_SIZE] = gx
        ctx.uniform_values[U_LOCAL_SIZE] = lx
        ctx.uniform_values[U_NUM_GROUPS] = gx // lx if lx else 0
        ctx.local_bytes = local_bytes
        if buffer_sizes:
            for position, size in buffer_sizes.items():
                info = ctx.buffers.get(U_FIRST_ARG + position)
                if info is not None:
                    info.size = size
        return ctx

    @classmethod
    def from_launch_words(cls, compiled, global_size, local_size,
                          uniform_words, buffers=None, local_bytes=None,
                          mapped_ranges=None):
        """Launch context with the *encoded uniform image*: every slot
        value is pinned, so the analysis folds scalar arguments (loop
        limits, strides) exactly. *buffers* maps argument position ->
        ``(va, size)``; *mapped_ranges* is the AS's mapped VA ranges.
        """
        ctx = cls.from_launch(compiled, global_size, local_size,
                              local_bytes=local_bytes)
        for slot, word in enumerate(uniform_words):
            ctx.uniform_values[slot] = int(word)
        if buffers:
            for position, (va, size) in buffers.items():
                info = ctx.buffers.get(U_FIRST_ARG + position)
                if info is not None:
                    info.va = va
                    info.size = size
        ctx.mapped_ranges = mapped_ranges
        return ctx
