"""The kernel-launch ABI: what every engine is handed for one
``(kernel, NDRange, arguments)``.

The register half of the ABI (the ids the dispatcher preloads) is in
:mod:`repro.gpu.isa`; this module is the memory half, the *uniform image*
a launch is described by. It is a ``uint32`` vector:

====== ==============================================================
slot   contents
====== ==============================================================
0-2    global size x, y, z
3-5    local (workgroup) size x, y, z
6-8    number of workgroups x, y, z
9      ``work_dim`` (dimensions with more than one work-item, min 1)
10+i   argument *i* in declared order: a buffer's device address, a
       scalar's bits (encoded by its *declared* type), or a
       ``__local`` pointer's byte offset into the workgroup slab
====== ==============================================================

``__local`` pointer arguments are laid out above the kernel's static
``__local`` arrays and its per-thread private scratch, each rounded up to
4 bytes. The compiler emits ``LDU`` of these slots, both runtimes and the
differential harness pack them, the verifier classifies them: all from
the names below.
"""

import numpy as np

from repro.errors import CLError

U_GLOBAL_SIZE = 0
U_LOCAL_SIZE = 3
U_NUM_GROUPS = 6
U_WORK_DIM = 9
U_FIRST_ARG = 10


class LocalMemory:
    """A dynamically sized ``__local`` kernel argument (clSetKernelArg with
    a NULL pointer and a size, in real OpenCL)."""

    def __init__(self, nbytes):
        if nbytes <= 0:
            raise CLError("local memory size must be positive")
        self.nbytes = int(nbytes)


def default_local(global_x):
    """The local size a launch without one gets: the largest power of two
    up to 64 dividing the global x size."""
    for candidate in (64, 32, 16, 8, 4, 2):
        if global_x % candidate == 0:
            return candidate
    return 1


def _triple(size):
    if isinstance(size, int):
        size = (size,)
    return tuple(size) + (1,) * (3 - len(size))


def normalize_sizes(global_size, local_size=None):
    """Both sizes as 3-tuples; :class:`CLError` unless every global
    dimension is a whole number of workgroups."""
    global_size = _triple(global_size)
    local_size = _triple(default_local(global_size[0])
                         if local_size is None else local_size)
    for g, l in zip(global_size, local_size):
        if l <= 0 or g % l:
            raise CLError(
                f"global size {global_size} not divisible by local {local_size}"
            )
    return global_size, local_size


def encode_scalar(value, ty):
    """The 32 bits of a scalar argument of declared type *ty*."""
    if ty.is_float:
        return int(np.float32(value).view(np.uint32))
    return int(value) & 0xFFFFFFFF


def local_base(compiled, local_size):
    """First byte of the workgroup slab above the compiler's own layout
    (static ``__local`` arrays, then per-thread scratch)."""
    threads_per_group = local_size[0] * local_size[1] * local_size[2]
    return (compiled.local_static_size
            + compiled.scratch_per_thread * threads_per_group)


def bind_arguments(compiled, local_size, values):
    """Argument words of *compiled* for one launch.

    *values* has one entry per declared parameter: a buffer's device
    address, a :class:`LocalMemory`, or a scalar's value. Returns the
    words and the workgroup slab size they need.
    """
    cursor = local_base(compiled, local_size)
    words = []
    for position, ((name, kind, ty), value) in enumerate(
            zip(compiled.params, values)):
        if value is None:
            raise CLError(
                f"argument {position} ({name!r}) of {compiled.name} unset")
        if kind == "buffer":
            words.append(value & 0xFFFFFFFF)
        elif kind == "local_ptr":
            if not isinstance(value, LocalMemory):
                raise CLError(f"argument {name!r} expects LocalMemory")
            words.append(cursor)
            cursor += (value.nbytes + 3) & ~3
        else:
            words.append(encode_scalar(value, ty))
    return words, cursor


def uniform_image(global_size, local_size, arg_words):
    """The packed image: the NDRange block, then *arg_words*."""
    gx, gy, gz = global_size
    lx, ly, lz = local_size
    words = [gx, gy, gz, lx, ly, lz, gx // lx, gy // ly, gz // lz,
             ((gx > 1) + (gy > 1) + (gz > 1)) or 1]
    words.extend(int(word) & 0xFFFFFFFF for word in arg_words)
    return np.array(words, dtype=np.uint32)
