"""The kernel-launch ABI (`repro.gpu.launch`) has one definition: the CL
runtime, the intercepted m2s runtime and the differential harness hand
every engine the same uniform image for the same launch."""

import numpy as np
import pytest

from repro.baselines.m2s import M2SSimulator
from repro.baselines.m2s_runtime import M2SContext, M2SQueue
from repro.cl import CommandQueue, Context, LocalMemory
from repro.clc import compile_source
from repro.core.platform import MobilePlatform
from repro.errors import CLError, GuestError
from repro.gpu import launch
from repro.gpu.verify.lint import target_source
from repro.kernels import REPLAYABLE, WORKLOADS
from repro.validate import DifferentialRunner, make_kernel_case, \
    trace_kernel_both


def _sources():
    for name in sorted(WORKLOADS):
        yield target_source(f"builtin:{name}")
    for name, cls in sorted(REPLAYABLE.items()):
        yield f"replayable:{name}", cls.source, cls.compile_defines()
    yield target_source("slam")


_SOURCES = list(_sources())

# one launch for every kernel: a global size the default-local rule has to
# search for (96 -> 32), a __local size it has to round (38 -> 40), and a
# Python int for every scalar, float parameters included
_GLOBAL = 96
_LOCAL_BYTES = 38
_SCALAR = 3


def _bound(runtime_kernel, context, params):
    values = []
    for _name, kind, _ty in params:
        if kind == "buffer":
            values.append(context.buffer_from_array(np.zeros(16, np.float32)))
        elif kind == "local_ptr":
            values.append(LocalMemory(_LOCAL_BYTES))
        else:
            values.append(_SCALAR)
    runtime_kernel.set_args(*values)
    return runtime_kernel


def _without_addresses(words, params):
    """Each runtime places buffers where it likes; everything else in the
    image is the ABI's."""
    words = [int(word) for word in words]
    for position, (_name, kind, _ty) in enumerate(params):
        if kind == "buffer":
            words[launch.U_FIRST_ARG + position] = "buffer"
    return words


@pytest.fixture(scope="module")
def cl_context():
    return Context()


@pytest.mark.parametrize("label,source,defines", _SOURCES,
                         ids=[label for label, _s, _d in _SOURCES])
def test_every_runtime_packs_the_same_image(cl_context, label, source,
                                            defines):
    defines = defines or {}
    compiled = compile_source(source, defines=defines)
    standalone = "".join(f"#define {name} {value}\n"
                         for name, value in defines.items()) + source
    cl_program = cl_context.build_program(source, defines=defines)
    m2s_context = M2SContext()
    m2s_program = m2s_context.build_program(source, defines=defines)
    captured = []
    m2s_context.sim._run_group = (
        lambda binary, offsets, uniforms, *rest: captured.append(uniforms))

    for name, kernel in sorted(compiled.kernels.items()):
        params = kernel.params
        _job, cl_words = CommandQueue(cl_context)._stage_launch(
            _bound(cl_program.kernel(name), cl_context, params),
            _GLOBAL, None)

        del captured[:]
        M2SQueue(m2s_context).enqueue_nd_range(
            _bound(m2s_program.kernel(name), m2s_context, params), _GLOBAL)
        # one capture per workgroup, all of the one image
        assert len(captured) == _GLOBAL // launch.default_local(_GLOBAL)

        case = make_kernel_case(
            standalone, name, _GLOBAL, None,
            buffers=[np.zeros(16, np.float32)
                     for _n, kind, _t in params if kind == "buffer"],
            scalars=[_SCALAR for _n, kind, _t in params if kind == "scalar"],
            local_args=[_LOCAL_BYTES
                        for _n, kind, _t in params if kind == "local_ptr"])
        case_words = launch.uniform_image(case.global_size, case.local_size,
                                          case.args)

        expected = _without_addresses(cl_words, params)
        assert len(cl_words) == kernel.uniform_count, name
        assert cl_words.dtype == np.uint32
        assert _without_addresses(captured[0], params) == expected, name
        assert _without_addresses(case_words, params) == expected, name


class _Type:
    def __init__(self, is_float):
        self.is_float = is_float


def test_scalar_is_encoded_by_declared_type():
    one = int(np.float32(1.0).view(np.uint32))
    assert launch.encode_scalar(1, _Type(is_float=True)) == one
    assert launch.encode_scalar(np.float32(1.0), _Type(is_float=True)) == one
    assert launch.encode_scalar(1.0, _Type(is_float=False)) == 1
    assert launch.encode_scalar(-1, _Type(is_float=False)) == 0xFFFFFFFF
    assert launch.encode_scalar(np.int32(-2), _Type(is_float=False)) \
        == 0xFFFFFFFE


def test_local_cursor_starts_above_the_compilers_layout():
    source = """
    __kernel void k(__global int* out, __local int* a, __local int* b) {
        __local int fixed[5];
        int priv[3];
        int lid = get_local_id(0);
        priv[lid % 3] = lid;
        fixed[lid % 5] = priv[lid % 3];
        a[lid] = fixed[lid % 5];
        b[lid] = a[lid];
        out[get_global_id(0)] = b[lid];
    }
    """
    compiled = compile_source(source).kernel("k")
    local_size = (8, 2, 1)
    base = launch.local_base(compiled, local_size)
    assert base == (compiled.local_static_size
                    + compiled.scratch_per_thread * 16)
    assert compiled.local_static_size >= 20
    words, slab = launch.bind_arguments(
        compiled, local_size, [0x1000, LocalMemory(6), LocalMemory(1)])
    assert words == [0x1000, base, base + 8]
    assert slab == base + 12


def test_image_layout():
    image = launch.uniform_image((12, 4, 1), (4, 2, 1), [7, -1])
    assert image.dtype == np.uint32
    assert image.tolist() == [12, 4, 1, 4, 2, 1, 3, 2, 1, 2, 7, 0xFFFFFFFF]
    assert launch.uniform_image((1, 1, 1), (1, 1, 1), ())[
        launch.U_WORK_DIM] == 1


# -- the two bugs the private copies had ---------------------------------------

FILL = """
__kernel void fill(__global float* out, float a) {
    out[get_global_id(0)] = a * 2.0f;
}
"""


def _m2s_fill(global_size, local_size, value, n=96):
    context = M2SContext()
    kernel = context.build_program(FILL).kernel("fill")
    buffer = context.buffer_from_array(np.zeros(n, np.float32))
    kernel.set_args(buffer, value)
    queue = M2SQueue(context)
    queue.enqueue_nd_range(kernel, global_size, local_size)
    return queue.enqueue_read_buffer(buffer, np.float32)


class TestIndivisibleNDRange:
    def test_m2s_runtime_rejects_it(self):
        with pytest.raises(CLError, match="not divisible"):
            _m2s_fill(96, 64, 1.0)

    def test_m2s_simulator_rejects_it(self):
        kernel = compile_source(FILL).kernel("fill")
        sim = M2SSimulator()
        out = sim.buffer_from_array(np.zeros(96, np.float32))
        with pytest.raises(CLError, match="not divisible"):
            sim.run_kernel(kernel, (96,), (64,), [out, 0])

    @pytest.mark.parametrize("global_size", [(0,), (-8,), (8, 0)])
    def test_an_empty_or_negative_range_is_refused_before_submission(
            self, global_size):
        context = Context()
        kernel = context.build_program(FILL).kernel("fill")
        kernel.set_args(context.alloc_buffer(32), 1.0)
        driver = context.platform.driver
        before = driver.jobs_submitted, driver.retries
        with pytest.raises(CLError, match="dimension <= 0"):
            CommandQueue(context).enqueue_nd_range(
                kernel, global_size, (8,) + (1,) * (len(global_size) - 1))
        assert (driver.jobs_submitted, driver.retries) == before

    def test_default_local_size_covers_the_whole_range(self):
        context = Context()
        kernel = context.build_program(FILL).kernel("fill")
        buffer = context.buffer_from_array(np.zeros(96, np.float32))
        kernel.set_args(buffer, 1.0)
        queue = CommandQueue(context)
        queue.enqueue_nd_range(kernel, 96)
        full_system = queue.enqueue_read_buffer(buffer, np.float32)
        assert (full_system == 2.0).all()
        np.testing.assert_array_equal(_m2s_fill(96, None, 1.0), full_system)


class TestIntForFloatParameter:
    """`3` for a `float` parameter is 3.0f everywhere, as in the CL
    runtime — not the denormal whose bits are 3."""

    def test_make_kernel_case(self):
        case = make_kernel_case(FILL, "fill", (8,), (8,),
                                [np.zeros(8, np.float32)], scalars=[3])
        results, mismatches = DifferentialRunner(
            ("interp", "m2s")).run_case(case)
        assert mismatches == []
        out = np.frombuffer(results["interp"].memory["buf0"], np.float32)
        assert (out == 6.0).all()

    def test_trace_kernel_both(self):
        mismatches, _quad, _scalar, outputs = trace_kernel_both(
            FILL, "fill", (8,), (8,), [np.zeros(8, np.float32)], scalars=[3])
        assert mismatches == []
        assert (outputs[0] == 6.0).all()

    def test_m2s_runtime(self):
        assert (_m2s_fill(8, 8, 3, n=8) == 6.0).all()


# lane 63 of a 64-wide group stores at byte 16128 of its __local argument
SLAB = """
__kernel void slab(__global float* out, __local float* tmp) {
    int lid = get_local_id(0);
    tmp[lid * 64] = (float)get_global_id(0);
    barrier(1);
    out[get_global_id(0)] = tmp[lid * 64];
}
"""
SLAB_BYTES = 16 * 1024


class TestLocalArgumentOver4KiB:
    """The workgroup slab is as large as the launch's `__local`
    arguments, on m2s as on the platform — not a fixed 4 KiB."""

    @pytest.mark.parametrize("runtime", ["cl", "m2s"])
    def test_runtime(self, runtime):
        context = Context() if runtime == "cl" else M2SContext()
        queue = (CommandQueue if runtime == "cl" else M2SQueue)(context)
        kernel = context.build_program(SLAB).kernel("slab")
        buffer = context.buffer_from_array(np.zeros(128, np.float32))
        kernel.set_args(buffer, LocalMemory(SLAB_BYTES))
        queue.enqueue_nd_range(kernel, 128, 64)
        np.testing.assert_array_equal(
            queue.enqueue_read_buffer(buffer, np.float32),
            np.arange(128, dtype=np.float32))

    def test_make_kernel_case(self):
        case = make_kernel_case(SLAB, "slab", (128,), (64,),
                                [np.zeros(128, np.float32)],
                                local_args=[SLAB_BYTES])
        results, mismatches = DifferentialRunner(
            ("interp", "m2s")).run_case(case)
        assert mismatches == []
        np.testing.assert_array_equal(
            np.frombuffer(results["m2s"].memory["buf0"], np.float32),
            np.arange(128, dtype=np.float32))


# reads a word past the __local argument it was given once *at* is large
LOCAL_PAST_END = """
__kernel void k(__global int* out, __local int* tile, int at) {
    int i = get_global_id(0);
    tile[i] = i;
    barrier(1);
    out[i] = tile[at];
}
"""


GROUP_1_LOADS_AT = """
__kernel void k(__global int* out, __local int* tile, int at) {
    int i = get_global_id(0);
    int j = get_local_id(0);
    tile[j] = i;
    barrier(1);
    if (get_group_id(0) == 1) {
        j = at;
    }
    out[i] = tile[j];
}
"""


class TestLocalAccessPastTheDeclaredSize:
    """A job sees exactly the `__local` bytes it declares: an access past
    them is a GuestError on both engines, on a fresh platform and on one
    whose slab an earlier job grew."""

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("engine", ["interpreter", "mega"])
    def test_raises_guest_error(self, engine, warm):
        context = Context(MobilePlatform.for_mode(engine))
        queue = CommandQueue(context)
        out = context.buffer_from_array(np.zeros(16, np.int32))
        kernel = context.build_program(LOCAL_PAST_END).kernel("k")
        if warm:
            kernel.set_args(out, LocalMemory(4096), 100)
            queue.enqueue_nd_range(kernel, (16,), (16,))
            assert queue.enqueue_read_buffer(out, np.int32)[0] == 0
        kernel.set_args(out, LocalMemory(64), 100)
        with pytest.raises(GuestError, match="outside the 64 bytes"):
            queue.enqueue_nd_range(kernel, (16,), (16,))
        # in range, the same platform runs the kernel
        kernel.set_args(out, LocalMemory(64), 15)
        queue.enqueue_nd_range(kernel, (16,), (16,))
        np.testing.assert_array_equal(
            queue.enqueue_read_buffer(out, np.int32), 15)

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("engine", ["interpreter", "mega"])
    def test_a_batch_raises_for_its_first_offending_group(self, engine,
                                                          warm):
        """Four groups of 16 (one lockstep batch on mega), and only group
        1 loads at *at*: one word past its 64 bytes is still inside the
        batch's slabs, yet the batch is abandoned, the groups run alone
        and group 1 raises. In range, each group reads its own slab,
        zeroed where it did not store."""
        context = Context(MobilePlatform.for_mode(engine))
        queue = CommandQueue(context)
        unit = context.platform.gpu.job_manager.unit
        out = context.buffer_from_array(np.zeros(64, np.int32))
        kernel = context.build_program(GROUP_1_LOADS_AT).kernel("k")
        if warm:
            kernel.set_args(out, LocalMemory(4096), 100)
            queue.enqueue_nd_range(kernel, (64,), (16,))
        kernel.set_args(out, LocalMemory(64), 16)
        with pytest.raises(GuestError, match="workgroup 1: local memory "
                           "access outside the 64 bytes"):
            queue.enqueue_nd_range(kernel, (64,), (16,))
        kernel.set_args(out, LocalMemory(128), 20)
        queue.enqueue_nd_range(kernel, (64,), (16,))
        want = np.arange(64, dtype=np.int32)
        want[16:32] = 0
        np.testing.assert_array_equal(
            queue.enqueue_read_buffer(out, np.int32), want)
        if engine == "mega":
            assert (unit.batches_run, unit.batches_abandoned) \
                == (2 + warm, 1)
