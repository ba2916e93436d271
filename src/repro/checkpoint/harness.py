"""Differential checkpoint harness: ``checkpoint -> restore -> finish``
must be bit-identical to a straight run.

The harness runs a deterministic multi-step workload (an SGEMM chain,
one fresh CL context per step, data drawn from one persistent NumPy RNG
stream) on a platform, either straight through or checkpointed part-way
and resumed — by default in a **fresh process** via
``python -m repro.checkpoint.harness resume <dir> <out.json>`` — and
compares the full identity surface:

- per-step output digests (SHA-256 of the result buffers),
- the golden statistics snapshot,
- every carve-out's memory digest.

The RNG stream crosses the checkpoint through the ``extra`` payload
(``bit_generator.state``), demonstrating that host-side resume state
rides the same manifest-verified format as the platform.

The matrix — save/restore/finish SGEMM bit-exact on every engine mode,
single-client and 2-tenant — is the farm's ``checkpoint`` sweep kind:
``python -m repro.tools farm run examples/farm/checkpoint.json``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from repro.core.platform import (  # noqa: F401 - re-exports the table
    ENGINE_MODES,
    MobilePlatform,
)

SGEMM_SOURCE = """
__kernel void sgemm(__global float* c, __global const float* a,
                    __global const float* b, int n) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) {
        acc += a[row * n + k] * b[k * n + col];
    }
    c[row * n + col] = acc;
}
"""


def default_spec(engine_mode="fast", tenants=0, steps=2, n=8, seed=7):
    """A harness spec: plain JSON, the complete description of a run.

    ``tenants=0`` is the single-client driver; ``tenants>=2`` configures
    that many tenants (alternating fg/bg QoS) and submits each step's
    jobs through the arbiter.
    """
    return {"engine_mode": engine_mode, "tenants": tenants,
            "steps": steps, "n": n, "seed": seed}


def build_platform(spec):
    from repro.driver.kbase import TenancyConfig, TenantSpec

    tenancy = None
    if spec["tenants"]:
        tenancy = TenancyConfig([
            TenantSpec(f"tenant{i}", qos=("fg" if i % 2 == 0 else "bg"))
            for i in range(spec["tenants"])])
    return MobilePlatform.for_mode(spec["engine_mode"],
                                   tenancy=tenancy).initialize()


def _run_one(context, queue, rng, n):
    program = context.build_program(SGEMM_SOURCE)
    kernel = program.kernel("sgemm")
    a = rng.random(n * n, dtype=np.float32)
    b = rng.random(n * n, dtype=np.float32)
    buf_a = context.buffer_from_array(a)
    buf_b = context.buffer_from_array(b)
    buf_c = context.alloc_buffer(n * n * 4)
    kernel.set_arg(0, buf_c)
    kernel.set_arg(1, buf_a)
    kernel.set_arg(2, buf_b)
    kernel.set_arg(3, n)
    return kernel, buf_c


def run_step(platform, spec, rng):
    """One harness step; returns the step's output digest(s).

    Single-client: one synchronous SGEMM launch. Multi-tenant: one
    arbitrated async SGEMM per tenant, drained together — bg tenants
    get JOB_SLICE-preempted when fg work is waiting, so the preemption
    machinery is inside the differential surface.
    """
    from repro.cl import CommandQueue, Context

    n = spec["n"]
    digests = []
    if not spec["tenants"]:
        context = Context(platform)
        queue = CommandQueue(context)
        kernel, buf_c = _run_one(context, queue, rng, n)
        queue.enqueue_nd_range(kernel, (n, n), (4, 4))
        out = queue.enqueue_read_buffer(buf_c, np.float32, count=n * n)
        digests.append(hashlib.sha256(out.tobytes()).hexdigest())
        return digests
    pending = []
    for tenant in platform.driver.tenants:
        context = Context(platform, tenant=tenant)
        queue = CommandQueue(context)
        kernel, buf_c = _run_one(context, queue, rng, n)
        queue.enqueue_nd_range_async(kernel, (n, n), (2, 2))
        pending.append((queue, buf_c))
    platform.driver.drain()
    for queue, buf_c in pending:
        out = queue.enqueue_read_buffer(buf_c, np.float32, count=n * n)
        digests.append(hashlib.sha256(out.tobytes()).hexdigest())
    return digests


def record_run(platform, digests):
    """The bit-identity surface of a finished run."""
    memory = platform.memory
    return {
        "digests": digests,
        "golden": platform.stats_registry.snapshot(golden_only=True),
        "carveouts": {name: memory.carveout_digest(name)
                      for name in memory.carveout_names},
    }


def compare_records(reference, other):
    """Human-readable differences between two run records ([] = equal)."""
    problems = []
    if reference["digests"] != other["digests"]:
        problems.append("output digests differ")
    if reference["carveouts"] != other["carveouts"]:
        differing = sorted(
            name for name in set(reference["carveouts"])
            | set(other["carveouts"])
            if reference["carveouts"].get(name)
            != other["carveouts"].get(name))
        problems.append(f"carve-out digests differ: {differing}")
    if reference["golden"] != other["golden"]:
        from repro.instrument.registry import diff_snapshots

        diffs = diff_snapshots(reference["golden"], other["golden"])
        problems.append(
            f"golden stats differ ({len(diffs)}): {diffs[:8]}")
    return problems


def straight_run(spec):
    """Run every step without interruption; returns the run record."""
    platform = build_platform(spec)
    rng = np.random.default_rng(spec["seed"])
    digests = []
    for _ in range(spec["steps"]):
        digests.extend(run_step(platform, spec, rng))
    return record_run(platform, digests)


def _rng_state(rng):
    return json.loads(json.dumps(rng.bit_generator.state))


def checkpointed_run(spec, checkpoint_dir, stop_after=1,
                     fresh_process=True):
    """Run *stop_after* steps, checkpoint, resume, finish.

    With ``fresh_process`` (the default, and the tentpole's contract)
    the resume happens in a subprocess that knows nothing but the
    checkpoint directory; its run record comes back through a JSON file.
    """
    platform = build_platform(spec)
    rng = np.random.default_rng(spec["seed"])
    digests = []
    for _ in range(stop_after):
        digests.extend(run_step(platform, spec, rng))
    platform.save_checkpoint(checkpoint_dir, extra={
        "harness": {"spec": spec, "completed_steps": stop_after,
                    "digests": digests, "rng_state": _rng_state(rng)}})
    del platform
    if not fresh_process:
        return resume_from(checkpoint_dir)
    out_path = os.path.join(checkpoint_dir, "resume-record.json")
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checkpoint.harness", "resume",
         checkpoint_dir, out_path],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"fresh-process resume failed (exit {proc.returncode}):\n"
            f"{proc.stdout}{proc.stderr}")
    with open(out_path) as handle:
        return json.load(handle)


def resume_from(checkpoint_dir):
    """Restore a harness checkpoint and run the remaining steps."""
    platform, extra = MobilePlatform.restore_checkpoint(checkpoint_dir)
    harness = extra["harness"]
    spec = harness["spec"]
    rng = np.random.default_rng(spec["seed"])
    rng.bit_generator.state = harness["rng_state"]
    digests = list(harness["digests"])
    for _ in range(harness["completed_steps"], spec["steps"]):
        digests.extend(run_step(platform, spec, rng))
    return record_run(platform, digests)


def run_differential(spec, fresh_process=True, stop_after=1):
    """Straight vs checkpointed+resumed; returns the problem list
    (empty means bit-identical)."""
    reference = straight_run(spec)
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as directory:
        resumed = checkpointed_run(
            spec, os.path.join(directory, "ckpt"),
            stop_after=stop_after, fresh_process=fresh_process)
    return compare_records(reference, resumed)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "resume":
        from repro.checkpoint.format import atomic_write_bytes

        _cmd, checkpoint_dir, out_path = argv
        result = resume_from(checkpoint_dir)
        atomic_write_bytes(
            out_path,
            (json.dumps(result, sort_keys=True, indent=1) + "\n")
            .encode("utf-8"))
        return 0
    print("usage: python -m repro.checkpoint.harness resume <dir> <out.json>")
    return 2


if __name__ == "__main__":
    sys.exit(main())
