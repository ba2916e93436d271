"""End-to-end smoke test: hand-encoded GPU binary through the full stack.

Exercises driver bring-up, page tables, job descriptors, the Job Manager,
the GPU MMU and quad-warp execution without involving the JIT compiler.
"""

import numpy as np
import pytest

from repro.core.platform import MobilePlatform
from repro.driver.kbase import MAX_RETRIES
from repro.gpu.encoding import encode_program
from repro.gpu.isa import (
    CONST_BASE,
    REG_GLOBAL_ID,
    Clause,
    Instruction,
    Op,
    Program,
    Tail,
)


def _identity_store_program():
    """out[gid] = gid for a u32 output buffer whose VA is uniform[10]."""
    clause = Clause(
        tuples=[
            (
                Instruction(Op.LDU, dst=0, imm=10),
                Instruction(Op.ISHL, dst=1, srca=REG_GLOBAL_ID, srcb=CONST_BASE),
            ),
            (
                Instruction(Op.IADD, dst=2, srca=0, srcb=1),
                Instruction(Op.NOP),
            ),
            (
                Instruction(Op.ST, srca=2, srcb=REG_GLOBAL_ID),
                Instruction(Op.NOP),
            ),
        ],
        constants=[2],
        tail=Tail.END,
    )
    return Program(clauses=[clause])


@pytest.fixture()
def platform():
    return MobilePlatform().initialize()


def test_full_stack_identity_kernel(platform):
    driver = platform.driver
    n = 64

    binary = encode_program(_identity_store_program())
    binary_region = driver.alloc_region(len(binary), executable=True)
    platform.memory.write_block(binary_region.phys, binary)

    out_region = driver.alloc_region(4 * n)

    uniforms = np.zeros(11, dtype=np.uint32)
    uniforms[0:3] = (n, 1, 1)
    uniforms[3:6] = (16, 1, 1)
    uniforms[6:9] = (n // 16, 1, 1)
    uniforms[9] = 1
    uniforms[10] = out_region.gpu_va
    uniform_region = driver.alloc_region(uniforms.nbytes)
    platform.memory.write_block(uniform_region.phys, uniforms.tobytes())

    status = driver.run_job(
        global_size=(n, 1, 1),
        local_size=(16, 1, 1),
        binary_region=binary_region,
        binary_size=len(binary),
        uniform_region=uniform_region,
        uniform_count=len(uniforms),
    )
    assert status == 1  # JOB_STATUS_DONE

    result = platform.memory.read_array(out_region.phys, n, np.uint32)
    np.testing.assert_array_equal(result, np.arange(n, dtype=np.uint32))


def test_job_stats_collected(platform):
    driver = platform.driver
    n = 32
    binary = encode_program(_identity_store_program())
    binary_region = driver.alloc_region(len(binary), executable=True)
    platform.memory.write_block(binary_region.phys, binary)
    out_region = driver.alloc_region(4 * n)
    uniforms = np.zeros(11, dtype=np.uint32)
    uniforms[10] = out_region.gpu_va
    uniform_region = driver.alloc_region(uniforms.nbytes)
    platform.memory.write_block(uniform_region.phys, uniforms.tobytes())

    driver.run_job((n, 1, 1), (8, 1, 1), binary_region, len(binary),
                   uniform_region, len(uniforms))

    results = platform.last_job_results()
    assert len(results) == 1
    stats = results[0].stats
    assert stats.threads_launched == n
    assert stats.workgroups == 4
    # each thread: 1 LDU + 2 arith + 1 store + 2 NOP slots
    assert stats.arith_instrs == 2 * n
    assert stats.ls_global_instrs == n
    assert stats.const_load_instrs == n
    assert stats.nop_instrs == 2 * n
    assert stats.main_mem_accesses == n

    system = platform.system_stats()
    assert system.compute_jobs == 1
    assert system.interrupts_asserted >= 1
    assert system.ctrl_reg_writes > 0
    assert system.pages_accessed > 0


def test_mmu_fault_reported(platform):
    """A store through an unmapped VA must fault, latch registers, IRQ."""
    from repro.errors import JobFault

    driver = platform.driver
    program = _identity_store_program()
    binary = encode_program(program)
    binary_region = driver.alloc_region(len(binary), executable=True)
    platform.memory.write_block(binary_region.phys, binary)
    uniforms = np.zeros(11, dtype=np.uint32)
    uniforms[10] = 0xDEAD_0000  # unmapped GPU VA
    uniform_region = driver.alloc_region(uniforms.nbytes)
    platform.memory.write_block(uniform_region.phys, uniforms.tobytes())

    with pytest.raises(JobFault):
        driver.run_job((4, 1, 1), (4, 1, 1), binary_region, len(binary),
                       uniform_region, len(uniforms))
    # the recovery ladder retried the persistent fault before giving up
    assert platform.system_stats().mmu_faults == MAX_RETRIES + 1
    assert driver.faults_unrecovered == 1
