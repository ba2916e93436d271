"""Unit tests: kernel driver and platform devices."""

import numpy as np
import pytest

from repro.errors import DriverError, JobFault
from repro.core.platform import GPU_BASE, MobilePlatform
from repro.cpu.devices import (
    BLK_ADDR_LO,
    BLK_CMD,
    BLK_SECTOR,
    BLK_STATUS,
    IRQC_ACK,
    IRQC_PENDING,
    SECTOR_SIZE,
    UART_DATA,
    InterruptController,
)
from repro.gpu import regs
from repro.gpu.encoding import encode_program
from repro.gpu.isa import Clause, Instruction, Op, Program, Tail
from repro.mem.physical import PAGE_SIZE


def _trivial_binary():
    clause = Clause(tuples=[(Instruction(Op.NOP), Instruction(Op.NOP))],
                    tail=Tail.END)
    return encode_program(Program(clauses=[clause]))


@pytest.fixture()
def platform():
    return MobilePlatform().initialize()


class TestDriverBringUp:
    def test_initialize_powers_cores_and_sets_masks(self, platform):
        driver = platform.driver
        assert driver.initialized
        ready = platform.bus.read_u32(GPU_BASE + regs.SHADER_READY)
        present = platform.bus.read_u32(GPU_BASE + regs.SHADER_PRESENT)
        assert ready == present == (1 << 8) - 1
        assert platform.bus.read_u32(GPU_BASE + regs.MMU_ENABLE) == 1

    def test_initialize_is_idempotent(self, platform):
        jobs_before = platform.driver.jobs_submitted
        platform.initialize()
        assert platform.driver.jobs_submitted == jobs_before

    def test_submit_without_power_fails(self):
        fresh = MobilePlatform()
        fresh.bus.write_u32(GPU_BASE + regs.JOB_SUBMIT_LO, 0x1000)
        fresh.bus.write_u32(GPU_BASE + regs.JOB_SUBMIT_HI, 0)
        status = fresh.bus.read_u32(GPU_BASE + regs.JOB_STATUS)
        assert status == regs.JOB_STATUS_FAULT


class TestRegions:
    def test_alloc_region_is_page_aligned_and_mapped(self, platform):
        region = platform.driver.alloc_region(100)
        assert region.size == PAGE_SIZE
        assert region.gpu_va % PAGE_SIZE == 0
        # the GPU can translate it
        paddr = platform.gpu.mmu.translate(region.gpu_va + 50, "w")
        assert paddr == region.phys + 50

    def test_guard_pages_between_regions(self, platform):
        from repro.errors import MMUFault
        first = platform.driver.alloc_region(PAGE_SIZE)
        second = platform.driver.alloc_region(PAGE_SIZE)
        assert second.gpu_va >= first.gpu_va + first.size + PAGE_SIZE
        with pytest.raises(MMUFault):
            platform.gpu.mmu.translate(first.gpu_va + first.size, "r")

    def test_free_region_unmaps(self, platform):
        from repro.errors import MMUFault
        region = platform.driver.alloc_region(PAGE_SIZE)
        platform.gpu.mmu.translate(region.gpu_va, "r")
        platform.driver.free_region(region)
        with pytest.raises(MMUFault):
            platform.gpu.mmu.translate(region.gpu_va, "r")

    def test_heap_exhaustion(self, platform):
        with pytest.raises(DriverError):
            platform.driver.alloc_region(1 << 62)


class TestJobSubmission:
    def _submit(self, platform, **overrides):
        driver = platform.driver
        binary = _trivial_binary()
        binary_region = driver.alloc_region(len(binary), executable=True)
        platform.memory.write_block(binary_region.phys, binary)
        uniform_region = driver.alloc_region(64)
        params = dict(global_size=(4, 1, 1), local_size=(4, 1, 1),
                      binary_region=binary_region, binary_size=len(binary),
                      uniform_region=uniform_region, uniform_count=10)
        params.update(overrides)
        return driver.run_job(**params)

    def test_job_completes_and_counts(self, platform):
        status = self._submit(platform)
        assert status == regs.JOB_STATUS_DONE
        system = platform.system_stats()
        assert system.compute_jobs == 1
        count = platform.bus.read_u32(GPU_BASE + regs.JOB_COUNT)
        assert count == 1

    def test_job_chain(self, platform):
        driver = platform.driver
        binary = _trivial_binary()
        binary_region = driver.alloc_region(len(binary), executable=True)
        platform.memory.write_block(binary_region.phys, binary)
        uniform_region = driver.alloc_region(64)
        second = driver.build_descriptor(
            (4, 1, 1), (4, 1, 1), binary_region, len(binary),
            uniform_region, 10, slot=1,
        )
        first = driver.build_descriptor(
            (8, 1, 1), (4, 1, 1), binary_region, len(binary),
            uniform_region, 10, slot=0, next_va=second,
        )
        driver.submit_and_wait(first)
        assert platform.system_stats().compute_jobs == 2
        results = platform.last_job_results()
        assert len(results) == 2
        assert results[0].stats.threads_launched == 8
        assert results[1].stats.threads_launched == 4

    def test_bad_descriptor_faults(self, platform):
        driver = platform.driver
        with pytest.raises(JobFault):
            driver.submit_and_wait(0xDEAD0000)  # unmapped VA
        # the recovery ladder retried the persistent fault to exhaustion
        # (ending with a GPU reset) before surfacing it
        attempts = driver.policy.max_retries + 1
        assert platform.system_stats().mmu_faults == attempts
        assert driver.retries == driver.policy.max_retries
        assert driver.resets == 1
        assert driver.faults_unrecovered == 1

    def test_truncated_binary_is_a_job_fault(self, platform):
        with pytest.raises(JobFault):
            self._submit(platform, binary_size=len(_trivial_binary()) - 8)
        # and the driver is still usable
        assert self._submit(platform) == regs.JOB_STATUS_DONE

    def test_irq_traffic_counted(self, platform):
        before = platform.system_stats().interrupts_asserted
        self._submit(platform)
        assert platform.system_stats().interrupts_asserted > before
        # IRQ was acknowledged by the driver
        assert platform.irqc.pending == 0

    def test_decode_cache_reused_across_jobs(self, platform):
        """The same mapped binary is decoded exactly once (Section III-B3),
        no matter how many jobs execute it."""
        driver = platform.driver
        binary = _trivial_binary()
        binary_region = driver.alloc_region(len(binary), executable=True)
        platform.memory.write_block(binary_region.phys, binary)
        uniform_region = driver.alloc_region(64)
        decode_before = platform.gpu.job_manager.decode_count
        for _ in range(5):
            driver.run_job((4, 1, 1), (4, 1, 1), binary_region, len(binary),
                           uniform_region, 10)
        assert platform.gpu.job_manager.decode_count == decode_before + 1


class TestProcessDecodeTable:
    """A binary image is decoded once per process: a fresh platform still
    fetches it through its MMU and counts the miss, but decodes nothing
    another platform already decoded. A failed decode is never kept."""

    @staticmethod
    def _binary(constant):
        # a constant no other test uses: an image this process never saw
        clause = Clause(tuples=[(Instruction(Op.NOP), Instruction(Op.NOP))],
                        constants=[constant], tail=Tail.END)
        return encode_program(Program(clauses=[clause]))

    @staticmethod
    def _run(platform, binary, jobs=1):
        driver = platform.driver
        region = driver.alloc_region(len(binary), executable=True)
        platform.memory.write_block(region.phys, binary)
        uniform_region = driver.alloc_region(64)
        for _ in range(jobs):
            driver.run_job((4, 1, 1), (4, 1, 1), region, len(binary),
                           uniform_region, 10)

    @staticmethod
    def _count_decodes(monkeypatch):
        """``[(image, raised), ...]`` of every Job Manager decode."""
        from repro.errors import DecodeError
        from repro.gpu import jobmanager

        calls = []
        real = jobmanager.decode_program

        def counting(image):
            try:
                program = real(image)
            except DecodeError:
                calls.append((image, True))
                raise
            calls.append((image, False))
            return program

        monkeypatch.setattr(jobmanager, "decode_program", counting)
        return calls

    def test_a_second_fresh_platform_decodes_nothing(self, monkeypatch):
        calls = self._count_decodes(monkeypatch)
        binary = self._binary(0x5EED0001)
        misses, decoded = [], []
        for _ in range(2):
            platform = MobilePlatform().initialize()
            calls.clear()
            before = platform.stats_registry.snapshot()
            self._run(platform, binary, jobs=3)
            after = platform.stats_registry.snapshot()
            misses.append(after["gpu.jobmanager.descriptor_decodes"]
                          - before["gpu.jobmanager.descriptor_decodes"])
            decoded.append(len(calls))
        assert misses == [1, 1]
        assert decoded == [1, 0]

    def test_a_corrupt_binary_fails_every_time(self, monkeypatch):
        from repro.gpu import jobmanager

        calls = self._count_decodes(monkeypatch)
        binary = bytearray(self._binary(0x5EED0002))
        binary[0] ^= 0xFF  # the program magic
        attempts = 0
        for _ in range(2):
            platform = MobilePlatform().initialize()
            with pytest.raises(JobFault, match="unrecoverable"):
                self._run(platform, bytes(binary))
            attempts += platform.driver.policy.max_retries + 1
        # every attempt of every platform decoded the image, and failed
        assert len(calls) == attempts
        assert all(raised for _, raised in calls)
        assert bytes(binary) not in jobmanager._programs

    def test_rewarm_re_reads_every_binary(self, platform):
        from repro.gpu import jobmanager

        binary = self._binary(0x5EED0003)
        self._run(platform, binary)
        manager = platform.gpu.job_manager
        keys = manager.get_state()["decode_cache_keys"]
        reads = []

        def read_binary(as_id, va, size):
            reads.append([as_id, va, size])
            return platform.driver.tenant(as_id).read_va(va, size)

        manager.invalidate_decode_cache()
        manager.rewarm_decode_cache(keys, read_binary)
        assert reads == keys
        assert jobmanager._programs[binary] in manager._decode_cache.values()


class TestOneExecutionUnit:
    def test_gpu_config_takes_one_host_thread_only(self):
        from repro.gpu.device import GPUConfig

        assert GPUConfig(num_host_threads=1).num_host_threads == 1
        with pytest.raises(ValueError, match="one execution unit"):
            GPUConfig(num_host_threads=2)

    @pytest.mark.parametrize("engine", ["interpreter", "mega"])
    def test_core0_warp_counters_are_the_job_totals(self, engine):
        from repro.cl import CommandQueue, Context
        from repro.core.platform import PlatformConfig
        from repro.gpu.device import GPUConfig

        context = Context(MobilePlatform(PlatformConfig(
            gpu=GPUConfig(engine=engine))))
        queue = CommandQueue(context)
        kernel = context.build_program("""
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            if (i % 3 == 0) { out[i] = i * 2; } else { out[i] = i; }
        }""").kernel("k")
        buffer = context.alloc_buffer(64 * 4)
        kernel.set_args(buffer)
        for _ in range(2):
            queue.enqueue_nd_range(kernel, (64,), (16,))
        snapshot = context.platform.stats_registry.snapshot()
        fields = ("clauses_executed", "branch_events", "divergent_branches",
                  "warps_launched", "threads_launched")
        assert snapshot["gpu.job.divergent_branches"] > 0
        assert snapshot["gpu.job.threads_launched"] == 128
        for field in fields:
            assert snapshot[f"gpu.core0.warp.{field}"] \
                == snapshot[f"gpu.job.{field}"], field
        assert not any(key.startswith("gpu.core1") for key in snapshot)


class TestDriverNegativePaths:
    def test_submit_before_initialize_raises(self):
        platform = MobilePlatform()  # not initialized
        with pytest.raises(DriverError, match="not initialized"):
            platform.driver.submit_and_wait(0x1000)

    def test_build_descriptor_before_initialize_raises(self):
        platform = MobilePlatform()
        with pytest.raises(DriverError, match="not initialized"):
            platform.driver.build_descriptor(
                (4, 1, 1), (4, 1, 1), None, 0, None, 0)

    def test_descriptor_slot_out_of_range(self, platform):
        driver = platform.driver
        binary = _trivial_binary()
        binary_region = driver.alloc_region(len(binary), executable=True)
        platform.memory.write_block(binary_region.phys, binary)
        uniform_region = driver.alloc_region(64)
        with pytest.raises(DriverError, match="slot"):
            driver.build_descriptor((4, 1, 1), (4, 1, 1), binary_region,
                                    len(binary), uniform_region, 10,
                                    slot=10_000)

    def test_mmu_fault_registers_readable_over_bus(self, platform):
        """After a translation fault the driver (or any bus master) can
        read the latched fault address/status back through MMIO, exactly
        like kbase's fault worker does."""
        driver = platform.driver
        with pytest.raises(JobFault):
            driver.submit_and_wait(0xDEAD0000)  # unmapped descriptor VA
        mmu = platform.gpu.mmu
        lo = platform.bus.read_u32(GPU_BASE + regs.MMU_FAULT_ADDR_LO)
        hi = platform.bus.read_u32(GPU_BASE + regs.MMU_FAULT_ADDR_HI)
        status = platform.bus.read_u32(GPU_BASE + regs.MMU_FAULT_STATUS)
        assert (hi << 32) | lo == mmu.fault_addr == 0xDEAD0000
        assert status == mmu.fault_status == 1  # read fault


class TestPhysFreeList:
    def test_freed_pages_are_recycled_without_heap_growth(self, platform):
        driver = platform.driver
        regions = [driver.alloc_region(4 * PAGE_SIZE) for _ in range(8)]
        free_before = driver.free_bytes
        for region in regions:
            driver.free_region(region)
        assert driver.free_bytes == free_before + 8 * 4 * PAGE_SIZE
        # reallocating fewer regions than were freed must come from the
        # free list (leaving slack for any page-table frames), not from
        # growing the bump pointer
        heap_used = driver.heap_used
        recycled = [driver.alloc_region(4 * PAGE_SIZE) for _ in range(4)]
        assert driver.heap_used == heap_used
        assert driver.bytes_recycled >= 4 * 4 * PAGE_SIZE
        freed_phys = {region.phys for region in regions}
        assert all(region.phys in freed_phys for region in recycled)

    def test_free_extents_coalesce(self, platform):
        driver = platform.driver
        a = platform.driver.alloc_region(PAGE_SIZE)
        b = platform.driver.alloc_region(PAGE_SIZE)
        c = platform.driver.alloc_region(PAGE_SIZE)
        assert b.phys == a.phys + PAGE_SIZE
        assert c.phys == b.phys + PAGE_SIZE
        # free out of order; adjacent extents merge into one
        driver.free_region(a)
        driver.free_region(c)
        assert len(driver._free_extents) == 2
        driver.free_region(b)
        assert driver._free_extents == [(a.phys, 3 * PAGE_SIZE)]
        # a single allocation can now span what were three regions
        big = driver.alloc_region(3 * PAGE_SIZE)
        assert big.phys == a.phys

    def test_recycled_pages_are_zero_filled(self, platform):
        driver = platform.driver
        region = driver.alloc_region(PAGE_SIZE)
        platform.memory.write_block(region.phys, b"\xa5" * PAGE_SIZE)
        driver.free_region(region)
        again = driver.alloc_region(PAGE_SIZE)
        assert again.phys == region.phys  # first-fit returns the extent
        data = platform.memory.read_block(again.phys, PAGE_SIZE)
        assert data == b"\x00" * PAGE_SIZE

    def test_bytes_mapped_returns_to_baseline_after_free(self, platform):
        driver = platform.driver
        baseline = driver.bytes_mapped
        regions = [driver.alloc_region(2 * PAGE_SIZE) for _ in range(16)]
        assert driver.bytes_mapped == baseline + 16 * 2 * PAGE_SIZE
        for region in regions:
            driver.free_region(region)
        assert driver.bytes_mapped == baseline  # no leak


class TestDevices:
    def test_uart_capture(self, platform):
        for byte in b"hello":
            platform.bus.write_u32(0x1000_0000 + UART_DATA, byte)
        assert platform.uart.text == "hello"

    def test_irq_controller_ack(self):
        irqc = InterruptController()
        irqc.raise_irq(InterruptController.SRC_GPU_JOB)
        irqc.raise_irq(InterruptController.SRC_TIMER)
        assert irqc.read_reg(IRQC_PENDING) == (
            InterruptController.SRC_GPU_JOB | InterruptController.SRC_TIMER
        )
        irqc.write_reg(IRQC_ACK, InterruptController.SRC_GPU_JOB)
        assert irqc.read_reg(IRQC_PENDING) == InterruptController.SRC_TIMER

    def test_block_device_sector_io(self, platform):
        base = 0x1003_0000
        payload = bytes(range(256)) * 2
        platform.block.load_image(payload, sector=3)
        platform.bus.write_u32(base + BLK_SECTOR, 3)
        platform.bus.write_u32(base + BLK_ADDR_LO, 0x9000)
        platform.bus.write_u32(base + BLK_CMD, 1)  # read
        assert platform.bus.read_u32(base + BLK_STATUS) == 1
        assert platform.memory.read_block(0x9000, SECTOR_SIZE) == payload

        platform.memory.write_block(0xA000, b"\x55" * SECTOR_SIZE)
        platform.bus.write_u32(base + BLK_SECTOR, 7)
        platform.bus.write_u32(base + BLK_ADDR_LO, 0xA000)
        platform.bus.write_u32(base + BLK_CMD, 2)  # write
        assert platform.block.read_image(7) == b"\x55" * SECTOR_SIZE

    def test_block_device_bad_sector(self, platform):
        base = 0x1003_0000
        platform.bus.write_u32(base + BLK_SECTOR, 10_000_000)
        platform.bus.write_u32(base + BLK_CMD, 1)
        assert platform.bus.read_u32(base + BLK_STATUS) == 0

    def test_timer_monotonic(self, platform):
        before = platform.timer.count
        platform.timer.tick(5)
        assert platform.timer.count == before + 5
