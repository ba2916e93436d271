"""Unit tests: statistics containers, clause ledgers, CFG, report
formatting."""

import collections
import dataclasses
import gc

import numpy as np
import pytest

from repro.instrument import (
    DivergenceCFG,
    JobStats,
    SystemStats,
    derive_stats,
    format_clause_histogram,
    format_data_access_breakdown,
    format_instruction_mix,
    format_table,
)


class TestJobStats:
    def _sample(self):
        stats = JobStats()
        stats.arith_instrs = 50
        stats.ls_global_instrs = 20
        stats.ls_local_instrs = 5
        stats.const_load_instrs = 5
        stats.nop_instrs = 10
        stats.cf_instrs = 10
        stats.clause_size_histogram = {1: 2, 4: 3, 8: 1}
        return stats

    def test_total_and_mix(self):
        stats = self._sample()
        assert stats.total_instrs == 100
        mix = stats.instruction_mix()
        assert mix["arithmetic"] == 0.5
        assert mix["load_store"] == 0.3
        assert mix["nop"] == 0.1
        assert mix["control_flow"] == 0.1
        assert abs(sum(mix.values()) - 1.0) < 1e-12

    def test_empty_mix_is_zero(self):
        mix = JobStats().instruction_mix()
        assert all(value == 0.0 for value in mix.values())

    def test_average_clause_size(self):
        stats = self._sample()
        expected = (1 * 2 + 4 * 3 + 8 * 1) / 6
        assert stats.average_clause_size() == pytest.approx(expected)
        assert JobStats().average_clause_size() == 0.0

    def test_data_access_breakdown_normalizes(self):
        stats = JobStats()
        stats.temp_reads = 10
        stats.grf_reads = 30
        stats.grf_writes = 20
        stats.const_reads = 10
        stats.rom_reads = 20
        stats.main_mem_accesses = 10
        breakdown = stats.data_access_breakdown()
        assert breakdown["grf_read"] == 0.3
        assert abs(sum(breakdown.values()) - 1.0) < 1e-12


class TestApplyClauseStats:
    """A job's per-clause table, multiplied out once when its statistics
    are read, must be arithmetically identical to counting each issue as
    it happens."""

    def _clause(self):
        from repro.gpu.isa import CONST_BASE, Clause, Instruction, Op, Tail
        clause = Clause(
            tuples=[(Instruction(Op.MOV, dst=0, srca=CONST_BASE),
                     Instruction(Op.NOP))],
            constants=[7],
            tail=Tail.END,
        )
        return clause

    def _branch(self):
        from repro.gpu.isa import CONST_BASE, Clause, Instruction, Op, Tail
        return Clause(
            tuples=[(Instruction(Op.IADD, dst=1, srca=1, srcb=CONST_BASE),
                     Instruction(Op.LDU, dst=2, imm=0)),
                    (Instruction(Op.NOP), Instruction(Op.NOP))],
            constants=[1],
            tail=Tail.BRANCH, cond_reg=1, target=0,
        )

    def test_multiplies_out_issues_and_lanes(self):
        clause = self._clause()
        metrics = clause.metrics()
        pending = {0: [3, 11, 0, 0]}  # 3 warp issues, 11 total active lanes
        stats = derive_stats([([clause], pending)])
        assert stats.clauses_executed == 3
        assert stats.clause_size_histogram == {clause.size: 3}
        assert stats.arith_cycles == clause.size * 3
        assert stats.ls_cycles == metrics.ls_beats * 3
        assert stats.arith_instrs == metrics.arith_instrs * 11
        assert stats.nop_instrs == metrics.nop_instrs * 11
        assert stats.rom_reads == metrics.rom_reads * 11
        assert stats.grf_writes == metrics.grf_writes * 11

    def test_equivalent_to_per_issue_additions(self):
        """A job's table (here: two clauses, a diverging branch) applied
        once equals its pieces — single issues, as engines record them —
        each applied on its own."""
        from repro.instrument.stats import merge_clause_counts

        clauses = [self._clause(), self._branch()]
        pieces = [{0: [1, 4, 0, 0]}, {1: [1, 3, 2, 1]}, {0: [1, 2, 0, 0]},
                  {1: [1, 4, 4, 0]}, {0: [1, 4, 0, 0]}, {1: [1, 1, 0, 0]}]
        table = {}
        for piece in pieces:
            merge_clause_counts(table, piece)
        assert table == {0: [3, 10, 0, 0], 1: [3, 8, 6, 1]}
        once = derive_stats([(clauses, table)])
        separately = derive_stats((clauses, piece) for piece in pieces)
        assert once == separately
        assert once.divergent_branches == 1 and once.clauses_executed == 6
        assert once.clause_size_histogram == {1: 3, 2: 3}

    def test_empty_pending_is_noop(self):
        assert derive_stats([([], {})]) == JobStats()


_LEDGER_SOURCE = """
__kernel void gated(__global int* out, int n) {
    int i = get_global_id(0);
    if (n > 0) {
        out[i] = i * 3 + n;
    }
}
__kernel void fill(__global int* out, int n) {
    out[get_global_id(0)] = n;
}
"""


def _summed(stats_list):
    """The field-wise sum of *stats_list* (the JobStats of single
    jobs), histogram buckets included."""
    total = JobStats()
    for stats in stats_list:
        for field in dataclasses.fields(JobStats):
            if field.name != "clause_size_histogram":
                setattr(total, field.name, getattr(total, field.name)
                        + getattr(stats, field.name))
    total.clause_size_histogram = dict(sum(
        (collections.Counter(stats.clause_size_histogram)
         for stats in stats_list), collections.Counter()))
    return total


class TestClauseLedger:
    """Every scope's totals are read off its per-program clause tables:
    they must be what adding the jobs up one by one gives."""

    def _launcher(self):
        """A client of tenant 1 on a two-tenant platform, and a launch
        function returning each job's JobStats and the clauses it ran,
        both read off the record the launch returns."""
        from repro.cl import CommandQueue, Context
        from repro.core.platform import MobilePlatform, PlatformConfig
        from repro.driver.kbase import TenancyConfig

        platform = MobilePlatform(PlatformConfig(
            tenancy=TenancyConfig.symmetric(2)))
        context = Context(platform, tenant=platform.driver.tenant(1))
        queue = CommandQueue(context)
        program = context.build_program(_LEDGER_SOURCE)
        out = context.alloc_buffer(4 * 32)

        def launch(name, n):
            kernel = program.kernel(name)
            kernel.set_args(out, np.int32(n))
            result = queue.enqueue_nd_range(kernel, (32,), (8,))
            return result.stats, set(result.cfg.executions)

        return platform, queue, launch

    def test_scope_stats_are_the_sum_of_its_jobs(self):
        platform, queue, launch = self._launcher()
        first, first_clauses = launch("gated", 0)  # P1: skips its body
        second, _ = launch("fill", 4)  # P2
        third, third_clauses = launch("gated", 5)  # P1 again, body taken
        assert third_clauses > first_clauses
        expected = _summed([first, second, third])
        ledgers = (platform.gpu.job_manager.ledger,
                   platform.driver.tenant(1).ledger, queue.ledger)
        for ledger in ledgers:
            assert len(ledger.tables) == 2  # one table per program
            assert ledger.stats() == expected
        assert platform.driver.tenant(0).ledger.stats() == JobStats()
        registry = platform.stats_registry
        for scope in ("gpu.job", "tenant1.gpu.job"):
            assert registry.value(f"{scope}.clause_size_histogram") \
                == dict(sorted(expected.clause_size_histogram.items()))
            assert registry.value(f"{scope}.clauses_executed") \
                == expected.clauses_executed
        assert registry.value("gpu.core0.warp.threads_launched") == 96

    def test_stats_are_derived_once_per_change(self):
        platform, _queue, launch = self._launcher()
        ledger = platform.gpu.job_manager.ledger
        launch("fill", 1)
        stats = ledger.stats()
        assert ledger.stats() is stats
        launch("fill", 2)
        assert ledger.stats() is not stats
        assert ledger.stats().threads_launched == 64

    def test_job_manager_keeps_no_retired_job(self):
        """64 retired jobs, launched by 64 kernels still held, leave
        exactly the last chain's results alive: neither the Job Manager
        nor a kernel keeps any other."""
        from repro.gpu.jobmanager import JobResult

        def alive():
            gc.collect()
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, JobResult)]

        platform, queue, _launch = self._launcher()
        program = queue.context.build_program(_LEDGER_SOURCE)
        out = queue.context.alloc_buffer(4 * 32)
        before = alive()  # held, so no id below is reused
        kernels = []
        for n in range(64):
            kernels.append(program.kernel("fill"))
            kernels[-1].set_args(out, np.int32(n))
            queue.enqueue_nd_range(kernels[-1], (32,), (8,))
        assert platform.gpu.job_manager.jobs_retired == 64
        new = {id(obj) for obj in alive()} - {id(obj) for obj in before}
        assert new == {id(obj) for obj in platform.last_job_results()}

    def test_a_launch_derives_no_stats_until_read(self, monkeypatch):
        """Launches on a profiling queue multiply out no JobStats; the
        first read of a record's (or its event's) does, once."""
        from repro.gpu import jobmanager

        derived = []

        def counting(*args):
            derived.append(args)
            return derive_stats(*args)

        monkeypatch.setattr(jobmanager, "derive_stats", counting)
        platform, queue, _launch = self._launcher()
        queue.profiling = True
        kernel = queue.context.build_program(_LEDGER_SOURCE).kernel("fill")
        kernel.set_args(queue.context.alloc_buffer(4 * 32), np.int32(1))
        results = [queue.enqueue_nd_range(kernel, (32,), (8,))
                   for _ in range(8)]
        assert derived == []
        stats = results[-1].stats
        assert results[-1].stats is stats
        assert queue.events[-1].stats is stats
        assert len(derived) == 1
        assert stats.threads_launched == 32 and stats.workgroups == 4

    def test_records_and_events_keep_no_platform_alive(self):
        """A launch's record and its profiling event outlive the
        platform, and their statistics still read."""
        import weakref

        from repro.cl import CommandQueue, Context
        from repro.core.platform import MobilePlatform

        platform = MobilePlatform.for_mode("mega")
        context = Context(platform)
        queue = CommandQueue(context, profiling=True)
        kernel = context.build_program(_LEDGER_SOURCE).kernel("fill")
        kernel.set_args(context.alloc_buffer(4 * 32), np.int32(3))
        result = queue.enqueue_nd_range(kernel, (32,), (8,))
        event = queue.events[-1]
        dropped = weakref.ref(platform)
        del platform, context, queue, kernel
        gc.collect()
        assert dropped() is None
        assert event.result is result
        assert event.stats.threads_launched == 32
        assert set(result.cfg.executions)


class TestSystemStats:
    def test_row(self):
        stats = SystemStats(pages_accessed=5, ctrl_reg_reads=10,
                            ctrl_reg_writes=7, interrupts_asserted=2,
                            compute_jobs=3)
        assert stats.as_row() == (5, 10, 7, 2, 3)


class TestDivergenceCFG:
    def test_edges_and_fractions(self):
        cfg = DivergenceCFG()
        cfg.record_execution(0, 100)
        cfg.record_edge(0, 1, 75)
        cfg.record_edge(0, 2, 25)
        _nodes, successors = cfg.graph()
        assert successors[0][1] == (75, 0.75)
        assert successors[0][2] == (25, 0.25)

    def test_divergence_fraction(self):
        # over warp issues, not lanes: 2 of 50 issues (200 lanes) diverged
        cfg = DivergenceCFG()
        cfg.record_execution(3, 50)
        cfg.record_edge(3, 4, 200)
        cfg.record_divergence(3)
        cfg.record_divergence(3)
        assert cfg.divergence_fraction(3) == pytest.approx(2 / 50)
        assert cfg.divergence_fraction(99) == 0.0

    def test_dot_output(self):
        cfg = DivergenceCFG(base_address=0xAA000000)
        cfg.record_execution(0, 10)
        cfg.record_edge(0, 1, 10)
        cfg.record_divergence(0)
        dot = cfg.to_dot()
        assert "digraph" in dot
        assert "aa000000" in dot
        assert "dvg." in dot

    def test_dot_orders_nodes_by_first_appearance_edges_by_source(self):
        cfg = DivergenceCFG(base_address=0)
        for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3), (3, "END"),
                         (0, 2)):
            cfg.record_edge(src, dst, 1)
        nodes, successors = cfg.graph()
        assert nodes == [0, 1, 2, 3, "END"]
        assert list(successors[0]) == [1, 2]
        assert successors[0][2] == (2, 2 / 3)
        assert cfg.to_dot().splitlines()[2:-1] == [
            '  "0" [label="0"];',
            '  "10" [label="10"];',
            '  "20" [label="20"];',
            '  "30" [label="30"];',
            '  "END" [label="END"];',
            '  "0" -> "10" [label="33.33%"];',
            '  "0" -> "20" [label="66.67%"];',
            '  "10" -> "30" [label="100.00%"];',
            '  "20" -> "30" [label="100.00%"];',
            '  "30" -> "END" [label="100.00%"];',
        ]

    def test_node_labels(self):
        cfg = DivergenceCFG(base_address=0xAA000000)
        assert cfg.node_label(3) == "aa000030"
        assert cfg.node_label("END") == "END"


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("a", 1), ("long", 22)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert lines[2].startswith("---")

    def test_mix_report(self):
        stats = JobStats()
        stats.arith_instrs = 10
        text = format_instruction_mix([("bench", stats)])
        assert "bench" in text and "100.0" in text

    def test_breakdown_report(self):
        stats = JobStats()
        stats.grf_reads = 4
        text = format_data_access_breakdown([("b", stats)])
        assert "100.0" in text

    def test_histogram_report(self):
        stats = JobStats()
        stats.clause_size_histogram = {2: 1, 8: 3}
        text = format_clause_histogram([("b", stats)])
        assert "25.0" in text and "75.0" in text
