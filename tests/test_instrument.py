"""Unit tests: statistics containers, merging, CFG, report formatting."""

import pytest

from repro.instrument import (
    DivergenceCFG,
    JobStats,
    SystemStats,
    apply_clause_stats,
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

    def test_merge_accumulates(self):
        a, b = self._sample(), self._sample()
        merged = JobStats().merge(a).merge(b)
        assert merged.arith_instrs == 100
        assert merged.clause_size_histogram == {1: 4, 4: 6, 8: 2}
        # inputs untouched
        assert a.arith_instrs == 50

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
    """A job's per-clause table, multiplied out once when the job
    retires, must be arithmetically identical to counting each issue as
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
        stats = JobStats()
        pending = {0: [3, 11, 0, 0]}  # 3 warp issues, 11 total active lanes
        apply_clause_stats(stats, [clause], pending)
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
        once = JobStats()
        apply_clause_stats(once, clauses, table)
        separately = JobStats()
        for piece in pieces:
            apply_clause_stats(separately, clauses, piece)
        assert once == separately
        assert once.divergent_branches == 1 and once.clauses_executed == 6
        assert once.clause_size_histogram == {1: 3, 2: 3}

    def test_empty_pending_is_noop(self):
        stats = JobStats()
        apply_clause_stats(stats, [], {})
        assert stats == JobStats()


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

    def test_merge(self):
        a, b = DivergenceCFG(), DivergenceCFG()
        a.record_edge(0, 1, 10)
        b.record_edge(0, 1, 5)
        b.record_edge(1, "END", 5)
        b.record_divergence(0)
        a.merge(b)
        assert a.edges[(0, 1)] == 15
        assert a.edges[(1, "END")] == 5
        assert a.divergences == {0: 1}

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
