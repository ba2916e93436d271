"""Divergence control-flow graph (paper Fig. 6).

The simulator tracks the program counter on clause boundaries and builds a
control-flow graph whose edges carry the number of threads that followed
them. Basic blocks where lanes of a warp chose different successors are
flagged as divergence points, "pinpointing the divergence on actual GPU
instructions". The graph of a job is built from its per-clause table, the
one record every engine counts into and the job's statistics are computed
from, so every engine has it.
"""


def _node_order(node):
    """Clause order, with ``END`` last."""
    return (1, 0) if node == DivergenceCFG.END else (0, node)


class DivergenceCFG:
    """Clause-boundary transitions, and their rendering as the CFG.

    Nodes are clause indices (plus the virtual ``END`` node); edge weights
    are thread counts. ``divergences[node]`` counts warp-level divergent
    branch events whose branch clause was *node*, out of
    ``executions[node]`` warp issues.
    """

    END = "END"

    def __init__(self, base_address=0xAA000000):
        self._edges = {}
        self._divergences = {}
        self._executions = {}
        self.base_address = base_address

    @classmethod
    def from_clause_counts(cls, clauses, counts):
        """The graph of a job's per-clause table (see
        :func:`~repro.instrument.stats.apply_clause_stats`): a clause
        sends its lanes to ``c+1`` (``END`` after an END tail) but for
        those a JUMP or BRANCH sends to its target."""
        from repro.gpu.isa import Tail

        cfg = cls()
        for index in sorted(counts):
            issues, lanes, taken, divergent = counts[index]
            clause = clauses[index]
            cfg.record_execution(index, issues)
            if divergent:
                cfg.record_divergence(index, divergent)
            if clause.tail is Tail.JUMP:
                taken = lanes
            after = cls.END if clause.tail is Tail.END else index + 1
            for dst, threads in ((after, lanes - taken),
                                 (clause.target, taken)):
                if threads:
                    cfg.record_edge(index, dst, threads)
        return cfg

    # -- construction ---------------------------------------------------------

    def record_execution(self, clause_index, issues):
        self._executions[clause_index] = self._executions.get(clause_index, 0) + issues

    def record_edge(self, src_clause, dst_clause, thread_count):
        key = (src_clause, dst_clause)
        self._edges[key] = self._edges.get(key, 0) + thread_count

    def record_divergence(self, clause_index, warp_count=1):
        self._divergences[clause_index] = self._divergences.get(clause_index, 0) + warp_count

    # -- queries --------------------------------------------------------------

    @property
    def edges(self):
        return dict(self._edges)

    @property
    def divergences(self):
        return dict(self._divergences)

    @property
    def executions(self):
        return dict(self._executions)

    def merge(self, other):
        for (src, dst), count in other._edges.items():
            self.record_edge(src, dst, count)
        for node, count in other._divergences.items():
            self.record_divergence(node, count)
        for node, count in other._executions.items():
            self.record_execution(node, count)
        return self

    def node_label(self, node):
        """Paper-style label: the clause's instruction address."""
        if node == self.END:
            return "END"
        return f"{self.base_address + node * 0x10:x}"

    def graph(self):
        """``(nodes, successors)``: nodes in clause order, ``END`` last;
        ``successors[src]`` maps ``dst -> (threads, fraction)`` in the
        same order, where ``fraction`` is the share of threads leaving
        *src* along that edge. The same counts give the same graph
        whichever engine counted them."""
        successors = {}
        for src, dst in sorted(self._edges,
                               key=lambda edge: tuple(map(_node_order, edge))):
            successors.setdefault(src, {})[dst] = self._edges[(src, dst)]
        for out in successors.values():
            total = sum(out.values())
            for dst, count in out.items():
                out[dst] = (count, count / total if total else 0.0)
        nodes = {node for edge in self._edges for node in edge}
        return sorted(nodes, key=_node_order), successors

    def divergence_fraction(self, node):
        """Fraction of branch events at *node* (its warp issues) that
        diverged."""
        executed = self._executions.get(node, 0)
        if not executed:
            return 0.0
        return self._divergences.get(node, 0) / executed

    def to_dot(self):
        """Render in the style of Fig. 6: divergent blocks are annotated,
        edges carry the proportion of threads following them."""
        nodes, successors = self.graph()
        lines = ["digraph cfg {", "  node [shape=box];"]
        for node in nodes:
            name = label = self.node_label(node)
            if node in self._divergences:
                pct = 100.0 * self.divergence_fraction(node)
                label += f"\\n({pct:.1f}% dvg.)"
            lines.append(f'  "{name}" [label="{label}"];')
        for src in nodes:
            for dst, (_threads, fraction) in successors.get(src, {}).items():
                lines.append(
                    f'  "{self.node_label(src)}" -> "{self.node_label(dst)}"'
                    f' [label="{100.0 * fraction:.2f}%"];'
                )
        lines.append("}")
        return "\n".join(lines)
