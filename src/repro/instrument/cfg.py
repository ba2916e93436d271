"""Divergence control-flow graph (paper Fig. 6).

The simulator tracks the program counter on clause boundaries and builds a
control-flow graph whose edges carry the number of threads that followed
them. Basic blocks where lanes of a warp chose different successors are
flagged as divergence points, "pinpointing the divergence on actual GPU
instructions".
"""


class DivergenceCFG:
    """Collects clause-boundary transitions and renders the CFG.

    Nodes are clause indices (plus the virtual ``END`` node); edge weights
    are thread counts. ``divergences[node]`` counts warp-level divergent
    branch events whose branch clause was *node*.
    """

    END = "END"

    def __init__(self, base_address=0xAA000000):
        self._edges = {}
        self._divergences = {}
        self._executions = {}
        self.base_address = base_address

    # -- collection (called from the warp executor) --------------------------

    def record_execution(self, clause_index, thread_count):
        self._executions[clause_index] = self._executions.get(clause_index, 0) + thread_count

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
        """``(nodes, successors)``: nodes in order of first appearance on
        an edge (source before destination); ``successors[src]`` maps
        ``dst -> (threads, fraction)`` in the order first taken, where
        ``fraction`` is the share of threads leaving *src* along that
        edge."""
        nodes = {}
        successors = {}
        for (src, dst), count in self._edges.items():
            nodes[src] = nodes[dst] = None
            successors.setdefault(src, {})[dst] = count
        for out in successors.values():
            total = sum(out.values())
            for dst, count in out.items():
                out[dst] = (count, count / total if total else 0.0)
        return list(nodes), successors

    def divergence_fraction(self, node):
        """Fraction of branch events at *node* that diverged."""
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
