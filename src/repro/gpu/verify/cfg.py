"""Clause-granularity control-flow graph.

Control flow in the Bifrost-like ISA is a property of clause *tails*, so
the CFG's nodes are clause indices and its edges come straight from the
tail kinds. On top of the raw graph this module computes the derived
facts the analysis passes share:

- reachability from the entry clause;
- whether the graph is **forward-only** (every edge goes to a higher
  index — such programs trivially terminate);
- **unavoidable** clauses: clauses every terminating execution must pass
  through. Must-claims (must-fault, must-race) are only ever attached to
  unavoidable clauses;
- barrier **phases**: for forward-only graphs, the number of unavoidable
  barriers strictly before a clause. Two memory accesses can only race
  if they occur in the same phase.
"""

from repro.gpu.isa import Tail


class ClauseCFG:
    """CFG over the clauses of a decoded program."""

    def __init__(self, program):
        self.program = program
        self.num_clauses = len(program.clauses)
        self.successors = []
        self.falls_off_end = set()  # clauses whose fallthrough exits the code
        for index, clause in enumerate(program.clauses):
            succs = []
            tail = clause.tail
            if tail in (Tail.FALLTHROUGH, Tail.BARRIER):
                if index + 1 < self.num_clauses:
                    succs.append(index + 1)
                else:
                    self.falls_off_end.add(index)
            elif tail is Tail.JUMP:
                if 0 <= clause.target < self.num_clauses:
                    succs.append(clause.target)
            elif tail in (Tail.BRANCH, Tail.BRANCH_Z):
                if index + 1 < self.num_clauses:
                    succs.append(index + 1)
                else:
                    self.falls_off_end.add(index)
                if (0 <= clause.target < self.num_clauses
                        and clause.target not in succs):
                    succs.append(clause.target)
            # END: no successors
            self.successors.append(succs)
        self.predecessors = [[] for _ in range(self.num_clauses)]
        for index, succs in enumerate(self.successors):
            for succ in succs:
                self.predecessors[succ].append(index)
        self.reachable = self.reach_from(0) if self.num_clauses else set()
        # Exits: END tails terminate the thread; a fallthrough off the end
        # is a crash, but for graph purposes it is still a sink.
        self.exits = {
            i for i in self.reachable
            if self.program.clauses[i].tail is Tail.END
            or i in self.falls_off_end
        }
        self.forward_only = all(
            succ > index
            for index, succs in enumerate(self.successors)
            for succ in succs
        )
        self._unavoidable = None

    def reach_from(self, start, skip=None):
        if start >= self.num_clauses or start == skip:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self.successors[node]:
                if succ != skip and succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def unavoidable(self):
        """Clauses on *every* entry-to-exit path.

        Clause c is avoidable iff some exit clause is reachable from the
        entry without passing through c. O(n^2) over clause count, which
        is bounded (programs are tens of clauses).
        """
        if self._unavoidable is not None:
            return self._unavoidable
        result = set()
        if not self.exits:
            self._unavoidable = result
            return result
        for clause in self.reachable:
            if clause == 0:
                result.add(clause)
                continue
            seen = self.reach_from(0, skip=clause)
            if not (seen & self.exits):
                result.add(clause)
        self._unavoidable = result
        return result

    def phases(self):
        """Barrier phase per clause, or None when phases are undefined.

        Only meaningful on forward-only graphs, where clauses execute in
        increasing index order: phase(c) counts unavoidable BARRIER-tail
        clauses with index < c (a barrier clause's own accesses happen
        before its tail barrier, so it keeps the earlier phase).
        """
        if not self.forward_only:
            return None
        unavoidable = self.unavoidable()
        phases = {}
        phase = 0
        for index in range(self.num_clauses):
            phases[index] = phase
            if (self.program.clauses[index].tail is Tail.BARRIER
                    and index in unavoidable):
                phase += 1
        return phases

    def nonterminating_clauses(self):
        """Reachable clauses from which no exit is reachable.

        Such a clause sits in (or unavoidably leads into) an inescapable
        cycle: once a thread arrives there it can never terminate.
        """
        stuck = set()
        for clause in self.reachable:
            if not (self.reach_from(clause) & self.exits):
                stuck.add(clause)
        return stuck

    def topo_order(self):
        """Clause iteration order for the dataflow fixpoints: index order
        (exact topological order for forward-only graphs, a good
        approximation otherwise)."""
        return sorted(self.reachable)
