"""Circuit constraint checking (the paper's constraint set ``C``).

Canonical home of the constraint checks (the public names are also
re-exported lazily from :mod:`repro.ir`).  Two families of constraints
make a graph parseable back into HDL:

1. *Arity*: each node's type uniquely determines its number of parents.
2. *No combinational loops*: every cycle must pass through at least one
   register.  A cycle containing no register would be a combinational loop
   and cause timing violations.

The same checks are exposed as lint rules ``L001``-``L003`` in
:mod:`repro.lint.graph_rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.graph import CircuitGraph
from ..ir.node_types import arity_of, is_sequential


@dataclass
class ValidationReport:
    """Outcome of validating a circuit graph against ``C``."""

    arity_violations: list[int] = field(default_factory=list)
    combinational_cycles: list[list[int]] = field(default_factory=list)
    dangling_outputs: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.arity_violations
            and not self.combinational_cycles
            and not self.dangling_outputs
        )

    def summary(self) -> str:
        if self.ok:
            return "valid"
        parts = []
        if self.arity_violations:
            parts.append(f"{len(self.arity_violations)} arity violations")
        if self.combinational_cycles:
            parts.append(f"{len(self.combinational_cycles)} combinational cycles")
        if self.dangling_outputs:
            parts.append(f"{len(self.dangling_outputs)} dangling outputs")
        return ", ".join(parts)


def arity_violations(graph: CircuitGraph) -> list[int]:
    """Ids of nodes whose filled parent count differs from their arity."""
    bad = []
    for node in graph.nodes():
        if len(graph.filled_parents(node.id)) != arity_of(node.type):
            bad.append(node.id)
    return bad


def find_combinational_cycles(
    graph: CircuitGraph, limit: int = 16
) -> list[list[int]]:
    """Return up to ``limit`` cycles that contain no register node.

    Registers are removed from the graph entirely: any cycle in the
    remainder is by definition register-free, i.e. combinational.
    Cycle enumeration uses iterative DFS over strongly connected node sets.
    """
    comb = [n.id for n in graph.nodes() if not is_sequential(n.type)]
    comb_set = set(comb)
    succ: dict[int, list[int]] = {v: [] for v in comb}
    for parent, child in graph.edges():
        if parent in comb_set and child in comb_set:
            succ[parent].append(child)

    cycles: list[list[int]] = []
    color = {v: 0 for v in comb}  # 0 white, 1 grey, 2 black
    stack_pos: dict[int, int] = {}

    for root in comb:
        if color[root] != 0 or len(cycles) >= limit:
            continue
        path: list[int] = []
        # Iterative DFS frame: (node, iterator index).
        frames: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        stack_pos[root] = 0
        path.append(root)
        while frames:
            node, idx = frames[-1]
            if idx < len(succ[node]) and len(cycles) < limit:
                frames[-1] = (node, idx + 1)
                nxt = succ[node][idx]
                if color[nxt] == 1:
                    cycles.append(path[stack_pos[nxt]:] + [nxt])
                elif color[nxt] == 0:
                    color[nxt] = 1
                    stack_pos[nxt] = len(path)
                    path.append(nxt)
                    frames.append((nxt, 0))
            else:
                frames.pop()
                path.pop()
                color[node] = 2
                stack_pos.pop(node, None)
    return cycles


def has_combinational_loop(graph: CircuitGraph) -> bool:
    return bool(find_combinational_cycles(graph, limit=1))


def would_create_combinational_loop(
    graph: CircuitGraph, parent: int, child: int
) -> bool:
    """Would adding edge ``parent -> child`` close a register-free cycle?

    Per the paper's post-processing rule this reduces to a reachability
    query: the new edge closes a combinational loop iff neither endpoint is
    a register and a path from ``child`` back to ``parent`` already exists
    in the subgraph that excludes register-type nodes.
    """
    if is_sequential(graph.node(parent).type) or is_sequential(
        graph.node(child).type
    ):
        return False
    if parent == child:
        return True
    # BFS from child towards parent through combinational nodes only.
    fanout = graph.child_map()
    seen = {child}
    frontier = [child]
    while frontier:
        new_frontier = []
        for v in frontier:
            for w in fanout[v]:
                if is_sequential(graph.node(w).type):
                    continue
                if w == parent:
                    return True
                if w not in seen:
                    seen.add(w)
                    new_frontier.append(w)
        frontier = new_frontier
    return False


def dangling_outputs(graph: CircuitGraph) -> list[int]:
    """OUT nodes that have no driver (cannot be emitted as HDL)."""
    return [
        o for o in graph.outputs() if not graph.filled_parents(o)
    ]


def validate(graph: CircuitGraph) -> ValidationReport:
    """Full constraint check; ``report.ok`` is the paper's "G is valid"."""
    return ValidationReport(
        arity_violations=arity_violations(graph),
        combinational_cycles=find_combinational_cycles(graph),
        dangling_outputs=dangling_outputs(graph),
    )


def assert_valid(graph: CircuitGraph) -> None:
    report = validate(graph)
    if not report.ok:
        raise ValueError(f"invalid circuit graph: {report.summary()}")
