"""Graph-scope lint rules (``L0xx``) over :class:`~repro.ir.CircuitGraph`.

``L001``-``L003`` promote the constraint set ``C`` checks of
:mod:`repro.lint.constraints` into the rule framework; the rest are
hygiene rules over valid graphs.  Severities encode the domain: a
structurally invalid graph is an *error*; an unused primary *port* is a
*warning* (an interface bug, never produced by the generators); and
removable redundancy -- dead or unobserved logic, duplicate structure,
constant-foldable subtrees -- is *info*, because the paper's designs
contain exactly that redundancy by construction and measuring its
removal is the whole point of the optimization phase.
"""

from __future__ import annotations

from ..ir.graph import CircuitGraph
from ..ir.node_types import NodeType, arity_of
from . import constraints
from .core import ERROR, GRAPH_SCOPE, INFO, WARNING, Diagnostic, Rule, rule

#: Binary ops whose operand order does not affect the result; duplicate
#: detection canonicalizes their parent order like the gate-level
#: structural hashing pass (:func:`repro.synth.passes._dedupe`).
_COMMUTATIVE = frozenset((
    NodeType.AND, NodeType.OR, NodeType.XOR, NodeType.ADD, NodeType.MUL,
    NodeType.EQ,
))

#: Types excluded from duplicate detection: ports are identity-bearing,
#: and equal-valued constants are reported by L008's folding instead.
_NO_DUP = frozenset((NodeType.IN, NodeType.OUT, NodeType.CONST))


def _live_set(graph: CircuitGraph) -> set[int]:
    """Nodes backward-reachable from any primary output."""
    rows = graph.filled_rows()
    live: set[int] = set()
    stack = list(graph.outputs())
    while stack:
        v = stack.pop()
        if v in live:
            continue
        live.add(v)
        stack.extend(rows[v])
    return live


@rule(
    "L001", "arity-violation", ERROR, GRAPH_SCOPE,
    "Node's filled parent count differs from its type's arity.",
)
def check_arity(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    out = []
    for v in constraints.arity_violations(graph):
        node = graph.node(v)
        out.append(r.diag(
            f"node {v} ({node.type.value}) has "
            f"{len(graph.filled_parents(v))}/{arity_of(node.type)} parents",
            nodes=[v],
        ))
    return out


@rule(
    "L002", "combinational-cycle", ERROR, GRAPH_SCOPE,
    "Register-free cycle (a combinational loop).",
)
def check_combinational_cycles(
    graph: CircuitGraph, r: Rule
) -> list[Diagnostic]:
    return [
        r.diag(
            "combinational cycle through "
            + " -> ".join(str(v) for v in cycle),
            nodes=cycle,
        )
        for cycle in constraints.find_combinational_cycles(graph)
    ]


@rule(
    "L003", "dangling-output", ERROR, GRAPH_SCOPE,
    "OUT node with no driver (cannot be emitted as HDL).",
)
def check_dangling_outputs(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    return [
        r.diag(
            f"output node {v}"
            + (f" ({graph.node(v).name})" if graph.node(v).name else "")
            + " has no driver",
            nodes=[v],
        )
        for v in constraints.dangling_outputs(graph)
    ]


@rule(
    "L004", "dead-logic", INFO, GRAPH_SCOPE,
    "Node with fanout but no path to any primary output; "
    "synthesis DCE removes it wholesale.",
)
def check_dead_logic(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    live = _live_set(graph)
    fanout = graph.child_map()
    out = []
    for node in graph.nodes():
        v = node.id
        if v in live or node.type in (NodeType.IN, NodeType.OUT):
            continue
        if fanout[v]:
            out.append(r.diag(
                f"node {v} ({node.type.value}) drives "
                f"{len(fanout[v])} consumer(s) but no output observes it",
                nodes=[v],
            ))
    return out


@rule(
    "L005", "fanout-free-node", INFO, GRAPH_SCOPE,
    "Internal (non-port) node that nothing consumes.",
)
def check_fanout_free(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    fanout = graph.child_map()
    return [
        r.diag(
            f"node {node.id} ({node.type.value}) has no consumers",
            nodes=[node.id],
        )
        for node in graph.nodes()
        if node.type not in (NodeType.IN, NodeType.OUT)
        and not fanout[node.id]
    ]


@rule(
    "L006", "unused-input", WARNING, GRAPH_SCOPE,
    "Primary input that nothing consumes.",
)
def check_unused_inputs(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    fanout = graph.child_map()
    out = []
    for v in graph.inputs():
        if not fanout[v]:
            node = graph.node(v)
            label = f" ({node.name})" if node.name else ""
            out.append(r.diag(
                f"input node {v}{label} is never used", nodes=[v],
            ))
    return out


@rule(
    "L007", "duplicate-node", INFO, GRAPH_SCOPE,
    "Structurally identical nodes (same type, width, params and "
    "canonical parents); synthesis merges them.",
)
def check_duplicate_nodes(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    # Key per node: (type, width, params) schema plus the ordered parent
    # row, with commutative operand order canonicalized.
    groups: dict[tuple, list[int]] = {}
    rows = graph.parent_rows()
    for node in graph.nodes():
        if node.type in _NO_DUP:
            continue
        row = rows[node.id]
        if None in row:
            continue  # arity violations are L001's finding
        canon = tuple(sorted(row)) if node.type in _COMMUTATIVE else row
        key = (
            node.type.value, node.width,
            tuple(sorted(node.params.items())), canon,
        )
        groups.setdefault(key, []).append(node.id)
    out = []
    for key, members in sorted(groups.items(), key=lambda kv: kv[1]):
        if len(members) > 1:
            out.append(r.diag(
                f"{len(members)} structurally identical "
                f"{key[0]} nodes: {members}",
                nodes=members,
            ))
    return out


@rule(
    "L008", "constant-foldable", INFO, GRAPH_SCOPE,
    "Non-constant nodes whose word value is a compile-time constant "
    "(per the word-level redundancy analysis).",
)
def check_constant_foldable(graph: CircuitGraph, r: Rule) -> list[Diagnostic]:
    # The semantic analysis needs a well-formed graph; structural
    # defects are L001/L002's findings.
    if constraints.arity_violations(graph) or constraints.has_combinational_loop(
        graph
    ):
        return []
    from ..incr.analysis import analyze_redundancy

    report = analyze_redundancy(graph)
    folded = [
        (node.id, report.refs[node.id][1])
        for node in graph.nodes()
        if node.type not in (NodeType.CONST, NodeType.IN, NodeType.OUT)
        and report.refs[node.id][0] == "c"
    ]
    if not folded:
        return []
    return [r.diag(
        f"{len(folded)} node(s) compute compile-time constants",
        nodes=[v for v, _ in folded],
        values=[[v, value] for v, value in folded],
    )]
