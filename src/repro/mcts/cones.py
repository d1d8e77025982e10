"""Register driving-cone extraction (paper Section VI-A, footnote 3).

The driving cone for a register is the node set reached by a reverse
breadth-first search from the register through parent edges, stopping at
``const``, ``in`` or other ``reg`` nodes.  Cones are the unit of MCTS
optimization: each register's cone is refined independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import CircuitGraph, NodeType


@dataclass
class Cone:
    """Driving cone of ``register``: interior operators plus boundary."""

    register: int
    interior: list[int]   # combinational operator nodes inside the cone
    boundary: list[int]   # in / const / other-reg nodes feeding the cone

    @property
    def nodes(self) -> list[int]:
        return [self.register, *self.interior, *self.boundary]

    @property
    def size(self) -> int:
        return 1 + len(self.interior)


_STOP_TYPES = (NodeType.CONST, NodeType.IN, NodeType.REG)


def driving_cone(graph: CircuitGraph, register: int) -> Cone:
    """Reverse BFS from ``register`` until const/in/reg boundary nodes."""
    if graph.node(register).type is not NodeType.REG:
        raise ValueError(f"node {register} is not a register")
    interior: list[int] = []
    boundary: list[int] = []
    seen: set[int] = set()
    frontier = list(graph.filled_parents(register))
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        if graph.node(v).type in _STOP_TYPES:
            boundary.append(v)
            continue
        interior.append(v)
        frontier.extend(graph.filled_parents(v))
    return Cone(register=register, interior=interior, boundary=boundary)


def cone_subcircuit(graph: CircuitGraph, cone: Cone) -> CircuitGraph:
    """Standalone design for the cone, suitable for synthesis.

    Boundary nodes become primary inputs of matching width; the register
    is kept and observed through an output so the optimizer cannot simply
    delete everything.
    """
    sub = CircuitGraph(f"{graph.name}_cone{cone.register}")
    mapping: dict[int, int] = {}

    reg_node = graph.node(cone.register)
    mapping[cone.register] = sub.add_node(
        NodeType.REG, reg_node.width, name="cone_reg"
    )
    for v in cone.boundary:
        if v == cone.register:
            # Self-feedback: the register drives its own cone; keep the
            # loop inside the sub-circuit rather than cutting it to an
            # input (a REG node legally breaks the cycle).
            continue
        node = graph.node(v)
        mapping[v] = sub.add_node(NodeType.IN, node.width, name=f"bnd{v}")
    for v in cone.interior:
        node = graph.node(v)
        mapping[v] = sub.add_node(node.type, node.width, dict(node.params))

    for v in (cone.register, *cone.interior):
        for slot, parent in enumerate(graph.parents(v)):
            if parent is None:
                continue
            sub.set_parent(mapping[v], slot, mapping[parent])
    out = sub.add_node(NodeType.OUT, reg_node.width, name="observe")
    sub.set_parent(out, 0, mapping[cone.register])
    return sub


def all_cones(graph: CircuitGraph) -> list[Cone]:
    """Driving cones of every register, largest first."""
    cones = [driving_cone(graph, r) for r in graph.registers()]
    cones.sort(key=lambda c: -c.size)
    return cones
