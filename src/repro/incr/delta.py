"""Delta-driven elaboration: a netlist as a base plus a patch set.

A :class:`DeltaNetlist` is the incremental engine's core object: the
tracked elaboration of one circuit graph, stored *per IR node* so that
an edited graph can be re-elaborated by touching only the dirty cone --
the transitive combinational fanout of the edited nodes -- while every
other node's gates, bit nets and ports are structurally shared with the
previous state.

Register Q nets are allocated once and never move, so the dirty cone
stops at register boundaries exactly like the MCTS driving cones do:
a swap inside one cone re-lowers a handful of nodes instead of the
whole design.  ``materialize()`` assembles a plain
:class:`~repro.synth.netlist.Netlist` that is gate-for-gate equivalent
(function, area and timing) to a fresh ``elaborate()`` of the edited
graph; only net numbering differs.

Deltas are persistent values: ``apply_edit`` returns a new
:class:`DeltaNetlist` and never mutates its receiver, so MCTS tree
siblings can branch from one shared base.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from ..ir import CircuitGraph, NodeType
from ..obs import span
from ..synth.elaborate import _Elaborator
from ..synth.netlist import Gate, Netlist

_SOURCE_TYPES = (NodeType.IN, NodeType.CONST, NodeType.REG)


@dataclass(frozen=True)
class NodeArtifact:
    """Everything elaboration produced for one IR node.

    ``bits`` are the node's output bit nets (register Q nets for REG,
    empty for OUT); ``gates`` are the gates owned by the node (the
    lowered logic for operators, the DFFs for a register); ``pis`` /
    ``pos`` are the primary ports contributed by IN / OUT nodes.
    Artifacts are immutable and shared across deltas.
    """

    node: int
    bits: tuple[int, ...]
    gates: tuple[Gate, ...]
    pis: tuple[tuple[str, int], ...] = ()
    pos: tuple[tuple[str, int], ...] = ()


def comb_topo_order(graph: CircuitGraph, subset: set[int]) -> list[int]:
    """Topological order of the combinational nodes in ``subset``.

    Edges are graph parent edges restricted to ``subset``; sources
    (IN/CONST/REG) and sinks (OUT) must not be members.  Raises on a
    combinational cycle, which a valid circuit cannot contain.
    """
    indegree = {v: 0 for v in subset}
    children: dict[int, list[int]] = {v: [] for v in subset}
    for v in subset:
        for p in graph.filled_parents(v):
            if p in indegree and p != v:
                indegree[v] += 1
                children[p].append(v)
    order: list[int] = []
    frontier = sorted((v for v in subset if indegree[v] == 0), reverse=True)
    while frontier:
        v = frontier.pop()
        order.append(v)
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                frontier.append(c)
    if len(order) != len(subset):
        raise ValueError("combinational cycle in dirty cone")
    return order


class DeltaNetlist:
    """Tracked elaboration of a graph with incremental re-elaboration."""

    __slots__ = (
        "graph", "name", "num_nets", "const0", "const1",
        "artifacts", "patched", "parent", "_children", "_comb_mask",
    )

    def __init__(
        self,
        graph: CircuitGraph,
        *,
        num_nets: int,
        const0: int,
        const1: int,
        artifacts: dict[int, NodeArtifact],
        patched: frozenset[int],
        parent: "DeltaNetlist | None",
        comb_mask: list[bool] | None = None,
    ):
        self.graph = graph
        self.name = graph.name
        self.num_nets = num_nets
        self.const0 = const0
        self.const1 = const1
        self.artifacts = artifacts
        #: Nodes re-lowered by the edit that produced this delta
        #: (empty for a freshly elaborated base).
        self.patched = patched
        #: The delta this one was derived from (``None`` for a base or a
        #: schema-change fallback, which callers read as "not an edit").
        self.parent = parent
        #: Lazily built fanout map of ``graph`` (apply_edit hot path).
        self._children: list[list[int]] | None = None
        if comb_mask is None:
            comb_mask = [
                n.type not in (*_SOURCE_TYPES, NodeType.OUT)
                for n in graph.nodes()
            ]
        #: Schema-static per-node combinational mask shared along the
        #: lineage.
        self._comb_mask = comb_mask

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: CircuitGraph, check: bool = True) -> "DeltaNetlist":
        """Full, tracked elaboration of ``graph`` (the base of a lineage)."""
        if check:
            from ..ir import assert_valid

            assert_valid(graph)
        ela = _Elaborator(graph)
        nl = ela.netlist
        artifacts: dict[int, NodeArtifact] = {}

        def capture(
            node_id: int, lower: Callable[..., None], *args: object
        ) -> None:
            gate_mark = len(nl.gates)
            pi_mark = len(nl.primary_inputs)
            po_mark = len(nl.primary_outputs)
            lower(*args)
            artifacts[node_id] = NodeArtifact(
                node=node_id,
                bits=tuple(ela.bits.get(node_id, ())),
                gates=tuple(nl.gates[gate_mark:]),
                pis=tuple(nl.primary_inputs[pi_mark:]),
                pos=tuple(nl.primary_outputs[po_mark:]),
            )

        for node in graph.nodes():
            if node.type in _SOURCE_TYPES:
                capture(node.id, ela.lower_source, node.id)
        comb = {
            n.id for n in graph.nodes()
            if n.type not in (*_SOURCE_TYPES, NodeType.OUT)
        }
        for node_id in comb_topo_order(graph, comb):
            capture(node_id, ela._lower_comb, node_id)
        for reg in graph.registers():
            q_bits = artifacts[reg].bits
            gate_mark = len(nl.gates)
            ela.lower_reg_dffs(reg)
            artifacts[reg] = NodeArtifact(
                node=reg, bits=q_bits, gates=tuple(nl.gates[gate_mark:])
            )
        for out in graph.outputs():
            capture(out, ela.lower_output, out)

        delta = cls(
            graph,
            num_nets=nl.num_nets,
            const0=nl.const0,
            const1=nl.const1,
            artifacts=artifacts,
            patched=frozenset(),
            parent=None,
        )
        if check:
            delta.materialize(check=True)
        return delta

    def rebased(self, graph: CircuitGraph) -> "DeltaNetlist":
        """This delta as the base of a new lineage on ``graph``.

        ``graph`` must have this delta's wiring (an accepted candidate
        flattened into the next search base).  The artifacts are shared
        as they are; the parent chain is cut, so a carried-forward base
        never grows one.
        """
        return DeltaNetlist(
            graph,
            num_nets=self.num_nets,
            const0=self.const0,
            const1=self.const1,
            artifacts=self.artifacts,
            patched=frozenset(),
            parent=None,
            comb_mask=self._comb_mask,
        )

    def _patched_children(
        self, new_graph: CircuitGraph, touched: Iterable[int]
    ) -> Callable[[int], Iterable[int]]:
        """Fanout lookup for ``new_graph`` built from the cached base
        fanout map plus the edge corrections implied by ``touched``."""
        if self._children is None:
            self._children = self.graph.child_map()
        base_map = self._children
        corrections: dict[int, set[int]] = {}
        base_parents = self.graph.filled_parents
        new_parents = new_graph.filled_parents
        for v in touched:
            old, new = set(base_parents(v)), set(new_parents(v))
            for a in old - new:
                corrections.setdefault(a, set(base_map[a])).discard(v)
            for b in new - old:
                corrections.setdefault(b, set(base_map[b])).add(v)
        if not corrections:
            return base_map.__getitem__

        def children(v: int) -> Iterable[int]:
            patched = corrections.get(v)
            return base_map[v] if patched is None else patched

        return children

    def apply_edit(
        self, new_graph: CircuitGraph, touched: list[int] | None = None
    ) -> "DeltaNetlist":
        """Delta for ``new_graph``: re-elaborate the dirty cone only.

        Traced as an ``incr.apply_edit`` span carrying the dirty-node
        and patched-gate counts (a no-op without an active recorder).

        ``touched`` (node ids whose parents changed) is computed with
        :meth:`CircuitGraph.structural_delta` when not supplied.  Falls
        back to a full tracked elaboration when the node schema changed
        (different node count, types, widths, params or names) -- parent
        rewires, the move set of the MCTS search, always patch.

        Re-lowered nodes are *net-anchored*: when every output bit of a
        re-lowered node is driven by one of its own new gates, those
        gates are renamed to drive the node's previous output nets, so
        consumers observe identical bit nets and stay clean.  Only nodes
        with pass-through output bits (slices, concats, constant
        padding) propagate dirt to their fanout.
        """
        with span("incr.apply_edit") as edit_span:
            delta = self._apply_edit(new_graph, touched)
            edit_span.add(
                patched=len(delta.patched), nets=delta.num_nets
            )
            return delta

    def _apply_edit(
        self, new_graph: CircuitGraph, touched: list[int] | None
    ) -> "DeltaNetlist":
        if touched is None:
            touched = new_graph.structural_delta(self.graph)
            if touched is None:
                return DeltaNetlist.from_graph(new_graph, check=False)
        if not touched:
            return DeltaNetlist(
                new_graph,
                num_nets=self.num_nets,
                const0=self.const0,
                const1=self.const1,
                artifacts=self.artifacts,
                patched=frozenset(),
                parent=self,
                comb_mask=self._comb_mask,
            )
        # Patch context: the net counter continues past the base's nets
        # (nets are never reused); operand bit lists are pulled from the
        # cached artifacts on demand.
        nl = Netlist(
            name=self.name,
            num_nets=self.num_nets,
            const0=self.const0,
            const1=self.const1,
        )
        new_parents = new_graph.filled_parents
        artifacts_map = self.artifacts
        bits: dict[int, list[int]] = {}
        ela = _Elaborator(new_graph, netlist=nl, bits=bits)

        def ensure_bits(nodes: Iterable[int]) -> None:
            for u in nodes:
                if u not in bits:
                    bits[u] = list(artifacts_map[u].bits)

        artifacts = dict(artifacts_map)
        rebuilt: set[int] = set()
        #: nodes whose output bit nets actually changed (unsealed).
        moved: set[int] = set()
        comb_mask = self._comb_mask
        gates_list = nl.gates
        children = None
        # Worklist: rebuild the touched nodes, then fan out only through
        # nodes that could not be net-anchored (the rare case -- an
        # anchored rebuild leaves its consumers' artifacts valid).
        pending = {v for v in touched if comb_mask[v]}
        sink_pending = {v for v in touched if not comb_mask[v]}
        rebuild_events = 0
        rebuild_budget = 4 * len(artifacts_map) + 16
        while pending:
            rebuild_events += len(pending)
            if rebuild_events > rebuild_budget:
                # Pathological pass-through wavefront (converging
                # unanchorable chains re-rebuilding repeatedly): a full
                # tracked elaboration is cheaper and always correct.
                return DeltaNetlist.from_graph(new_graph, check=False)
            if len(pending) == 1:
                batch = list(pending)
            elif len(pending) == 2:
                a, b = sorted(pending)
                batch = [b, a] if b in new_parents(a) else [a, b]
            else:
                batch = comb_topo_order(new_graph, pending)
            pending = set()
            newly_moved: list[int] = []
            for v in batch:
                ensure_bits(new_parents(v))
                gate_mark = len(gates_list)
                ela._lower_comb(v)
                new_gates = gates_list[gate_mark:]
                del gates_list[gate_mark:]
                new_bits = ela.bits[v]
                if self._anchor(artifacts_map[v].bits, new_bits, new_gates):
                    ela.bits[v] = new_bits = list(artifacts_map[v].bits)
                else:
                    # Every unanchored rebuild allocates fresh output
                    # nets, so consumers must be (re-)notified even if
                    # the node already moved in an earlier batch --
                    # pass-through chains can rebuild a node repeatedly.
                    moved.add(v)
                    newly_moved.append(v)
                rebuilt.add(v)
                artifacts[v] = NodeArtifact(
                    node=v, bits=tuple(new_bits), gates=tuple(new_gates),
                )
            if newly_moved:
                if children is None:
                    children = self._patched_children(new_graph, touched)
                for m in newly_moved:
                    for c in children(m):
                        if comb_mask[c]:
                            # Consumers re-lower against the moved bits
                            # (a node may rebuild more than once when a
                            # later batch moves one of its operands).
                            pending.add(c)
                        else:
                            sink_pending.add(c)
        for v in sorted(sink_pending):
            node = new_graph.node(v)
            rebuilt.add(v)
            if node.type is NodeType.REG:
                ensure_bits((v, *new_parents(v)))
                gate_mark = len(gates_list)
                ela.lower_reg_dffs(v)
                artifacts[v] = NodeArtifact(
                    node=v, bits=artifacts_map[v].bits,
                    gates=tuple(gates_list[gate_mark:]),
                )
                del gates_list[gate_mark:]
            elif node.type is NodeType.OUT:
                ensure_bits(new_parents(v))
                po_mark = len(nl.primary_outputs)
                ela.lower_output(v)
                artifacts[v] = NodeArtifact(
                    node=v, bits=(), gates=(),
                    pos=tuple(nl.primary_outputs[po_mark:]),
                )
            else:  # pragma: no cover - IN/CONST have no parents to edit
                raise ValueError(f"source node {v} cannot be dirty")

        return DeltaNetlist(
            new_graph,
            num_nets=nl.num_nets,
            const0=self.const0,
            const1=self.const1,
            artifacts=artifacts,
            patched=frozenset(rebuilt),
            parent=self,
            comb_mask=self._comb_mask,
        )

    @staticmethod
    def _anchor(
        old_bits: Sequence[int],
        new_bits: Sequence[int],
        new_gates: Sequence[Gate],
    ) -> bool:
        """Rename a re-lowered node's gates onto its previous output nets.

        Possible iff every output bit is driven by one of the node's own
        new gates and neither bit list repeats a net.  The gates were
        freshly created for this patch and are exclusively owned, so
        they are renamed *in place*; returns whether anchoring happened
        (pass-through bits keep their source nets and cannot anchor).
        """
        if len(old_bits) != len(new_bits):
            return False
        owned = {g.output for g in new_gates}
        rename: dict[int, int] = {}
        for old, new in zip(old_bits, new_bits):
            if new not in owned:
                return False
            if rename.setdefault(new, old) != old:
                return False  # duplicated output net: ambiguous rename
        if len(set(old_bits)) != len(old_bits):
            return False
        get = rename.get
        for g in new_gates:
            out = get(g.output)
            if out is not None:
                g.output = out
            ins = g.inputs
            for net in ins:
                if net in rename:
                    g.inputs = tuple(get(i, i) for i in ins)
                    break
        return True

    # ------------------------------------------------------------------
    def materialize(self, check: bool = False) -> Netlist:
        """Assemble a plain :class:`Netlist` for this delta's graph.

        Gates, ports and DFF origins are concatenated in node-id order;
        the result is equivalent to ``elaborate(self.graph)`` in
        function, gate counts, port names, area and timing (net ids and
        gate order may differ after edits).
        """
        nl = Netlist(
            name=self.name,
            num_nets=self.num_nets,
            const0=self.const0,
            const1=self.const1,
        )
        graph = self.graph
        for v in sorted(self.artifacts):
            art = self.artifacts[v]
            nl.gates.extend(art.gates)
            nl.primary_inputs.extend(art.pis)
            nl.primary_outputs.extend(art.pos)
            if graph.node(v).type is NodeType.REG:
                for b, q in enumerate(art.bits):
                    nl.dff_origin[q] = (v, b)
        if check:
            nl.check()
        return nl

    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return sum(len(a.gates) for a in self.artifacts.values())

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for art in self.artifacts.values():
            for gate in art.gates:
                counts[gate.kind] = counts.get(gate.kind, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaNetlist({self.name!r}, nodes={len(self.artifacts)}, "
            f"gates={self.num_gates}, patched={len(self.patched)})"
        )
