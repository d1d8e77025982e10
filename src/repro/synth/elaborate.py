"""Elaboration: word-level circuit graph -> bit-level gate netlist.

Arithmetic and comparison operators are expanded into classic gate-level
structures (ripple-carry adders, borrow-chain comparators, barrel shifters,
shift-and-add multipliers).  Widths follow Verilog assignment semantics:
operands are zero-extended or truncated to the consumer's width.

Register nodes break the cyclic graph: DFF output nets are created first,
then the combinational cone is walked in topological order (valid circuits
have an acyclic combinational subgraph), then the D inputs are wired up.
"""

from __future__ import annotations

from ..ir import CircuitGraph, NodeType, assert_valid
from .netlist import Gate, Netlist

#: Multiplier operand widths are capped to keep the gate count O(cap^2).
MUL_WIDTH_CAP = 16


def elaborate(graph: CircuitGraph, check: bool = True) -> Netlist:
    """Lower ``graph`` to a gate netlist (the "GTECH" step of synthesis).

    ``check`` audits both ends: the graph's validity before lowering
    and the netlist's structure (:meth:`Netlist.check`) after.
    """
    if check:
        assert_valid(graph)
    netlist = _Elaborator(graph).run()
    if check:
        netlist.check()
    return netlist


class _Elaborator:
    """Per-node lowering context.

    ``run`` performs a full elaboration; the individual ``lower_*``
    methods are also driven one node at a time by the incremental engine
    (:mod:`repro.incr.delta`), which supplies a pre-populated ``bits``
    map for the untouched region and re-lowers only the dirty cone.
    """

    def __init__(
        self,
        graph: CircuitGraph,
        netlist: Netlist | None = None,
        bits: dict[int, list[int]] | None = None,
    ):
        self.graph = graph
        self.netlist = netlist if netlist is not None else Netlist(name=graph.name)
        self.netlist.ensure_consts()
        #: node id -> list of bit nets, LSB first.  Never mutated in
        #: place: every lowering assigns a fresh list, so callers may
        #: share bit lists across elaborations.
        self.bits: dict[int, list[int]] = bits if bits is not None else {}

    # ------------------------------------------------------------------
    def run(self) -> Netlist:
        g, nl = self.graph, self.netlist

        for node in g.nodes():
            if node.type in (NodeType.IN, NodeType.CONST, NodeType.REG):
                self.lower_source(node.id)

        for node_id in self._comb_topo_order():
            self._lower_comb(node_id)

        # Close register feedback: create the DFF gates now that D exists.
        for reg in g.registers():
            self.lower_reg_dffs(reg)

        for out in g.outputs():
            self.lower_output(out)
        return nl

    # ------------------------------------------------------------------
    def lower_source(self, node_id: int) -> None:
        """Lower an IN / CONST / REG node (REG: Q nets only, no gates)."""
        nl = self.netlist
        node = self.graph.node(node_id)
        if node.type is NodeType.IN:
            self.bits[node_id] = [
                nl.add_input(f"{node.name or 'in'}_{node_id}[{b}]")
                for b in range(node.width)
            ]
        elif node.type is NodeType.CONST:
            value = int(node.params.get("value", 0))
            self.bits[node_id] = [
                nl.const1 if (value >> b) & 1 else nl.const0
                for b in range(node.width)
            ]
        elif node.type is NodeType.REG:
            q_bits = []
            for b in range(node.width):
                q = nl.new_net()
                q_bits.append(q)
                nl.dff_origin[q] = (node_id, b)
            self.bits[node_id] = q_bits
        else:  # pragma: no cover - defensive
            raise ValueError(f"node {node_id} ({node.type}) is not a source")

    def lower_reg_dffs(self, reg: int) -> None:
        """Create the DFF gates of one register (Q nets must exist)."""
        g, nl = self.graph, self.netlist
        node = g.node(reg)
        d_bits = self._operand(g.filled_parents(reg)[0], node.width)
        for d, q in zip(d_bits, self.bits[reg]):
            # DFF gates are created with explicit (pre-allocated) outputs.
            nl.gates.append(Gate("DFF", (d,), q))

    def lower_output(self, out: int) -> None:
        """Wire one OUT node to named primary-output ports."""
        g, nl = self.graph, self.netlist
        node = g.node(out)
        src = self._operand(g.filled_parents(out)[0], node.width)
        for b, net in enumerate(src):
            nl.add_output(f"{node.name or 'out'}_{out}[{b}]", net)

    # ------------------------------------------------------------------
    def _comb_topo_order(self) -> list[int]:
        """Topological order of combinational operator nodes.

        Sources (IN/CONST/REG) are already lowered; OUT and REG sinks are
        handled separately.  Validity guarantees acyclicity here.
        """
        g = self.graph
        comb = [
            n.id
            for n in g.nodes()
            if n.type not in (NodeType.IN, NodeType.CONST, NodeType.REG,
                              NodeType.OUT)
        ]
        comb_set = set(comb)
        indegree = {v: 0 for v in comb}
        children: dict[int, list[int]] = {v: [] for v in comb}
        for v in comb:
            for p in self.graph.filled_parents(v):
                if p in comb_set:
                    indegree[v] += 1
                    children[p].append(v)
        order: list[int] = []
        frontier = [v for v in comb if indegree[v] == 0]
        while frontier:
            v = frontier.pop()
            order.append(v)
            for c in children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    frontier.append(c)
        if len(order) != len(comb):
            raise ValueError("combinational subgraph is cyclic")
        return order

    def _operand(self, node_id: int, width: int) -> list[int]:
        """Bits of ``node_id`` adapted (zero-extend / truncate) to ``width``."""
        bits = self.bits[node_id]
        if len(bits) >= width:
            return bits[:width]
        return bits + [self.netlist.const0] * (width - len(bits))

    # ------------------------------------------------------------------
    def _lower_comb(self, node_id: int) -> None:
        g, nl = self.graph, self.netlist
        node = g.node(node_id)
        parents = g.filled_parents(node_id)
        w = node.width
        t = node.type

        if t is NodeType.NOT:
            a = self._operand(parents[0], w)
            self.bits[node_id] = [nl.add_gate("NOT", bit) for bit in a]
        elif t is NodeType.REDUCE_OR:
            a = self.bits[parents[0]]
            self.bits[node_id] = [self._or_tree(a)]
        elif t is NodeType.SLICE:
            lo = int(node.params.get("lo", 0))
            src = self._operand(parents[0], lo + w)
            self.bits[node_id] = src[lo:lo + w]
        elif t is NodeType.CONCAT:
            hi_bits = self.bits[parents[0]]
            lo_bits = self.bits[parents[1]]
            full = lo_bits + hi_bits
            self.bits[node_id] = (full + [nl.const0] * w)[:w]
        elif t in (NodeType.AND, NodeType.OR, NodeType.XOR):
            a = self._operand(parents[0], w)
            b = self._operand(parents[1], w)
            kind = t.value.upper()
            self.bits[node_id] = [
                nl.add_gate(kind, x, y) for x, y in zip(a, b)
            ]
        elif t is NodeType.ADD:
            a = self._operand(parents[0], w)
            b = self._operand(parents[1], w)
            self.bits[node_id] = self._adder(a, b, carry_in=nl.const0)
        elif t is NodeType.SUB:
            a = self._operand(parents[0], w)
            b = [nl.add_gate("NOT", bit) for bit in self._operand(parents[1], w)]
            self.bits[node_id] = self._adder(a, b, carry_in=nl.const1)
        elif t is NodeType.MUL:
            self.bits[node_id] = self._multiplier(parents[0], parents[1], w)
        elif t is NodeType.EQ:
            wa = g.node(parents[0]).width
            wb = g.node(parents[1]).width
            wide = max(wa, wb)
            a = self._operand(parents[0], wide)
            b = self._operand(parents[1], wide)
            diffs = [nl.add_gate("XOR", x, y) for x, y in zip(a, b)]
            self.bits[node_id] = [nl.add_gate("NOT", self._or_tree(diffs))]
        elif t is NodeType.LT:
            wa = g.node(parents[0]).width
            wb = g.node(parents[1]).width
            wide = max(wa, wb)
            a = self._operand(parents[0], wide)
            b = self._operand(parents[1], wide)
            self.bits[node_id] = [self._borrow(a, b)]
        elif t in (NodeType.SHL, NodeType.SHR):
            self.bits[node_id] = self._shifter(
                parents[0], parents[1], w, left=(t is NodeType.SHL)
            )
        elif t is NodeType.MUX:
            sel = self._or_tree(self.bits[parents[0]])
            a = self._operand(parents[1], w)
            b = self._operand(parents[2], w)
            self.bits[node_id] = [
                nl.add_gate("MUX", sel, x, y) for x, y in zip(a, b)
            ]
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot lower node type {t}")

    # ------------------------------------------------------------------
    # Gate-level building blocks
    # ------------------------------------------------------------------
    def _or_tree(self, bits: list[int]) -> int:
        nl = self.netlist
        if not bits:
            return nl.const0
        while len(bits) > 1:
            nxt = []
            for i in range(0, len(bits) - 1, 2):
                nxt.append(nl.add_gate("OR", bits[i], bits[i + 1]))
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    def _adder(self, a: list[int], b: list[int], carry_in: int) -> list[int]:
        """Ripple-carry adder, result truncated to len(a)."""
        nl = self.netlist
        carry = carry_in
        out = []
        for x, y in zip(a, b):
            axy = nl.add_gate("XOR", x, y)
            out.append(nl.add_gate("XOR", axy, carry))
            gen = nl.add_gate("AND", x, y)
            prop = nl.add_gate("AND", axy, carry)
            carry = nl.add_gate("OR", gen, prop)
        return out

    def _borrow(self, a: list[int], b: list[int]) -> int:
        """Final borrow of a - b, i.e. the unsigned a < b flag."""
        nl = self.netlist
        borrow = nl.const0
        for x, y in zip(a, b):
            nx = nl.add_gate("NOT", x)
            t1 = nl.add_gate("AND", nx, y)
            same = nl.add_gate("NOT", nl.add_gate("XOR", x, y))
            t2 = nl.add_gate("AND", same, borrow)
            borrow = nl.add_gate("OR", t1, t2)
        return borrow

    def _multiplier(self, pa: int, pb: int, w: int) -> list[int]:
        """Shift-and-add array multiplier, truncated to ``w`` bits."""
        nl = self.netlist
        wa = min(self.graph.node(pa).width, MUL_WIDTH_CAP, w)
        wb = min(self.graph.node(pb).width, MUL_WIDTH_CAP, w)
        a = self._operand(pa, wa)
        b = self._operand(pb, wb)
        acc = [nl.const0] * w
        for i, bbit in enumerate(b):
            if i >= w:
                break
            row = [nl.const0] * i
            row += [nl.add_gate("AND", abit, bbit) for abit in a]
            row = (row + [nl.const0] * w)[:w]
            acc = self._adder(acc, row, carry_in=nl.const0)
        return acc

    def _shifter(self, pa: int, pb: int, w: int, left: bool) -> list[int]:
        """Logarithmic barrel shifter by a variable amount."""
        nl = self.netlist
        bits = self._operand(pa, w)
        amount = self.bits[pb]
        stages = max(1, (w - 1).bit_length()) if w > 1 else 1
        for stage in range(min(stages, len(amount))):
            shift = 1 << stage
            sel = amount[stage]
            shifted = []
            for i in range(w):
                src = i - shift if left else i + shift
                shifted.append(bits[src] if 0 <= src < w else nl.const0)
            bits = [
                nl.add_gate("MUX", sel, s, b) for s, b in zip(shifted, bits)
            ]
        # Shift amounts beyond the stage count zero the result.
        extra = amount[min(stages, len(amount)):]
        if extra:
            any_extra = self._or_tree(list(extra))
            bits = [
                nl.add_gate("MUX", any_extra, nl.const0, b) for b in bits
            ]
        return bits
