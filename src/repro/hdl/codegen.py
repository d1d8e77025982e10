"""Circuit graph -> synthesizable Verilog subset.

This is one direction of the paper's bijection ``f : D <-> G`` between HDL
code and circuit graphs.  The emitted subset uses only:

* ``module``/``endmodule`` with a ``clk`` port plus the graph's IO ports,
* ``wire``/``reg`` declarations,
* continuous ``assign`` statements over the operator set of
  :class:`~repro.ir.node_types.NodeType`,
* one ``always @(posedge clk)`` block with non-blocking assignments.

Width adaptation relies on standard Verilog assignment semantics
(zero-extend / truncate on assignment).  The only construct needing an
explicit helper is a bit-selection whose range exceeds the driver's width;
those get a ``_pad`` intermediate wire which the parser folds back.
"""

from __future__ import annotations

import re

from ..ir import CircuitGraph, NodeType

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")


def signal_name(graph: CircuitGraph, node_id: int) -> str:
    """Stable, unique Verilog identifier for a node."""
    node = graph.node(node_id)
    if node.name:
        base = _IDENT_RE.sub("_", node.name)
        if base and not base[0].isdigit():
            return f"{base}_n{node_id}"
    return f"n{node_id}"


def _literal(value: int, width: int) -> str:
    return f"{width}'d{value}"


def generate_verilog(graph: CircuitGraph, module_name: str | None = None) -> str:
    """Emit the graph as a Verilog module (the ``f^-1`` direction)."""
    module_name = module_name or _IDENT_RE.sub("_", graph.name) or "design"
    names = {n.id: signal_name(graph, n.id) for n in graph.nodes()}

    in_ports = graph.inputs()
    out_ports = graph.outputs()
    port_list = ["clk"] + [names[i] for i in in_ports + out_ports]

    lines: list[str] = []
    lines.append(f"module {module_name}({', '.join(port_list)});")
    lines.append("  input clk;")
    for i in in_ports:
        w = graph.node(i).width
        rng = f" [{w - 1}:0]" if w > 1 else ""
        lines.append(f"  input{rng} {names[i]};")
    for o in out_ports:
        w = graph.node(o).width
        rng = f" [{w - 1}:0]" if w > 1 else ""
        lines.append(f"  output{rng} {names[o]};")

    # Declarations.
    for node in graph.nodes():
        if node.type in (NodeType.IN, NodeType.OUT):
            continue
        rng = f" [{node.width - 1}:0]" if node.width > 1 else ""
        kind = "reg" if node.type is NodeType.REG else "wire"
        lines.append(f"  {kind}{rng} {names[node.id]};")

    # Combinational assigns (and pad helpers).
    body: list[str] = []
    always: list[str] = []
    for node in graph.nodes():
        nid, t = node.id, node.type
        parents = graph.filled_parents(nid)
        pnames = [names[p] for p in parents]
        target = names[nid]
        if t is NodeType.IN:
            continue
        elif t is NodeType.CONST:
            body.append(
                f"  assign {target} = "
                f"{_literal(node.params.get('value', 0), node.width)};"
            )
        elif t is NodeType.OUT:
            body.append(f"  assign {target} = {pnames[0]};")
        elif t is NodeType.REG:
            always.append(f"    {target} <= {pnames[0]};")
        elif t is NodeType.NOT:
            body.append(f"  assign {target} = ~{pnames[0]};")
        elif t is NodeType.REDUCE_OR:
            body.append(f"  assign {target} = |{pnames[0]};")
        elif t is NodeType.SLICE:
            lo = int(node.params.get("lo", 0))
            hi = lo + node.width - 1
            src_width = graph.node(parents[0]).width
            if hi >= src_width:
                pad = f"{target}_pad"
                rng = f" [{hi}:0]" if hi > 0 else ""
                body.append(f"  wire{rng} {pad};")
                body.append(f"  assign {pad} = {pnames[0]};")
                src = pad
            else:
                src = pnames[0]
            sel = f"[{hi}:{lo}]" if hi != lo else f"[{lo}]"
            body.append(f"  assign {target} = {src}{sel};")
        elif t is NodeType.CONCAT:
            body.append(f"  assign {target} = {{{pnames[0]}, {pnames[1]}}};")
        elif t is NodeType.MUX:
            body.append(
                f"  assign {target} = (|{pnames[0]}) ? {pnames[1]} : {pnames[2]};"
            )
        else:
            op = _BINOP_SYMBOL[t]
            body.append(f"  assign {target} = {pnames[0]} {op} {pnames[1]};")

    lines.extend(body)
    if always:
        lines.append("  always @(posedge clk) begin")
        lines.extend(always)
        lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_BINOP_SYMBOL = {
    NodeType.ADD: "+",
    NodeType.SUB: "-",
    NodeType.MUL: "*",
    NodeType.AND: "&",
    NodeType.OR: "|",
    NodeType.XOR: "^",
    NodeType.EQ: "==",
    NodeType.LT: "<",
    NodeType.SHL: "<<",
    NodeType.SHR: ">>",
}
