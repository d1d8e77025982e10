"""Output check for generated circuits, run outside the timed region.

Every circuit must pass ``repro.ir.validate``, have no error-severity
``lint_graph`` finding, round-trip through ``generate_verilog`` ->
``parse_verilog`` with equal node and edge counts, and synthesize.  The
synthesis result gives the circuit's SCPR and PCS.  A failure is
recorded with its reason, never raised.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass
class CircuitCheck:
    ok: bool
    reason: str = ""
    scpr: float = 0.0
    pcs: float = 0.0


def check_circuit(graph, clock_period: float) -> CircuitCheck:
    # Imported on first use: the worker times the program's import as
    # part of set-up, after this module is loaded.
    from repro.hdl import generate_verilog, parse_verilog
    from repro.ir import validate
    from repro.lint import lint_graph
    from repro.synth import synthesize

    try:
        report = validate(graph)
        if not report.ok:
            return CircuitCheck(False, f"validate: {report.summary()}")
        errors = lint_graph(graph).errors
        if errors:
            return CircuitCheck(False, f"lint: {errors[0]}")
        parsed = parse_verilog(generate_verilog(graph))
        if (parsed.num_nodes, parsed.num_edges) != (
            graph.num_nodes, graph.num_edges
        ):
            return CircuitCheck(
                False,
                f"verilog round-trip: {graph.num_nodes}/{graph.num_edges} "
                f"-> {parsed.num_nodes}/{parsed.num_edges} nodes/edges",
            )
        result = synthesize(graph, clock_period=clock_period)
    except Exception as exc:  # a failing circuit is counted, not raised
        return CircuitCheck(False, f"{type(exc).__name__}: {exc}")
    return CircuitCheck(True, scpr=float(result.scpr), pcs=float(result.pcs))


def digest(graphs) -> str:
    """Order-sensitive content hash of generated graphs."""
    hasher = hashlib.sha256()
    for graph in graphs:
        hasher.update(
            json.dumps(graph.to_dict(), sort_keys=True).encode()
        )
    return hasher.hexdigest()[:16]
