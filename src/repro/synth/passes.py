"""Logic optimization passes: the redundancy-removal engine.

These passes reproduce the behaviour of a commercial synthesis tool that
the paper's redundancy metrics depend on: constant propagation, identity
simplification, structural hashing (common sub-expression merging),
sequential sweeping (constant / stuck registers) and dead-code
elimination.  Registers whose logic is redundant disappear here, which is
exactly what drives the SCPR metric of Phase 3.

All passes share a union-find replacement table over nets; constants are
represented by the netlist's dedicated const0/const1 nets, so "becomes
constant" and "becomes an alias" are the same mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Gate, Netlist


@dataclass
class OptStats:
    rounds: int
    gates_before: int
    gates_after: int
    dffs_before: int
    dffs_after: int


class _Repl:
    """Union-find over nets with path compression."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, net: int) -> int:
        parent = self._parent
        if net not in parent:
            return net  # fast path: most nets are never aliased
        root = net
        while root in parent:
            root = parent[root]
        while net in parent:
            parent[net], net = root, parent[net]
        return root

    def alias(self, net: int, target: int) -> None:
        root_net, root_target = self.find(net), self.find(target)
        if root_net != root_target:
            self._parent[root_net] = root_target


def optimize(
    netlist: Netlist, max_rounds: int = 25, check: bool = True
) -> tuple[Netlist, OptStats]:
    """Run all passes to fixpoint and return the optimized netlist.

    ``check=False`` skips the defensive structural validation of the
    result (callers in verified inner loops, e.g. the MCTS acceptance
    oracle, opt out; the passes themselves are unchanged).
    """
    repl = _Repl()
    gates = list(netlist.gates)
    c0, c1 = netlist.const0, netlist.const1
    stats = OptStats(
        rounds=0,
        gates_before=len(gates),
        gates_after=len(gates),
        dffs_before=sum(1 for g in gates if g.kind == "DFF"),
        dffs_after=0,
    )

    for round_idx in range(max_rounds):
        gates, changed_simplify = _simplify(gates, repl, c0, c1)
        gates, changed_dedupe = _dedupe(gates, repl)
        gates, changed_dce = _dce(gates, repl, netlist.primary_outputs)
        stats.rounds = round_idx + 1
        if not (changed_simplify or changed_dedupe or changed_dce):
            break

    out = Netlist(
        name=netlist.name,
        num_nets=netlist.num_nets,
        gates=gates,
        const0=c0,
        const1=c1,
        primary_inputs=list(netlist.primary_inputs),
        primary_outputs=[
            (name, repl.find(net)) for name, net in netlist.primary_outputs
        ],
    )
    surviving = {g.output for g in gates if g.kind == "DFF"}
    out.dff_origin = {
        q: origin for q, origin in netlist.dff_origin.items() if q in surviving
    }
    stats.gates_after = len(gates)
    stats.dffs_after = len(surviving)
    if check:
        out.check()
    return out, stats


# ---------------------------------------------------------------------------
# Individual passes
# ---------------------------------------------------------------------------


def _simplify(
    gates: list[Gate], repl: _Repl, c0: int, c1: int
) -> tuple[list[Gate], bool]:
    """Constant propagation + identity rules; one sweep."""
    changed = False
    kept: list[Gate] = []
    find = repl.find
    for gate in gates:
        ins = tuple([find(i) for i in gate.inputs])
        out = gate.output
        kind = gate.kind
        target: int | None = None
        new_kind, new_ins = kind, ins

        if kind == "NOT":
            (a,) = ins
            if a == c0:
                target = c1
            elif a == c1:
                target = c0
        elif kind in ("AND", "OR"):
            a, b = ins
            absorbing = c0 if kind == "AND" else c1
            identity = c1 if kind == "AND" else c0
            if a == absorbing or b == absorbing:
                target = absorbing
            elif a == identity:
                target = b
            elif b == identity:
                target = a
            elif a == b:
                target = a
        elif kind == "XOR":
            a, b = ins
            if a == b:
                target = c0
            elif a == c0:
                target = b
            elif b == c0:
                target = a
            elif a == c1:
                new_kind, new_ins = "NOT", (b,)
            elif b == c1:
                new_kind, new_ins = "NOT", (a,)
        elif kind == "MUX":
            s, a, b = ins
            if s == c1:
                target = a
            elif s == c0:
                target = b
            elif a == b:
                target = a
            elif a == c1 and b == c0:
                target = s
            elif a == c0 and b == c1:
                new_kind, new_ins = "NOT", (s,)
            elif a == s:      # MUX(s, s, b) == s OR b ... == s | b? s=1->1, s=0->b
                new_kind, new_ins = "OR", (s, b)
            elif b == s:      # MUX(s, a, s): s=1->a, s=0->0 == s AND a
                new_kind, new_ins = "AND", (s, a)
        elif kind == "DFF":
            (d,) = ins
            if d in (c0, c1):
                # Register with a constant next-state: swept to the
                # constant.  This assumes uninitialised-flop semantics
                # (the register may power up holding its constant), as
                # commercial constant-register sweeping does.  It is not
                # equivalent to a reset-to-0 simulation: a register swept
                # to 1 reads 0 for one cycle there, and a downstream
                # feedback loop can latch that transient forever (q <= 1;
                # r <= r | ~q: raw r is 1 from cycle 1, swept r stays 0).
                # See the ROADMAP item "Decide the register-initialisation
                # semantics".
                target = d
            elif d == repl.find(out):
                # Next state equals current state: the register never
                # toggles from its reset value; swept to constant 0.
                target = c0

        if target is not None:
            repl.alias(out, target)
            changed = True
            continue
        if new_kind != kind or new_ins != gate.inputs:
            changed = changed or new_kind != kind or new_ins != tuple(
                gate.inputs
            )
            kept.append(Gate(new_kind, new_ins, out))
        else:
            kept.append(gate)
    return kept, changed


def _dedupe(gates: list[Gate], repl: _Repl) -> tuple[list[Gate], bool]:
    """Structural hashing: merge gates with identical function and inputs.

    Also collapses double inversion (NOT of NOT).  Includes DFFs, which
    merges registers that share a next-state function.
    """
    changed = False
    seen: dict[tuple, int] = {}
    not_driver: dict[int, int] = {}
    kept: list[Gate] = []
    find = repl.find
    for gate in gates:
        ins = tuple([find(i) for i in gate.inputs])
        kind = gate.kind
        if kind == "NOT" and ins[0] in not_driver:
            repl.alias(gate.output, not_driver[ins[0]])
            changed = True
            continue
        key_ins = tuple(sorted(ins)) if kind in ("AND", "OR", "XOR") else ins
        key = (kind, key_ins)
        if key in seen:
            repl.alias(gate.output, seen[key])
            changed = True
            continue
        seen[key] = gate.output
        if kind == "NOT":
            not_driver[gate.output] = ins[0]
        kept.append(Gate(kind, ins, gate.output) if ins != gate.inputs else gate)
    return kept, changed


def _dce(
    gates: list[Gate], repl: _Repl, primary_outputs: list[tuple[str, int]]
) -> tuple[list[Gate], bool]:
    """Drop gates not reachable backwards from any primary output.

    DFFs participate like any gate: a register observed by nothing (or
    only by dead logic / itself) is removed, which is the second driver of
    the paper's redundancy measurements.
    """
    driver = {g.output: g for g in gates}
    reachable: set[int] = set()
    stack = [repl.find(net) for _, net in primary_outputs]
    while stack:
        net = stack.pop()
        if net in reachable:
            continue
        reachable.add(net)
        gate = driver.get(net)
        if gate is None:
            continue
        for i in gate.inputs:
            stack.append(repl.find(i))
    kept = [g for g in gates if g.output in reachable]
    return kept, len(kept) != len(gates)
