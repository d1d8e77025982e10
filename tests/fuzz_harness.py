"""Shared seeded differential-fuzz harness.

One home for the repo's hand-rolled fuzz idioms, previously duplicated
across ``test_incremental.py`` (swap chains, name-keyed packed
simulation), ``test_simulate_equivalence.py`` (random netlists and
stimulus) and ``test_ir_graph.py`` (random slot rewires).  Everything is
seeded through ``numpy.random.default_rng`` -- and stimulus words
through ``packed_stimulus_word`` -- so a failing case reproduces across
processes (builtin ``hash`` is salted per interpreter).

Fuzz tiers (markers registered in ``conftest.py``):

* ``fuzz_smoke`` -- fast differential fuzz that runs in tier-1 by
  default; the gate for the delta-driven reward path.
* ``fuzz_deep`` -- opt-in long fuzz, enabled and scaled by
  ``pytest --fuzz-rounds N`` (skipped when N is 0, the default).
"""

import numpy as np

from repro.ir import CircuitGraph, NodeType
from repro.mcts import apply_swap, sample_swaps
from repro.synth.netlist import Gate, Netlist
from repro.synth.simulate import BitParallelSimulator, packed_stimulus_word

# ---------------------------------------------------------------------------
# Random gate-level netlists (simulator backend differentials).

#: (profile name, gate-kind weights) -- DFF/MUX-heavy graphs stress the
#: feedback fixpoint and the 3-input opcode respectively.
PROFILES = {
    "mixed": {"NOT": 1, "AND": 2, "OR": 2, "XOR": 2, "MUX": 1, "DFF": 1},
    "dff_heavy": {"NOT": 1, "AND": 1, "OR": 1, "XOR": 1, "MUX": 1, "DFF": 4},
    "mux_heavy": {"NOT": 1, "AND": 1, "OR": 1, "XOR": 1, "MUX": 5, "DFF": 1},
    "comb_only": {"NOT": 1, "AND": 2, "OR": 2, "XOR": 2, "MUX": 2, "DFF": 0},
}

_GATE_ARITY = {"NOT": 1, "AND": 2, "OR": 2, "XOR": 2, "MUX": 3}


def random_netlist(
    seed: int,
    num_gates: int = 50,
    num_inputs: int = 5,
    profile: str = "mixed",
) -> Netlist:
    """A random *valid* netlist: every net driven, comb subgraph acyclic.

    Mirrors elaboration's shape: DFF output nets are created up front so
    combinational logic can read them (closing real feedback loops, since
    each D input is later drawn from *any* net, including logic that
    depends on that very DFF), and combinational gates only read
    already-created nets, which keeps the comb subgraph acyclic.
    """
    rng = np.random.default_rng(seed)
    weights = PROFILES[profile]
    kinds = list(weights)
    p = np.array([weights[k] for k in kinds], dtype=float)
    p /= p.sum()
    drawn = [kinds[i] for i in rng.choice(len(kinds), size=num_gates, p=p)]

    netlist = Netlist()
    netlist.ensure_consts()
    inputs = [netlist.add_input(f"in{i}[0]") for i in range(num_inputs)]
    dff_outs = [netlist.new_net() for kind in drawn if kind == "DFF"]
    readable = [netlist.const0, netlist.const1, *inputs, *dff_outs]

    for kind in drawn:
        if kind == "DFF":
            continue
        ins = rng.choice(len(readable), size=_GATE_ARITY[kind], replace=True)
        out = netlist.add_gate(kind, *(readable[i] for i in ins))
        readable.append(out)
    for q in dff_outs:
        d = readable[rng.integers(0, len(readable))]
        netlist.gates.append(Gate("DFF", (d,), q))

    # Observe a random slice of nets plus every register.
    num_outs = int(rng.integers(1, 6))
    for b, i in enumerate(rng.choice(len(readable), size=num_outs)):
        netlist.add_output(f"y[{b}]", readable[i])
    for b, q in enumerate(dff_outs):
        netlist.add_output(f"q[{b}]", q)
    netlist.check()
    return netlist


def random_stimulus(netlist, rng, cycles: int, drop_rate: float = 0.2):
    """Random input values; a fraction of entries is omitted entirely to
    exercise the missing-inputs-default-low contract."""
    nets = [net for _, net in netlist.primary_inputs]
    stimulus = []
    for _ in range(cycles):
        cycle = {}
        for net in nets:
            if rng.random() >= drop_rate:
                cycle[net] = bool(rng.integers(0, 2))
        stimulus.append(cycle)
    return stimulus


def packed_by_name(netlist, cycles=64, seed=0):
    """Name-keyed packed simulation (net ids differ across lowerings)."""
    simulator = BitParallelSimulator(netlist)
    inputs = {
        net: packed_stimulus_word(seed, name, cycles)
        for name, net in netlist.primary_inputs
    }
    return simulator.run_packed(inputs, cycles)


# ---------------------------------------------------------------------------
# Random word-level edit chains (the MCTS move set).

def swap_chain(graph, rng, steps, anchor=None):
    """Successor states reached by ``steps`` random valid swaps.

    Each state carries ``edit_origin`` provenance back to ``graph``, so
    the chain exercises exactly the lineage the incremental engine and
    the delta analysis key off.
    """
    anchor = anchor if anchor is not None else list(range(graph.num_nodes))
    states = []
    state = graph
    attempts = 0
    while len(states) < steps and attempts < steps * 30:
        attempts += 1
        swaps = sample_swaps(state, anchor, rng, 1)
        if not swaps:
            break
        successor = apply_swap(state, swaps[0])
        if successor is not None:
            state = successor
            states.append(state)
    return states


def touched_since(state, base):
    """Union of rewired nodes along ``state``'s provenance back to ``base``."""
    touched = set()
    node = state
    while node is not base:
        node, rewired = node.edit_origin
        touched.update(rewired)
    return sorted(touched)


def random_rewire(state, reference, rng):
    """One random slot rewrite applied to a view chain and a deep copy.

    Returns ``(GraphView(state) with the rewire, reference.copy() with
    the same rewire)`` -- the structural fuzz move backing the MCTS
    search's switch from ``CircuitGraph.copy()`` to copy-on-write views.
    Unlike :func:`swap_chain` this draws *arbitrary* (possibly invalid)
    parents, exercising representation equivalence rather than search
    moves.
    """
    from repro.ir import GraphView

    candidates = [
        (child, slot)
        for child in range(reference.num_nodes)
        for slot, parent in enumerate(reference.parents(child))
        if parent is not None
    ]
    child, slot = candidates[rng.integers(0, len(candidates))]
    parent = int(rng.integers(0, reference.num_nodes))
    view = GraphView(state)
    view.set_parent(child, slot, parent)
    ref = reference.copy()
    ref.set_parent(child, slot, parent)
    return view, ref


# ---------------------------------------------------------------------------
# Random word-level graphs (redundancy-analysis adversaries).

_COMB_OPS = (NodeType.AND, NodeType.OR, NodeType.XOR, NodeType.ADD)


def random_graph(
    seed: int,
    num_nodes: int = 60,
    num_inputs: int = 4,
    p_const: float = 0.1,
    p_reg: float = 0.15,
    width: int = 4,
) -> CircuitGraph:
    """A random analyzable :class:`CircuitGraph` with fold pressure.

    Constants are biased toward 0 / all-ones (identity and absorption
    rules), binary ops occasionally read the same operand twice
    (``x op x`` folds), and register drivers are drawn from the whole
    pool *after* it is built, closing feedback loops through arbitrary
    logic -- the shapes that stress the analyzer's folded-register
    guard.  Combinational nodes only read already-created nodes, so the
    comb subgraph is acyclic by construction.
    """
    rng = np.random.default_rng(seed)
    g = CircuitGraph(name=f"fuzz{seed}")
    pool = [g.add_node(NodeType.IN, width, name=f"in{i}")
            for i in range(num_inputs)]
    regs = []
    while g.num_nodes < num_nodes - 3:
        r = rng.random()
        if r < p_const:
            value = int(rng.integers(0, 1 << width))
            if rng.random() < 0.5:
                value = 0 if rng.random() < 0.5 else (1 << width) - 1
            pool.append(
                g.add_node(NodeType.CONST, width, params={"value": value})
            )
        elif r < p_const + p_reg:
            v = g.add_node(NodeType.REG, width)
            regs.append(v)
            pool.append(v)
        elif r < p_const + p_reg + 0.15:
            v = g.add_node(NodeType.NOT, width)
            g.set_parent(v, 0, int(pool[rng.integers(0, len(pool))]))
            pool.append(v)
        elif r < p_const + p_reg + 0.25:
            v = g.add_node(NodeType.MUX, width)
            for slot in range(3):
                g.set_parent(v, slot, int(pool[rng.integers(0, len(pool))]))
            pool.append(v)
        else:
            op = _COMB_OPS[int(rng.integers(0, len(_COMB_OPS)))]
            a = int(pool[rng.integers(0, len(pool))])
            # Occasional duplicated operand: x op x folds; occasional
            # repeat of a recent pair: structural-dedup pressure.
            b = a if rng.random() < 0.15 else int(
                pool[rng.integers(0, len(pool))]
            )
            v = g.add_node(op, width)
            g.set_parent(v, 0, a)
            g.set_parent(v, 1, b)
            pool.append(v)
    for r_ in regs:
        g.set_parent(r_, 0, int(pool[rng.integers(0, len(pool))]))
    for i in range(3):
        out = g.add_node(NodeType.OUT, width, name=f"y{i}")
        g.set_parent(out, 0, int(pool[rng.integers(0, len(pool))]))
    return g


# ---------------------------------------------------------------------------
# Paper-scale fixtures: 200--600-node designs where the dirty fraction
# of an edit is small and delta-vs-full differentials are interesting.

def _crc32x32() -> CircuitGraph:
    from repro.bench_designs.opencores_like import crc_generator

    return crc_generator(32, 32)          # 260 nodes


def _fifo32x16() -> CircuitGraph:
    from repro.bench_designs.opencores_like import fifo_sync

    return fifo_sync(depth=32, width=16)  # 284 nodes


def _fifo64x16() -> CircuitGraph:
    from repro.bench_designs.opencores_like import fifo_sync

    return fifo_sync(depth=64, width=16)  # 540 nodes


#: name -> zero-argument factory (built lazily; these are not tiny).
PAPER_SCALE = {
    "crc32x32": _crc32x32,
    "fifo32x16": _fifo32x16,
    "fifo64x16": _fifo64x16,
}


# ---------------------------------------------------------------------------
# Generated-population differential: Phase 3 on the circuits users get.


def population_sessions(preset, graphs, **mcts):
    """``(session, reference)``: one fitted model, two Phase-3 paths.

    ``session`` is the ``preset`` at seed 0 with ``mcts`` overrides,
    fitted on ``graphs`` without artifact caching; ``reference`` shares
    its trained diffusion model and reward but runs the ``delta=False``
    reference path.
    """
    import dataclasses

    from repro.api import Session
    from repro.api.presets import resolve_preset

    config = resolve_preset(preset, seed=0, mcts=mcts or None)
    session = Session(config=config, use_cache=False).fit(graphs)
    reference = Session(
        config=dataclasses.replace(
            config, mcts=dataclasses.replace(config.mcts, delta=False)
        ),
        use_cache=False,
    )
    reference.engine.fit(
        graphs, trained=session.engine.trained,
        reward_fn=session.engine._reward_fn,
    )
    return session, reference


def population_differential(session, reference, requests):
    """Run ``requests`` sanitized, unsanitized and on ``reference``.

    Asserts equal graphs and equal SCPR across the three sides for the
    MCTS arm (through ``Session.generate``) and for the random arm
    (``random_search_registers`` on each unoptimized ``g_val``).  A
    sanitized run raises on any sanitizer violation, so completing is
    the zero-violation check.  Returns the
    number of generated circuits compared.
    """
    import dataclasses

    from repro.mcts import random_search_registers
    from repro.synth import synthesize

    period = session.config.mcts.clock_period
    checked = 0
    for request in requests:
        sides = [
            session.generate(dataclasses.replace(request, sanitize=True)),
            session.generate(request),
            reference.generate(request),
        ]
        graphs = [[graph.to_dict() for graph in side.graphs] for side in sides]
        assert graphs[0] == graphs[1] == graphs[2], (
            f"MCTS arm diverged on {request}"
        )
        scprs = [
            [synthesize(graph, clock_period=period).scpr
             for graph in side.graphs]
            for side in sides
        ]
        assert scprs[0] == scprs[1] == scprs[2]

        base = session.config.mcts
        configs = [
            dataclasses.replace(base, sanitize=True),
            base,
            dataclasses.replace(base, delta=False),
        ]
        for record in sides[1].records:
            reports = [
                random_search_registers(
                    record.g_val, reward_fn=session.engine._reward_fn,
                    config=config,
                )
                for config in configs
            ]
            assert reports[0].sanitize_checks > 0
            graphs = [report.graph.to_dict() for report in reports]
            assert graphs[0] == graphs[1] == graphs[2], (
                f"random arm diverged on {record.g_val.name}"
            )
            scprs = [
                synthesize(report.graph, clock_period=period).scpr
                for report in reports
            ]
            assert scprs[0] == scprs[1] == scprs[2]
        checked += len(sides[1].graphs)
    return checked
