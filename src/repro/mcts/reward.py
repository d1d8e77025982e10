"""Reward models for the MCTS search: exact synthesis PCS or a learned
discriminator approximation.

The paper's reward is the post-synthesis circuit size (PCS): post-
synthesis area divided by the pre-synthesis node count, computed on the
whole design state (each MCTS state is a full adjacency matrix).  A
larger PCS means less logic was optimized away, i.e. less redundancy.
Because calling synthesis inside the search loop is slow, the paper
trains a discriminator to approximate PCS; both options are provided
here behind one callable protocol: ``reward(graph, cone) -> float``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..ir import CircuitGraph, NUM_TYPES, NodeType
from ..synth import synthesize
from ..synth.elaborate import elaborate
from ..synth.simulate import BitParallelSimulator, packed_stimulus_word
from .cones import Cone, cone_subcircuit, driving_cone


class SynthesisReward:
    """Exact full-design PCS via the synthesis substrate (slow path)."""

    def __init__(self, clock_period: float = 2.0):
        self.clock_period = clock_period
        self.calls = 0
        # A caller may pass one instance as the ``reward_fn`` of
        # searches on several threads; the lock keeps the call counter
        # exact.
        self._lock = threading.Lock()

    def __call__(self, graph: CircuitGraph, cone: Cone | None = None) -> float:
        with self._lock:
            self.calls += 1
        # PCS is area / nodes; the STA pass contributes nothing to it.
        result = synthesize(
            graph, clock_period=self.clock_period, check=False,
            run_timing=False,
        )
        return result.pcs


# ---------------------------------------------------------------------------
# Batched functional evaluation of candidate cone states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeSignature:
    """Packed simulation response of one candidate's driving cone.

    ``words[b]`` holds bit ``b`` of the observed register across all
    stimulus cycles (LSB = cycle 0).  Equal signatures mean the two
    candidates' cones computed the same function on the shared stimulus.
    """

    register: int
    words: tuple[int, ...]
    num_cycles: int


class ConeBatchEvaluator:
    """Simulate register cones against one shared packed stimulus.

    Each call lowers ``register``'s driving-cone sub-circuit
    (:func:`~repro.mcts.cones.cone_subcircuit`) with a fresh
    ``elaborate`` and runs it on the bit-parallel simulator
    (:class:`repro.synth.simulate.BitParallelSimulator`).  Stimulus
    words are packed *once per boundary signal* and reused across every
    call: boundary nodes keep their original-graph ids in the
    sub-circuit port names, so the same net sees the same word in every
    candidate state and every cone of one run.

    Signatures answer "do these states compute the same function": the
    per-acceptance cone-function diagnostic, the optional
    ``require_functional_equivalence`` hard gate of the search, and the
    ``cone.batch_eval`` microbenchmark kernel in :mod:`repro.bench`.
    """

    def __init__(self, num_cycles: int = 64, seed: int = 0):
        if not 1 <= num_cycles:
            raise ValueError("num_cycles must be positive")
        self.num_cycles = num_cycles
        self.seed = seed
        self._words: dict[tuple[str, int], int] = {}

    # -- shared packed stimulus -----------------------------------------
    def _word_for(self, marker: str, bit: int) -> int:
        key = (marker, bit)
        word = self._words.get(key)
        if word is None:
            word = packed_stimulus_word(
                self.seed, marker, self.num_cycles, salt=bit
            )
            self._words[key] = word
        return word

    # -- evaluation ------------------------------------------------------
    def signature(self, graph: CircuitGraph, register: int) -> ConeSignature:
        """Simulate ``register``'s driving cone in ``graph``."""
        sub = cone_subcircuit(graph, driving_cone(graph, register))
        simulator = BitParallelSimulator(elaborate(sub, check=False))
        inputs = {}
        for name, net in simulator.netlist.primary_inputs:
            marker, rest = name.rsplit("_", 1)
            bit = int(rest[rest.index("[") + 1:-1])
            inputs[net] = self._word_for(marker, bit)
        out_words = simulator.run_packed(inputs, self.num_cycles)
        by_bit = sorted(
            (int(name[name.index("[") + 1:-1]), word)
            for name, word in out_words.items()
        )
        return ConeSignature(
            register=register,
            words=tuple(word for _, word in by_bit),
            num_cycles=self.num_cycles,
        )

    def evaluate(
        self, graphs: list[CircuitGraph], register: int
    ) -> list[ConeSignature]:
        """Signatures for a batch of candidate states of one register."""
        return [self.signature(graph, register) for graph in graphs]


def graph_features(graph: CircuitGraph) -> np.ndarray:
    """Global feature vector approximating what synthesis will preserve.

    Captures the drivers of PCS: operator mix, structural duplication
    (identical next-state logic merges), constant saturation, register
    fanout, and how much of the graph is backward-reachable from the
    primary outputs (dead logic is removed wholesale).
    """
    n = graph.num_nodes
    type_hist = np.zeros(NUM_TYPES)
    widths = np.zeros(n)
    parent_sigs: set[tuple] = set()
    self_loops = 0
    for node in graph.nodes():
        type_hist[_type_idx(graph, node.id)] += 1
        widths[node.id] = node.width
        parents = tuple(sorted(graph.filled_parents(node.id)))
        parent_sigs.add((node.type.value, parents))
        if node.id in parents:
            self_loops += 1

    # Backward reachability from outputs (what DCE will keep).
    live: set[int] = set()
    stack = list(graph.outputs())
    while stack:
        v = stack.pop()
        if v in live:
            continue
        live.add(v)
        stack.extend(graph.filled_parents(v))
    regs = graph.registers()
    live_regs = sum(1 for r in regs if r in live)
    reg_fanout = [len(graph.children(r)) for r in regs]

    # Constant-fed fraction: nodes whose parents are all constants fold.
    const_fed = 0
    for node in graph.nodes():
        parents = graph.filled_parents(node.id)
        if parents and all(
            graph.node(p).type is NodeType.CONST for p in parents
        ):
            const_fed += 1

    feats = np.concatenate([
        [n, graph.num_edges / max(n, 1)],
        [len(live) / max(n, 1)],
        [live_regs / max(len(regs), 1) if regs else 1.0],
        [np.mean(reg_fanout) if reg_fanout else 0.0],
        [len(parent_sigs) / max(n, 1)],          # structural diversity
        [const_fed / max(n, 1)],
        [self_loops / max(n, 1)],
        [np.mean(widths), np.max(widths, initial=1.0)],
        type_hist / max(n, 1),
    ])
    return feats


def cone_features(graph: CircuitGraph, cone: Cone) -> np.ndarray:
    """Feature vector describing a register's driving cone (local view)."""
    interior = cone.interior
    nodes = [cone.register, *interior]
    type_hist = np.zeros(NUM_TYPES)
    widths = []
    parent_sigs: set[tuple] = set()
    num_edges = 0
    self_loops = 0
    for v in nodes:
        node = graph.node(v)
        type_hist[_type_idx(graph, v)] += 1
        widths.append(node.width)
        parents = tuple(sorted(graph.filled_parents(v)))
        parent_sigs.add((node.type.value, parents))
        num_edges += len(parents)
        if v in parents:
            self_loops += 1

    size = len(nodes)
    depth = _cone_depth(graph, cone)
    const_boundary = sum(
        1 for v in cone.boundary if graph.node(v).type is NodeType.CONST
    )
    feats = np.concatenate([
        [size, len(cone.boundary), num_edges / max(size, 1)],
        [depth, self_loops / max(size, 1)],
        [len(parent_sigs) / max(size, 1)],
        [const_boundary / max(len(cone.boundary), 1)],
        [np.mean(widths), np.max(widths)],
        type_hist / max(size, 1),
    ])
    return feats


def _type_idx(graph: CircuitGraph, node_id: int) -> int:
    from ..ir import type_index

    return type_index(graph.node(node_id).type)


def _cone_depth(graph: CircuitGraph, cone: Cone) -> int:
    """Longest parent-to-child path length inside the cone interior."""
    inside = set(cone.interior)
    memo: dict[int, int] = {}

    def depth_of(v: int) -> int:
        stack = [(v, 0)]
        while stack:
            node, state = stack.pop()
            if node in memo:
                continue
            parents = [p for p in graph.filled_parents(node) if p in inside]
            if state == 0:
                stack.append((node, 1))
                stack.extend((p, 0) for p in parents if p not in memo)
            else:
                memo[node] = 1 + max((memo[p] for p in parents), default=0)
        return memo[v]

    return max((depth_of(v) for v in [*cone.interior, cone.register]), default=0)


#: Dimension of :func:`cone_features` vectors.
CONE_FEATURE_DIM = 9 + NUM_TYPES

#: Dimension of :func:`graph_features` vectors.
GRAPH_FEATURE_DIM = 10 + NUM_TYPES
