"""Incremental reward evaluation for the MCTS hot loop.

:class:`IncrementalReward` replaces the per-candidate full
``synthesize()`` call of the exact PCS reward with:

1. exact raw per-node gate areas served from a ``(node, operand
   widths)`` memo -- a node's lowered gate structure depends only on
   its own schema and its ordered operand widths, so a candidate's
   rewired nodes cost a dictionary lookup (first occurrence: one
   single-node scratch lowering), with *no* per-candidate elaboration
   at all, and
2. a word-level redundancy analysis
   (:func:`~repro.incr.analysis.analyze_redundancy`) predicting which
   nodes the gate-level optimizer would remove,

then scores ``surviving raw area / RTL nodes``, calibrated at
:meth:`rebase` so the base state's score equals its exact post-synthesis
PCS.  The per-node area values (and their summation order) are bit-for-
bit those of a :class:`~repro.incr.delta.DeltaNetlist` artifact fold.
The estimate ranks candidate rewrites; acceptance is still gated by an
exact oracle in :func:`repro.mcts.optimize.optimize_registers` --
:class:`DeltaOracle` on the delta substrate, or a fresh ``synthesize()``
on the reference path (``delta=False``).  The full-resynthesis search,
``MCTSConfig.incremental=False``, stays available.
"""

from __future__ import annotations

from itertools import count

from ..ir import CircuitGraph, NodeType
from ..lint.sanitize import current_sanitizer
from ..obs import span
from ..synth.elaborate import elaborate
from ..synth.flow import synthesize
from ..synth.library import DEFAULT_LIBRARY, CellLibrary
from ..synth.netlist import Netlist
from ..synth.passes import optimize as optimize_netlist
from ..synth.timing import total_area
from .analysis import RedundancyAnalyzer, RedundancyReport
from .delta import DeltaNetlist


class _AreaScratch:
    """Netlist stand-in recording only gate *kinds*, in emission order.

    ``_Elaborator`` never reads back the gates it emits while lowering a
    single node, so area queries skip :class:`~repro.synth.netlist.Gate`
    construction entirely; the kind sequence alone reproduces the
    artifact's area fold bit for bit.
    """

    __slots__ = ("kinds", "_net")

    const0 = 0
    const1 = 1

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._net = 2

    def ensure_consts(self) -> None:
        return None

    def add_gate(self, kind: str, *inputs: int) -> int:
        self.kinds.append(kind)
        net = self._net
        self._net += 1
        return net


#: Process-wide rebase generations: a search state's cached pricing
#: (``_reward_delta``) is valid only for the generation it was made in.
_GENERATIONS = count(1)

#: Longest swap-provenance chain followed back to a priced ancestor or
#: the base; a state beyond it is diffed against the base instead.
_MAX_CHAIN = 256

#: (library, strength, node schema, operand widths) -> raw mapped area,
#: shared by every engine in the process behind each engine's own
#: ``(node, operand widths)`` memo: a lowering's gate kinds depend on
#: nothing else, so a schema priced for one design is priced for all.
_SHARED_AREAS: dict[tuple, float] = {}
#: ``_SHARED_AREAS`` is emptied when it reaches this many entries.
_SHARED_AREA_LIMIT = 1 << 16


class IncrementalReward:
    """Delta-driven approximate PCS with the exact reward's protocol.

    Callable as ``reward(graph, cone) -> float`` like every reward in
    :mod:`repro.mcts.reward`.  ``rebase`` anchors the delta lineage (and
    the calibration) on a new base state; calling the reward with a
    graph whose node schema differs from the base rebases automatically,
    so the callable is safe to use standalone.

    ``base_pcs`` is the base state's *exact* PCS (one synthesis per
    rebase, unless the caller passes it; with ``delta`` on, from the
    tracked base elaboration the :class:`DeltaOracle` uses), which the
    MCTS driver reuses as the oracle's reference value instead of
    re-synthesizing.  An accepted oracle candidate's delta carries
    forward as the next base, so a search rebuilds the base elaboration
    once, not once per accepted state.

    ``delta`` is the differential-test switch: ``True`` scores candidates
    with the analyzer's replay of the full pass (baseline trajectory
    captured at each rebase) and pairs the search with a
    :class:`DeltaOracle`; ``False`` keeps the full fixpoint and a
    fresh-synthesis oracle -- the reference path both shortcuts are
    checked against.
    """

    def __init__(
        self,
        clock_period: float = 2.0,
        library: CellLibrary = DEFAULT_LIBRARY,
        strength: int = 1,
        delta: bool = True,
    ):
        self.clock_period = clock_period
        self.library = library
        self.strength = strength
        self.delta = delta
        self.calls = 0
        self.patches = 0
        self.rebases = 0
        #: Delta-analysis outcomes accumulated across rebases (each
        #: rebase builds a fresh analyzer; its counters are absorbed
        #: here before it is replaced).
        self.analysis_delta_hits = 0
        self.analysis_fallbacks = 0
        self.analysis_divergences = 0
        self.base_pcs: float | None = None
        self._base_graph: CircuitGraph | None = None
        self._base: DeltaNetlist | None = None
        #: The last candidate delta the :class:`DeltaOracle` assembled;
        #: a rebase onto that candidate's wiring keeps it as the base.
        self._candidate: DeltaNetlist | None = None
        self._analyzer: RedundancyAnalyzer | None = None
        self._generation = 0
        self._scale = 1.0
        #: node id -> raw mapped area of its lowering in the base state.
        self._base_area: dict[int, float] = {}
        #: (node id, parent-width vector) -> raw mapped area.  A node's
        #: lowered gate structure depends only on its own schema and its
        #: ordered operand widths, so candidate-state areas are served
        #: from this memo without re-elaborating anything.
        self._area_memo: dict[tuple, float] = {}
        self._memo_nodes: list | None = None
        self._node_widths: list[int] = []

    # ------------------------------------------------------------------
    def rebase(self, graph: CircuitGraph, exact_pcs: float | None = None) -> None:
        """Anchor the lineage on ``graph`` and calibrate against exact PCS.

        A no-op when ``graph`` is already the anchored base object (the
        common case when a cone search accepted nothing), so the per-
        rebase ``synthesize()`` is only paid when the state changed.
        Callers that already synthesized this exact graph (the MCTS
        acceptance oracle) pass ``exact_pcs`` to skip the redundant run;
        PCS is clock-period independent (area / nodes), so any
        ``SynthesisReward`` value for the same graph is valid.
        """
        if self._base_graph is graph:
            return
        self.rebases += 1
        with span("incr.rebase", exact=exact_pcs is not None):
            self._rebase(graph, exact_pcs)

    def _rebase(
        self, graph: CircuitGraph, exact_pcs: float | None
    ) -> None:
        self._base_graph = graph
        self._generation = next(_GENERATIONS)
        # The tracked base elaboration is only needed by the
        # DeltaOracle; the scoring path works entirely from the per-node
        # area memo, so it is built lazily.  When the new base is the
        # candidate the oracle just accepted, its delta carries forward
        # instead of a fresh elaboration of the whole design.
        carried, self._candidate = self._candidate, None
        if carried is not None and graph.structural_delta(carried.graph) == []:
            self._base = carried.rebased(graph)
            sanitizer = current_sanitizer()
            if sanitizer is not None:
                # S003: every later oracle call patches from this base;
                # audit it against a fresh elaboration of the new state.
                sanitizer.check_delta(self._base)
        else:
            self._base = None
        if exact_pcs is None and self.delta:
            # The delta oracle's value for its own base, which is
            # bit-identical to synthesize(...).pcs (the differential
            # fuzz asserts it), from the tracked elaboration the oracle
            # builds anyway: no separate elaboration.
            exact_pcs = netlist_pcs(
                DeltaOracle._assemble(self._ensure_base_delta()),
                graph.num_nodes, self.library, self.strength,
            )
        elif exact_pcs is None:
            exact_pcs = synthesize(
                graph, clock_period=self.clock_period, strength=self.strength,
                library=self.library, check=False, run_timing=False,
            ).pcs
        (self.analysis_delta_hits, self.analysis_fallbacks,
         self.analysis_divergences) = self.analysis_counters()
        self._analyzer = RedundancyAnalyzer(graph, share_from=self._analyzer)
        self.base_pcs = exact_pcs
        # The (node, operand widths) -> area memo depends only on the
        # node schema, which is shared by every state of one search run
        # (accepted states are views over the same node storage); it
        # survives rebases and only resets for a genuinely new design.
        if self._memo_nodes is not graph._nodes:
            self._area_memo = {}
            self._memo_nodes = graph._nodes
        self._node_widths = [n.width for n in graph.nodes()]
        dff_area = self.library.cell("DFF", self.strength).area
        comb = self._analyzer._comb
        base_area: dict[int, float] = {}
        for node in graph.nodes():
            if node.id in comb:
                base_area[node.id] = self._rewired_area(graph, node.id)
            elif node.type is NodeType.REG:
                # Identical float fold as summing the artifact's DFF
                # gate areas one by one.
                base_area[node.id] = sum(dff_area for _ in range(node.width))
            else:
                base_area[node.id] = 0.0
        self._base_area = base_area
        if self.delta:
            # Record this base state's full pass round by round;
            # candidate scoring then replays each candidate's pass
            # against it, re-evaluating only the nodes that can differ.
            base_report = self._analyzer.capture_baseline(graph)
        else:
            base_report = self._analyzer.analyze(graph)
        estimate = self._area_of(base_report)
        self._scale = exact_pcs * graph.num_nodes / estimate if estimate else 1.0

    def analysis_counters(self) -> tuple[int, int, int]:
        """(delta hits, fallbacks, divergences) including the live
        analyzer's tallies."""
        hits = self.analysis_delta_hits
        fallbacks = self.analysis_fallbacks
        divergences = self.analysis_divergences
        analyzer = self._analyzer
        if analyzer is not None:
            hits += analyzer.delta_hits
            fallbacks += analyzer.delta_fallbacks
            divergences += analyzer.delta_divergences
        return hits, fallbacks, divergences

    # ------------------------------------------------------------------
    def _area_of(
        self,
        report: RedundancyReport,
        overrides: dict[int, float] | None = None,
    ) -> float:
        """Raw area of the report's surviving nodes.

        Untouched nodes keep their base-state areas; ``overrides``
        carries the (memoized) areas of nodes whose parent widths the
        candidate's rewires changed.  The summation order matches the
        historical delta-artifact path bit for bit.
        """
        base_area = self._base_area
        if not overrides:
            return sum(base_area[v] for v in report.survivors())
        return sum(
            overrides[v] if v in overrides else base_area[v]
            for v in report.survivors()
        )

    def _rewired_area(self, graph: CircuitGraph, v: int) -> float:
        """Raw mapped area of node ``v`` under the candidate's wiring.

        Lowered gate structure is a pure function of (node schema,
        ordered operand widths): operand bits are only ever consumed
        through zero-extension or truncation to static widths, never
        through operand identity.  The memo therefore replaces the
        per-candidate dirty-cone re-elaboration the reward used to pay;
        a miss first asks the process-wide schema memo, so only a schema
        no design has priced yet is lowered.
        """
        widths = self._node_widths
        parents = graph.filled_parents(v)
        key = (v, tuple([widths[p] for p in parents]))
        area = self._area_memo.get(key)
        if area is None:
            library, strength = self.library, self.strength
            shared_key = (library, strength, self._analyzer.static_sig[v],
                          key[1])
            area = _SHARED_AREAS.get(shared_key)
            if area is None:
                from ..synth.elaborate import _Elaborator

                scratch = _AreaScratch()
                bits = {p: list(range(2, 2 + widths[p])) for p in parents}
                _Elaborator(graph, netlist=scratch, bits=bits)._lower_comb(v)
                # Same float fold as summing the real artifact's gate
                # areas.
                area = sum(
                    library.cell(kind, strength).area
                    for kind in scratch.kinds
                )
                if len(_SHARED_AREAS) >= _SHARED_AREA_LIMIT:
                    _SHARED_AREAS.clear()
                _SHARED_AREAS[shared_key] = area
            self._area_memo[key] = area
        return area

    def _ensure_base_delta(self) -> DeltaNetlist:
        """The tracked elaboration of the base, built on first use."""
        if self._base is None:
            self._base = DeltaNetlist.from_graph(self._base_graph, check=False)
        return self._base

    def __call__(
        self, graph: CircuitGraph, cone: object = None
    ) -> float:
        self.calls += 1
        if self._base_graph is None:
            self.rebase(graph)
        if graph is self._base_graph:
            return self.base_pcs
        priced = self._priced(graph)
        if priced is None:
            # Different schema: a new design, re-anchor everything.
            self.rebase(graph)
            return self.base_pcs
        touched, overrides = priced
        if not touched:
            return self.base_pcs
        self.patches += 1
        report = self._analyzer.analyze(graph, touched=touched)
        sanitizer = current_sanitizer()
        if sanitizer is not None and overrides:
            # S006: memo-served areas vs fresh single-node lowerings.
            sanitizer.check_area_memo(self, graph, overrides)
        area = self._area_of(report, overrides)
        return self._scale * area / max(graph.num_nodes, 1)

    def _priced(
        self, graph: CircuitGraph
    ) -> tuple[list[int], dict[int, float]] | None:
        """(touched nodes, area overrides) of ``graph`` against the base.

        Only the rewired nodes' own areas can differ from base (their
        operand widths changed); REG/OUT lowerings are width-static.  A
        swap successor inherits its predecessor's pair -- cached on the
        state under this rebase's generation -- and re-prices only the
        rows rewired since, so one call prices one swap, not the whole
        lineage.  ``None`` when ``graph`` is not derived from the base.
        """
        generation = self._generation
        cached = graph.__dict__.get("_reward_delta")
        if cached is not None and cached[0] == generation:
            return cached[1], cached[2]
        rewired: set[int] = set()
        anchor = None
        node = graph
        for _ in range(_MAX_CHAIN):
            origin = getattr(node, "edit_origin", None)
            if origin is None:
                break
            node, rows = origin
            rewired.update(rows)
            if node is self._base_graph:
                anchor = ((), {})
                break
            entry = node.__dict__.get("_reward_delta")
            if entry is not None and entry[0] == generation:
                anchor = entry[1:]
                break
        if anchor is None:
            # No priced ancestor within reach: diff against the base.
            diff = graph.structural_delta(self._base_graph)
            if diff is None:
                return None
            anchor, rewired = ((), {}), set(diff)
        touched = sorted(rewired.union(anchor[0]))
        overrides = dict(anchor[1])
        comb = self._analyzer._comb
        for v in rewired:
            if v in comb:
                overrides[v] = self._rewired_area(graph, v)
        graph._reward_delta = (generation, touched, overrides)
        return touched, overrides


class DeltaOracle:
    """Exact acceptance oracle rebuilt on the delta substrate.

    Drop-in for :class:`~repro.mcts.reward.SynthesisReward` in the
    acceptance role: instead of re-elaborating the whole candidate
    design, the candidate's netlist is assembled as
    ``base.apply_edit(...).materialize()`` against the incremental
    engine's anchored base -- O(dirty cone) elaboration work -- and only
    the gate-level optimizer runs at full scale.  Because ``_assemble``
    reproduces the fresh-elaboration gate *sequence* (not merely the
    gate population) and the optimizer is deterministic over that
    sequence, the same order-faithful ``total_area`` fold the full
    ``synthesize`` path uses makes the two paths' PCS values
    bit-identical, not merely ulp-close (asserted continuously by the
    differential fuzz tier).

    Candidates whose lineage does not reach the engine's base (schema
    change, severed provenance) fall back to a fresh
    ``elaborate`` -- same optimizer, same area fold.  Any
    unexpected exception on the delta path counts as a divergence and
    flips ``delta_enabled`` off for the rest of the run, so a broken
    shortcut degrades to the reference path instead of corrupting
    acceptance decisions.
    """

    def __init__(
        self,
        engine: IncrementalReward,
        library: CellLibrary = DEFAULT_LIBRARY,
        strength: int = 1,
    ):
        self.engine = engine
        self.library = library
        self.strength = strength
        #: Flipped off permanently (for this oracle) on the first
        #: unexpected delta-path exception.
        self.delta_enabled = True
        self.calls = 0
        self.delta_hits = 0
        self.fallbacks = 0
        self.divergences = 0

    def counters(self) -> tuple[int, int, int]:
        """(delta hits, fallbacks, divergences)."""
        return (self.delta_hits, self.fallbacks, self.divergences)

    # ------------------------------------------------------------------
    def _materialized_delta(self, graph: CircuitGraph) -> Netlist | None:
        """Candidate netlist via the engine's delta lineage, or ``None``
        when the candidate is not patch-reachable from the base."""
        engine = self.engine
        base_graph = engine._base_graph
        if base_graph is None:
            return None
        if graph is base_graph:
            return self._assemble(engine._ensure_base_delta())
        priced = engine._priced(graph)
        if priced is None:
            return None
        delta = engine._ensure_base_delta().apply_edit(graph, priced[0])
        if delta.parent is None:
            return None
        engine._candidate = delta
        return self._assemble(delta)

    @staticmethod
    def _assemble(delta: "DeltaNetlist") -> Netlist:
        """``materialize()`` in fresh-elaboration gate order.

        The optimizer's fixpoint is gate-*order*-sensitive inside
        register feedback (which duplicate survives structural hashing,
        whether a stuck-register fold is discovered), so node-id
        concatenation can optimize to a different gate population than
        the reference path.  Emitting the shared artifacts in exactly
        the order ``elaborate`` would -- comb nodes in the elaborator's
        topological order, then register DFFs, then outputs -- makes
        the gate-kind sequence identical to a fresh elaboration (nets
        differ only by a renumbering the passes are invariant to), so
        the optimized gate *sequence* -- and with it the order-faithful
        ``total_area`` fold -- bit-matches the reference path.
        """
        from ..synth.elaborate import _Elaborator

        graph = delta.graph
        artifacts = delta.artifacts
        nl = Netlist(
            name=delta.name,
            num_nets=delta.num_nets,
            const0=delta.const0,
            const1=delta.const1,
        )
        gates = nl.gates
        for v in sorted(artifacts):
            nl.primary_inputs.extend(artifacts[v].pis)
        for v in _Elaborator(graph)._comb_topo_order():
            gates.extend(artifacts[v].gates)
        for reg in graph.registers():
            art = artifacts[reg]
            gates.extend(art.gates)
            for b, q in enumerate(art.bits):
                nl.dff_origin[q] = (reg, b)
        for out in graph.outputs():
            nl.primary_outputs.extend(artifacts[out].pos)
        return nl

    def __call__(
        self, graph: CircuitGraph, cone: object = None
    ) -> float:
        self.calls += 1
        netlist: Netlist | None = None
        if self.delta_enabled:
            try:
                netlist = self._materialized_delta(graph)
            except Exception:
                # A delta-path bug must never sink acceptance: record
                # the divergence and run the reference path from here on.
                self.divergences += 1
                self.delta_enabled = False
                netlist = None
        if netlist is None:
            self.fallbacks += 1
            netlist = elaborate(graph, check=False)
        else:
            self.delta_hits += 1
        return netlist_pcs(netlist, graph.num_nodes, self.library,
                           self.strength)


def netlist_pcs(netlist: Netlist, nodes: int, library: CellLibrary,
                strength: int) -> float:
    """PCS of an elaborated netlist: the gate-level optimizer, then the
    order-faithful ``total_area`` fold, per RTL node -- what
    ``synthesize(...).pcs`` computes."""
    optimized, _ = optimize_netlist(netlist, check=False)
    area = total_area(optimized, library, strength)
    return area / nodes if nodes else 0.0
