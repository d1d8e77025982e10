"""Runtime invariant auditor for the incremental machinery (``S0xx``).

The search hot loop of :mod:`repro.mcts` runs entirely on memoized /
incrementally-patched structures: :class:`~repro.ir.GraphView` wiring
memos, the :class:`~repro.mcts.actions.SwapIndex` cone-edge cache,
:class:`~repro.incr.DeltaNetlist` patch lineages, the incremental
reward's area memo and the analyzer's dirty-cone fixpoint.
Each is differentially fuzz-tested offline, but nothing could check the
invariants *in situ* when a real run misbehaves.

This module is that check.  A :class:`Sanitizer` re-derives each
structure from scratch at instrumented checkpoints and raises
:class:`InvariantViolation` -- an exception carrying a
:class:`~repro.lint.core.Diagnostic` with the edit provenance of the
offending state -- on any divergence.  Activation is opt-in and scoped:

* ``REPRO_SANITIZE=1`` (environment) audits every optimization run in
  the process; a comma-separated value (``REPRO_SANITIZE=S001,S003``)
  restricts the checkpoints.  An id outside :data:`SANITIZER_IDS`
  raises ``ValueError`` instead of silently auditing nothing.
* ``MCTSConfig.sanitize`` / ``GenerateRequest.sanitize`` /
  ``repro generate --sanitize`` audit one search / one request.

Internally the active :class:`Sanitizer` rides a :class:`contextvars`
context variable, so searches on different threads sanitize
independently and the default-off cost at each checkpoint is one
context-variable read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .core import ERROR, SANITIZER_SCOPE, Diagnostic, Rule, register

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free annotations only
    from ..incr.delta import DeltaNetlist
    from ..ir.graph import CircuitGraph

#: Sanitizer rules: listed in the catalog for docs/selection; their
#: checks run from instrumented checkpoints, not from lint_graph().
#: S004, S005 and S008 are retired (their structures are gone) and are
#: never reused; the other ids keep their numbers.
SANITIZER_RULES = tuple(register(Rule(
    id=rule_id, title=title, severity=ERROR, scope=SANITIZER_SCOPE,
    description=description,
)) for rule_id, title, description in (
    ("S001", "graphview-memo-coherence",
     "edge_list/child_map/parent_rows/filled_rows memos must match the "
     "materialized wiring."),
    ("S002", "swap-index-coherence",
     "SwapIndex's incrementally maintained cone-local edge list must "
     "match a full edge re-scan."),
    ("S003", "delta-netlist-coherence",
     "DeltaNetlist.materialize() must match a fresh elaborate() of the "
     "same graph (ports, gate counts, gate-kind order, observed "
     "function)."),
    ("S006", "area-memo-coherence",
     "IncrementalReward's (node, operand-widths) area memo must match a "
     "fresh single-node lowering of the candidate wiring."),
    ("S007", "delta-analysis-coherence",
     "RedundancyAnalyzer's dirty-cone delta report must match the full "
     "fixpoint over every node."),
    ("S009", "fixpoint-early-stop",
     "After the full fixpoint stops early, one more rule round must "
     "change no reference and no rewired entry."),
))

#: Every rule id a :class:`Sanitizer` can audit.
SANITIZER_IDS = frozenset(rule.id for rule in SANITIZER_RULES)

#: ``REPRO_SANITIZE`` values that enable every check.
_ENV_ALL = frozenset({"1", "TRUE", "ON", "YES"})


def _known_checks(ids: Iterable[str]) -> frozenset[str]:
    """``ids`` as a set, or ``ValueError`` naming any unknown id -- a
    mistyped or retired id would otherwise audit nothing while the run
    reports sanitizing as on."""
    checks = frozenset(ids)
    unknown = sorted(checks - SANITIZER_IDS)
    if unknown:
        raise ValueError(
            f"unknown sanitizer check(s) {', '.join(unknown)}: expected "
            f"ids from {', '.join(sorted(SANITIZER_IDS))}"
        )
    return checks


class InvariantViolation(RuntimeError):
    """An incremental structure diverged from its from-scratch recompute."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


_ACTIVE: ContextVar["Sanitizer | None"] = ContextVar(
    "repro_sanitizer", default=None
)


def env_sanitize() -> bool:
    """Whether ``REPRO_SANITIZE`` requests auditing (read live)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "off",
    )


def env_checks() -> frozenset[str] | None:
    """Checkpoint subset named by ``REPRO_SANITIZE`` (``None`` = all).

    ``1``/``true``/``on``/``yes`` select every check; anything else must
    be a comma-separated list of :data:`SANITIZER_IDS`.
    """
    parts = [
        part.strip().upper()
        for part in os.environ.get("REPRO_SANITIZE", "").split(",")
        if part.strip()
    ]
    if not parts or (len(parts) == 1 and parts[0] in _ENV_ALL):
        return None
    return _known_checks(parts)


def current_sanitizer() -> "Sanitizer | None":
    """The sanitizer auditing this context, or ``None`` (the fast path)."""
    return _ACTIVE.get()


def is_sanitizing() -> bool:
    return _ACTIVE.get() is not None


@contextmanager
def sanitizing(sanitizer: "Sanitizer | None") -> Iterator["Sanitizer | None"]:
    """Audit everything under this context with ``sanitizer`` (no-op for
    ``None``, so call sites need no branching)."""
    if sanitizer is None:
        yield None
        return
    token = _ACTIVE.set(sanitizer)
    try:
        yield sanitizer
    finally:
        _ACTIVE.reset(token)


def _graph_provenance(graph: "CircuitGraph") -> dict[str, Any]:
    """Edit provenance of a search state, for diagnostics."""
    from ..ir.graph import GraphView

    prov: dict[str, Any] = {
        "graph": graph.name,
        "state": type(graph).__name__,
    }
    if isinstance(graph, GraphView):
        prov["overlay_nodes"] = graph.overlay_nodes()
        prov["pattern_diverged"] = graph._pattern_diverged
    chain: list[list[int]] = []
    node = graph
    for _ in range(32):
        origin = getattr(node, "edit_origin", None)
        if origin is None:
            break
        node, rewired = origin
        chain.append(sorted(rewired))
    if chain:
        prov["edit_chain"] = chain
    return prov


class Sanitizer:
    """Re-derives incremental structures from scratch at checkpoints.

    ``checks`` restricts the audited rule ids (default: all of
    :data:`SANITIZER_IDS`; an unknown id raises ``ValueError``);
    ``num_cycles``/``seed`` parameterize the packed functional
    comparison of S003.  ``self.checks_run`` counts performed audits,
    ``self.violations`` the failures raised.
    """

    def __init__(
        self,
        checks: Iterable[str] | None = None,
        num_cycles: int = 32,
        seed: int = 0,
    ) -> None:
        self.enabled = _known_checks(checks) if checks is not None else None
        self.num_cycles = num_cycles
        self.seed = seed
        self.checks_run = 0
        self.violations = 0

    def wants(self, rule_id: str) -> bool:
        return self.enabled is None or rule_id in self.enabled

    def _fail(
        self,
        rule_id: str,
        message: str,
        nodes: Iterable[int] = (),
        **provenance: Any,
    ) -> None:
        self.violations += 1
        diagnostic = Diagnostic(
            rule=rule_id,
            severity=ERROR,
            message=message,
            nodes=list(nodes),
            provenance=provenance,
        )
        raise InvariantViolation(diagnostic)

    # -- S001 ------------------------------------------------------------
    def check_graph_memos(self, graph: "CircuitGraph") -> None:
        """S001: every *cached* wiring memo matches the materialized rows.

        Only memos that are actually populated are compared -- the
        invariant under audit is "no memo serves a stale view", not
        "every memo is populated".
        """
        if not self.wants("S001"):
            return
        self.checks_run += 1
        rows = [list(graph._row(v)) for v in range(len(graph._nodes))]
        prov = _graph_provenance(graph)

        cached_edges = graph._edge_cache
        if cached_edges is not None:
            fresh_edges = [
                (parent, child)
                for child, slots in enumerate(rows)
                for parent in slots
                if parent is not None
            ]
            if cached_edges != fresh_edges:
                bad = sorted({
                    c for (_, c) in
                    set(cached_edges).symmetric_difference(fresh_edges)
                })
                self._fail(
                    "S001",
                    "edge_list memo diverges from the materialized wiring",
                    nodes=bad[:16], memo="edge_list", **prov,
                )

        memo = graph.__dict__.get("_parent_rows_memo")
        if memo is not None:
            fresh = tuple(tuple(row) for row in rows)
            if memo != fresh:
                bad = [v for v, (a, b) in enumerate(zip(memo, fresh)) if a != b]
                self._fail(
                    "S001",
                    "parent_rows memo diverges from the materialized wiring",
                    nodes=bad[:16], memo="parent_rows", **prov,
                )

        memo = graph.__dict__.get("_filled_rows_memo")
        if memo is not None:
            fresh_filled = [
                [p for p in row if p is not None] for row in rows
            ]
            if list(memo) != fresh_filled:
                bad = [
                    v for v, (a, b) in enumerate(zip(memo, fresh_filled))
                    if list(a) != b
                ]
                self._fail(
                    "S001",
                    "filled_rows memo diverges from the materialized wiring",
                    nodes=bad[:16], memo="filled_rows", **prov,
                )

        memo = graph.__dict__.get("_child_map_memo")
        if memo is not None:
            fresh_map: list[list[int]] = [[] for _ in rows]
            for child, slots in enumerate(rows):
                seen = set()
                for parent in slots:
                    if parent is not None and parent not in seen:
                        fresh_map[parent].append(child)
                        seen.add(parent)
            # Incremental patching may append fanout out of child order;
            # consumers treat the lists as sets, so compare them as such.
            bad = [
                v for v in range(len(rows))
                if sorted(memo[v]) != sorted(fresh_map[v])
            ]
            if bad:
                self._fail(
                    "S001",
                    "child_map memo diverges from the materialized wiring",
                    nodes=bad[:16], memo="child_map", **prov,
                )

    # -- S002 ------------------------------------------------------------
    def check_swap_index(
        self,
        graph: "CircuitGraph",
        cone_set: set[int],
        local: list[tuple[int, int]],
        positions: list[int],
    ) -> None:
        """S002: the maintained cone-local edge list matches a full
        re-scan of the materialized wiring."""
        if not self.wants("S002"):
            return
        self.checks_run += 1
        fresh_edges = [
            (parent, child)
            for child in range(len(graph._nodes))
            for parent in graph._row(child)
            if parent is not None
        ]
        expect_local: list[tuple[int, int]] = []
        expect_pos: list[int] = []
        for pos, edge in enumerate(fresh_edges):
            if edge[0] in cone_set or edge[1] in cone_set:
                expect_local.append(edge)
                expect_pos.append(pos)
        if local != expect_local or positions != expect_pos:
            bad = sorted({
                v for edge in set(local).symmetric_difference(expect_local)
                for v in edge
            })
            self._fail(
                "S002",
                "SwapIndex cone-local edge list diverges from a full "
                f"re-scan ({len(local)} maintained vs "
                f"{len(expect_local)} rescanned edges)",
                nodes=bad[:16], **_graph_provenance(graph),
            )

    # -- S003 ------------------------------------------------------------
    def _stimulus(
        self, names: Iterable[str], num_cycles: int
    ) -> dict[str, int]:
        from ..synth.simulate import packed_stimulus_word

        return {
            name: packed_stimulus_word(self.seed, name, num_cycles)
            for name in names
        }

    def check_delta(self, delta: "DeltaNetlist") -> None:
        """S003: ``materialize()`` equals a fresh ``elaborate()`` of the
        delta's graph -- ports, gate counts, gate-kind order and observed
        function."""
        if not self.wants("S003"):
            return
        self.checks_run += 1
        from ..synth.elaborate import elaborate
        from ..synth.simulate import BitParallelSimulator

        materialized = delta.materialize(check=False)
        fresh = elaborate(delta.graph, check=False)
        prov = _graph_provenance(delta.graph)
        prov["patched_nodes"] = sorted(delta.patched)
        pi_names = [name for name, _ in materialized.primary_inputs]
        po_names = [name for name, _ in materialized.primary_outputs]
        if pi_names != [name for name, _ in fresh.primary_inputs]:
            self._fail(
                "S003", "materialized delta's primary inputs diverge "
                "from a fresh elaboration", **prov,
            )
        if po_names != [name for name, _ in fresh.primary_outputs]:
            self._fail(
                "S003", "materialized delta's primary outputs diverge "
                "from a fresh elaboration", **prov,
            )
        if materialized.gate_counts() != fresh.gate_counts():
            self._fail(
                "S003",
                "materialized delta's gate counts "
                f"{materialized.gate_counts()} diverge from a fresh "
                f"elaboration's {fresh.gate_counts()}", **prov,
            )
        elif ([g.kind for g in materialized.gates]
                != [g.kind for g in fresh.gates]):
            self._fail(
                "S003", "materialized delta's gate order diverges from a "
                "fresh elaboration's", **prov,
            )
        words = self._stimulus(pi_names, self.num_cycles)
        outputs = []
        for netlist in (materialized, fresh):
            sim = BitParallelSimulator(netlist)
            inputs = {
                net: words[name] for name, net in netlist.primary_inputs
            }
            outputs.append(sim.run_packed(inputs, self.num_cycles))
        if outputs[0] != outputs[1]:
            bad = sorted(
                name for name in outputs[0]
                if outputs[0][name] != outputs[1].get(name)
            )
            self._fail(
                "S003",
                "materialized delta computes a different function than a "
                f"fresh elaboration (outputs {bad[:8]} differ)", **prov,
            )

    # -- S006 ------------------------------------------------------------
    def check_area_memo(
        self,
        engine: Any,
        graph: "CircuitGraph",
        overrides: dict[int, float],
    ) -> None:
        """S006: memo-served per-node areas equal a fresh single-node
        lowering of the candidate wiring (same float fold)."""
        if not self.wants("S006"):
            return
        self.checks_run += 1
        from ..incr.reward import _AreaScratch
        from ..synth.elaborate import _Elaborator

        widths = engine._node_widths
        library, strength = engine.library, engine.strength
        for v, served in overrides.items():
            scratch = _AreaScratch()
            parents = graph.filled_parents(v)
            bits = {p: list(range(2, 2 + widths[p])) for p in parents}
            _Elaborator(graph, netlist=scratch, bits=bits)._lower_comb(v)
            fresh = sum(
                library.cell(kind, strength).area for kind in scratch.kinds
            )
            if fresh != served:
                self._fail(
                    "S006",
                    f"area memo serves {served!r} for node {v} where a "
                    f"fresh lowering of its candidate wiring folds to "
                    f"{fresh!r}",
                    nodes=[v], **_graph_provenance(graph),
                )

    # -- S007 ------------------------------------------------------------
    def check_analysis(
        self,
        analyzer: Any,
        graph: "CircuitGraph",
        touched: Iterable[int],
        report: Any,
    ) -> None:
        """S007: the dirty-cone delta report equals the full fixpoint."""
        if not self.wants("S007"):
            return
        self.checks_run += 1
        reference = analyzer.full_analyze(graph)
        mismatches: list[str] = []
        if report.refs != reference.refs:
            mismatches.append("refs")
        if report.kept != reference.kept:
            mismatches.append("kept")
        if report.rewired != reference.rewired:
            mismatches.append("rewired")
        if report.live != reference.live:
            mismatches.append("live")
        if mismatches:
            bad = sorted(
                v for v, (a, b) in enumerate(zip(report.refs, reference.refs))
                if a != b
            )
            prov = _graph_provenance(graph)
            prov["touched"] = sorted(touched)
            self._fail(
                "S007",
                "delta-mode redundancy report diverges from the full "
                f"fixpoint in {', '.join(mismatches)}",
                nodes=bad[:16], **prov,
            )

    # -- S009 ------------------------------------------------------------
    def check_early_stop(
        self,
        analyzer: Any,
        graph: "CircuitGraph",
        parents: list[list[int]],
        refs: list[Any],
        rewired: set[int],
    ) -> None:
        """S009: the round the full fixpoint skipped is a no-op."""
        if not self.wants("S009"):
            return
        self.checks_run += 1
        again_refs = list(refs)
        again_rewired = set(rewired)
        analyzer._fixpoint(parents, again_refs, again_rewired,
                           analyzer._order_static, 1, ())
        bad = [v for v, (a, b) in enumerate(zip(refs, again_refs)) if a != b]
        moved = sorted(rewired ^ again_rewired)
        if bad or moved:
            parts = []
            if bad:
                parts.append(f"{len(bad)} references")
            if moved:
                parts.append(f"{len(moved)} rewired entries")
            self._fail(
                "S009",
                "the full fixpoint stopped early, but one more round "
                f"changes {' and '.join(parts)}",
                nodes=sorted(set(bad) | set(moved))[:16],
                **_graph_provenance(graph),
            )


def from_config(active: bool, seed: int = 0) -> Sanitizer | None:
    """The sanitizer an optimization run should use.

    ``active`` is the per-run opt-in (``MCTSConfig.sanitize``); the
    ``REPRO_SANITIZE`` environment switch turns auditing on globally and
    may narrow the checkpoint set.
    """
    if not active and not env_sanitize():
        return None
    return Sanitizer(checks=env_checks(), seed=seed)
