"""Word-level redundancy analysis: which nodes survive synthesis.

The exact reward runs the gate-level optimizer
(:func:`repro.synth.passes.optimize`) on every candidate -- a global
fixpoint over hundreds of gates, the dominant cost of the MCTS reward
path.  This module predicts the optimizer's effect directly on the
*word-level* IR (tens of nodes): constant folding, identity/alias
collapsing, duplicate-structure merging and dead-code elimination are
mirrored with whole-word rules, and the surviving nodes keep the raw
per-node gate areas supplied by a :class:`~repro.incr.delta.DeltaNetlist`.

The result is an estimate, not the oracle: it works at word granularity
(a half-constant word still counts as surviving) and cannot see
bit-level recombination.  The MCTS driver therefore keeps the full
``synthesize()`` PCS as the acceptance oracle; this analysis only has to
*rank* candidate rewrites, which the same redundancy mechanisms dominate.

:class:`RedundancyAnalyzer` precomputes all schema-static per-node data
(types, widths, masks, params, a near-topological evaluation order)
once, so re-analyzing each of a search's candidate states -- same
schema, different wiring -- costs one short fixpoint over the node list.

With a baseline captured (:meth:`RedundancyAnalyzer.capture_baseline`,
done at every :meth:`~repro.incr.reward.IncrementalReward.rebase`), the
analyzer additionally runs a *dirty-cone* delta mode: starting from the
base state's converged references, only the edit's affected cone -- the
touched nodes from swap provenance plus everything their reference
changes reach through fanout edges and duplicate-merge aliasing -- is
re-run through the fixpoint rules; every other node keeps its converged
value.  The delta mode is exact (bit-identical reports to the full
fixpoint, enforced by the differential fuzz suite and the ``S007``
sanitizer rule) because it falls back to the full pass whenever a
precondition it cannot cheaply re-establish is violated: a register's
reference moving, an edit reaching the *witness closure* of a
constant-folded or aliased register (where fixpoints are not unique), or
the worklist failing to settle within the round budget.  The witness
closure is what justifies each fold: an absorbing AND/OR/MUL constant,
or a constant MUX select plus its chosen branch, stands for its node;
other folded or aliased nodes expand all their parents; self-represented
nodes close the walk, since any change to their inputs wakes them.

The full pass stops after a round in which no node read by a consumer
at or before its own evaluation position changed: every read of that
round already saw its final value, so another round would repeat it.
With the sanitizer on, rule ``S009`` runs that skipped round and checks
it changes nothing.
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from dataclasses import dataclass, field

from ..ir import CircuitGraph, NodeType
from ..lint.sanitize import current_sanitizer as _current_sanitizer
from ..synth.elaborate import MUL_WIDTH_CAP as _MUL_WIDTH_CAP

#: Node "value" references: ``("c", value)`` for a folded constant,
#: ``("n", rep, width)`` for the word computed by node ``rep`` seen
#: through ``width`` significant bits.
Ref = tuple

_COMMUTATIVE = frozenset((
    NodeType.AND, NodeType.OR, NodeType.XOR, NodeType.ADD, NodeType.MUL,
    NodeType.EQ,
))

#: Types whose value reference never changes during the fixpoint.
_FIXED = frozenset((NodeType.IN, NodeType.CONST, NodeType.OUT))


@dataclass
class RedundancyReport:
    """Outcome of one analysis over one graph state."""

    refs: list[Ref]
    #: Nodes whose own gates survive (not folded / aliased / merged).
    kept: set[int]
    #: Kept nodes that degenerate to pure rewiring (zero surviving area).
    rewired: set[int] = field(default_factory=set)
    #: Kept nodes reachable backwards from an output.
    live: set[int] = field(default_factory=set)
    rounds: int = 0

    def survivors(self) -> set[int]:
        """Nodes expected to contribute area after synthesis."""
        return (self.kept & self.live) - self.rewired


def _trunc(ref: Ref, width: int) -> Ref:
    if ref[0] == "c":
        return ("c", ref[1] & ((1 << width) - 1))
    return ("n", ref[1], min(ref[2], width))


#: Integer op codes for the analyze hot loop (enum dispatch is slow).
(_K_AND, _K_OR, _K_XOR, _K_ADD, _K_SUB, _K_MUL, _K_EQ, _K_LT, _K_SHIFT,
 _K_MUX, _K_REG, _K_WIRE, _K_UNARY) = range(13)

_TYPE_CODE = {
    NodeType.AND: _K_AND, NodeType.OR: _K_OR, NodeType.XOR: _K_XOR,
    NodeType.ADD: _K_ADD, NodeType.SUB: _K_SUB, NodeType.MUL: _K_MUL,
    NodeType.EQ: _K_EQ, NodeType.LT: _K_LT,
    NodeType.SHL: _K_SHIFT, NodeType.SHR: _K_SHIFT,
    NodeType.MUX: _K_MUX, NodeType.REG: _K_REG,
    NodeType.SLICE: _K_WIRE, NodeType.CONCAT: _K_WIRE,
    NodeType.NOT: _K_UNARY, NodeType.REDUCE_OR: _K_UNARY,
}


class RedundancyAnalyzer:
    """Schema-bound analyzer, reusable across candidate wirings.

    ``share_from`` reuses a previous analyzer's schema-static tables
    (types, masks, signatures, fold codes, ...) when both graphs share
    the same node storage -- the case for every rebase of one search
    run, whose states are copy-on-write views over one base.  Only the
    wiring-derived evaluation order is recomputed then.
    """

    def __init__(
        self,
        graph: CircuitGraph,
        share_from: "RedundancyAnalyzer | None" = None,
    ):
        nodes = list(graph.nodes())
        self._schema_nodes = graph._nodes
        if (share_from is not None
                and share_from._schema_nodes is graph._nodes):
            self.num_nodes = share_from.num_nodes
            self.types = share_from.types
            self.widths = share_from.widths
            self.masks = share_from.masks
            self.slice_lo = share_from.slice_lo
            self.static_sig = share_from.static_sig
            self.commutative = share_from.commutative
            self.codes = share_from.codes
            self.init_refs = share_from.init_refs
            self.outputs = share_from.outputs
            self.static_rewired = share_from.static_rewired
            self._comb = share_from._comb
            self._keepable = share_from._keepable
        else:
            self.num_nodes = len(nodes)
            self.types = [n.type for n in nodes]
            self.widths = [n.width for n in nodes]
            self.masks = [(1 << n.width) - 1 for n in nodes]
            self.slice_lo = [int(n.params.get("lo", 0)) for n in nodes]
            #: Schema-static dedup-signature prefix per node.
            self.static_sig = [
                (n.type.value, n.width, tuple(sorted(n.params.items())))
                for n in nodes
            ]
            self.commutative = [n.type in _COMMUTATIVE for n in nodes]
            self.codes = [_TYPE_CODE.get(n.type, -1) for n in nodes]
            #: Initial refs: constants fold immediately, everything else
            #: is its own representative.
            self.init_refs = [
                ("c", int(n.params.get("value", 0)) & self.masks[n.id])
                if n.type is NodeType.CONST else ("n", n.id, n.width)
                for n in nodes
            ]
            self.outputs = graph.outputs()
            #: SLICE / CONCAT never emit gates; rewiring is static.
            self.static_rewired = frozenset(
                n.id for n in nodes
                if n.type in (NodeType.SLICE, NodeType.CONCAT)
            )
            self._comb = {
                n.id for n in nodes
                if n.type not in (NodeType.IN, NodeType.CONST, NodeType.REG,
                                  NodeType.OUT)
            }
            #: Nodes that can appear in ``kept`` at all (schema-static).
            self._keepable = [
                n.id for n in nodes if n.type not in _FIXED
            ]
        #: Evaluation order: combinational topo order of the *analyzer's*
        #: graph, then registers.  For candidate states with rewired
        #: edges the order is only near-topological; the fixpoint rounds
        #: absorb the difference.
        from .delta import comb_topo_order

        self.order = [
            *comb_topo_order(graph, self._comb),
            *(n.id for n in nodes if n.type is NodeType.REG),
        ]
        self._pos = {v: i for i, v in enumerate(self.order)}
        #: Per-node static fields pre-zipped in evaluation order, so the
        #: fixpoint loop does one tuple unpack instead of five indexed
        #: list reads per node per round.
        self._order_static = [
            (v, self.codes[v], self.widths[v], self.masks[v],
             self.commutative[v], self.static_sig[v],
             v in self.static_rewired)
            for v in self.order
        ]
        #: Nodes read by a consumer at or before their own position in
        #: this graph's order (registers, mostly): only their changes
        #: can leave a stale read behind in a fixpoint round.
        self._back = frozenset(
            self._back_nodes(graph.filled_rows(), self.order)
        )
        # --- delta-mode baseline (captured explicitly per rebase) ---
        #: Delta-mode outcome counters; ``delta_fallbacks`` is broken
        #: down by reason in ``fallback_reasons``.
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self.delta_divergences = 0
        self.fallback_reasons: dict[str, int] = {}
        self._b_graph: CircuitGraph | None = None
        self._b_refs: list[Ref] = []
        self._b_rewired: set[int] = set()
        #: Converged dedup table: key -> the (unique) self-representative
        #: node owning it in the baseline state.
        self._b_owner: dict[tuple, int] = {}
        #: Owner node -> its baseline dedup key (to detect a dirty owner
        #: whose reference survives an edit but whose key moved).
        self._b_key: dict[int, tuple] = {}
        #: Representative -> baseline nodes whose reference names it
        #: (dedup aliases and identity pass-throughs); these have no
        #: graph edge to their representative, so reference changes must
        #: wake them explicitly.
        self._b_deps: dict[int, list[int]] = {}
        #: The baseline graph's fanout map.
        self._b_children: list[list[int]] = []
        #: The witness closure of every register whose baseline
        #: reference folded or aliased.  Such folds can be
        #: self-sustaining through the register feedback cycle, where
        #: the fixpoint is not unique; edits reaching this set fall back
        #: to the full pass.
        self._b_guard: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    def capture_baseline(
        self, graph: CircuitGraph, report: RedundancyReport
    ) -> None:
        """Snapshot ``report`` (a converged full analysis of ``graph``)
        as the delta-mode baseline.

        Derives the converged dedup ownership table, the alias
        dependents map, and the folded-register guard set; subsequent
        :meth:`analyze` calls with ``touched`` then re-run the fixpoint
        only over the edit's affected cone.

        The guard is the folded registers' witness closure, walked over
        base edges (registers included -- justifications can thread
        through other folded registers): a folded or aliased node
        expands only the parents that justify its reference
        (:meth:`_witness`), and a self-represented node joins without
        being expanded, because any reference change among its inputs
        wakes it in the delta pass, which then falls back.
        """
        refs = report.refs
        parents = graph.filled_rows()
        owner: dict[tuple, int] = {}
        keys: dict[int, tuple] = {}
        deps: dict[int, list[int]] = {}
        widths = self.widths
        folded_regs: list[int] = []
        for v, code, _w, _mask, commutative_v, sig_v, _rw in (
            self._order_static
        ):
            ref = refs[v]
            if ref[0] == "n":
                rep = ref[1]
                if rep == v:
                    canon = tuple([refs[p] for p in parents[v]])
                    if commutative_v:
                        canon = tuple(sorted(canon))
                    key = (sig_v, canon)
                    owner[key] = v
                    keys[v] = key
                else:
                    deps.setdefault(rep, []).append(v)
                    if code == _K_REG:
                        folded_regs.append(v)
            elif code == _K_REG:
                folded_regs.append(v)
        guard: set[int] = set()
        stack = folded_regs
        while stack:
            v = stack.pop()
            if v in guard:
                continue
            guard.add(v)
            ref = refs[v]
            if ref[0] == "n" and ref[1] == v:
                continue
            stack.extend(self._witness(v, parents[v], refs))
        self._b_graph = graph
        self._b_refs = list(refs)
        self._b_rewired = set(report.rewired)
        self._b_owner = owner
        self._b_key = keys
        self._b_deps = deps
        self._b_children = graph.child_map()
        self._b_guard = frozenset(guard)

    def _witness(
        self, v: int, pv: list[int], refs: list[Ref]
    ) -> list[int]:
        """The parents that justify folded or aliased ``v``'s reference.

        An absorbing constant decides an AND/OR/MUL whatever the other
        operand is, and a constant select reads only its chosen branch;
        any other fold or alias rests on all of its parents.
        """
        code = self.codes[v]
        if code == _K_MUX:
            sel = refs[pv[0]]
            if sel[0] == "c":
                return [pv[0], pv[1] if sel[1] != 0 else pv[2]]
        elif code == _K_AND or code == _K_OR or code == _K_MUL:
            mask = self.masks[v]
            absorbing = mask if code == _K_OR else 0
            for p in pv:
                c = refs[p]
                if c[0] == "c" and (
                    c[1] == 0 if code == _K_MUL else c[1] & mask == absorbing
                ):
                    return [p]
        return pv

    # ------------------------------------------------------------------
    def analyze(
        self,
        graph: CircuitGraph,
        max_rounds: int = 8,
        touched: Iterable[int] | None = None,
    ) -> RedundancyReport:
        """Fixpoint constant/alias/duplicate/dead analysis of ``graph``.

        ``touched`` (optional) names the nodes whose parents differ from
        the analyzer's construction graph.  With a captured baseline the
        analysis then runs in delta mode -- the fixpoint re-visits only
        the affected cone and reuses converged baseline values
        everywhere else, falling back to the full pass when a delta
        precondition fails.  Without a baseline, ``touched`` still
        spares the full pass a whole-graph scan for its early stop.
        """
        # Bulk read-only wiring snapshot: memoized on the graph (and for
        # copy-on-write views derived from the base's snapshot), so one
        # candidate evaluation no longer pays num_nodes method calls.
        parents = graph.filled_rows()
        if touched is not None and self._b_graph is not None:
            report = None
            try:
                report = self._delta_analyze(parents, touched, max_rounds)
            except Exception:
                # A delta-path bug must never sink the search: record
                # the divergence, flip to the full path for good (the
                # driver surfaces both via OptimizationReport).
                self.delta_divergences += 1
                self._b_graph = None
            if report is not None:
                self.delta_hits += 1
                sanitizer = _current_sanitizer()
                if sanitizer is not None:
                    # S007: delta-mode report vs the full fixpoint.
                    sanitizer.check_analysis(self, graph, touched, report)
                return report
        return self.full_analyze(graph, max_rounds=max_rounds,
                                 touched=touched, parents=parents)

    def full_analyze(
        self,
        graph: CircuitGraph,
        max_rounds: int = 8,
        touched: Iterable[int] | None = None,
        parents: list[list[int]] | None = None,
    ) -> RedundancyReport:
        """The full (non-delta) fixpoint over every node.

        ``touched`` names the nodes whose parents may differ from the
        construction graph; without it the early-stop set is re-derived
        from every edge.
        """
        if parents is None:
            parents = graph.filled_rows()
        refs = list(self.init_refs)
        rewired: set[int] = set(self.static_rewired)
        if touched is None:
            back = self._back_nodes(parents, self.order)
        else:
            # A superset suffices: an extra node only costs a round.
            back = self._back.union(self._back_nodes(parents, touched))
        rounds, early = self._fixpoint(
            parents, refs, rewired, self._order_static, max_rounds, back
        )
        if early:
            sanitizer = _current_sanitizer()
            if sanitizer is not None:
                # S009: the skipped confirming round must be a no-op.
                sanitizer.check_early_stop(self, graph, parents, refs,
                                           rewired)
        return self._report(parents, refs, rewired, rounds)

    def _back_nodes(
        self, parents: list[list[int]], consumers: Iterable[int]
    ) -> set[int]:
        """Parents of ``consumers`` evaluated at or after the consumer."""
        pos = self._pos
        back: set[int] = set()
        for c in consumers:
            limit = pos.get(c)
            if limit is None:
                continue  # IN/CONST/OUT: never evaluated
            for p in parents[c]:
                q = pos.get(p)
                if q is not None and q >= limit:
                    back.add(p)
        return back

    def _delta_fallback(self, reason: str) -> None:
        self.delta_fallbacks += 1
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + 1
        )
        return None

    def _delta_analyze(
        self,
        parents: list[list[int]],
        touched: Iterable[int],
        max_rounds: int,
    ) -> RedundancyReport | None:
        """Dirty-cone fixpoint from the converged baseline.

        Returns ``None`` (recording the reason) whenever a precondition
        for bit-identity with the full pass cannot be re-established:

        * a touched or woken node lies in the folded-register guard set
          (register-feedback fixpoints are not unique there);
        * a register's reference moves off its baseline value (the
          register boundary must stay pinned for the combinational part
          to have a unique grounded fixpoint);
        * the worklist has not settled within ``max_rounds``.

        Everything else mirrors the full pass exactly: the rule
        dispatch is a copy of :meth:`_fixpoint`'s (the differential
        fuzz suite pins the two against each other), and duplicate
        merging resolves each key to the earliest-in-order claimant
        among this round's dirty claimants and the still-clean baseline
        owner.
        """
        pos = self._pos
        guard = self._b_guard
        dirty: set[int] = set()
        for v in touched:
            if v in guard:
                return self._delta_fallback("folded_reg_cone")
            if v in pos:
                dirty.add(v)
        b_refs = self._b_refs
        refs = list(b_refs)
        rewired = set(self._b_rewired)
        if not dirty:
            # Only IN/CONST/OUT rows changed: references are fixed
            # there, but liveness still follows the new wiring.
            return self._report(parents, refs, rewired, 0)
        types, widths = self.types, self.widths
        codes, masks = self.codes, self.masks
        commutative, static_sig = self.commutative, self.static_sig
        static_rewired = self.static_rewired
        owner_by_key = self._b_owner
        b_key = self._b_key
        b_deps = self._b_deps
        # Fanout through base edges: a node whose own parents changed is
        # touched, hence dirty from the start, so the base map wakes
        # exactly the consumers the candidate's map would.
        children = self._b_children
        rounds = 0
        converged = False
        for rounds in range(1, max_rounds + 1):
            changed = False
            dirty_seen: dict[tuple, tuple[int, Ref]] = {}
            pending: list[int] = []
            for v in sorted(dirty, key=pos.__getitem__):
                code = codes[v]
                w = widths[v]
                mask = masks[v]
                commutative_v = commutative[v]
                sig_v = static_sig[v]
                pv = parents[v]
                ref = None
                rewire = v in static_rewired

                if code == _K_REG:
                    if pv:
                        d = refs[pv[0]]
                        if d[0] == "c":
                            ref = ("c", d[1] & mask)
                        elif d[1] == v:
                            ref = ("c", 0)
                elif code == _K_MUX:
                    sel = refs[pv[0]]
                    a = refs[pv[1]]
                    b = refs[pv[2]]
                    if sel[0] == "c":
                        if a[0] == "c" and b[0] == "c":
                            ref = ("c",
                                   (a[1] if sel[1] != 0 else b[1]) & mask)
                        else:
                            ref = _trunc(a if sel[1] != 0 else b, w)
                    elif a == b:
                        ref = _trunc(a, w)
                elif code == _K_UNARY:
                    a = refs[pv[0]]
                    if a[0] == "c":
                        ref = ("c", self._fold(v, types[v], w,
                                               [a[1]], None) & mask)
                elif code == _K_WIRE:
                    consts = [refs[p][1] for p in pv
                              if refs[p][0] == "c"]
                    if len(consts) == len(pv):
                        pwidths = [widths[p] for p in pv]
                        ref = ("c", self._fold(v, types[v], w,
                                               consts, pwidths) & mask)
                else:
                    a = refs[pv[0]]
                    b = refs[pv[1]]
                    ca = a[1] if a[0] == "c" else None
                    cb = b[1] if b[0] == "c" else None
                    if ca is not None and cb is not None:
                        pwidths = [widths[pv[0]], widths[pv[1]]]
                        ref = ("c", self._fold(v, types[v], w,
                                               [ca, cb], pwidths) & mask)
                    elif code == _K_AND or code == _K_OR:
                        absorbing = 0 if code == _K_AND else mask
                        identity = mask ^ absorbing
                        for c, other in ((ca, b), (cb, a)):
                            if c is None:
                                continue
                            cw = c & mask
                            if cw == absorbing:
                                ref = ("c", absorbing)
                                break
                            if cw == identity:
                                ref = _trunc(other, w)
                                break
                        if ref is None and a == b:
                            ref = _trunc(a, w)
                    elif code == _K_XOR:
                        if a == b:
                            ref = ("c", 0)
                        elif ca is not None and (ca & mask) == 0:
                            ref = _trunc(b, w)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_ADD:
                        if ca is not None and (ca & mask) == 0:
                            ref = _trunc(b, w)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_SUB:
                        if a == b:
                            ref = ("c", 0)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_EQ:
                        if a == b:
                            ref = ("c", 1)
                    elif code == _K_LT:
                        if a == b:
                            ref = ("c", 0)
                    elif code == _K_MUL:
                        for c, other in ((ca, b), (cb, a)):
                            if c is None:
                                continue
                            if c == 0:
                                ref = ("c", 0)
                                break
                            if c == 1:
                                ref = _trunc(other, w)
                                break
                    elif code == _K_SHIFT:
                        if cb is not None:
                            if cb == 0:
                                ref = _trunc(a, w)
                            else:
                                rewire = True

                if ref is None:
                    ref = ("n", v, w)
                    canon = tuple([refs[p] for p in pv])
                    if commutative_v:
                        canon = tuple(sorted(canon))
                    key = (sig_v, canon)
                    # Earliest-in-order claimant wins: dirty claimants
                    # from this round vs the baseline owner (valid only
                    # while it stayed clean -- dirty owners re-claim
                    # through dirty_seen like everyone else).
                    u = owner_by_key.get(key)
                    best: tuple[int, Ref] | None = None
                    if u is not None and u != v and u not in dirty:
                        best = (pos[u], b_refs[u])
                    d_claim = dirty_seen.get(key)
                    if d_claim is not None and (
                        best is None or d_claim[0] < best[0]
                    ):
                        best = d_claim
                    if best is not None and best[0] < pos[v]:
                        ref = _trunc(best[1], w)
                    else:
                        dirty_seen[key] = (pos[v], ref)
                        if (u is not None and u != v and u not in dirty
                                and pos[u] > pos[v]):
                            # A later clean owner is displaced by this
                            # claim; it must re-resolve to an alias.
                            pending.append(u)
                        old_key = b_key.get(v)
                        if old_key is not None and old_key != key:
                            # v still represents itself but under a new
                            # key: baseline aliases keyed on the old one
                            # must re-resolve even though v's reference
                            # (their rule input) did not change.
                            deps = b_deps.get(v)
                            if deps:
                                pending.extend(deps)

                if refs[v] != ref:
                    if code == _K_REG:
                        # The register boundary must stay pinned to the
                        # baseline for the delta pass to share the full
                        # pass's (unique) grounded fixpoint.
                        return self._delta_fallback("reg_ref_changed")
                    refs[v] = ref
                    changed = True
                    pending.extend(children[v])
                    deps = b_deps.get(v)
                    if deps:
                        pending.extend(deps)
                if rewire != (v in rewired):
                    changed = True
                    if rewire:
                        rewired.add(v)
                    else:
                        rewired.discard(v)
            grew = False
            for u in pending:
                if u in guard:
                    return self._delta_fallback("folded_reg_cone")
                if u in pos and u not in dirty:
                    dirty.add(u)
                    grew = True
            if not changed and not grew:
                converged = True
                break
        if not converged:
            return self._delta_fallback("no_convergence")
        return self._report(parents, refs, rewired, rounds)

    def _report(
        self,
        parents: list[list[int]],
        refs: list[Ref],
        rewired: set[int],
        rounds: int,
    ) -> RedundancyReport:
        kept = {
            v for v in self._keepable
            if refs[v][0] == "n" and refs[v][1] == v
        }
        live = self._backward_live(parents, refs)
        return RedundancyReport(
            refs=refs, kept=kept, rewired=rewired, live=live, rounds=rounds,
        )

    def _fixpoint(
        self,
        parents: list[list[int]],
        refs: list[Ref],
        rewired: set[int],
        order: list[tuple],
        max_rounds: int,
        back: Container[int],
    ) -> tuple[int, bool]:
        """Run rule rounds over ``order`` until stable; mutates
        ``refs`` / ``rewired`` in place, returns ``(rounds, early)``.

        The pass stops after any round in which no node of ``back``
        (those read by a consumer at or before their own position)
        changed its reference: every read of that round then already
        saw its final value, so the next round would recompute it
        unchanged.  ``early`` says the last round changed something, so
        that confirming round was skipped.
        """
        types, widths = self.types, self.widths
        rounds = 0
        for rounds in range(1, max_rounds + 1):
            changed = False
            stale = False
            seen: dict[tuple, Ref] = {}
            for v, code, w, mask, commutative_v, sig_v, static_rw in order:
                pv = parents[v]
                ref = None
                rewire = static_rw

                if code == _K_REG:
                    if pv:
                        d = refs[pv[0]]
                        if d[0] == "c":
                            # Constant-register sweep (uninitialised-
                            # flop semantics, as in synth.passes).
                            ref = ("c", d[1] & mask)
                        elif d[1] == v:
                            # Next state == current: stuck at reset 0.
                            ref = ("c", 0)
                elif code == _K_MUX:
                    sel = refs[pv[0]]
                    a = refs[pv[1]]
                    b = refs[pv[2]]
                    if sel[0] == "c":
                        if a[0] == "c" and b[0] == "c":
                            ref = ("c",
                                   (a[1] if sel[1] != 0 else b[1]) & mask)
                        else:
                            ref = _trunc(a if sel[1] != 0 else b, w)
                    elif a == b:
                        ref = _trunc(a, w)
                elif code == _K_UNARY:
                    a = refs[pv[0]]
                    if a[0] == "c":
                        ref = ("c", self._fold(v, types[v], w,
                                               [a[1]], None) & mask)
                elif code == _K_WIRE:
                    consts = [refs[p][1] for p in pv
                              if refs[p][0] == "c"]
                    if len(consts) == len(pv):
                        pwidths = [widths[p] for p in pv]
                        ref = ("c", self._fold(v, types[v], w,
                                               consts, pwidths) & mask)
                else:
                    a = refs[pv[0]]
                    b = refs[pv[1]]
                    ca = a[1] if a[0] == "c" else None
                    cb = b[1] if b[0] == "c" else None
                    if ca is not None and cb is not None:
                        pwidths = [widths[pv[0]], widths[pv[1]]]
                        ref = ("c", self._fold(v, types[v], w,
                                               [ca, cb], pwidths) & mask)
                    elif code == _K_AND or code == _K_OR:
                        absorbing = 0 if code == _K_AND else mask
                        identity = mask ^ absorbing
                        for c, other in ((ca, b), (cb, a)):
                            if c is None:
                                continue
                            cw = c & mask
                            if cw == absorbing:
                                ref = ("c", absorbing)
                                break
                            if cw == identity:
                                ref = _trunc(other, w)
                                break
                        if ref is None and a == b:
                            ref = _trunc(a, w)
                    elif code == _K_XOR:
                        if a == b:
                            ref = ("c", 0)
                        elif ca is not None and (ca & mask) == 0:
                            ref = _trunc(b, w)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_ADD:
                        if ca is not None and (ca & mask) == 0:
                            ref = _trunc(b, w)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_SUB:
                        if a == b:
                            ref = ("c", 0)
                        elif cb is not None and (cb & mask) == 0:
                            ref = _trunc(a, w)
                    elif code == _K_EQ:
                        if a == b:
                            ref = ("c", 1)
                    elif code == _K_LT:
                        if a == b:
                            ref = ("c", 0)
                    elif code == _K_MUL:
                        for c, other in ((ca, b), (cb, a)):
                            if c is None:
                                continue
                            if c == 0:
                                ref = ("c", 0)
                                break
                            if c == 1:
                                ref = _trunc(other, w)
                                break
                    elif code == _K_SHIFT:
                        if cb is not None:
                            if cb == 0:
                                ref = _trunc(a, w)
                            else:
                                # Constant shift: the barrel-shifter
                                # muxes fold to rewiring.
                                rewire = True

                if ref is None:
                    ref = ("n", v, w)
                    # Duplicate merging, registers included (the DFF
                    # next-state merge of repro.synth.passes._dedupe).
                    canon = tuple([refs[p] for p in pv])
                    if commutative_v:
                        canon = tuple(sorted(canon))
                    key = (sig_v, canon)
                    prior = seen.get(key)
                    if prior is not None:
                        ref = _trunc(prior, w)
                    else:
                        seen[key] = ref

                if refs[v] != ref:
                    refs[v] = ref
                    changed = True
                    if v in back:
                        stale = True
                if rewire != (v in rewired):
                    changed = True
                    if rewire:
                        rewired.add(v)
                    else:
                        rewired.discard(v)
            if not stale:
                return rounds, changed
        return rounds, False

    # ------------------------------------------------------------------
    def _fold(
        self,
        v: int,
        t: NodeType,
        w: int,
        consts: list[int],
        pwidths: list[int] | None,
    ) -> int:
        """Evaluate one operator over constant words (elaborate semantics)."""
        mask = (1 << w) - 1

        if t is NodeType.NOT:
            return ~(consts[0] & mask)
        if t is NodeType.REDUCE_OR:
            return 1 if consts[0] != 0 else 0
        if t is NodeType.SLICE:
            return consts[0] >> self.slice_lo[v]
        if t is NodeType.CONCAT:
            return consts[1] | (consts[0] << pwidths[1])
        if t is NodeType.AND:
            return consts[0] & consts[1] & mask
        if t is NodeType.OR:
            return (consts[0] | consts[1]) & mask
        if t is NodeType.XOR:
            return (consts[0] ^ consts[1]) & mask
        if t is NodeType.ADD:
            return (consts[0] & mask) + (consts[1] & mask)
        if t is NodeType.SUB:
            return (consts[0] & mask) - (consts[1] & mask)
        if t is NodeType.MUL:
            wa = min(pwidths[0], _MUL_WIDTH_CAP, w)
            wb = min(pwidths[1], _MUL_WIDTH_CAP, w)
            return (consts[0] & ((1 << wa) - 1)) * (consts[1] & ((1 << wb) - 1))
        if t is NodeType.EQ:
            return 1 if consts[0] == consts[1] else 0
        if t is NodeType.LT:
            return 1 if consts[0] < consts[1] else 0
        if t is NodeType.SHL:
            return (consts[0] & mask) << consts[1] if consts[1] < w else 0
        if t is NodeType.SHR:
            return (consts[0] & mask) >> consts[1] if consts[1] < w else 0
        if t is NodeType.MUX:
            return consts[1] if consts[0] != 0 else consts[2]
        raise ValueError(f"cannot fold node type {t}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _backward_live(
        self, parents: list[list[int]], refs: list[Ref]
    ) -> set[int]:
        """Nodes reachable backwards from the primary outputs.

        Traversal follows *resolved* references: an aliased or merged
        node is transparent (its representative carries the logic), and
        constant parents terminate a branch -- the word-level mirror of
        dead-code elimination, including the sweep of unobserved
        registers.
        """
        live: set[int] = set()
        stack = list(self.outputs)
        while stack:
            v = stack.pop()
            ref = refs[v]
            if ref[0] == "c":
                continue
            rep = ref[1]
            if rep in live:
                continue
            live.add(rep)
            stack.extend(parents[rep])
        return live


def analyze_redundancy(
    graph: CircuitGraph, max_rounds: int = 8
) -> RedundancyReport:
    """One-shot convenience wrapper around :class:`RedundancyAnalyzer`."""
    return RedundancyAnalyzer(graph).analyze(graph, max_rounds=max_rounds)
