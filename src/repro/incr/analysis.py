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
analyzer also runs a *delta* mode that replays a candidate's own full
pass against the base state's, recorded round by round.  In round ``r``
the replay re-evaluates only the touched nodes (swap provenance), the
readers of a parent whose value as read differs from the base's, and
the later claimants of a dedup key whose claims changed; every other
node takes the base's round-``r`` value.  Past the base's last round
its last round repeats: the stale-back stop left a fixpoint (a base
that ran out of rounds is run on instead).  Exactness follows by
induction on (round, position): a node that is not re-evaluated reads
the same parent values and sees the same earliest claimant of its key
as in the base's round, so the full pass computes the base's value for
it; a re-evaluated node is computed by the full pass's own rules from
the full pass's own reads.  With the full pass's stale-back stop and
round budget, the replay returns its ``refs``, ``rewired`` and
``rounds`` -- no guard, no fallback.  The differential fuzz suite and
the ``S007`` sanitizer rule check the reports against the full pass.

The full pass stops after a round in which no node read by a consumer
at or before its own evaluation position changed: every read of that
round already saw its final value, so another round would repeat it.
With the sanitizer on, rule ``S009`` runs that skipped round and checks
it changes nothing.
"""

from __future__ import annotations

from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import NamedTuple

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

#: Default round budget of the fixpoint.
_MAX_ROUNDS = 8

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


class _Round(NamedTuple):
    """One round of the base state's full pass, as the replay reads it."""

    #: References after the round.
    refs: list[Ref]
    #: The ``rewired`` set after the round.
    rewired: set[int]
    #: Dedup key -> the nodes that looked it up, in evaluation order.
    owners: dict[tuple, list[int]]
    #: Node -> the ``owners`` list of the key it looked up.
    claims: dict[int, list[int]]
    #: Back-nodes whose reference the round changed.
    changed: tuple[int, ...]


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
        #: Position of every node in ``order``; -1 for IN/CONST/OUT,
        #: whose references never change.
        self._posl = [-1] * self.num_nodes
        for i, v in enumerate(self.order):
            self._posl[v] = i
        # --- delta-mode baseline (captured explicitly per rebase) ---
        #: Delta-mode outcome counters: replays, touched calls answered
        #: by the full pass because a divergence disabled the replay, and
        #: those divergences.
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self.delta_divergences = 0
        #: The base state's full pass, one :class:`_Round` per round;
        #: ``None`` until :meth:`capture_baseline`.
        self._trace: list[_Round] | None = None
        self._b_parents: list[list[int]] = []
        #: The baseline graph's fanout map.
        self._b_children: list[list[int]] = []

    # ------------------------------------------------------------------
    def capture_baseline(
        self, graph: CircuitGraph, report: RedundancyReport | None = None
    ) -> RedundancyReport:
        """Run the full pass over ``graph`` (the analyzer's construction
        graph), record it round by round as the delta-mode baseline, and
        return its report.

        Each round keeps its references, ``rewired`` set, dedup claims
        and changed back-nodes (:class:`_Round`).  Subsequent
        :meth:`analyze` calls with ``touched`` replay each candidate's
        own full pass against this trajectory, re-evaluating only the
        nodes whose inputs or dedup lookups can differ from the base's
        in that round.  ``report``, when given, must be that pass's
        report.
        """
        raw: list[tuple] = []
        base = self.full_analyze(graph, trace=raw)
        if report is not None and (
            report.refs != base.refs or report.rewired != base.rewired
        ):
            raise ValueError("report is not the full analysis of graph")
        self._trace = []
        self._b_parents = graph.filled_rows()
        self._b_children = graph.child_map()
        self._record(raw)
        return base

    def _record(self, raw: list[tuple]) -> None:
        """Append ``_fixpoint`` trace entries to the baseline trajectory."""
        trace = self._trace
        back = self._back
        for refs, rewired, claims in raw:
            before = trace[-1].refs if trace else self.init_refs
            owners: dict[tuple, list[int]] = {}
            for v, key in claims.items():
                owners.setdefault(key, []).append(v)
            changed = tuple(v for v in back if refs[v] != before[v])
            trace.append(_Round(
                refs, rewired, owners,
                {v: owners[key] for v, key in claims.items()}, changed,
            ))

    def _round_past_trace(self) -> _Round:
        """The base pass's round after its last recorded one.

        A base pass that stopped on the stale-back rule (its last round
        changed no back-node) is a fixpoint: the next round repeats the
        last one, reads and claims included.  One that ran out of rounds
        is run for one more round.
        """
        last = self._trace[-1]
        if not last.changed:
            return last
        raw: list[tuple] = []
        self._fixpoint(self._b_parents, list(last.refs), set(last.rewired),
                       self._order_static, 1, (), raw)
        self._record(raw)
        return self._trace[-1]

    # ------------------------------------------------------------------
    def analyze(
        self,
        graph: CircuitGraph,
        max_rounds: int = _MAX_ROUNDS,
        touched: Iterable[int] | None = None,
    ) -> RedundancyReport:
        """Fixpoint constant/alias/duplicate/dead analysis of ``graph``.

        ``touched`` (optional) names the nodes whose parents differ from
        the analyzer's construction graph.  With a captured baseline the
        analysis then runs in delta mode, replaying the full pass
        against the base's trajectory (:meth:`_delta_analyze`); its
        report equals :meth:`full_analyze`'s with the same ``touched``.
        Without a baseline, ``touched`` still spares the full pass a
        whole-graph scan for its early stop.
        """
        # Bulk read-only wiring snapshot: memoized on the graph (and for
        # copy-on-write views derived from the base's snapshot), so one
        # candidate evaluation no longer pays num_nodes method calls.
        parents = graph.filled_rows()
        if touched is not None and self._trace is not None:
            try:
                report = self._delta_analyze(parents, touched, max_rounds)
            except Exception:
                # A delta-path bug must never sink the search: record
                # the divergence, flip to the full path for good (the
                # driver surfaces both via OptimizationReport).
                self.delta_divergences += 1
                self._trace = None
            else:
                self.delta_hits += 1
                sanitizer = _current_sanitizer()
                if sanitizer is not None:
                    # S007: delta-mode report vs the full fixpoint.
                    sanitizer.check_analysis(self, graph, touched, report)
                return report
        if touched is not None and self.delta_divergences:
            self.delta_fallbacks += 1
        return self.full_analyze(graph, max_rounds=max_rounds,
                                 touched=touched, parents=parents)

    def full_analyze(
        self,
        graph: CircuitGraph,
        max_rounds: int = _MAX_ROUNDS,
        touched: Iterable[int] | None = None,
        parents: list[list[int]] | None = None,
        trace: list[tuple] | None = None,
    ) -> RedundancyReport:
        """The full (non-delta) fixpoint over every node.

        ``touched`` names the nodes whose parents may differ from the
        construction graph; without it the early-stop set is re-derived
        from every edge.  ``trace`` receives the rounds (see
        :meth:`_fixpoint`).
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
            parents, refs, rewired, self._order_static, max_rounds, back,
            trace,
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

    def _delta_analyze(
        self,
        parents: list[list[int]],
        touched: Iterable[int],
        max_rounds: int,
    ) -> RedundancyReport:
        """The candidate's full pass, replayed against the base's.

        Round ``r`` re-evaluates, in position order, the touched nodes,
        the readers of a parent whose value as read differs from the
        base's (this round's value for an earlier parent, the previous
        round's for a same-or-later one) and the later claimants of a
        dedup key whose claims changed; every other node takes the
        base's round-``r`` value.  The rule dispatch is a copy of
        :meth:`_fixpoint`'s reading parent values from ``vals``; a
        lookup resolves to the earliest of this round's re-evaluated
        claimants and the base's claimants that were not re-evaluated.
        The stale-back stop uses the full pass's ``back`` set, so the
        replay returns its ``refs``, ``rewired`` and ``rounds``.
        """
        trace = self._trace
        posl = self._posl
        order = self._order_static
        types, widths = self.types, self.widths
        children = self._b_children
        back = self._back
        touched_pos: list[int] = []
        # Back-nodes of the candidate's full pass missing from ``back``.
        extra: set[int] = set()
        for v in touched:
            q = posl[v]
            if q >= 0:
                touched_pos.append(q)
                for p in parents[v]:
                    if posl[p] >= q and p not in back:
                        extra.add(p)
        prev = self.init_refs
        prev_diff: set[int] = set()
        carry: list[int] = []
        for r in range(1, max_rounds + 1):
            base = (trace[r - 1] if r <= len(trace)
                    else self._round_past_trace())
            b_refs, b_rewired = base.refs, base.rewired
            b_owners, b_claims = base.owners, base.claims
            cur = list(b_refs)
            diff: set[int] = set()
            flips: set[int] = set()
            done: set[int] = set()
            # key -> (position, ref) of this round's first re-evaluated
            # claimant that found no earlier claimant.
            claimed: dict[tuple, tuple[int, Ref]] = {}
            heap = touched_pos + carry
            heapify(heap)
            carry = []
            while heap:
                q = heappop(heap)
                if q in done:
                    continue
                done.add(q)
                v, code, w, mask, commutative_v, sig_v, rewire = order[q]
                pv = parents[v]
                vals = [prev[p] if posl[p] >= q else cur[p] for p in pv]
                ref = None

                if code == _K_REG:
                    if pv:
                        d = vals[0]
                        if d[0] == "c":
                            ref = ("c", d[1] & mask)
                        elif d[1] == v:
                            ref = ("c", 0)
                elif code == _K_MUX:
                    sel = vals[0]
                    a = vals[1]
                    b = vals[2]
                    if sel[0] == "c":
                        if a[0] == "c" and b[0] == "c":
                            ref = ("c",
                                   (a[1] if sel[1] != 0 else b[1]) & mask)
                        else:
                            ref = _trunc(a if sel[1] != 0 else b, w)
                    elif a == b:
                        ref = _trunc(a, w)
                elif code == _K_UNARY:
                    a = vals[0]
                    if a[0] == "c":
                        ref = ("c", self._fold(v, types[v], w,
                                               [a[1]], None) & mask)
                elif code == _K_WIRE:
                    consts = [c[1] for c in vals if c[0] == "c"]
                    if len(consts) == len(pv):
                        pwidths = [widths[p] for p in pv]
                        ref = ("c", self._fold(v, types[v], w,
                                               consts, pwidths) & mask)
                else:
                    a = vals[0]
                    b = vals[1]
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

                owners = None
                if ref is None:
                    ref = ("n", v, w)
                    canon = tuple(vals)
                    if commutative_v:
                        canon = tuple(sorted(canon))
                    key = (sig_v, canon)
                    prior = claimed.get(key) if claimed else None
                    owners = b_owners.get(key)
                    for u in owners or ():
                        pu = posl[u]
                        if pu >= q:
                            break
                        if pu not in done:
                            if prior is None or pu < prior[0]:
                                prior = (pu, ("n", u, widths[u]))
                            break
                    if prior is not None:
                        ref = _trunc(prior[1], w)
                    else:
                        claimed[key] = (q, ref)
                b_own = b_claims.get(v)
                if owners is not b_own:
                    # v's claim differs from its base claim: the later
                    # base claimants of the key it left and of the key
                    # it joined may resolve otherwise.
                    for own in (owners, b_own):
                        for u in own or ():
                            if posl[u] > q:
                                heappush(heap, posl[u])

                if ref != b_refs[v]:
                    cur[v] = ref
                    diff.add(v)
                    for c in children[v]:
                        pc = posl[c]
                        if pc > q:
                            heappush(heap, pc)
                        elif pc >= 0:
                            carry.append(pc)
                if rewire != (v in b_rewired):
                    flips.add(v)
            # The full pass's stop: did a node of its ``back`` change?
            # Outside these candidates cur and prev both hold the base's
            # values, which changed at no back-node outside base.changed.
            stale = any(
                cur[v] != prev[v] and (v in back or v in extra)
                for v in chain(base.changed, extra, diff, prev_diff)
            )
            if not stale or r == max_rounds:
                break
            prev, prev_diff = cur, diff
        return self._report(parents, cur, b_rewired ^ flips, r)

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
        trace: list[tuple] | None = None,
    ) -> tuple[int, bool]:
        """Run rule rounds over ``order`` until stable; mutates
        ``refs`` / ``rewired`` in place, returns ``(rounds, early)``.

        The pass stops after any round in which no node of ``back``
        (those read by a consumer at or before their own position)
        changed its reference: every read of that round then already
        saw its final value, so the next round would recompute it
        unchanged.  ``early`` says the last round changed something, so
        that confirming round was skipped.  ``trace``, when given,
        receives one ``(refs, rewired, claims)`` entry per round: copies
        of the state after it and the dedup key each node looked up.
        """
        types, widths = self.types, self.widths
        rounds = 0
        claims: dict[int, tuple] | None = None
        for rounds in range(1, max_rounds + 1):
            changed = False
            stale = False
            seen: dict[tuple, Ref] = {}
            if trace is not None:
                claims = {}
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
                    if claims is not None:
                        claims[v] = key

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
            if trace is not None:
                trace.append((list(refs), set(rewired), claims))
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
    graph: CircuitGraph, max_rounds: int = _MAX_ROUNDS
) -> RedundancyReport:
    """One-shot convenience wrapper around :class:`RedundancyAnalyzer`."""
    return RedundancyAnalyzer(graph).analyze(graph, max_rounds=max_rounds)
