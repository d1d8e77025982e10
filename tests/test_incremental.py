"""Tests for the incremental synthesis engine (repro.incr).

The load-bearing guarantees:

* **Differential correctness** -- a :class:`DeltaNetlist` chained
  through N random edits is structurally (gate counts, port order) and
  functionally (packed bit-parallel simulation) identical to a fresh
  full ``elaborate()`` of the edited graph, with the same mapped area.
* **Oracle-gated search** -- the incremental MCTS reward path never
  worsens the exact post-synthesis PCS and honours the functional-
  equivalence hard gate.
* **Speed** -- the incremental reward path is >= 3x faster than the
  full-resynthesis path at smoke scale (the ROADMAP's named 10x
  direction; gated here so reward-path regressions fail tier-1).
"""

import dataclasses
import time

import numpy as np
import pytest
from fuzz_harness import packed_by_name, swap_chain, touched_since

from repro.bench_designs import load_design
from repro.incr import (
    DeltaNetlist,
    DeltaOracle,
    IncrementalReward,
    analyze_redundancy,
)
from repro.incr.analysis import RedundancyAnalyzer
from repro.ir import GraphBuilder, GraphView, NodeType, validate
from repro.mcts import MCTSConfig, all_cones, optimize_registers
from repro.synth import elaborate, synthesize
from repro.synth.timing import total_area

CLOCK = 2.0


def redundant_design():
    """Same shape as the MCTS tests: foldable XOR(a, a) with fanout."""
    b = GraphBuilder("redundant")
    a = b.input("a", 4)
    c = b.input("c", 4)
    r1 = b.reg("r1", 4)
    r2 = b.reg("r2", 4)
    b.drive_reg(r1, b.xor(a, a))
    b.drive_reg(r2, b.and_(a, c))
    b.output("y", b.mux(b.bit(c, 0), r1, r2))
    return b.build()


# ---------------------------------------------------------------------------
class TestDeltaNetlist:
    @pytest.mark.parametrize("design", ["uart_tx", "alu", "gray_counter"])
    def test_differential_fuzz_chained_edits(self, design):
        """Delta after N chained random edits == fresh full elaborate,
        in structure, area and function."""
        graph = load_design(design)
        base = DeltaNetlist.from_graph(graph)
        rng = np.random.default_rng(7)
        delta = base
        for step, state in enumerate(swap_chain(graph, rng, 8)):
            delta = delta.apply_edit(state)
            materialized = delta.materialize(check=True)
            fresh = elaborate(state, check=False)
            # Structure: identical gate mix and port naming.
            assert materialized.gate_counts() == fresh.gate_counts()
            assert ([n for n, _ in materialized.primary_inputs]
                    == [n for n, _ in fresh.primary_inputs])
            assert ([n for n, _ in materialized.primary_outputs]
                    == [n for n, _ in fresh.primary_outputs])
            assert total_area(materialized) == pytest.approx(
                total_area(fresh))
            # Function: bit-identical packed simulation.
            assert packed_by_name(materialized) == packed_by_name(fresh)

    def test_chained_edits_patch_from_their_predecessor(self):
        """Each swap of a chain applied to the previous candidate's delta
        is a one-edit patch off that predecessor, never a fallback to a
        fresh base, and still matches the one-shot flow."""
        graph = load_design("alu")
        rng = np.random.default_rng(5)
        chain = swap_chain(graph, rng, 8)
        assert chain
        delta = DeltaNetlist.from_graph(graph)
        for state in chain:
            nxt = delta.apply_edit(state)
            assert nxt.parent is delta
            materialized = nxt.materialize(check=True)
            fresh = elaborate(state, check=False)
            assert total_area(materialized) == pytest.approx(
                total_area(fresh))
            assert packed_by_name(materialized) == packed_by_name(fresh)
            delta = nxt

    def test_differential_fuzz_from_base_many_seeds(self):
        """One-hop edits from a fixed base (the MCTS access pattern)."""
        graph = load_design("alu")
        base = DeltaNetlist.from_graph(graph)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for state in swap_chain(graph, rng, 3):
                delta = base.apply_edit(state)
                fresh = elaborate(state, check=False)
                materialized = delta.materialize(check=True)
                assert materialized.gate_counts() == fresh.gate_counts()
                assert packed_by_name(materialized) == packed_by_name(fresh)

    def test_structural_sharing_and_patch_locality(self):
        graph = load_design("uart_tx")
        base = DeltaNetlist.from_graph(graph)
        rng = np.random.default_rng(1)
        state = swap_chain(graph, rng, 1)[0]
        delta = base.apply_edit(state)
        assert delta.parent is base
        assert delta.patched  # something was rebuilt ...
        untouched = set(base.artifacts) - set(delta.patched)
        assert untouched  # ... but most of the design was not
        for v in untouched:
            assert delta.artifacts[v] is base.artifacts[v]

    def test_multiwave_passthrough_rebuild_renotifies_consumers(self):
        """Regression: converging pass-through (SLICE/CONCAT) chains of
        different lengths force a node to rebuild twice; its consumers
        must be re-notified on the *second* move too, or they keep
        reading the pre-edit nets."""
        def build(src_for_a, src_for_b):
            b = GraphBuilder("waves")
            in0 = b.input("in0", 4)
            in1 = b.input("in1", 4)
            sources = {"in0": in0, "in1": in1}
            a = b.slice_(sources[src_for_a], 1, 0)       # short path
            b1 = b.slice_(sources[src_for_b], 3, 0)      # long path
            b2 = b.slice_(b1, 3, 0)
            b3 = b.slice_(b2, 1, 0)
            c = b.concat(a, b3)                          # converges
            d = b.not_(c)
            b.output("y", d)
            return b.build()

        base_graph = build("in0", "in0")
        edited = build("in1", "in1")  # same schema, two rewired slices
        base = DeltaNetlist.from_graph(base_graph)
        touched = edited.structural_delta(base_graph)
        assert touched  # the slice sources moved
        delta = base.apply_edit(edited, touched)
        materialized = delta.materialize(check=True)
        fresh = elaborate(edited, check=False)
        assert packed_by_name(materialized) == packed_by_name(fresh)

    def test_identity_edit_shares_everything(self):
        graph = load_design("uart_tx")
        base = DeltaNetlist.from_graph(graph)
        clone = base.apply_edit(graph.copy())
        assert clone.patched == frozenset()
        assert clone.artifacts is base.artifacts

    def test_schema_change_falls_back_to_full_elaboration(self):
        graph = load_design("uart_tx")
        base = DeltaNetlist.from_graph(graph)
        bigger = graph.copy()
        bigger.add_node(NodeType.IN, 2, name="extra")
        rebuilt = base.apply_edit(bigger)
        assert rebuilt.parent is None  # not a patch: a fresh base
        assert rebuilt.materialize(check=True).gate_counts() \
            == elaborate(bigger, check=False).gate_counts()

# ---------------------------------------------------------------------------
class TestDeltaOracle:
    def test_foreign_schema_candidate_does_not_disable_delta_path(self):
        """A candidate whose node schema differs from the base is scored
        by fresh elaboration; it is a fallback, not a divergence, so the
        candidates after it still ride the delta path."""
        graph = load_design("uart_tx")
        other = graph.copy()
        other.add_node(NodeType.IN, 2, name="extra")
        engine = IncrementalReward(clock_period=CLOCK)
        engine.rebase(graph)
        oracle = DeltaOracle(engine)
        values = [oracle(g) for g in (graph, other, graph)]
        assert oracle.counters() == (2, 1, 0)
        assert oracle.delta_enabled
        assert values[0] == values[2]
        assert values[1] == synthesize(other, check=False).pcs


    @pytest.mark.parametrize("design", ["uart_tx", "alu"])
    def test_accepted_candidate_carries_forward_as_base(
        self, design, monkeypatch
    ):
        """Rebasing onto the candidate the oracle just scored keeps that
        candidate's delta as the new base (parent chain cut) instead of
        re-elaborating the design, and the oracle stays equal to fresh
        synthesis across two accepted generations."""
        builds = []
        real = DeltaNetlist.from_graph.__func__
        monkeypatch.setattr(DeltaNetlist, "from_graph", classmethod(
            lambda cls, g, check=True: builds.append(g) or real(cls, g, check)))
        graph = load_design(design)
        engine = IncrementalReward(clock_period=CLOCK)
        engine.rebase(graph)
        # The first base's exact PCS comes from its tracked elaboration.
        assert engine.base_pcs == synthesize(graph, check=False).pcs
        oracle = DeltaOracle(engine)
        rng = np.random.default_rng(3)
        state = graph
        for generation in range(2):
            candidate = swap_chain(state, rng, 3)[-1]
            pcs = oracle(candidate)
            assert pcs == synthesize(candidate, check=False).pcs
            carried = engine._candidate
            state = candidate.flatten()
            engine.rebase(state, exact_pcs=pcs)
            assert engine._base.parent is None
            assert engine._base.graph is state
            assert engine._base.artifacts is carried.artifacts
            assert oracle(state) == pcs
        assert builds == [graph]  # the first base only
        assert oracle.counters() == (4, 0, 0)

    def test_rebase_elsewhere_drops_the_candidate(self):
        graph = load_design("uart_tx")
        engine = IncrementalReward(clock_period=CLOCK)
        engine.rebase(graph)
        oracle = DeltaOracle(engine)
        first, second = swap_chain(graph, np.random.default_rng(5), 2)
        oracle(first)
        exact = synthesize(second, check=False).pcs
        engine.rebase(second.flatten(), exact_pcs=exact)
        assert engine._base is None and engine._candidate is None
        assert oracle(second) == synthesize(second, check=False).pcs


# ---------------------------------------------------------------------------
def _assert_replay_exact(graph, cases):
    """Each ``(state, touched)`` replays to ``full_analyze``'s report.

    ``refs``, ``kept``, ``rewired``, ``live`` and ``rounds`` all equal
    the full pass with the same ``touched``, and no call leaves the
    replay.  Returns the analyzer holding the captured baseline.
    """
    analyzer = RedundancyAnalyzer(graph)
    analyzer.capture_baseline(graph, analyzer.full_analyze(graph))
    reference = RedundancyAnalyzer(graph)
    for state, touched in cases:
        got = analyzer.analyze(state, touched=touched)
        want = reference.full_analyze(state, touched=touched)
        assert (got.refs, got.kept, got.rewired, got.live, got.rounds) == (
            want.refs, want.kept, want.rewired, want.live, want.rounds
        ), f"{graph.name} touched={touched}"
    assert analyzer.delta_hits == len(cases)
    assert (analyzer.delta_fallbacks, analyzer.delta_divergences) == (0, 0)
    return analyzer


class TestRedundancyAnalysis:
    def test_folds_mirror_gate_level_optimizer(self):
        graph = redundant_design()
        report = analyze_redundancy(graph)
        survivors = report.survivors()
        xor_node = graph.nodes_of_type(NodeType.XOR)[0]
        r1 = graph.registers()[0]
        # XOR(a, a) folds to constant 0 and sweeps r1 with it.
        assert xor_node not in survivors
        assert r1 not in survivors
        # The real AND cone and its register survive.
        assert graph.nodes_of_type(NodeType.AND)[0] in survivors
        assert graph.registers()[1] in survivors

    def test_dead_code_removed(self):
        b = GraphBuilder("dead")
        a = b.input("a", 2)
        live = b.reg("live", 2)
        b.drive_reg(live, b.not_(a))
        dead = b.reg("dead", 2)
        b.drive_reg(dead, b.add(a, a))
        b.output("y", live)
        graph = b.build()
        survivors = analyze_redundancy(graph).survivors()
        assert graph.registers()[0] in survivors
        assert graph.registers()[1] not in survivors  # unobserved

    def test_duplicate_structures_merge(self):
        b = GraphBuilder("dup")
        a = b.input("a", 3)
        c = b.input("c", 3)
        x1 = b.and_(a, c)
        x2 = b.and_(a, c)    # structural duplicate of x1
        r = b.reg("r", 3)
        b.drive_reg(r, b.xor(x1, x2))  # XOR(x, x) -> 0 after the merge
        b.output("y", r)
        graph = b.build()
        survivors = analyze_redundancy(graph).survivors()
        assert len([v for v in graph.nodes_of_type(NodeType.AND)
                    if v in survivors]) <= 1
        assert graph.registers()[0] not in survivors  # swept via fold


    def test_replay_inside_a_folded_register_cone(self):
        # r <= 0 & (a ^ c) folds; edits to the XOR's fan-in and to the
        # absorbing AND itself both replay to the full pass's report.
        b = GraphBuilder("witness")
        a = b.input("a", 4)
        c = b.input("c", 4)
        zero = b.const(0, 4)
        y = b.xor(a, c)
        k = b.and_(zero, y)
        r = b.reg("r", 4)
        b.drive_reg(r, k)
        b.output("out", b.or_(r, a))
        graph = b.build()
        swapped = GraphView(graph)
        swapped.set_parent(y, 0, c)
        swapped.set_parent(y, 1, a)
        unfolded = GraphView(graph)
        unfolded.set_parent(k, 0, a)      # r <= a & (a ^ c): unfolds r
        analyzer = _assert_replay_exact(
            graph, [(swapped, [y]), (unfolded, [k])]
        )
        assert analyzer._trace[-1].refs[r] == ("c", 0)

    def test_replay_on_the_early_stop_design(self):
        # Round 1 folds r <= a & 0 after x = r ^ a has read it; edits
        # that unfold r (its reference moves), rewire x, or both.
        b = GraphBuilder("early")
        a = b.input("a", 4)
        c = b.input("c", 4)
        zero = b.const(0, 4)
        r = b.reg("r", 4)
        k = b.and_(a, zero)
        b.drive_reg(r, k)
        x = b.xor(r, a)
        b.output("out", x)
        b.output("out2", b.or_(c, a))
        graph = b.build()
        moved = GraphView(graph)
        moved.set_parent(k, 1, c)         # r <= a & c
        xr = GraphView(graph)
        xr.set_parent(x, 1, c)            # x = r ^ c
        both = GraphView(graph)
        both.set_parent(k, 1, a)          # r <= a & a, x = r ^ r
        both.set_parent(x, 1, r)
        analyzer = _assert_replay_exact(
            graph, [(moved, [k]), (xr, [x]), (both, [k, x])]
        )
        base = analyzer._trace[-1].refs
        assert base[r] == ("c", 0)
        assert analyzer.full_analyze(moved).refs[r] == ("n", r, 4)

    def test_replay_runs_past_an_unsettled_base(self):
        # A ten-register ladder r[i+1] <= r[i] & a with r0 <= a & 0
        # folds one register per round, so the base's 8-round pass ends
        # unsettled; a 16-round replay runs the base on to match.
        b = GraphBuilder("ladder")
        a = b.input("a", 4)
        c = b.input("c", 4)
        regs = [b.reg(f"r{i}", 4) for i in range(10)]
        b.drive_reg(regs[0], b.and_(a, b.const(0, 4)))
        ands = []
        for i in range(9):
            ands.append(b.and_(regs[i], a))
            b.drive_reg(regs[i + 1], ands[-1])
        b.output("out", b.xor(regs[-1], c))
        graph = b.build()
        analyzer = RedundancyAnalyzer(graph)
        analyzer.capture_baseline(graph)
        assert len(analyzer._trace) == 8 and analyzer._trace[-1].changed
        for k in (ands[0], ands[5]):
            view = GraphView(graph)
            view.set_parent(k, 1, c)
            got = analyzer.analyze(view, max_rounds=16, touched=[k])
            want = RedundancyAnalyzer(graph).full_analyze(
                view, max_rounds=16, touched=[k]
            )
            assert (got.refs, got.rewired, got.rounds) == (
                want.refs, want.rewired, want.rounds
            )
            assert got.rounds > 8
        assert analyzer.delta_hits == 2

    def test_replay_on_uart_tx_cone_chains(self):
        # Chains around every cone of uart_tx, then of a descendant
        # whose registers fold: edits that move a register's reference
        # and edits inside a folded register's cone, both of which the
        # dirty-cone analysis used to send to the full fixpoint.
        graph = load_design("uart_tx")
        regs = graph.registers()

        def cone_chains(base, seeds):
            states = []
            for cone in all_cones(base):
                if cone.interior:
                    anchor = [cone.register, *cone.interior]
                    for seed in seeds:
                        rng = np.random.default_rng(seed)
                        states += swap_chain(base, rng, 6, anchor=anchor)
            return states

        def folded(state):
            refs = RedundancyAnalyzer(state).full_analyze(state).refs
            return [v for v in regs
                    if refs[v] != ("n", v, state.node(v).width)]

        first = cone_chains(graph, range(2))
        _assert_replay_exact(
            graph, [(s, touched_since(s, graph)) for s in first]
        )
        base_refs = RedundancyAnalyzer(graph).full_analyze(graph).refs
        assert any(
            RedundancyAnalyzer(graph).full_analyze(s).refs[v] != base_refs[v]
            for s in first for v in regs
        )
        base = next(s for s in first if folded(s)).flatten()
        folded_regs = folded(base)
        second = cone_chains(base, range(2))
        _assert_replay_exact(
            base, [(s, touched_since(s, base)) for s in second]
        )
        reached = set()
        for cone in all_cones(base):
            if cone.register in folded_regs:
                reached.update(cone.interior)
                reached.add(cone.register)
        assert any(reached.intersection(touched_since(s, base))
                   for s in second)

    def test_full_pass_skips_the_confirming_round(self):
        # Round 1 folds r <= a & 0 after x = r ^ a has read it; round 2
        # re-reads r and aliases x to a.  x feeds only the output, so
        # no third round is needed to confirm.
        b = GraphBuilder("early")
        a = b.input("a", 4)
        r = b.reg("r", 4)
        b.drive_reg(r, b.and_(a, b.const(0, 4)))
        x = b.xor(r, a)
        b.output("out", x)
        graph = b.build()
        report = analyze_redundancy(graph)
        assert report.rounds == 2
        assert report.refs[r] == ("c", 0)
        assert report.refs[x] == ("n", a, 4)


# ---------------------------------------------------------------------------
class TestIncrementalReward:
    def test_calibrated_to_exact_pcs_at_base(self):
        graph = load_design("uart_tx")
        reward = IncrementalReward(clock_period=CLOCK)
        reward.rebase(graph)
        exact = synthesize(graph, clock_period=CLOCK).pcs
        assert reward(graph) == pytest.approx(exact)
        assert reward.base_pcs == pytest.approx(exact)

    def test_tracks_exact_pcs_across_candidates(self):
        graph = load_design("uart_tx")
        reward = IncrementalReward(clock_period=CLOCK)
        reward.rebase(graph)
        rng = np.random.default_rng(11)
        candidates = swap_chain(graph, rng, 10)
        estimates = [reward(c) for c in candidates]
        exact = [synthesize(c, clock_period=CLOCK, check=False).pcs
                 for c in candidates]
        assert reward.patches == len(candidates)
        if len(set(exact)) > 2:
            corr = np.corrcoef(exact, estimates)[0, 1]
            assert corr > 0.5, f"estimate decorrelated from PCS ({corr:.2f})"

    def test_rebase_skipped_for_same_object(self):
        graph = load_design("uart_tx")
        reward = IncrementalReward(clock_period=CLOCK)
        reward.rebase(graph)
        assert reward.rebases == 1
        reward.rebase(graph)
        assert reward.rebases == 1  # identity: no extra synthesize()

    def test_auto_rebase_on_new_design(self):
        reward = IncrementalReward(clock_period=CLOCK)
        first = reward(load_design("uart_tx"))
        second = reward(load_design("alu"))
        assert reward.rebases == 2
        assert first != second

# ---------------------------------------------------------------------------
class TestIncrementalSearch:
    def test_never_worsens_exact_pcs(self):
        graph = redundant_design()
        config = MCTSConfig(num_simulations=25, max_depth=4, branching=4,
                            seed=0, incremental=True)
        before = synthesize(graph, clock_period=CLOCK).pcs
        report = optimize_registers(graph, config=config)
        after = synthesize(report.graph, clock_period=CLOCK).pcs
        assert after >= before - 1e-9
        assert validate(report.graph).ok
        assert report.incremental
        assert report.reward_rebases >= 1

    def test_incremental_flag_off_uses_exact_path(self):
        graph = redundant_design()
        config = MCTSConfig(num_simulations=10, max_depth=3, seed=0,
                            incremental=False)
        report = optimize_registers(graph, config=config)
        assert not report.incremental
        assert report.reward_patches == report.reward_rebases == 0

    def test_explicit_synthesis_reward_is_honored_verbatim(self):
        """An explicitly passed exact reward must never be substituted
        by the incremental estimate -- the exact-reward arms of the
        ablation benchmarks depend on this contract."""
        from repro.mcts import SynthesisReward

        graph = redundant_design()
        reward = SynthesisReward(clock_period=CLOCK)
        config = MCTSConfig(num_simulations=5, max_depth=2, seed=0,
                            incremental=True)
        report = optimize_registers(graph, reward_fn=reward, config=config)
        assert not report.incremental
        assert reward.calls > 0  # the search actually ran through it

    def test_random_search_honors_equivalence_gate(self):
        from repro.mcts import ConeBatchEvaluator, random_search_registers

        graph = redundant_design()
        config = MCTSConfig(num_simulations=30, max_depth=4, seed=1,
                            require_functional_equivalence=True,
                            verify_with_synthesis=False)
        report = random_search_registers(graph, config=config)
        evaluator = ConeBatchEvaluator(seed=42)
        for register in report.graph.registers():
            assert (evaluator.signature(graph, register).words
                    == evaluator.signature(report.graph, register).words)

    def test_equivalence_gate_only_accepts_preserving_rewrites(self):
        from repro.mcts import ConeBatchEvaluator

        graph = redundant_design()
        config = MCTSConfig(num_simulations=30, max_depth=4, branching=4,
                            seed=3, require_functional_equivalence=True)
        report = optimize_registers(graph, config=config)
        evaluator = ConeBatchEvaluator(seed=99)
        for register in report.graph.registers():
            before = evaluator.signature(graph, register)
            after = evaluator.signature(report.graph, register)
            assert before.words == after.words, (
                f"register {register}: accepted rewrite changed the cone "
                "function despite the equivalence gate"
            )

    def test_equivalence_gate_rejections_counted(self):
        graph = redundant_design()
        seeds_with_rejections = 0
        for seed in range(6):
            config = MCTSConfig(num_simulations=30, max_depth=4, branching=4,
                                seed=seed,
                                require_functional_equivalence=True,
                                verify_with_synthesis=False)
            report = optimize_registers(graph, config=config)
            assert report.equivalence_rejections >= 0
            if report.equivalence_rejections:
                seeds_with_rejections += 1
                assert False in report.cone_function_preserved.values()
        # The gate must actually fire somewhere across seeds; otherwise
        # this test exercises nothing.
        assert seeds_with_rejections > 0


# ---------------------------------------------------------------------------
class TestIncrementalSpeed:
    def test_incremental_reward_path_at_least_3x_faster(self):
        """Tier-1 perf gate: reward evaluation, incremental vs full.

        Measures the reward path itself -- identical smoke-scale
        candidate states scored by :class:`IncrementalReward` vs the
        exact :class:`SynthesisReward` -- interleaved and best-of-N, so
        the ratio (~6x when healthy) is robust to CI load in a way the
        whole-search wall clock is not.
        """
        from repro.mcts import SynthesisReward

        graph = load_design("uart_tx")
        rng = np.random.default_rng(0)
        # Candidates at most 3 swaps from the base, matching how far
        # rollouts stray from a cone search's rebased state at smoke
        # scale (max_depth=3).
        candidates = []
        for _ in range(6):
            candidates.extend(swap_chain(graph, rng, 3)[-2:])
        assert len(candidates) >= 6
        exact = SynthesisReward(clock_period=CLOCK)
        incremental = IncrementalReward(clock_period=CLOCK)
        incremental.rebase(graph)

        def best_wall(reward, repeats=3):
            for candidate in candidates:  # warmup
                reward(candidate)
            walls = []
            for _ in range(repeats):
                started = time.perf_counter()
                for candidate in candidates:
                    reward(candidate)
                walls.append(time.perf_counter() - started)
            return min(walls)

        speedup = best_wall(exact) / best_wall(incremental)
        assert speedup >= 3.0, (
            f"incremental reward evaluation only {speedup:.2f}x faster "
            "than full synthesize() at smoke scale"
        )

    def test_incremental_search_faster_end_to_end(self):
        """Secondary, load-tolerant sanity: the whole smoke-scale search
        must stay clearly faster with the incremental engine (the tight
        >=3x end-to-end number is gated by the committed BENCH_smoke.json
        baseline in CI, where best-of-N absorbs noise)."""
        graph = load_design("uart_tx")
        incremental = MCTSConfig(num_simulations=8, max_depth=3, branching=3,
                                 seed=0, incremental=True)
        full = dataclasses.replace(incremental, incremental=False)

        def best_wall(config, repeats=3):
            optimize_registers(graph, config=config)  # warmup
            walls = []
            for _ in range(repeats):
                started = time.perf_counter()
                optimize_registers(graph, config=config)
                walls.append(time.perf_counter() - started)
            return min(walls)

        speedup = best_wall(full) / best_wall(incremental)
        if speedup < 2.0:  # transient load: one retry with more samples
            speedup = max(speedup, best_wall(full, 5) / best_wall(incremental, 5))
        assert speedup >= 2.0, (
            f"incremental search only {speedup:.2f}x faster end-to-end"
        )
