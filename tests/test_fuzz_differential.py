"""Differential gate for the delta-driven reward path.

The two shortcuts behind ``MCTSConfig.delta`` -- the dirty-cone
redundancy fixpoint and the delta-substrate acceptance oracle -- are
only allowed to ship while this module proves them bit-faithful against
the reference path ``delta=False`` selects:

* delta analysis == full fixpoint (refs, kept, rewired, live) on every
  state of every random edit chain;
* delta oracle == fresh ``synthesize()`` in PCS value (bit-equal),
  optimized gate sequences, and acceptance decisions;
* whole-search results are fingerprint-identical between the delta and
  reference configurations, including when an injected fault forces the
  divergence fallback.

The ``fuzz_smoke`` tier drives 200+ random edit chains at smoke scale
(8 corpus designs x 26 seeds) and 200+ at paper scale (3 fixtures of
260--540 nodes x 70 seeds) on every tier-1 run; ``--fuzz-rounds N``
scales the opt-in deep tier on top.

The chains above walk corpus and hand-built designs.  The
generated-population differential runs Phase 3 on what users get --
diffusion-sampled, refined circuits from ``Session.generate`` -- and
requires sanitized, unsanitized and ``delta=False`` runs to agree.
"""

import dataclasses

import numpy as np
import pytest
from fuzz_harness import (
    PAPER_SCALE,
    population_differential,
    population_sessions,
    random_graph,
    swap_chain,
    touched_since,
)

from repro.api import GenerateRequest
from repro.bench_designs import load_design, train_test_split
from repro.incr import DeltaOracle, IncrementalReward
from repro.incr.analysis import RedundancyAnalyzer
from repro.mcts import MCTSConfig, optimize_registers
from repro.synth import elaborate, synthesize
from repro.synth.passes import optimize as optimize_netlist

SMOKE_DESIGNS = (
    "uart_tx", "uart_rx", "alu", "fifo_sync",
    "gray_counter", "spi_master", "cache_ctrl", "decode_unit",
)

#: Seeds per design in the smoke tier: 8 designs x 26 = 208 chains at
#: smoke scale, 3 fixtures x 70 = 210 chains at paper scale -- both
#: sides of the acceptance criterion's ">= 200 random edit chains".
SMOKE_SEEDS = 26
PAPER_SEEDS = 70


@dataclasses.dataclass
class ChainStats:
    chains: int = 0
    states: int = 0
    analysis_delta_hits: int = 0
    oracle_checks: int = 0
    oracle_delta_hits: int = 0


def _assert_analysis_equal(got, want, context):
    assert got.refs == want.refs, f"{context}: refs diverged"
    assert got.kept == want.kept, f"{context}: kept diverged"
    assert got.rewired == want.rewired, f"{context}: rewired diverged"
    assert got.live == want.live, f"{context}: live diverged"


def run_differential_chains(
    graph,
    seeds,
    steps,
    check_oracle=True,
    oracle_every=1,
    counts_every=1,
):
    """Drive random edit chains and assert delta == full on each.

    Every state of every chain gets the analysis differential (dirty-
    cone delta fixpoint vs an independent full fixpoint).  Each
    ``oracle_every``-th chain's final state additionally gets the oracle
    differential: delta-substrate value bit-equal to exact
    ``synthesize()`` PCS, same acceptance decision, and (each
    ``counts_every``-th check) identical optimized gate sequences.
    """
    analyzer = RedundancyAnalyzer(graph)
    analyzer.capture_baseline(graph, analyzer.full_analyze(graph))
    reference = RedundancyAnalyzer(graph)
    oracle = None
    if check_oracle:
        engine = IncrementalReward()
        base_exact = synthesize(graph, check=False, run_timing=False).pcs
        engine.rebase(graph, exact_pcs=base_exact)
        oracle = DeltaOracle(engine)
        base_canonical = oracle(graph)
        assert base_canonical == base_exact  # bit-equal, not approx

    stats = ChainStats()
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        chain = swap_chain(graph, rng, steps)
        if not chain:
            continue
        stats.chains += 1
        for state in chain:
            touched = touched_since(state, graph)
            got = analyzer.analyze(state, touched=touched)
            want = reference.full_analyze(state)
            _assert_analysis_equal(
                got, want, f"{graph.name} seed={seed} touched={touched}"
            )
            stats.states += 1
        if oracle is not None and i % oracle_every == 0:
            state = chain[-1]
            value = oracle(state)
            exact = synthesize(state, check=False, run_timing=False).pcs
            assert value == exact, (
                f"{graph.name} seed={seed}: delta-oracle value is not "
                "bit-identical to fresh synthesize().pcs"
            )
            # The one comparison acceptance actually performs.
            assert (value > base_canonical + 1e-12) \
                == (exact > base_exact + 1e-12), (
                    f"{graph.name} seed={seed}: acceptance decision flipped"
                )
            stats.oracle_checks += 1
            if stats.oracle_checks % counts_every == 0:
                materialized = oracle._materialized_delta(state)
                assert materialized is not None  # lineage reaches the base
                opt_mat, _ = optimize_netlist(materialized, check=False)
                fresh, _ = optimize_netlist(
                    elaborate(state, check=False), check=False
                )
                assert (
                    [g.kind for g in opt_mat.gates]
                    == [g.kind for g in fresh.gates]
                ), f"{graph.name} seed={seed}: gate sequences diverged"

    assert analyzer.delta_divergences == 0
    stats.analysis_delta_hits = analyzer.delta_hits
    if oracle is not None:
        assert oracle.divergences == 0
        stats.oracle_delta_hits = oracle.delta_hits
    return stats


# ---------------------------------------------------------------------------
class TestSmokeScaleDifferential:
    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("design", SMOKE_DESIGNS)
    def test_delta_vs_full_on_corpus_chains(self, design):
        graph = load_design(design)
        stats = run_differential_chains(
            graph, seeds=range(SMOKE_SEEDS), steps=5, counts_every=4,
        )
        assert stats.chains >= SMOKE_SEEDS - 2  # swap sampling rarely dries
        # The differential must exercise the shortcut, not just compare
        # the fallback path against itself.
        assert stats.analysis_delta_hits > 0
        assert stats.oracle_delta_hits == stats.oracle_checks + 1

    @pytest.mark.fuzz_smoke
    def test_delta_vs_full_on_random_graph_adversaries(self):
        """Const/register-heavy random graphs: the folded-register guard
        falls back on most edits here; what still rides the delta path
        must agree, and fallbacks must never read as divergences."""
        total = ChainStats()
        for seed in range(12):
            graph = random_graph(
                seed,
                num_nodes=40 + 10 * (seed % 3),
                p_const=0.2,
                p_reg=0.25,
            )
            stats = run_differential_chains(
                graph, seeds=(100 + seed,), steps=6, check_oracle=False,
            )
            total.chains += stats.chains
            total.states += stats.states
            total.analysis_delta_hits += stats.analysis_delta_hits
        assert total.chains >= 10
        assert total.states > 0


class TestPaperScaleDifferential:
    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("name", sorted(PAPER_SCALE))
    def test_delta_vs_full_at_paper_scale(self, name):
        """260--540-node fixtures: the dirty fraction of one edit is a
        few percent, the regime the delta mode exists for."""
        graph = PAPER_SCALE[name]()
        assert 200 <= graph.num_nodes <= 600
        heavy = graph.num_nodes > 280  # optimizer is ~30ms per run here
        stats = run_differential_chains(
            graph,
            seeds=range(PAPER_SEEDS),
            steps=4,
            oracle_every=8 if heavy else 1,
            counts_every=4,
        )
        assert stats.chains >= PAPER_SEEDS - 2
        assert stats.analysis_delta_hits > 0
        assert stats.oracle_delta_hits == stats.oracle_checks + 1


# ---------------------------------------------------------------------------
class TestSearchLevelDifferential:
    """The end-to-end gate: the delta configuration's whole-search result
    must be fingerprint-identical to the reference configuration's."""

    @staticmethod
    def _run_both(graph, **overrides):
        reference = optimize_registers(graph, config=MCTSConfig(
            delta=False, **overrides,
        ))
        # The reference configuration must not touch either shortcut.
        assert reference.analysis_delta_hits == 0
        assert reference.oracle_delta_hits == 0
        delta = optimize_registers(graph, config=MCTSConfig(**overrides))
        return reference, delta

    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("design", ["uart_tx", "alu", "fifo_sync", "pwm"])
    def test_search_results_bit_identical(self, design):
        graph = load_design(design)
        reference, delta = self._run_both(
            graph, num_simulations=40, seed=3,
        )
        assert delta.graph.to_dict() == reference.graph.to_dict()
        assert delta.improved_cones == reference.improved_cones
        assert delta.analysis_divergences == 0
        assert delta.oracle_divergences == 0
        assert delta.analysis_delta_hits > 0

    @pytest.mark.fuzz_smoke
    def test_search_results_bit_identical_paper_scale(self):
        graph = PAPER_SCALE["crc32x32"]()
        reference, delta = self._run_both(
            graph, num_simulations=30, seed=5,
        )
        assert delta.graph.to_dict() == reference.graph.to_dict()
        assert delta.oracle_divergences == 0

    def test_analysis_divergence_flips_to_full_path(self, monkeypatch):
        """An injected delta-analysis fault must be recorded in the
        report and degrade to the full fixpoint -- same search result."""
        graph = load_design("uart_tx")
        reference = optimize_registers(graph, config=MCTSConfig(
            num_simulations=30, seed=1, delta=False,
        ))

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected delta-analysis fault")

        monkeypatch.setattr(RedundancyAnalyzer, "_delta_analyze", boom)
        report = optimize_registers(graph, config=MCTSConfig(
            num_simulations=30, seed=1, delta=True,
        ))
        assert report.analysis_divergences >= 1
        assert report.analysis_delta_hits == 0
        assert report.graph.to_dict() == reference.graph.to_dict()

    def test_oracle_divergence_falls_back(self, monkeypatch):
        """An injected oracle fault must count one divergence, flip the
        oracle to fresh elaboration for the rest of the run, and leave
        the search result untouched."""
        graph = load_design("uart_tx")
        reference = optimize_registers(graph, config=MCTSConfig(
            num_simulations=30, seed=1, delta=False,
        ))

        def boom(self, graph):
            raise RuntimeError("injected oracle fault")

        monkeypatch.setattr(DeltaOracle, "_materialized_delta", boom)
        report = optimize_registers(graph, config=MCTSConfig(
            num_simulations=30, seed=1, delta=True,
        ))
        assert report.oracle_divergences == 1  # flips off after the first
        assert report.oracle_delta_hits == 0
        assert report.oracle_fallbacks >= 1
        assert report.graph.to_dict() == reference.graph.to_dict()


# ---------------------------------------------------------------------------
class TestDeepFuzz:
    """Opt-in long fuzz: ``pytest --fuzz-rounds N`` multiplies seeds."""

    @pytest.mark.fuzz_deep
    @pytest.mark.parametrize("design", SMOKE_DESIGNS)
    def test_deep_corpus_chains(self, design, fuzz_rounds):
        graph = load_design(design)
        stats = run_differential_chains(
            graph,
            seeds=range(SMOKE_SEEDS, SMOKE_SEEDS + 40 * fuzz_rounds),
            steps=8,
            oracle_every=4,
            counts_every=4,
        )
        assert stats.chains > 0
        assert stats.analysis_delta_hits > 0

    @pytest.mark.fuzz_deep
    @pytest.mark.parametrize("name", sorted(PAPER_SCALE))
    def test_deep_paper_scale_chains(self, name, fuzz_rounds):
        graph = PAPER_SCALE[name]()
        stats = run_differential_chains(
            graph,
            seeds=range(PAPER_SEEDS, PAPER_SEEDS + 30 * fuzz_rounds),
            steps=6,
            oracle_every=10,
            counts_every=2,
        )
        assert stats.chains > 0

    @pytest.mark.fuzz_deep
    def test_deep_random_graph_sweep(self, fuzz_rounds):
        """Profile sweep over random word-level graphs: vary size, const
        density and register density; zero divergences everywhere."""
        delta_hits = 0
        for seed in range(60 * fuzz_rounds):
            graph = random_graph(
                seed,
                num_nodes=40 + (seed % 5) * 25,
                p_const=0.05 + (seed % 3) * 0.08,
                p_reg=0.08 + (seed % 4) * 0.07,
            )
            stats = run_differential_chains(
                graph, seeds=(1000 + seed,), steps=8, check_oracle=False,
            )
            delta_hits += stats.analysis_delta_hits
        # Across the sweep the delta path itself must get real coverage
        # (lean profiles have an empty folded-register guard).
        assert delta_hits > 0


# ---------------------------------------------------------------------------
class TestGeneratedPopulationDifferential:
    """Sanitized, unsanitized and ``delta=False`` Phase 3 agree on
    generated circuits of 48+ nodes, in both search arms
    (see :func:`fuzz_harness.population_differential`)."""

    @pytest.mark.fuzz_smoke
    def test_smoke_population(self):
        session, reference = population_sessions(
            "smoke", train_test_split(seed=2025)[0]
        )
        requests = [
            GenerateRequest(count=4, nodes=(48, 160), seed=seed, tier=tier)
            for seed, tier in ((1, "exact"), (2, "fast"))
        ]
        assert population_differential(session, reference, requests) == 8

    @pytest.mark.fuzz_deep
    def test_deep_population(self, fuzz_rounds):
        """``fast``-preset model at the 12/4/4 search budget: 40
        distinct circuits of 48-384 nodes per round, half under each
        tier name (the tier selects nothing, so each request has its
        own seed)."""
        session, reference = population_sessions(
            "fast", train_test_split(seed=2025)[0],
            num_simulations=12, max_depth=4, branching=4,
        )
        requests = [
            GenerateRequest(
                count=20, nodes=(48, 384), seed=1000 + 2 * round_ + k,
                tier=tier,
            )
            for round_ in range(fuzz_rounds)
            for k, tier in enumerate(("exact", "fast"))
        ]
        assert population_differential(session, reference, requests) == \
            40 * fuzz_rounds
