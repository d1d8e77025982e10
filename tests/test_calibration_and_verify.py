"""Tests for inference calibration (diffusion) and verified acceptance (MCTS)."""

import numpy as np
import pytest

from repro.bench_designs import load_corpus
from repro.diffusion import (
    DiffusionConfig,
    graph_attributes,
    sample_initial_graph,
    train_diffusion,
)
from repro.ir import GraphBuilder, validate
from repro.mcts import MCTSConfig, optimize_registers
from repro.synth import synthesize


@pytest.fixture(scope="module")
def trained():
    graphs = load_corpus()[:6]
    cfg = DiffusionConfig(epochs=30, hidden=24, num_layers=2, neg_ratio=6, seed=0)
    return train_diffusion(graphs, cfg)


class TestCalibration:
    def test_target_density_decreases_with_size(self, trained):
        assert trained.target_density(50) > trained.target_density(500)

    def test_target_density_bounded(self, trained):
        assert 1e-4 <= trained.target_density(10_000) <= 0.5
        assert 1e-4 <= trained.target_density(2) <= 0.5

    def test_calibration_bias_negative_for_sparse_targets(self, trained):
        # True density << training positive rate: logits must shift down.
        assert trained.calibration_bias(200) < 0

    def test_bias_shifts_probabilities_down(self, trained):
        g = load_corpus()[0]
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        p_raw = trained.model.predict_full(types, buckets, a_t, 0.5)
        p_cal = trained.model.predict_full(
            types, buckets, a_t, 0.5, logit_bias=trained.calibration_bias(200)
        )
        assert p_cal.mean() < p_raw.mean()

    def test_bias_preserves_ranking(self, trained):
        g = load_corpus()[0]
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        p_raw = trained.model.predict_full(types, buckets, a_t, 0.5)
        p_cal = trained.model.predict_full(
            types, buckets, a_t, 0.5, logit_bias=-2.0
        )
        col = p_raw[:, 3], p_cal[:, 3]
        np.testing.assert_array_equal(
            np.argsort(col[0]), np.argsort(col[1])
        )

    def test_sampled_density_tracks_target(self, trained):
        rng = np.random.default_rng(0)
        n = 80
        res = sample_initial_graph(trained, num_nodes=n, rng=rng)
        target = trained.target_density(n)
        # Within a factor of ~4 of the target for a lightly trained model.
        assert res.adjacency.mean() < max(4 * target, 0.15)

    def test_mean_edges_per_node_recorded(self, trained):
        assert 0.5 < trained.mean_edges_per_node < 4.0


class _LyingReward:
    """Claims every perturbed state is fantastic (forces bad acceptance)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, graph, cone=None):
        self.calls += 1
        return float(self.calls)  # strictly increasing: everything "improves"


class TestVerifiedAcceptance:
    def _design(self):
        b = GraphBuilder("verify")
        a = b.input("a", 4)
        c = b.input("c", 4)
        r1 = b.reg("r1", 4)
        r2 = b.reg("r2", 4)
        b.drive_reg(r1, b.add(a, r1, width=4))
        b.drive_reg(r2, b.xor(c, r2))
        b.output("y", b.and_(r1, r2))
        return b.build()

    def test_lying_reward_cannot_regress_pcs(self):
        g = self._design()
        before = synthesize(g, clock_period=1.0).pcs
        cfg = MCTSConfig(
            num_simulations=15, max_depth=4, branching=4,
            clock_period=1.0, seed=0,
        )
        report = optimize_registers(g, reward_fn=_LyingReward(), config=cfg)
        after = synthesize(report.graph, clock_period=1.0).pcs
        assert after >= before - 1e-9
        assert validate(report.graph).ok
