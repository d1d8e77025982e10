"""Tests for trained-generator persistence."""

import json

import numpy as np
import pytest

from repro.bench_designs import load_corpus
from repro.diffusion import (
    DiffusionConfig,
    graph_attributes,
    load_trained,
    sample_initial_graph,
    save_trained,
    train_diffusion,
)
from repro.diffusion.persist import FORMAT_VERSION, ModelFormatError


def save_unversioned(trained, path):
    """Write ``trained`` as a bundle saved before the format version
    existed: the same arrays, no ``format`` in the metadata."""
    save_trained(trained, path)
    with np.load(path) as bundle:
        arrays = dict(bundle)
    config = json.loads(bytes(arrays["config"]).decode())
    del config["format"]
    arrays["config"] = np.frombuffer(json.dumps(config).encode(),
                                     dtype=np.uint8)
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def trained():
    graphs = load_corpus()[:4]
    cfg = DiffusionConfig(epochs=8, hidden=16, num_layers=2, seed=0)
    return train_diffusion(graphs, cfg)


class TestPersistence:
    def test_roundtrip_predictions_identical(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        restored = load_trained(path)

        g = load_corpus()[0]
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        p1 = trained.model.predict_full(types, buckets, a_t, 0.5)
        p2 = restored.model.predict_full(types, buckets, a_t, 0.5)
        np.testing.assert_allclose(p1, p2)

    def test_roundtrip_preserves_metadata(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        restored = load_trained(path)
        assert restored.config.num_steps == trained.config.num_steps
        assert restored.config.hidden == trained.config.hidden
        assert restored.schedule.noise_density == pytest.approx(
            trained.schedule.noise_density
        )
        assert restored.mean_edges_per_node == pytest.approx(
            trained.mean_edges_per_node
        )
        assert restored.losses == pytest.approx(trained.losses)

    def test_restored_model_samples(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        restored = load_trained(path)
        res = sample_initial_graph(
            restored, num_nodes=20, rng=np.random.default_rng(0)
        )
        assert res.adjacency.shape == (20, 20)

    def test_sampling_matches_original_given_same_rng(self, trained, tmp_path):
        path = tmp_path / "model.npz"
        save_trained(trained, path)
        restored = load_trained(path)
        r1 = sample_initial_graph(
            trained, num_nodes=15, rng=np.random.default_rng(7)
        )
        r2 = sample_initial_graph(
            restored, num_nodes=15, rng=np.random.default_rng(7)
        )
        np.testing.assert_array_equal(r1.adjacency, r2.adjacency)
        np.testing.assert_array_equal(r1.types, r2.types)

    def test_unversioned_bundle_rejected(self, trained, tmp_path):
        """A bundle from before the legal-block walk holds a model fitted
        over all N^2 pairs: loading it must fail, not sample with it."""
        path = tmp_path / "model.npz"
        save_unversioned(trained, path)
        with pytest.raises(ModelFormatError, match=f"expected {FORMAT_VERSION}"):
            load_trained(path)
