"""Tests for the denoising network, training, and sampling."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.api.presets import resolve_preset

from repro.bench_designs import load_corpus
from repro.diffusion import (
    AttributeSampler,
    DenoisingNetwork,
    DiffusionConfig,
    DirectedMPNNEncoder,
    graph_attributes,
    sample_initial_graph,
    train_diffusion,
    width_bucket,
)
from repro.diffusion import model as model_module
from repro.diffusion.features import NUM_WIDTH_BUCKETS, PairBlock
from repro.diffusion.schedule import NoiseSchedule
from repro.diffusion.train import _edge_pairs
from repro.ir import (
    NUM_TYPES,
    GraphBuilder,
    NodeType,
    arity_of,
    type_from_index,
    type_index,
)
from repro.nn import Adam, Tensor, bce_with_logits, sigmoid_np, time_features


def tiny_graph():
    b = GraphBuilder("tiny")
    a = b.input("a", 4)
    r = b.reg("r", 4)
    b.drive_reg(r, b.xor(a, r))
    b.output("y", r)
    return b.build()


class TestFeatures:
    def test_width_buckets_monotone(self):
        buckets = [width_bucket(w) for w in (1, 2, 4, 8, 16, 32, 64)]
        assert buckets == sorted(buckets)
        assert width_bucket(1) == 0

    def test_graph_attributes_shapes(self):
        g = tiny_graph()
        types, buckets = graph_attributes(g)
        assert len(types) == g.num_nodes
        assert len(buckets) == g.num_nodes

    def test_attribute_sampler_guarantees_io(self):
        sampler = AttributeSampler([tiny_graph()])
        rng = np.random.default_rng(0)
        types, widths = sampler.sample(12, rng)
        for required in (NodeType.IN, NodeType.OUT, NodeType.REG):
            assert type_index(required) in types
        assert np.all(widths >= 1)

    def test_attribute_sampler_empty_rejected(self):
        with pytest.raises(ValueError):
            AttributeSampler([])

    REQUIRED = (NodeType.IN, NodeType.OUT, NodeType.REG, NodeType.CONST)

    @pytest.fixture(scope="class")
    def corpus_sampler(self):
        from repro.bench_designs import train_test_split

        return AttributeSampler(train_test_split(seed=2025)[0])

    def test_attribute_sampler_guarantee_on_every_draw(self, corpus_sampler):
        """Every draw of 4-64 nodes holds all four required types.

        The first fix-up pass alone loses one on 29% of 4-node draws
        and 0.77% of 20-node draws: it can overwrite the only instance
        of a type that was present.
        """
        required = {type_index(kind) for kind in self.REQUIRED}
        missing = [
            (n, seed)
            for n in range(4, 65)
            for seed in range(2000)
            if not required <= set(
                corpus_sampler.sample(n, np.random.default_rng(seed))[0]
                .tolist()
            )
        ]
        assert missing == []

    def test_attribute_sampler_repair_leaves_valid_draws_alone(
        self, corpus_sampler
    ):
        """Draws the first fix-up completes are unchanged, rng state
        included: none of these 48-64-node draws needed the repair, and
        their digest is the one measured before it existed."""
        hasher = hashlib.sha256()
        for n in range(48, 65):
            for seed in range(300):
                rng = np.random.default_rng(seed)
                types, widths = corpus_sampler.sample(n, rng)
                hasher.update(types.tobytes())
                hasher.update(widths.tobytes())
                hasher.update(rng.random(1).tobytes())
        assert hasher.hexdigest()[:16] == "586ff249ef92f462"

    @pytest.mark.parametrize("num_nodes", [1, 2, 3])
    def test_attribute_sampler_rejects_too_few_nodes(
        self, corpus_sampler, num_nodes
    ):
        with pytest.raises(ValueError, match="num_nodes must be >= 4"):
            corpus_sampler.sample(num_nodes, np.random.default_rng(0))


class TestDenoisingNetwork:
    def test_pair_logits_shape(self):
        net = DenoisingNetwork(hidden=16, num_layers=2, seed=0)
        g = tiny_graph()
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        logits = net(types, buckets, a_t, 0.5, src, dst)
        assert logits.shape == (3,)

    def test_decoder_is_asymmetric(self):
        """P(i -> j) must differ from P(j -> i): the paper's key property."""
        net = DenoisingNetwork(hidden=16, num_layers=2, seed=0)
        g = tiny_graph()
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        p = net.predict_full(types, buckets, a_t, 0.5)
        # At initialisation the relation embedding r(t) is small, so the
        # asymmetry is small but must be structurally nonzero; a dot-product
        # decoder would give exactly p == p.T.
        asym = np.abs(p - p.T).max()
        assert asym > 1e-8

    def test_predict_full_matches_pair_path(self):
        """On the legal block, the numpy inference path scores exactly
        the pairs the tape forward scores, to the same values."""
        net = DenoisingNetwork(hidden=16, num_layers=2, seed=0)
        g = tiny_graph()
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        block = PairBlock.legal(types)
        full = net.predict_full(types, buckets, block.gather(a_t), 0.4,
                                block=block)
        assert full.shape == block.shape
        src, dst = np.meshgrid(block.drivers, block.receivers, indexing="ij")
        logits = net(
            types, buckets, a_t, 0.4, src.ravel(), dst.ravel()
        )
        pair_probs = 1 / (1 + np.exp(-logits.numpy().reshape(block.shape)))
        np.testing.assert_allclose(full, pair_probs, atol=1e-10)

    def test_time_conditioning_changes_output(self):
        net = DenoisingNetwork(hidden=16, num_layers=2, seed=0)
        g = tiny_graph()
        types, buckets = graph_attributes(g)
        a_t = g.adjacency()
        p1 = net.predict_full(types, buckets, a_t, 0.1)
        p2 = net.predict_full(types, buckets, a_t, 0.9)
        assert np.abs(p1 - p2).max() > 1e-6

    @pytest.mark.parametrize(
        "rows",
        # one row per block; 5-row blocks, so 23 rows end in a ragged
        # block of 3; one block for the whole graph
        [1, 5, None],
        ids=["row-per-block", "ragged-last-block", "single-block"],
    )
    def test_blocked_decoder_bit_identical_to_unblocked(self, monkeypatch,
                                                        rows):
        """Blocking is exact: the blocked float32 decoder equals the
        unblocked float32 one for every block size."""
        n, hidden = 23, 16
        budget = 1 << 40 if rows is None else rows * n * hidden * 4
        monkeypatch.setattr(model_module, "_BLOCK_BYTES", budget)
        net = DenoisingNetwork(hidden=hidden, num_layers=2, seed=0)
        rng = np.random.default_rng(4)
        types = rng.integers(0, 5, (3, n))
        buckets = rng.integers(0, 4, (3, n))
        a_t = rng.random((3, n, n)) < 0.15

        solo = net.predict_full(types[0], buckets[0], a_t[0], 0.3,
                                logit_bias=-0.7)
        h = net._encode_np(types[0], buckets[0], a_t[0], 0.3)
        want = _unblocked_decode(net, h[None], 0.3, -0.7, np.float32)[0]
        np.testing.assert_array_equal(solo, want)

        stacked = net.predict_full_batch(types, buckets, a_t, 0.3,
                                         logit_bias=-0.7)
        h = net._encode_np_batch(types, buckets, a_t, 0.3)
        want = _unblocked_decode(net, h, 0.3, -0.7, np.float32)
        np.testing.assert_array_equal(stacked, want)


def _unblocked_decode(net, h, t_frac, logit_bias, dtype=np.float64):
    """The pair decoder in one shot: the whole ``(B, N, N, H)`` pair
    tensor at once, no blocks and no reused buffers.

    ``dtype=np.float64`` is the full-precision reference the float32
    decoder is held to within a tolerance; ``np.float32`` casts the
    operands as the decoder does, for the bit-identity check.
    """
    def mlp(m, x):
        for layer in m.layers[:-1]:
            x = np.maximum(x @ layer.weight.data + layer.bias.data, 0.0)
        return x @ m.layers[-1].weight.data + m.layers[-1].bias.data

    hidden = h.shape[-1]
    feats = time_features(t_frac, net.encoder.time_dim)
    r = mlp(net.decoder.relation_mlp, feats)[0]
    d = mlp(net.decoder.timestep_mlp, feats)[0]
    first, last = net.decoder.edge_mlp.layers
    w1, b1 = first.weight.data, first.bias.data
    d_bias = (d @ w1[hidden:] + b1).astype(dtype)
    h_r, h = (h + r).astype(dtype), h.astype(dtype)
    z = h_r[:, :, None, :] * h[:, None, :, :]
    a1 = np.maximum(z @ w1[:hidden].astype(dtype) + d_bias, 0.0)
    out = (a1 @ last.weight.data.astype(dtype)).astype(np.float64)
    logits = (out + last.bias.data)[..., 0] + logit_bias
    return sigmoid_np(logits)


#: Largest |P_E - P_E(float64)| the float32 pair decoder may show.
DECODE_TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def fast_trained():
    """The ``fast``-preset denoiser (hidden 48) fitted on the corpus
    training split."""
    from repro.bench_designs import train_test_split

    return train_diffusion(train_test_split(seed=2025)[0],
                           resolve_preset("fast").diffusion)


def test_float32_decoder_within_tolerance_on_population(fast_trained):
    """On a seeded population of 48-384 nodes, every denoiser forward of
    the reverse walk gives P_E on the legal block within
    :data:`DECODE_TOLERANCE` of the float64 unblocked decoder fed the
    same node embeddings."""
    model = fast_trained.model
    steps = fast_trained.schedule.num_steps
    rng = np.random.default_rng(2026)
    sizes = [48, 384, *(int(n) for n in rng.integers(48, 385, 6))]
    worst = []
    for n in sizes:
        item = np.random.default_rng([2026, n])
        types, widths = fast_trained.attributes.sample(n, item)
        buckets = np.array([width_bucket(int(w)) for w in widths])
        block = PairBlock.legal(types)
        pairs = block.size
        schedule = NoiseSchedule.cosine(
            steps, fast_trained.target_density(n, pairs))
        bias = fast_trained.calibration_bias(n, pairs)
        a_blk = schedule.prior_sample(block.shape, item)
        drift = 0.0
        for t in range(steps, 0, -1):
            p_x0 = model.predict_full(types, buckets, a_blk, t / steps,
                                      logit_bias=bias, block=block)
            h = model._encode_np(types, buckets, block.scatter(a_blk),
                                 t / steps)
            want = _unblocked_decode(model, h[None], t / steps, bias)[0]
            drift = max(drift, float(np.abs(p_x0 - block.gather(want)).max()))
            p_draw = (schedule.posterior_probability(a_blk, p_x0, t)
                      if t > 1 else p_x0)
            a_blk = item.random(block.shape) < p_draw
        worst.append((n, drift))
    assert all(drift <= DECODE_TOLERANCE for _, drift in worst), worst


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        graphs = load_corpus()[:5]
        cfg = DiffusionConfig(epochs=25, hidden=24, num_layers=2, seed=0)
        return train_diffusion(graphs, cfg)

    def test_loss_decreases(self, trained):
        losses = trained.losses
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_model_separates_edges_from_nonedges(self, trained):
        """After training, real edges should score above random non-edges."""
        g = load_corpus()[0]
        types, buckets = graph_attributes(g)
        a0 = g.adjacency()
        a_1 = trained.schedule.sample_t(a0, 1, np.random.default_rng(0))
        p = trained.model.predict_full(types, buckets, a_1, 1 / 9)
        pos = p[a0].mean()
        neg = p[~a0].mean()
        assert pos > neg

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_diffusion([], DiffusionConfig(epochs=1))


class TestSampling:
    @pytest.fixture(scope="class")
    def trained(self):
        graphs = load_corpus()[:5]
        cfg = DiffusionConfig(epochs=15, hidden=24, num_layers=2, seed=0)
        return train_diffusion(graphs, cfg)

    def test_sample_shapes(self, trained):
        rng = np.random.default_rng(0)
        res = sample_initial_graph(trained, num_nodes=30, rng=rng)
        assert res.adjacency.shape == (30, 30)
        assert res.edge_probability.shape == (30, 30)
        assert len(res.types) == 30

    def test_explicit_attributes_respected(self, trained):
        rng = np.random.default_rng(0)
        types = np.zeros(10, dtype=np.int64)
        widths = np.full(10, 4, dtype=np.int64)
        res = sample_initial_graph(trained, types=types, widths=widths, rng=rng)
        np.testing.assert_array_equal(res.types, types)
        np.testing.assert_array_equal(res.widths, widths)

    def test_requires_nodes_or_attributes(self, trained):
        with pytest.raises(ValueError):
            sample_initial_graph(trained)

    def test_probabilities_in_range(self, trained):
        rng = np.random.default_rng(1)
        res = sample_initial_graph(trained, num_nodes=25, rng=rng)
        assert np.all(res.edge_probability >= 0)
        assert np.all(res.edge_probability <= 1)

    def test_sampling_is_stochastic(self, trained):
        r1 = sample_initial_graph(
            trained, num_nodes=25, rng=np.random.default_rng(1)
        )
        r2 = sample_initial_graph(
            trained, num_nodes=25, rng=np.random.default_rng(2)
        )
        assert not np.array_equal(r1.adjacency, r2.adjacency)


class TestBatchSampling:
    @pytest.fixture(scope="class")
    def trained(self):
        graphs = load_corpus()[:5]
        cfg = DiffusionConfig(epochs=15, hidden=24, num_layers=2, seed=0)
        return train_diffusion(graphs, cfg)

    def test_predict_full_batch_bit_identical(self, trained):
        """Every slice of the batched forward equals the unbatched one
        *bitwise* -- the property the session's sequential/parallel
        equivalence guarantee inherits."""
        rng = np.random.default_rng(3)
        batch, n = 5, 26
        types = rng.integers(0, 5, (batch, n))
        buckets = rng.integers(0, 4, (batch, n))
        a_t = rng.random((batch, n, n)) < 0.15
        stacked = trained.model.predict_full_batch(
            types, buckets, a_t, 0.4, logit_bias=0.2
        )
        for k in range(batch):
            single = trained.model.predict_full(
                types[k], buckets[k], a_t[k], 0.4, logit_bias=0.2
            )
            np.testing.assert_array_equal(stacked[k], single)

    def test_sample_batch_bit_identical_to_per_item(self, trained):
        """Mixed sizes (grouped forwards) and rng-stream continuation:
        the batch must reproduce per-item sampling exactly and leave
        every generator in the identical state."""
        from repro.diffusion import sample_batch

        sizes = [22, 30, 22, 18, 30]
        spawn = np.random.SeedSequence(11).spawn(len(sizes))
        rngs_batch = [np.random.default_rng(c) for c in spawn]
        rngs_single = [np.random.default_rng(c) for c in spawn]
        batch = sample_batch(trained, sizes, rngs_batch)
        for k, (n, result) in enumerate(zip(sizes, batch)):
            single = sample_initial_graph(trained, n, rng=rngs_single[k])
            np.testing.assert_array_equal(result.adjacency, single.adjacency)
            np.testing.assert_array_equal(
                result.edge_probability, single.edge_probability
            )
            np.testing.assert_array_equal(result.types, single.types)
            np.testing.assert_array_equal(result.widths, single.widths)
            assert rngs_batch[k].random() == rngs_single[k].random()

    def test_sample_batch_validates_lengths(self, trained):
        from repro.diffusion import sample_batch

        with pytest.raises(ValueError):
            sample_batch(trained, [10, 12], [np.random.default_rng(0)])


def _legal_mask(types):
    """(N, N) mask of the pairs Phase 2 can use, from the type rules:
    the driver is not an ``out`` and the receiver takes parents."""
    kinds = [type_from_index(int(t)) for t in types]
    drives = np.array([k is not NodeType.OUT for k in kinds])
    receives = np.array([arity_of(k) > 0 for k in kinds])
    return drives[:, None] & receives[None, :]


class TestLegalBlock:
    """Phase 1 noises, scores and samples only drivers x receivers."""

    @pytest.fixture(scope="class")
    def trained(self):
        graphs = load_corpus()[:5]
        cfg = DiffusionConfig(epochs=15, hidden=24, num_layers=2, seed=0)
        return train_diffusion(graphs, cfg)

    def test_block_follows_type_rules(self):
        types = np.arange(NUM_TYPES)
        block = PairBlock.legal(types)
        mask = np.zeros((NUM_TYPES, NUM_TYPES), dtype=bool)
        mask[np.ix_(block.drivers, block.receivers)] = True
        np.testing.assert_array_equal(mask, _legal_mask(types))
        dense = np.arange(NUM_TYPES ** 2).reshape(NUM_TYPES, NUM_TYPES)
        np.testing.assert_array_equal(
            block.scatter(block.gather(dense)), np.where(mask, dense, 0))
        # The encoder's aggregation of a block is the dense one of its
        # scatter, bit for bit.
        a_blk = np.random.default_rng(1).random(block.shape) < 0.3
        np.testing.assert_array_equal(
            DirectedMPNNEncoder.aggregation_matrix(a_blk, block),
            DirectedMPNNEncoder.aggregation_matrix(block.scatter(a_blk)))

    def test_no_edge_or_probability_outside_block(self, trained):
        """Both sampler paths, over attributes drawn uniformly from
        every node type: no sampled edge and no nonzero P_E lies off the
        legal block, and every legal pair is scored."""
        from repro.diffusion import sample_batch

        every_type = AttributeSampler.__new__(AttributeSampler)
        every_type._pairs = np.array([[t, 4] for t in range(NUM_TYPES)])
        uniform = dataclasses.replace(trained, attributes=every_type)
        sizes = [12, 30, 30, 57, 23]
        spawn = np.random.SeedSequence(7).spawn(len(sizes))
        batch = sample_batch(uniform, sizes,
                             [np.random.default_rng(c) for c in spawn])
        solo = [sample_initial_graph(uniform, n, rng=np.random.default_rng(c))
                for n, c in zip(sizes, spawn)]
        seen = set()
        for result in [*batch, *solo]:
            legal = _legal_mask(result.types)
            assert not result.adjacency[~legal].any()
            assert not result.edge_probability[~legal].any()
            assert (result.edge_probability[legal] > 0).all()
            seen.update(result.types.tolist())
        assert seen == set(range(NUM_TYPES))

    @pytest.mark.parametrize("kind", [NodeType.IN, NodeType.CONST,
                                      NodeType.OUT])
    def test_empty_block_walks(self, trained, kind):
        """All-source attributes have no receivers, all-``out`` ones no
        drivers: the walk returns an empty graph without error."""
        types = np.full(10, type_index(kind))
        widths = np.full(10, 4)
        result = sample_initial_graph(trained, types=types, widths=widths,
                                      rng=np.random.default_rng(0))
        assert result.adjacency.shape == (10, 10)
        assert not result.adjacency.any()
        assert not result.edge_probability.any()
        block = PairBlock.legal(types)
        (p_e,) = trained.model.predict_full_batch(
            types[None], np.full((1, 10), width_bucket(4)),
            [np.zeros(block.shape, dtype=bool)], 0.5, blocks=[block])
        assert p_e.shape == block.shape

    def test_edge_pairs_never_emit_an_illegal_negative(self):
        for g in load_corpus():
            a0 = g.adjacency()
            types, _ = graph_attributes(g)
            legal = _legal_mask(types)
            block = PairBlock.legal(types)
            rng = np.random.default_rng(len(g.name))
            for _ in range(5):
                src, dst, target = _edge_pairs(a0, 8.0, rng, block)
                assert legal[src, dst].all(), g.name
                assert (target == a0[src, dst]).all(), g.name
                assert (target == 0).sum() > 0, g.name


def _training_inputs():
    """(name, types, widths, clean adjacency): corpus designs plus a graph
    with no edges and a 2-node graph."""
    for g in load_corpus()[:4]:
        yield (g.name, *graph_attributes(g), g.adjacency())
    rng = np.random.default_rng(5)
    yield ("no-edges", rng.integers(0, NUM_TYPES, 9),
           rng.integers(0, NUM_WIDTH_BUCKETS, 9), np.zeros((9, 9), dtype=bool))
    yield ("two-nodes", np.array([0, 1]), np.array([2, 0]),
           np.array([[False, True], [False, False]]))


class TestFusedTrainingStep:
    """``loss_and_grads`` is the tape's loss and backward, bit for bit."""

    @pytest.mark.parametrize("preset", ["smoke", "fast"])
    def test_loss_and_grads_equal_tape(self, preset):
        cfg = resolve_preset(preset).diffusion
        net = DenoisingNetwork(hidden=cfg.hidden, num_layers=cfg.num_layers,
                               time_dim=cfg.time_dim, seed=3)
        schedule = NoiseSchedule.cosine(cfg.num_steps, 0.05)
        rng = np.random.default_rng(0)
        checked = 0
        for name, types, widths, a0 in _training_inputs():
            for t in (1, 5, cfg.num_steps):
                a_t = schedule.sample_t(a0, t, rng)
                src, dst, target = _edge_pairs(a0, cfg.neg_ratio, rng)
                t_frac = t / cfg.num_steps

                net.zero_grad()
                tape = bce_with_logits(
                    net(types, widths, a_t, t_frac, src, dst), target
                )
                tape.backward()
                want = [p.grad for p in net.parameters()]

                net.zero_grad()
                loss = net.loss_and_grads(types, widths, a_t, t_frac,
                                          src, dst, target)
                assert loss == tape.item(), (name, t)
                for k, p in enumerate(net.parameters()):
                    assert p.grad.shape == p.data.shape
                    assert np.array_equal(p.grad, want[k]), (name, t, k)
                checked += 1
        assert checked == 6 * 3

    def test_adam_flat_step_equals_per_parameter_update(self):
        """Flat Adam skips the gradless parameter and updates the other
        exactly as the per-parameter loop did (weight decay included)."""
        rng = np.random.default_rng(1)
        live = Tensor(rng.normal(size=(40, 25)), requires_grad=True)
        idle = Tensor(rng.normal(size=5), requires_grad=True)
        idle_before = idle.data.copy()
        opt = Adam([live, idle], lr=0.01, weight_decay=0.1)

        data, m, v = live.data.copy(), np.zeros((40, 25)), np.zeros((40, 25))
        b1, b2 = 0.9, 0.999
        for step in range(1, 11):
            grad = rng.normal(size=(40, 25))
            opt.zero_grad()
            live.grad = grad.copy()
            opt.step()
            # The per-parameter update the flat one replaced.
            grad = grad + 0.1 * data
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            data -= 0.01 * (m / (1.0 - b1 ** step)) / (
                np.sqrt(v / (1.0 - b2 ** step)) + 1e-8
            )
            assert live.data.tobytes() == data.tobytes()
        assert idle.data.tobytes() == idle_before.tobytes()


#: The fitted ``fast``-preset denoiser on the corpus training split:
#: sha256 prefixes of its parameter bytes (``parameters()`` order) and of
#: its per-epoch ``losses``, under single-threaded OpenBLAS.  These were
#: measured on the autograd-tape training loop; the fused numpy step must
#: reproduce them exactly.  They move only in a change that sets out to
#: change the fitted model.
FIT_PIN = ("bac1b0d3d33598de", "fe0e7a42425135bd")

_FIT_SCRIPT = """
import hashlib
import numpy as np
from repro.api.presets import resolve_preset
from repro.bench_designs import train_test_split
from repro.diffusion import train_diffusion
trained = train_diffusion(train_test_split(seed=2025)[0],
                          resolve_preset("fast").diffusion)
params = hashlib.sha256()
for p in trained.model.parameters():
    params.update(p.data.tobytes())
losses = hashlib.sha256(np.asarray(trained.losses).tobytes())
print(params.hexdigest()[:16], losses.hexdigest()[:16])
"""


def test_fitted_fast_model_pin():
    """GEMM results depend on the BLAS thread count, so the fit runs in a
    child process pinned to one thread."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FIT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert tuple(out.stdout.split()) == FIT_PIN
