"""D-VAE baseline (Zhang et al. 2019), adapted to circuit graphs.

A variational autoencoder over node sequences: a GRU encoder reads the
DAG-ified circuit in topological order into a latent code z; a GRU
decoder conditioned on z regenerates the window connection probabilities
autoregressively.  (The original D-VAE uses asynchronous message passing
for encoding; the topological GRU here is the sequence approximation of
that scheme, a simplification of the published model.)

Like GraphRNN, the adaptation can only produce DAGs; generated circuits
lack register feedback, the deficiency the paper measures in Figure 5.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..diffusion import AttributeSampler
from ..ir import CircuitGraph, NUM_TYPES
from ..obs import get_logger
from ..nn import (
    GRUCell,
    Linear,
    MLP,
    Adam,
    Embedding,
    Tensor,
    bce_with_logits,
    concat_all,
    sigmoid_np,
)
from .common import (
    guaranteed_attributes,
    order_attributes,
    sequential_validity_refine,
    type_position_prior,
)
from .graphrnn import _to_sequences

logger = get_logger(__name__)


@dataclass
class DVAEConfig:
    window: int = 24
    hidden: int = 48
    latent: int = 16
    type_dim: int = 16
    epochs: int = 40
    lr: float = 3e-3
    beta: float = 0.05   # KL weight
    seed: int = 0


class DVAEBaseline:
    """Variational autoencoder over topologically-ordered circuit DAGs."""

    def __init__(self, config: DVAEConfig | None = None):
        self.config = config or DVAEConfig()
        c = self.config
        rng = np.random.default_rng(c.seed)
        self.type_emb = Embedding(NUM_TYPES, c.type_dim, rng)
        self.encoder_gru = GRUCell(c.type_dim + c.window, c.hidden, rng)
        self.mu_head = Linear(c.hidden, c.latent, rng)
        self.logvar_head = Linear(c.hidden, c.latent, rng)
        self.init_head = Linear(c.latent, c.hidden, rng)
        self.decoder_gru = GRUCell(c.type_dim + c.window, c.hidden, rng)
        self.edge_mlp = MLP([c.hidden, c.hidden, c.window], rng)
        self.attributes: AttributeSampler | None = None
        self.position_prior: np.ndarray | None = None
        self.losses: list[float] = []

    def _parameters(self):
        params = []
        for module in (
            self.type_emb, self.encoder_gru, self.mu_head, self.logvar_head,
            self.init_head, self.decoder_gru, self.edge_mlp,
        ):
            params.extend(module.parameters())
        return params

    # ------------------------------------------------------------------
    def fit(self, graphs: list[CircuitGraph], verbose: bool = False
            ) -> "DVAEBaseline":
        if not graphs:
            raise ValueError("need at least one training graph")
        c = self.config
        rng = np.random.default_rng(c.seed)
        self.attributes = AttributeSampler(graphs)
        self.position_prior = type_position_prior(graphs)
        sequences = _to_sequences(graphs, c.window)
        optimizer = Adam(self._parameters(), lr=c.lr)

        for epoch in range(c.epochs):
            epoch_loss = 0.0
            for si in rng.permutation(len(sequences)):
                seq = sequences[si]
                optimizer.zero_grad()
                loss = self._elbo_loss(seq, rng)
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
            self.losses.append(epoch_loss / len(sequences))
            if epoch % 10 == 0:
                logger.log(
                    logging.INFO if verbose else logging.DEBUG,
                    "[dvae] epoch %d loss %.4f", epoch, self.losses[-1],
                )
        return self

    def _elbo_loss(self, seq, rng: np.random.Generator) -> Tensor:
        c = self.config
        n = len(seq.types)
        # Encode.
        h = Tensor(np.zeros((1, c.hidden)))
        prev = np.zeros((1, c.window))
        for i in range(n):
            emb = self.type_emb(np.array([seq.types[i]]))
            x = emb.concat(Tensor(prev), axis=-1)
            h = self.encoder_gru(x, h)
            prev = seq.windows[i:i + 1]
        mu = self.mu_head(h)
        logvar = self.logvar_head(h)
        eps = Tensor(rng.standard_normal((1, c.latent)))
        z = mu + eps * (logvar * 0.5).exp()
        # KL(q(z|G) || N(0, I)).
        one = Tensor(np.ones((1, c.latent)))
        kl = ((mu * mu) + logvar.exp() - logvar - one).sum() * 0.5
        # Decode.
        h = self.init_head(z).tanh()
        prev = np.zeros((1, c.window))
        rows = []
        for i in range(n):
            emb = self.type_emb(np.array([seq.types[i]]))
            x = emb.concat(Tensor(prev), axis=-1)
            h = self.decoder_gru(x, h)
            rows.append(self.edge_mlp(h))
            prev = seq.windows[i:i + 1]
        logits = concat_all(rows, axis=0)
        recon = bce_with_logits(logits, seq.windows)
        return recon + kl * (c.beta / max(n, 1))

    # ------------------------------------------------------------------
    def generate(
        self, num_nodes: int, rng: np.random.Generator, name: str = "dvae"
    ) -> CircuitGraph:
        """Decode a valid circuit DAG from a prior latent sample."""
        if self.attributes is None:
            raise RuntimeError("call fit() first")
        c = self.config
        types, widths = self.attributes.sample(num_nodes, rng)
        types, widths = order_attributes(
            types, widths, self.position_prior, rng
        )
        types, widths = guaranteed_attributes(types, widths)

        z = rng.standard_normal((1, c.latent))
        h = np.tanh(z @ self.init_head.weight.data + self.init_head.bias.data)
        prev = np.zeros((1, c.window))
        probs = np.zeros((num_nodes, num_nodes))
        sampled = np.zeros((num_nodes, num_nodes), dtype=bool)
        for i in range(num_nodes):
            x = np.concatenate(
                [self.type_emb.weight.data[types[i]][None, :], prev], axis=-1
            )
            h = _gru_np(self.decoder_gru, x, h)
            row = sigmoid_np(_mlp_np(self.edge_mlp, h)[0])
            connect = rng.random(c.window) < row
            prev = np.zeros((1, c.window))
            for k in range(c.window):
                j = i - k - 1
                if j < 0:
                    break
                probs[j, i] = row[k]
                if connect[k]:
                    sampled[j, i] = True
                    prev[0, k] = 1.0
        return sequential_validity_refine(
            types, widths, probs, name, rng, sampled_adjacency=sampled
        )


def _gru_np(gru: GRUCell, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    xh = np.concatenate([x, h], axis=-1)
    z = sigmoid_np(xh @ gru.w_z.weight.data + gru.w_z.bias.data)
    r = sigmoid_np(xh @ gru.w_r.weight.data + gru.w_r.bias.data)
    xrh = np.concatenate([x, r * h], axis=-1)
    h_tilde = np.tanh(xrh @ gru.w_h.weight.data + gru.w_h.bias.data)
    return (1 - z) * h + z * h_tilde


def _mlp_np(mlp: MLP, x: np.ndarray) -> np.ndarray:
    out = x
    for layer in mlp.layers[:-1]:
        out = np.maximum(out @ layer.weight.data + layer.bias.data, 0.0)
    last = mlp.layers[-1]
    return out @ last.weight.data + last.bias.data
