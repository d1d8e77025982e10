"""Training loop for the diffusion denoiser (x0-parameterisation).

Each step samples a timestep, corrupts a real circuit's adjacency through
the forward process and trains the network to recover the *clean*
adjacency with binary cross-entropy on a balanced set of edge slots (all
positives plus ``neg_ratio`` times as many sampled negatives -- circuit
graphs are sparse, so full-matrix BCE would drown the positive signal).

A step is one :meth:`DenoisingNetwork.loss_and_grads` call -- forward,
loss and backward in plain numpy, bit-identical to the autograd tape --
followed by one flat :class:`~repro.nn.Adam` update.  The whole fit runs
under one ``diffusion.train`` trace span.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..ir import CircuitGraph
from ..nn import Adam
from ..obs import get_logger, span
from .features import AttributeSampler, graph_attributes
from .model import DenoisingNetwork
from .schedule import NoiseSchedule

logger = get_logger(__name__)


@dataclass
class DiffusionConfig:
    """Hyper-parameters; paper values with CPU-scale defaults.

    The paper uses 9 diffusion steps, a 5-layer MPNN and hidden size 256
    on 8 GPUs; hidden defaults to 64 here so the full experiment suite
    runs on CPU.
    """

    num_steps: int = 9
    hidden: int = 64
    num_layers: int = 5
    time_dim: int = 16
    epochs: int = 60
    lr: float = 2e-3
    neg_ratio: float = 4.0
    noise_density: float | None = None  # None: mean density of train set
    seed: int = 0


@dataclass
class TrainedDiffusion:
    """Everything needed to sample new circuits."""

    model: DenoisingNetwork
    schedule: NoiseSchedule
    attributes: AttributeSampler
    config: DiffusionConfig
    losses: list[float] = field(default_factory=list)
    mean_edges_per_node: float = 1.5

    def target_density(self, num_nodes: int) -> float:
        """Size-adaptive edge density for generation.

        Circuit edge counts grow linearly with node count (every node has
        a fixed arity), so density falls as ~degree/N; using the training
        graphs' mean edges-per-node keeps large generated graphs as
        sparse as large real designs.
        """
        return float(
            np.clip(self.mean_edges_per_node / max(num_nodes, 2), 1e-4, 0.5)
        )

    def calibration_bias(self, num_nodes: int) -> float:
        """Negative-sampling prior correction applied at inference.

        Training pairs contain positives at rate ``1/(1+neg_ratio)``; the
        true edge density is far lower.  Shifting the logits by the
        difference of the log-odds recalibrates sampled edge
        probabilities without changing their ranking.
        """
        train_rate = 1.0 / (1.0 + self.config.neg_ratio)
        density = self.target_density(num_nodes)
        return float(
            np.log(density / (1.0 - density))
            - np.log(train_rate / (1.0 - train_rate))
        )


def _edge_pairs(a0: np.ndarray, neg_ratio: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive pairs plus sampled negatives; returns (src, dst, target)."""
    pos_src, pos_dst = np.nonzero(a0)
    num_pos = max(len(pos_src), 1)
    num_neg = int(num_pos * neg_ratio)
    n = a0.shape[0]
    neg_src = rng.integers(0, n, size=num_neg)
    neg_dst = rng.integers(0, n, size=num_neg)
    keep = ~a0[neg_src, neg_dst]
    neg_src, neg_dst = neg_src[keep], neg_dst[keep]
    src = np.concatenate([pos_src, neg_src])
    dst = np.concatenate([pos_dst, neg_dst])
    target = np.concatenate(
        [np.ones(len(pos_src)), np.zeros(len(neg_src))]
    )
    return src, dst, target


def train_diffusion(
    graphs: list[CircuitGraph],
    config: DiffusionConfig | None = None,
    verbose: bool = False,
) -> TrainedDiffusion:
    """Fit the denoising diffusion model on real circuit graphs."""
    config = config or DiffusionConfig()
    if not graphs:
        raise ValueError("need at least one training graph")
    with span("diffusion.train", epochs=config.epochs,
              steps=config.epochs * len(graphs), graphs=len(graphs)):
        return _fit(graphs, config, verbose)


def _fit(graphs: list[CircuitGraph], config: DiffusionConfig,
         verbose: bool) -> TrainedDiffusion:
    rng = np.random.default_rng(config.seed)

    adjacencies = [g.adjacency() for g in graphs]
    attrs = [graph_attributes(g) for g in graphs]
    if config.noise_density is None:
        densities = [a.mean() for a in adjacencies]
        noise_density = float(np.clip(np.mean(densities), 1e-4, 0.5))
    else:
        noise_density = config.noise_density

    schedule = NoiseSchedule.cosine(config.num_steps, noise_density)
    model = DenoisingNetwork(
        hidden=config.hidden,
        num_layers=config.num_layers,
        time_dim=config.time_dim,
        seed=config.seed,
    )
    optimizer = Adam(model.parameters(), lr=config.lr)
    losses: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(graphs))
        epoch_loss = 0.0
        for gi in order:
            a0 = adjacencies[gi]
            types, widths = attrs[gi]
            t = int(rng.integers(1, config.num_steps + 1))
            a_t = schedule.sample_t(a0, t, rng)
            src, dst, target = _edge_pairs(a0, config.neg_ratio, rng)

            optimizer.zero_grad()
            epoch_loss += model.loss_and_grads(
                types, widths, a_t, t / config.num_steps, src, dst, target
            )
            optimizer.step()
        losses.append(epoch_loss / len(graphs))
        if epoch % 10 == 0 or epoch == config.epochs - 1:
            logger.log(
                logging.INFO if verbose else logging.DEBUG,
                "[diffusion] epoch %4d  loss %.4f", epoch, losses[-1],
            )

    return TrainedDiffusion(
        model=model,
        schedule=schedule,
        attributes=AttributeSampler(graphs),
        config=config,
        losses=losses,
        mean_edges_per_node=float(
            np.mean([g.num_edges / max(g.num_nodes, 1) for g in graphs])
        ),
    )
