"""Training loop for the diffusion denoiser (x0-parameterisation).

Each step samples a timestep, corrupts a real circuit's adjacency through
the forward process and trains the network to recover the *clean*
adjacency with binary cross-entropy on a balanced set of edge slots (all
positives plus ``neg_ratio`` times as many sampled negatives -- circuit
graphs are sparse, so full-matrix BCE would drown the positive signal).

Training matches the reverse walk: only the circuit's legal block
(:class:`~repro.diffusion.features.PairBlock`: drivers x receivers) is
noised, every other pair of ``A_t`` stays 0, negatives are drawn from
the block, and the noise density is the mean edge density over legal
pairs.

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
from .features import AttributeSampler, PairBlock, graph_attributes
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

    def __post_init__(self) -> None:
        # num_layers=0 still trains and samples, so it stays allowed.
        for name in ("num_steps", "hidden", "time_dim"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TrainedDiffusion:
    """Everything needed to sample new circuits."""

    model: DenoisingNetwork
    schedule: NoiseSchedule
    attributes: AttributeSampler
    config: DiffusionConfig
    losses: list[float] = field(default_factory=list)
    mean_edges_per_node: float = 1.5

    def target_density(self, num_nodes: int,
                       pairs: int | None = None) -> float:
        """Size-adaptive edge density over the ``pairs`` pairs a walk
        draws (default all ``num_nodes ** 2``).

        Circuit edge counts grow linearly with node count (every node has
        a fixed arity), so density falls as ~degree/N; using the training
        graphs' mean edges-per-node keeps large generated graphs as
        sparse as large real designs.  The reverse walk draws only the
        legal block's pairs, so it passes ``PairBlock.size``: the
        expected edge count stays ``mean_edges_per_node * num_nodes``.
        """
        if pairs is None:
            pairs = num_nodes * num_nodes
        return float(np.clip(
            self.mean_edges_per_node * num_nodes / max(pairs, 1), 1e-4, 0.5
        ))

    def calibration_bias(self, num_nodes: int,
                         pairs: int | None = None) -> float:
        """Negative-sampling prior correction applied at inference.

        Training pairs contain positives at rate ``1/(1+neg_ratio)``; the
        true edge density (:meth:`target_density`, over the same
        ``pairs``) is far lower.  Shifting the logits by the difference
        of the log-odds recalibrates sampled edge probabilities without
        changing their ranking.
        """
        train_rate = 1.0 / (1.0 + self.config.neg_ratio)
        density = self.target_density(num_nodes, pairs)
        return float(
            np.log(density / (1.0 - density))
            - np.log(train_rate / (1.0 - train_rate))
        )


def _edge_pairs(
    a0: np.ndarray, neg_ratio: float, rng: np.random.Generator,
    block: PairBlock | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive pairs plus negatives sampled from ``block`` (default
    every pair); returns (src, dst, target)."""
    pos_src, pos_dst = np.nonzero(a0)
    if block is None:
        block = PairBlock.full(a0.shape[0])
    num_pos = max(len(pos_src), 1)
    num_neg = int(num_pos * neg_ratio) if block.size else 0
    neg_src = block.drivers[rng.integers(0, len(block.drivers), num_neg)]
    neg_dst = block.receivers[rng.integers(0, len(block.receivers), num_neg)]
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
    blocks = [PairBlock.legal(types) for types, _ in attrs]
    if config.noise_density is None:
        densities = [
            block.gather(a).sum() / max(block.size, 1)
            for a, block in zip(adjacencies, blocks)
        ]
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
            a0, block = adjacencies[gi], blocks[gi]
            types, widths = attrs[gi]
            t = int(rng.integers(1, config.num_steps + 1))
            a_t = block.scatter(schedule.sample_t(block.gather(a0), t, rng))
            src, dst, target = _edge_pairs(a0, config.neg_ratio, rng, block)

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
