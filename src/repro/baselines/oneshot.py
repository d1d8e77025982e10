"""One-shot undirected baselines: GraphMaker-v and SparseDigress-v.

Both models generate an *undirected* graph in one shot, then receive the
paper's two adaptation steps: gravity-inspired direction assignment
(Salha et al. 2019) and node-ordered validity refinement.

GraphMaker-v here is a degree-corrected, type-conditioned edge model
(the structural core of GraphMaker's one-shot attributed-graph denoiser):
``p_uv ~ d_u d_v theta[type_u, type_v] / 2E`` with degrees sampled from
the per-type empirical degree distribution.  SparseDigress-v shares the
probability model but samples a *fixed edge budget* without replacement,
mirroring the sparsity-preserving training of SparseDiGress.  Both are
simplifications of the published models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffusion import AttributeSampler
from ..ir import CircuitGraph, NUM_TYPES, type_index
from ..metrics import undirected_simple
from ..nn import sigmoid_np
from ..postprocess import refine_to_valid


class GravityDirectioner:
    """Learned direction assignment for undirected edges.

    Gravity-inspired graph autoencoders score a directed edge (u -> v) by
    the target's "mass"; we learn one mass per node type by maximising
    the likelihood of the real edges' directions, then orient each
    undirected edge toward the higher-scoring endpoint (stochastically).
    """

    def __init__(self, lr: float = 0.5, epochs: int = 200):
        self.mass = np.zeros(NUM_TYPES)
        self.lr = lr
        self.epochs = epochs

    def fit(self, graphs: list[CircuitGraph]) -> "GravityDirectioner":
        src_types: list[int] = []
        dst_types: list[int] = []
        for g in graphs:
            for u, v in g.edges():
                src_types.append(type_index(g.node(u).type))
                dst_types.append(type_index(g.node(v).type))
        if not src_types:
            raise ValueError("no edges in training graphs")
        src = np.array(src_types)
        dst = np.array(dst_types)
        for _ in range(self.epochs):
            score = self.mass[dst] - self.mass[src]
            p = sigmoid_np(score)
            grad = np.zeros(NUM_TYPES)
            np.add.at(grad, dst, 1.0 - p)
            np.add.at(grad, src, -(1.0 - p))
            self.mass += self.lr * grad / len(src)
        return self

    def orientation_probability(
        self, types_u: np.ndarray, types_v: np.ndarray
    ) -> np.ndarray:
        """P(edge points u -> v) for arrays of endpoint types."""
        return sigmoid_np(self.mass[types_v] - self.mass[types_u])


@dataclass
class _EdgeModel:
    """Degree-corrected type-pair affinity fitted by counting."""

    theta: np.ndarray              # (T, T) symmetric affinity
    degree_samples: dict[int, np.ndarray]   # type -> empirical degrees
    mean_edges_per_node: float

    @classmethod
    def fit(cls, graphs: list[CircuitGraph]) -> "_EdgeModel":
        pair_counts = np.zeros((NUM_TYPES, NUM_TYPES))
        class_degree = np.zeros(NUM_TYPES)
        degree_samples: dict[int, list[float]] = {t: [] for t in range(NUM_TYPES)}
        total_edges = 0.0
        total_nodes = 0
        for g in graphs:
            u = undirected_simple(g.adjacency())
            deg = u.sum(axis=1)
            types = g.type_indices()
            total_nodes += g.num_nodes
            for node, d in zip(types, deg):
                degree_samples[int(node)].append(float(d))
                class_degree[int(node)] += d
            src, dst = np.nonzero(np.triu(u, k=1))
            total_edges += len(src)
            for s, d in zip(types[src], types[dst]):
                pair_counts[s, d] += 1
                pair_counts[d, s] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(
                np.outer(class_degree, class_degree) > 0,
                pair_counts * (2.0 * total_edges)
                / np.maximum(np.outer(class_degree, class_degree), 1e-9),
                0.0,
            )
        return cls(
            theta=theta,
            degree_samples={
                t: np.array(v) if v else np.array([1.0])
                for t, v in degree_samples.items()
            },
            mean_edges_per_node=total_edges / max(total_nodes, 1),
        )

    def probability_matrix(
        self, types: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Symmetric edge probabilities for a sampled degree sequence."""
        degrees = np.array([
            self.degree_samples[int(t)][
                rng.integers(0, len(self.degree_samples[int(t)]))
            ]
            for t in types
        ])
        two_e = max(degrees.sum(), 1.0)
        p = (
            np.outer(degrees, degrees)
            * self.theta[np.ix_(types, types)]
            / two_e
        )
        np.fill_diagonal(p, 0.0)
        return np.clip(p, 0.0, 1.0)


class _OneShotBase:
    """Shared fit/orient/refine scaffolding for the two one-shot models."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.edge_model: _EdgeModel | None = None
        self.gravity = GravityDirectioner()
        self.attributes: AttributeSampler | None = None

    def fit(self, graphs: list[CircuitGraph], verbose: bool = False):
        if not graphs:
            raise ValueError("need at least one training graph")
        self.edge_model = _EdgeModel.fit(graphs)
        self.gravity.fit(graphs)
        self.attributes = AttributeSampler(graphs)
        return self

    def _sample_undirected(
        self, p: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError

    def generate(
        self, num_nodes: int, rng: np.random.Generator, name: str = "oneshot"
    ) -> CircuitGraph:
        if self.edge_model is None or self.attributes is None:
            raise RuntimeError("call fit() first")
        types, widths = self.attributes.sample(num_nodes, rng)
        p_sym = self.edge_model.probability_matrix(types, rng)
        undirected = self._sample_undirected(p_sym, rng)

        # Gravity direction assignment.
        adjacency = np.zeros((num_nodes, num_nodes), dtype=bool)
        probability = np.zeros((num_nodes, num_nodes))
        us, vs = np.nonzero(np.triu(undirected, k=1))
        p_uv = self.gravity.orientation_probability(types[us], types[vs])
        forward = rng.random(len(us)) < p_uv
        adjacency[us[forward], vs[forward]] = True
        adjacency[vs[~forward], us[~forward]] = True
        # Directed probabilities inform the validity refinement ranking.
        probability[us, vs] = p_sym[us, vs] * p_uv
        probability[vs, us] = p_sym[us, vs] * (1.0 - p_uv)

        return refine_to_valid(
            types, widths, adjacency, probability, name=name, rng=rng
        )


class GraphMakerV(_OneShotBase):
    """GraphMaker-v: independent Bernoulli edges from the one-shot model."""

    def _sample_undirected(
        self, p: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        sample = rng.random(p.shape) < p
        return np.triu(sample, k=1) | np.triu(sample, k=1).T


class SparseDigressV(_OneShotBase):
    """SparseDigress-v: fixed edge budget, sampled without replacement."""

    def _sample_undirected(
        self, p: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = p.shape[0]
        budget = int(round(self.edge_model.mean_edges_per_node * n))
        iu, ju = np.triu_indices(n, k=1)
        weights = p[iu, ju]
        total = weights.sum()
        out = np.zeros((n, n), dtype=bool)
        if total <= 0 or budget == 0:
            return out
        budget = min(budget, int((weights > 0).sum()))
        chosen = rng.choice(
            len(weights), size=budget, replace=False, p=weights / total
        )
        out[iu[chosen], ju[chosen]] = True
        return out | out.T
