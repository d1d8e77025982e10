"""Node attribute featurisation shared by encoder and baselines.

Node attributes are (type, width); types become one-hot indices for an
embedding table and widths are bucketed by log2 so that 1-, 8- and 32-bit
signals land in distinct buckets.  The types also fix which ordered pairs
can carry an edge at all (:class:`PairBlock`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import CircuitGraph, NodeType, arity_of

#: Number of log2 width buckets (1, 2, 3-4, 5-8, ..., >128).
NUM_WIDTH_BUCKETS = 8

#: Fewest nodes a sample can have: one input, output, register and
#: constant (see :meth:`AttributeSampler.sample`).
MIN_NODES = 4


#: Per type index: can the node drive another (every type but ``out``),
#: and does it take parents (arity > 0)?
_DRIVES = np.array([t is not NodeType.OUT for t in NodeType])
_RECEIVES = np.array([arity_of(t) > 0 for t in NodeType])


@dataclass(frozen=True)
class PairBlock:
    """The ordered pairs ``drivers x receivers`` of an N-node graph.

    Phase 2 never gives a parent to an arity-0 node (``in``, ``const``)
    and never lets an ``out`` node drive anything, so an edge can only
    run from a driver (type not ``out``) to a receiver (arity > 0).
    :meth:`legal` is that block; Phase 1 noises, scores and samples only
    its pairs, and every other pair stays 0.  :meth:`gather` and
    :meth:`scatter` move between the ``(|D|, |R|)`` block and the dense
    ``(N, N)`` matrix.
    """

    num_nodes: int
    drivers: np.ndarray
    receivers: np.ndarray

    @classmethod
    def legal(cls, types: np.ndarray) -> "PairBlock":
        """The pairs that can carry an edge under node types ``types``."""
        types = np.asarray(types, dtype=np.int64)
        return cls(len(types), np.flatnonzero(_DRIVES[types]),
                   np.flatnonzero(_RECEIVES[types]))

    @classmethod
    def full(cls, num_nodes: int) -> "PairBlock":
        """Every ordered pair of ``num_nodes`` nodes."""
        every = np.arange(num_nodes)
        return cls(num_nodes, every, every)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.drivers), len(self.receivers)

    @property
    def size(self) -> int:
        return len(self.drivers) * len(self.receivers)

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """The block's entries of an ``(N, N)`` matrix."""
        return dense[np.ix_(self.drivers, self.receivers)]

    def scatter(self, block: np.ndarray) -> np.ndarray:
        """``block`` placed in an ``(N, N)`` matrix, zeros elsewhere."""
        out = np.zeros((self.num_nodes, self.num_nodes), dtype=block.dtype)
        out[np.ix_(self.drivers, self.receivers)] = block
        return out


def width_bucket(width: int) -> int:
    return min(int(np.ceil(np.log2(max(width, 1)))) if width > 1 else 0,
               NUM_WIDTH_BUCKETS - 1)


def graph_attributes(graph: CircuitGraph) -> tuple[np.ndarray, np.ndarray]:
    """(type indices, width bucket indices) for all nodes."""
    types = graph.type_indices()
    buckets = np.array(
        [width_bucket(n.width) for n in graph.nodes()], dtype=np.int64
    )
    return types, buckets


class AttributeSampler:
    """Empirical P(X): joint (type, width) distribution of real designs.

    At inference the paper either reuses the training attribute
    distribution or takes user-specified attributes; this class provides
    the former.
    """

    def __init__(self, graphs: list[CircuitGraph]) -> None:
        pairs: list[tuple[int, int]] = []
        from ..ir import type_index

        for g in graphs:
            for node in g.nodes():
                pairs.append((type_index(node.type), node.width))
        if not pairs:
            raise ValueError("attribute sampler needs at least one graph")
        self._pairs = np.array(pairs, dtype=np.int64)

    def sample(
        self, num_nodes: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw (types, widths) for ``num_nodes`` nodes.

        Guarantees at least one input, output, register and constant,
        so that the post-processed circuit is a meaningful sequential
        design; fewer than four nodes cannot hold them and raise
        ``ValueError``.  A draw is first fixed up by overwriting random
        slots with the missing types.  That can overwrite the only
        instance of a type that was present, so a draw still missing a
        type afterwards is repaired once more from the slots whose type
        is not a sole required instance.  Draws the first fix-up
        completes never reach the repair, so its extra rng draws move
        only those that would otherwise break the guarantee.
        """
        from ..ir import NodeType, type_index

        required = [
            type_index(NodeType.IN),
            type_index(NodeType.OUT),
            type_index(NodeType.REG),
            type_index(NodeType.CONST),
        ]
        if num_nodes < MIN_NODES:
            raise ValueError(
                f"num_nodes must be >= {MIN_NODES} to hold an input, "
                f"output, register and constant; got {num_nodes}"
            )
        idx = rng.integers(0, len(self._pairs), size=num_nodes)
        types = self._pairs[idx, 0].copy()
        widths = self._pairs[idx, 1].copy()
        taken: set[int] = set()
        for needed in required:
            if not np.any(types == needed):
                # Overwrite a random slot not already reserved.
                slot = int(rng.integers(0, num_nodes))
                while slot in taken and len(taken) < num_nodes:
                    slot = int(rng.integers(0, num_nodes))
                types[slot] = needed
                taken.add(slot)
        for needed in required:
            if not np.any(types == needed):
                sole = [
                    int(np.flatnonzero(types == kind)[0]) for kind in required
                    if np.count_nonzero(types == kind) == 1
                ]
                free = np.setdiff1d(np.arange(num_nodes), sole)
                types[int(rng.choice(free))] = needed
        return types, widths
