"""Node attribute featurisation shared by encoder and baselines.

Node attributes are (type, width); types become one-hot indices for an
embedding table and widths are bucketed by log2 so that 1-, 8- and 32-bit
signals land in distinct buckets.
"""

from __future__ import annotations

import numpy as np

from ..ir import CircuitGraph

#: Number of log2 width buckets (1, 2, 3-4, 5-8, ..., >128).
NUM_WIDTH_BUCKETS = 8

#: Fewest nodes a sample can have: one input, output, register and
#: constant (see :meth:`AttributeSampler.sample`).
MIN_NODES = 4


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
