"""Reverse denoising sampler: noise -> (G_ini, P_E).

Starting from the stationary sparse prior, each step queries the network
for p(A_0 | A_t), forms the D3PM posterior for A_{t-1} and samples it.
The final step's x0 prediction is the edge-probability matrix
``P_E^{(t=0)}`` that Phase 2's probability-guided refinement consumes.

The walk is a constrained D3PM (Austin et al., 2021): once an item's
attributes are drawn, its legal block (:class:`PairBlock`: drivers, the
nodes that are not ``out``, x receivers, the nodes of arity > 0) is
fixed, and the prior draw, every posterior and draw, and P_E live on
that ``(|D|, |R|)`` block.  Every other pair is held at 0 -- Phase 2
could never use it.  The item's density is matched to its size over the
legal pairs, so the expected edge count is that of the unconstrained
walk.  :class:`SampleResult` scatters the block back into ``(N, N)``
arrays, zero off the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_logger, registry, span
from .features import PairBlock, width_bucket
from .schedule import NoiseSchedule
from .train import TrainedDiffusion

logger = get_logger(__name__)


@dataclass
class SampleResult:
    """Initial (possibly invalid) generation output of Phase 1."""

    adjacency: np.ndarray       # bool (N, N): G_ini edges, 0 off the block
    edge_probability: np.ndarray  # float (N, N): P_E^{(t=0)}, 0 off the block
    types: np.ndarray           # node type indices
    widths: np.ndarray          # node widths (actual bit widths)


def sample_initial_graph(
    trained: TrainedDiffusion,
    num_nodes: int | None = None,
    types: np.ndarray | None = None,
    widths: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> SampleResult:
    """Run the reverse process conditioned on node attributes.

    Attributes may be user-specified (``types``/``widths``) or sampled
    from the training distribution when only ``num_nodes`` is given --
    the two usage modes described in the paper.
    """
    rng = rng or np.random.default_rng()
    if types is None or widths is None:
        if num_nodes is None:
            raise ValueError("provide either num_nodes or explicit attributes")
        types, widths = trained.attributes.sample(num_nodes, rng)
    types = np.asarray(types, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    n = len(types)
    if len(widths) != n:
        raise ValueError("types and widths must have equal length")

    buckets = np.array([width_bucket(int(w)) for w in widths], dtype=np.int64)
    model = trained.model
    steps = trained.schedule.num_steps
    block = PairBlock.legal(types)
    schedule, bias = _walk_schedule(trained, block)

    with span("diffusion.sample", nodes=n, steps=steps):
        a_blk = schedule.prior_sample(block.shape, rng)
        for t in range(steps, 0, -1):
            p_x0 = model.predict_full(
                types, buckets, a_blk, t / steps, logit_bias=bias,
                block=block,
            )
            p_draw = (
                schedule.posterior_probability(a_blk, p_x0, t)
                if t > 1 else p_x0
            )
            a_blk = rng.random(block.shape) < p_draw
    return SampleResult(
        adjacency=block.scatter(a_blk),
        edge_probability=block.scatter(p_x0),
        types=types,
        widths=widths,
    )


def _walk_schedule(
    trained: TrainedDiffusion, block: PairBlock
) -> tuple[NoiseSchedule, float]:
    """One item's noise schedule and logit bias.

    Same step count as training; the density is matched to the item's
    size over its legal pairs (:meth:`TrainedDiffusion.target_density`).
    """
    n, pairs = block.num_nodes, block.size
    schedule = NoiseSchedule.cosine(
        trained.schedule.num_steps, trained.target_density(n, pairs)
    )
    return schedule, trained.calibration_bias(n, pairs)


def sample_batch(
    trained: TrainedDiffusion,
    sizes: list[int],
    rngs: list[np.random.Generator],
) -> list[SampleResult]:
    """Reverse-sample many graphs, sharing denoiser forwards.

    Items are grouped by node count and each group walks the reverse
    process in lockstep: per step, one
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_batch`
    forward scores the whole group (one stacked encoder pass, then the
    cache-blocked pair decoder over each item's own legal block), while
    every stochastic draw still comes from the item's own generator in
    the same order as :func:`sample_initial_graph` would consume it.  The
    result list is therefore element-wise bit-identical to calling
    :func:`sample_initial_graph` per item -- the property the session
    API's sequential/parallel equivalence guarantee rests on -- at a
    fraction of the Python and BLAS dispatch overhead.  Both paths score
    pairs with the one float32 pair decoder, so this equality is exact;
    against a float64 decoder, P_E agrees within 1e-6 and a draw flips
    only when its uniform lands within that difference of P.  The flip
    side: group-by-size sharing degrades to solo-sized forwards as sizes
    grow heterogeneous, which the DEBUG group histogram and the
    ``diffusion_batch_fill_ratio`` gauge make observable.
    """
    if len(sizes) != len(rngs):
        raise ValueError("sizes and rngs must have equal length")
    # Attribute sampling consumes each item's rng first, exactly like
    # the per-item path (item order is irrelevant: rngs are private).
    attrs = [
        trained.attributes.sample(int(n), rng) for n, rng in zip(sizes, rngs)
    ]
    results: list[SampleResult | None] = [None] * len(sizes)
    groups: dict[int, list[int]] = {}
    for index, n in enumerate(sizes):
        groups.setdefault(int(n), []).append(index)

    # GEMM-sharing fill: the fraction of the batch's pair rows that one
    # forward over the whole batch would co-schedule and the size groups
    # actually do.
    total = len(sizes)
    fill = (
        sum(len(g) ** 2 for g in groups.values()) / total ** 2
        if total else 1.0
    )
    if fill < 1.0:
        logger.debug(
            "[diffusion] sample_batch degrades to %d size-groups "
            "(histogram %s): batch_fill_ratio %.3f",
            len(groups),
            {n: len(g) for n, g in sorted(groups.items())},
            fill,
        )
    registry().gauge(
        "diffusion_batch_fill_ratio",
        help="GEMM-sharing fill of the last diffusion sample_batch "
        "(1.0 = one shared forward per step)",
    ).set(fill)

    with span(
        "diffusion.sample_batch",
        items=len(sizes), groups=len(groups),
        steps=trained.schedule.num_steps,
    ):
        for members in groups.values():
            _sample_pack(trained, members, attrs, rngs, results)
    return results  # type: ignore[return-value]


def _sample_pack(
    trained: TrainedDiffusion,
    members: list[int],
    attrs: list[tuple[np.ndarray, np.ndarray]],
    rngs: list[np.random.Generator],
    results: list[SampleResult | None],
) -> None:
    """Walk the reverse process for one same-size pack in lockstep.

    Per step, one
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_batch`
    forward covers the pack; each item's block and schedule are its own,
    so the posterior runs per item.  Every stochastic draw comes from the
    item's own generator, in :func:`sample_initial_graph`'s order.
    """
    model = trained.model
    steps = trained.schedule.num_steps
    types = [np.asarray(attrs[k][0], dtype=np.int64) for k in members]
    widths = [np.asarray(attrs[k][1], dtype=np.int64) for k in members]
    type_stack = np.stack(types)
    bucket_stack = np.array(
        [[width_bucket(int(w)) for w in row] for row in widths],
        dtype=np.int64,
    )
    blocks = [PairBlock.legal(row) for row in types]
    walks = [_walk_schedule(trained, block) for block in blocks]
    biases = [bias for _, bias in walks]
    # Attributes are already drawn; next come the prior, then one draw
    # per step.
    a_blk = [
        schedule.prior_sample(block.shape, rngs[k])
        for (schedule, _), block, k in zip(walks, blocks, members)
    ]
    for t in range(steps, 0, -1):
        p_x0 = model.predict_full_batch(
            type_stack, bucket_stack, a_blk, t / steps,
            logit_bias=biases, blocks=blocks,
        )
        a_blk = [
            rngs[k].random(block.shape) < (
                schedule.posterior_probability(a_blk[b], p_x0[b], t)
                if t > 1 else p_x0[b]
            )
            for b, ((schedule, _), block, k)
            in enumerate(zip(walks, blocks, members))
        ]
    for b, k in enumerate(members):
        results[k] = SampleResult(
            adjacency=blocks[b].scatter(a_blk[b]),
            edge_probability=blocks[b].scatter(p_x0[b]),
            types=types[b],
            widths=widths[b],
        )
