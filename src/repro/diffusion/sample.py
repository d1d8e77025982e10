"""Reverse denoising sampler: noise -> (G_ini, P_E).

Starting from the stationary sparse prior, each step queries the network
for p(A_0 | A_t), forms the D3PM posterior for A_{t-1} and samples it.
The final step's x0 prediction is the edge-probability matrix
``P_E^{(t=0)}`` that Phase 2's probability-guided refinement consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_logger, registry, span
from ..tiers import EXACT_TIER, FAST_TIER, check_tier
from .train import TrainedDiffusion

logger = get_logger(__name__)


@dataclass
class SampleResult:
    """Initial (possibly invalid) generation output of Phase 1."""

    adjacency: np.ndarray       # bool (N, N): G_ini edges
    edge_probability: np.ndarray  # float (N, N): P_E^{(t=0)}
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

    from .features import width_bucket
    from .schedule import NoiseSchedule

    buckets = np.array([width_bucket(int(w)) for w in widths], dtype=np.int64)
    model = trained.model
    steps = trained.schedule.num_steps
    # Size-adaptive schedule: same step count, density matched to N.
    schedule = NoiseSchedule.cosine(steps, trained.target_density(n))

    with span("diffusion.sample", nodes=n, steps=steps):
        a_t = schedule.prior_sample((n, n), rng)
        p_x0 = np.full((n, n), schedule.noise_density)
        bias = trained.calibration_bias(n)
        for t in range(steps, 0, -1):
            p_x0 = model.predict_full(
                types, buckets, a_t, t / steps, logit_bias=bias
            )
            if t > 1:
                p_prev = schedule.posterior_probability(a_t, p_x0, t)
                a_t = rng.random((n, n)) < p_prev
            else:
                a_t = rng.random((n, n)) < p_x0
    return SampleResult(
        adjacency=a_t.astype(bool),
        edge_probability=p_x0,
        types=types,
        widths=widths,
    )


def sample_batch(
    trained: TrainedDiffusion,
    sizes: list[int],
    rngs: list[np.random.Generator],
    tier: str = EXACT_TIER,
) -> list[SampleResult]:
    """Reverse-sample many graphs, sharing denoiser forwards.

    In the ``exact`` tier (the default) items are grouped by node count
    and each group walks the reverse process in lockstep: per step, one
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_batch`
    forward scores the whole group (row-stacked GEMMs), while every
    stochastic draw still comes from the item's own generator in the
    same order as :func:`sample_initial_graph` would consume it.  The
    result list is therefore element-wise bit-identical to calling
    :func:`sample_initial_graph` per item -- the property the session
    API's sequential/parallel equivalence guarantee rests on -- at a
    fraction of the Python and BLAS dispatch overhead.  The flip side:
    group-by-size sharing degrades to solo-sized forwards as sizes grow
    heterogeneous, which the DEBUG group histogram and the
    ``diffusion_batch_fill_ratio`` gauge make observable.

    The ``fast`` tier drops the grouping entirely:
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_fused`
    packs *all* items -- heterogeneous sizes included -- into one tall
    GEMM per layer, with per-step decoder constants precomputed once
    for the whole walk (the across-steps half of the fusion).  Each
    item's rng is still consumed per item and in walk order, so the
    only divergence from the exact tier is GEMM low-order bits flipping
    threshold draws; the drift that induces is bounded by the tier's
    tolerance gate (:mod:`repro.tiers`).
    """
    check_tier(tier)
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

    # GEMM-sharing fill: fraction of the batch's pair rows a perfectly
    # fused forward would co-schedule that this tier actually does.
    # Exact tier shares within size groups only; fast tier fuses all.
    total = len(sizes)
    fill = (
        1.0 if tier == FAST_TIER or total == 0
        else sum(len(g) ** 2 for g in groups.values()) / total ** 2
    )
    if fill < 1.0:
        logger.debug(
            "[diffusion] exact-tier sample_batch degrades to %d "
            "size-groups (histogram %s): batch_fill_ratio %.3f",
            len(groups),
            {n: len(g) for n, g in sorted(groups.items())},
            fill,
        )
    registry().gauge(
        "diffusion_batch_fill_ratio",
        help="GEMM-sharing fill of the last diffusion sample_batch "
        "(1.0 = fully fused forwards)",
    ).set(fill)

    # One reverse walk over "packs" of items that share a forward: the
    # exact tier packs by node count, the fast tier packs everything.
    packs = (
        list(groups.values()) if tier == EXACT_TIER
        else [list(range(total))] if total else []
    )
    with span(
        "diffusion.sample_batch",
        items=len(sizes), groups=len(groups),
        steps=trained.schedule.num_steps, tier=tier,
    ):
        for members in packs:
            _sample_pack(trained, members, attrs, rngs, results,
                         fused=tier == FAST_TIER)
    return results  # type: ignore[return-value]


def _sample_pack(
    trained: TrainedDiffusion,
    members: list[int],
    attrs: list[tuple[np.ndarray, np.ndarray]],
    rngs: list[np.random.Generator],
    results: list[SampleResult | None],
    fused: bool,
) -> None:
    """Walk the reverse process for one pack of items in lockstep.

    Per step, one forward scores the whole pack --
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_batch`
    for a same-size pack (exact tier), or
    :meth:`~repro.diffusion.model.DenoisingNetwork.predict_full_fused`
    when ``fused`` (fast tier, sizes may differ) -- and one posterior
    call covers the pack, zero-padded to its largest item with each
    item's own stationary density.  Every stochastic draw comes from
    the item's own generator, in :func:`sample_initial_graph`'s order.
    """
    from .features import width_bucket
    from .schedule import NoiseSchedule, d3pm_posterior

    model = trained.model
    steps = trained.schedule.num_steps
    sizes = [len(attrs[k][0]) for k in members]
    schedules = {
        n: NoiseSchedule.cosine(steps, trained.target_density(n))
        for n in sorted(set(sizes))
    }
    biases = [trained.calibration_bias(n) for n in sizes]
    types = [np.asarray(attrs[k][0], dtype=np.int64) for k in members]
    widths = [np.asarray(attrs[k][1], dtype=np.int64) for k in members]
    buckets = [
        np.array([width_bucket(int(w)) for w in row], dtype=np.int64)
        for row in widths
    ]
    # Attributes are already drawn; next come the prior, then one draw
    # per step.
    a_t = [
        schedules[n].prior_sample((n, n), rngs[k])
        for k, n in zip(members, sizes)
    ]
    p_x0 = [np.full((n, n), schedules[n].noise_density) for n in sizes]
    # The cosine beta/alpha-bar depend only on the step count, so only
    # the stationary density varies across the pack -- it broadcasts.
    shared = schedules[sizes[0]]
    density = np.array(
        [schedules[n].noise_density for n in sizes]
    ).reshape(-1, 1, 1)
    nmax = max(sizes)
    a_pad = np.zeros((len(sizes), nmax, nmax))
    p_pad = np.zeros((len(sizes), nmax, nmax))
    consts = model.fused_step_constants(steps) if fused else None
    for t in range(steps, 0, -1):
        if consts is not None:
            p_x0 = model.predict_full_fused(
                list(zip(types, buckets, a_t, biases)), consts[t]
            )
        else:
            p_x0 = list(model.predict_full_batch(
                np.stack(types), np.stack(buckets), np.stack(a_t),
                t / steps, logit_bias=biases[0],
            ))
        p_draw = p_x0
        if t > 1:
            for b, n in enumerate(sizes):
                a_pad[b, :n, :n] = a_t[b]
                p_pad[b, :n, :n] = p_x0[b]
            p_prev = d3pm_posterior(
                a_pad, p_pad, shared.beta[t], shared.alpha_bar[t - 1],
                density,
            )
            p_draw = [p_prev[b, :n, :n] for b, n in enumerate(sizes)]
        a_t = [
            rngs[k].random((n, n)) < p_draw[b]
            for b, (k, n) in enumerate(zip(members, sizes))
        ]
    for b, k in enumerate(members):
        results[k] = SampleResult(
            adjacency=a_t[b].astype(bool),
            edge_probability=p_x0[b],
            types=types[b],
            widths=widths[b],
        )
