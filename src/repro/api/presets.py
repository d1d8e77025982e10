"""Named scenario presets: curated :class:`SynCircuitConfig` bundles.

Instead of hand-assembling ``SynCircuitConfig(DiffusionConfig(...),
MCTSConfig(...), ...)`` in every script, callers name a scenario and
optionally override individual fields::

    config = resolve_preset("fast", seed=7, diffusion={"epochs": 40})

Presets are factories (not shared instances), so resolved configs are
always safe to mutate.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..diffusion import DiffusionConfig
from ..mcts import MCTSConfig
from .engine import SynCircuitConfig


def _paper() -> SynCircuitConfig:
    return SynCircuitConfig()


def _fast() -> SynCircuitConfig:
    return SynCircuitConfig(
        diffusion=DiffusionConfig(
            epochs=120, hidden=48, num_layers=4, neg_ratio=8
        ),
        mcts=MCTSConfig(num_simulations=60, max_depth=8, branching=6),
        degree_guidance=0.5,
        reward="synthesis",
    )


def _smoke() -> SynCircuitConfig:
    return SynCircuitConfig(
        diffusion=DiffusionConfig(epochs=8, hidden=16, num_layers=2),
        mcts=MCTSConfig(num_simulations=8, max_depth=3, branching=3),
        degree_guidance=0.5,
        reward="synthesis",
    )


def _bench() -> SynCircuitConfig:
    return SynCircuitConfig(
        diffusion=DiffusionConfig(epochs=10, hidden=16, num_layers=2),
        mcts=MCTSConfig(num_simulations=12, max_depth=4, branching=4),
        degree_guidance=0.5,
        reward="synthesis",
    )


def _ablation_no_diff() -> SynCircuitConfig:
    config = _paper()
    config.use_diffusion = False
    return config


def _ablation_reward() -> SynCircuitConfig:
    config = _paper()
    # The ablation's point is the *exact* PCS in the search loop, so the
    # incremental estimate must not substitute for it.
    config.reward = "full-resynthesis"
    return config


_PRESETS: dict[str, tuple[Callable[[], SynCircuitConfig], str]] = {
    "paper": (_paper, "Faithful paper defaults: 9-step diffusion, "
                      "500-simulation MCTS, PCS discriminator reward."),
    "fast": (_fast, "CPU-friendly scale (the old CLI defaults): smaller "
                    "denoiser, 60 simulations, incremental-estimate "
                    "reward verified by exact synthesis."),
    "smoke": (_smoke, "Minutes-scale budget for tests and demos."),
    "bench": (_bench, "Perf-measurement scenario for `repro bench`: "
                      "smoke-scale training with a search budget large "
                      "enough that hot paths dominate the timing."),
    "ablation-no-diff": (_ablation_no_diff,
                         "Paper's 'w/o diff' ablation: random G_ini at "
                         "training density instead of diffusion."),
    "ablation-reward": (_ablation_reward,
                        "Paper's reward ablation: exact synthesis PCS in "
                        "the search loop (reward='full-resynthesis': "
                        "neither the discriminator nor the incremental "
                        "estimate)."),
}


def list_presets() -> dict[str, str]:
    """Preset name -> one-line description, for docs and ``repro presets``."""
    return {name: desc for name, (_, desc) in _PRESETS.items()}


def resolve_preset(
    name: str,
    *,
    seed: int | None = None,
    diffusion: dict | None = None,
    mcts: dict | None = None,
    **overrides,
) -> SynCircuitConfig:
    """Build the named preset's config, applying field overrides.

    ``diffusion`` / ``mcts`` are partial dicts merged into the nested
    configs; remaining keyword arguments override top-level
    ``SynCircuitConfig`` fields.  ``seed`` additionally propagates into
    the nested diffusion and MCTS seeds so one integer controls the
    whole scenario.
    """
    try:
        factory, _ = _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}")
    config = factory()
    if seed is not None:
        config.seed = seed
        config.diffusion.seed = seed
        config.mcts.seed = seed
    if diffusion:
        config.diffusion = dataclasses.replace(config.diffusion, **diffusion)
    if mcts:
        config.mcts = dataclasses.replace(config.mcts, **mcts)
    for key in overrides:
        if not hasattr(config, key):
            raise TypeError(f"SynCircuitConfig has no field {key!r}")
    # replace() re-runs the config's validation on the overrides.
    return dataclasses.replace(config, **overrides)
