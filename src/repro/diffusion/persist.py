"""Persistence for trained diffusion generators (.npz bundles).

A saved bundle contains the denoiser weights, the schedule/configuration
scalars and the empirical attribute table, so a generator can be trained
once and reused across sessions without retraining.  It also records
:data:`FORMAT_VERSION`; a bundle of another format is rejected on load.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from .features import AttributeSampler
from .model import DenoisingNetwork
from .schedule import NoiseSchedule
from .train import DiffusionConfig, TrainedDiffusion

#: What a fitted model means, beyond its hyper-parameters.  Bundles
#: without a version are format 1: trained and sampled over all N^2
#: pairs.  Format 2 trains and samples only the legal block (drivers x
#: receivers), so a format-1 model would walk a distribution it was not
#: fitted for.  Bump this whenever fitting or sampling changes what the
#: weights mean; the artifact store keys by it too.
FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    """A saved generator was written under another :data:`FORMAT_VERSION`."""


def save_trained(trained: TrainedDiffusion, path: str | pathlib.Path) -> None:
    """Write a trained generator to ``path`` (.npz)."""
    config_json = json.dumps({
        "num_steps": trained.config.num_steps,
        "hidden": trained.config.hidden,
        "num_layers": trained.config.num_layers,
        "time_dim": trained.config.time_dim,
        "epochs": trained.config.epochs,
        "lr": trained.config.lr,
        "neg_ratio": trained.config.neg_ratio,
        "noise_density": trained.schedule.noise_density,
        "seed": trained.config.seed,
        "format": FORMAT_VERSION,
    })
    arrays = {
        f"param_{key}": value
        for key, value in trained.model.state_dict().items()
    }
    np.savez_compressed(
        path,
        config=np.frombuffer(config_json.encode(), dtype=np.uint8),
        attribute_pairs=trained.attributes._pairs,
        losses=np.asarray(trained.losses, dtype=np.float64),
        mean_edges_per_node=np.float64(trained.mean_edges_per_node),
        **arrays,
    )


def load_trained(path: str | pathlib.Path) -> TrainedDiffusion:
    """Restore a generator saved by :func:`save_trained`.

    Raises :class:`ModelFormatError` when the bundle's format is not
    :data:`FORMAT_VERSION`.
    """
    with np.load(path) as bundle:
        config_raw = json.loads(bytes(bundle["config"]).decode())
        found = config_raw.get("format", 1)
        if found != FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: model format {found}, expected {FORMAT_VERSION}"
            )
        config = DiffusionConfig(
            num_steps=config_raw["num_steps"],
            hidden=config_raw["hidden"],
            num_layers=config_raw["num_layers"],
            time_dim=config_raw["time_dim"],
            epochs=config_raw["epochs"],
            lr=config_raw["lr"],
            neg_ratio=config_raw["neg_ratio"],
            noise_density=config_raw["noise_density"],
            seed=config_raw["seed"],
        )
        model = DenoisingNetwork(
            hidden=config.hidden,
            num_layers=config.num_layers,
            time_dim=config.time_dim,
            seed=config.seed,
        )
        state = {
            key[len("param_"):]: bundle[key]
            for key in bundle.files
            if key.startswith("param_")
        }
        model.load_state_dict(state)
        schedule = NoiseSchedule.cosine(
            config.num_steps, config.noise_density
        )
        sampler = AttributeSampler.__new__(AttributeSampler)
        sampler._pairs = bundle["attribute_pairs"]
        return TrainedDiffusion(
            model=model,
            schedule=schedule,
            attributes=sampler,
            config=config,
            losses=list(bundle["losses"]),
            mean_edges_per_node=float(bundle["mean_edges_per_node"]),
        )
