"""Shared experiment context for the paper-reproduction benchmarks.

Everything expensive (model training, synthetic dataset generation) is
built once per session here and reused by the per-table benchmark files.
SynCircuit's circuits come from :class:`repro.api.Session`, the same
generation path a user runs.  Scales are CPU-friendly: the paper trains
on GPUs over larger designs, while these configs train in seconds on a
CPU and generate 40-70-node circuits.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.api import GenerateRequest, Session, SynCircuitConfig
from repro.baselines import (
    DVAEBaseline,
    DVAEConfig,
    GraphRNNBaseline,
    GraphRNNConfig,
    GraphMakerV,
    SparseDigressV,
)
from repro.bench_designs import load_corpus, reference_designs, train_test_split
from repro.diffusion import DiffusionConfig
from repro.mcts import MCTSConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Node-count range for generated pseudo-circuits (the paper uses larger
#: designs on GPUs).
SYN_SIZE = (40, 70)
NUM_PSEUDO = 25          # paper: 25 pseudo-circuits per augmentation set
CLOCK_PERIOD = 1.0
#: Tight label periods: most Pareto points carry real timing violations,
#: so WNS/TNS labels have informative spread (as in the paper's labels).
LABEL_PERIODS = [0.12, 0.2, 0.35, 0.6]


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def split():
    train, test = train_test_split(seed=2025, num_test=7)
    return train, test


@pytest.fixture(scope="session")
def references():
    return reference_designs()


# ---------------------------------------------------------------------------
# Trained generators (shared across benches)
# ---------------------------------------------------------------------------


def _syncircuit_config(use_diffusion: bool = True) -> SynCircuitConfig:
    return SynCircuitConfig(
        diffusion=DiffusionConfig(
            epochs=300, hidden=48, num_layers=4, num_steps=9,
            neg_ratio=8.0, seed=0,
        ),
        mcts=MCTSConfig(
            num_simulations=100, max_depth=8, branching=6,
            clock_period=CLOCK_PERIOD, seed=0,
        ),
        degree_guidance=0.5,
        use_diffusion=use_diffusion,
        # The paper uses a discriminator because Design Compiler calls are
        # minutes each; our synthesis substrate evaluates a 40-70 node
        # design in ~2 ms, so the exact PCS reward is affordable.  The
        # discriminator path is exercised by test_ablation_reward.py.
        reward="synthesis",
        discriminator_perturbations=10,
    )


@pytest.fixture(scope="session")
def syncircuit(split):
    train, _ = split
    return Session(config=_syncircuit_config(), use_cache=False).fit(train)


@pytest.fixture(scope="session")
def syncircuit_no_diff(split):
    train, _ = split
    return Session(
        config=_syncircuit_config(use_diffusion=False), use_cache=False
    ).fit(train)


@pytest.fixture(scope="session")
def graphrnn(split):
    train, _ = split
    return GraphRNNBaseline(
        GraphRNNConfig(epochs=40, hidden=48, window=24, seed=0)
    ).fit(train)


@pytest.fixture(scope="session")
def dvae(split):
    train, _ = split
    return DVAEBaseline(
        DVAEConfig(epochs=40, hidden=48, window=24, seed=0)
    ).fit(train)


@pytest.fixture(scope="session")
def graphmaker(split):
    train, _ = split
    return GraphMakerV(seed=0).fit(train)


@pytest.fixture(scope="session")
def sparse_digress(split):
    train, _ = split
    return SparseDigressV(seed=0).fit(train)


# ---------------------------------------------------------------------------
# Generated pseudo-circuit datasets (shared by Fig 4/5 and Table III)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def syncircuit_records(syncircuit):
    """25 generation records: G_val plus MCTS-optimized G_opt each."""
    return syncircuit.generate(GenerateRequest(
        count=NUM_PSEUDO, nodes=SYN_SIZE, seed=11, name_prefix="sc",
    )).records


@pytest.fixture(scope="session")
def graphrnn_set(graphrnn):
    rng = np.random.default_rng(13)
    sizes = rng.integers(SYN_SIZE[0], SYN_SIZE[1] + 1, size=NUM_PSEUDO)
    return [
        graphrnn.generate(int(n), rng, name=f"grnn{i}")
        for i, n in enumerate(sizes)
    ]


@pytest.fixture(scope="session")
def dvae_set(dvae):
    rng = np.random.default_rng(17)
    sizes = rng.integers(SYN_SIZE[0], SYN_SIZE[1] + 1, size=NUM_PSEUDO)
    return [
        dvae.generate(int(n), rng, name=f"dvae{i}")
        for i, n in enumerate(sizes)
    ]
