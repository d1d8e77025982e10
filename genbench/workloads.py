"""Seeded request streams, one per workload.

Every workload is a closed loop: one client sends its next
``GenerateRequest`` when the previous one returns, with ``workers=1``.
The stream is a sequence of *blocks*.  A block holds one request per
entry of ``counts``; request ``j`` of block ``b`` draws its node range
inside size stratum ``(j + b) % len(strata)``.  This Latin-square
assignment is fixed, so every seed sends the same multiset of
(circuit count, size stratum) pairs and the seed varies only the exact
node ranges, the per-request seeds and the order within each block.
Without it, which stratum happened to draw the three-circuit requests
would move the run's total work by a factor of two from seed to seed.

The number of blocks follows from ``seconds`` and the workload's nominal
block cost (normalised seconds, see :mod:`genbench.refkernel`), so a
given ``(seed, seconds)`` always yields the same request list and hence
the same circuits, whatever the machine's speed.

Once timings are normalised, a run repeated with the same seed reads
within about 1%; runs with different seeds differ by their circuits,
whose cost and quality vary by about 40% from one circuit to the next
at equal size.  A run's means are therefore only as steady as the
number of circuits it covers.  In 30 s that is about 90 circuits for
``population-lowbudget`` and 144 for ``sample-only``, which
``BENCHMARK.json`` lists, but about 24 for ``population`` (whose
spreads over five seeds reached 0.22-0.32 of the median at 18 circuits
a run) and 14 for ``large-lowbudget``.  Those two and
``population-fast`` stay runnable by name for by-hand comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    #: Circuits per request, one request per entry in every block.
    counts: tuple[int, ...]
    #: Inclusive node-count strata the requests' ranges are drawn in.
    strata: tuple[tuple[int, int], ...]
    #: Width of one request's node range (``nodes=(lo, lo + width)``).
    width: int
    #: Nominal cost of one block in normalised seconds.
    block_seconds: float
    optimize: bool = True
    tier: str | None = None
    #: ``MCTSConfig`` overrides on top of the ``fast`` preset.
    mcts: dict = field(default_factory=dict)

    def num_blocks(self, seconds: float) -> int:
        return max(1, round(seconds / self.block_seconds))

    def request_specs(self, seed: int, seconds: float) -> list[dict]:
        """The request stream as plain ``GenerateRequest`` field dicts."""
        rng = np.random.default_rng([seed, 0x5EC1])
        specs: list[dict] = []
        for block in range(self.num_blocks(seconds)):
            rows = []
            for j, count in enumerate(self.counts):
                low, high = self.strata[(j + block) % len(self.strata)]
                lo = int(rng.integers(low, high - self.width + 1))
                rows.append({
                    "count": count,
                    "nodes": (lo, lo + self.width),
                    "seed": int(rng.integers(0, 2**31 - 1)),
                    "optimize": self.optimize,
                    "tier": self.tier,
                    "workers": 1,
                })
            specs.extend(rows[k] for k in rng.permutation(len(rows)))
        return specs

    def requests(self, seed: int, seconds: float) -> list:
        from repro.api import GenerateRequest

        return [
            GenerateRequest(**spec)
            for spec in self.request_specs(seed, seconds)
        ]


_POPULATION = dict(
    counts=(1, 2, 3),
    strata=((36, 66), (67, 97), (98, 128)),
    width=12,
    block_seconds=7.8,
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        # The headline: exact tier; Phase-3 cone search dominates.
        Workload("population", **_POPULATION),
        # The identical stream in the fast tier: cone triage, early exit
        # and the fused sampler run only here.
        Workload(
            "population-fast",
            tier="fast",
            **{**_POPULATION, "block_seconds": 2.4},
        ),
        # The population stream at a low search budget: the exact-tier
        # search with cone search and oracle both visible, cheap enough
        # per circuit that one run covers a hundred circuits.
        Workload(
            "population-lowbudget",
            mcts={"num_simulations": 12},
            **{**_POPULATION, "block_seconds": 2.0},
        ),
        # Big circuits at a low search budget: the acceptance oracle's
        # share of wall is visible.
        Workload(
            "large-lowbudget",
            counts=(1, 1),
            strata=((192, 255), (256, 320)),
            width=16,
            block_seconds=4.1,
            mcts={"num_simulations": 12},
        ),
        # The control: diffusion and refinement only, Phase 3 bypassed.
        Workload(
            "sample-only",
            counts=(1, 2, 3, 4, 5, 6, 7, 8),
            strata=((64, 127), (128, 191), (192, 255), (256, 320)),
            width=24,
            block_seconds=7.0,
            optimize=False,
        ),
    )
}
