"""Offline tuning sweep for the diffusion generator (not a test).

Compares training budgets / negative-sampling ratios by the Table II
structural metrics on the tinyrocket reference, through the session API:
each variant is a preset override, every fitted generator lands in the
artifact store (re-running the sweep is pure cache hits), and candidate
circuits are produced with the parallel batch path.  Run:

    python scripts/tune_diffusion.py
"""

import time

import numpy as np

from repro.api import EvalRequest, GenerateRequest, Session, resolve_preset
from repro.bench_designs import reference_designs, train_test_split

train, _ = train_test_split(seed=2025)
reference = reference_designs()["tinyrocket_like"]

variants = {
    "e120_nr4": {"epochs": 120, "hidden": 48, "num_layers": 4, "neg_ratio": 4},
    "e300_nr8": {"epochs": 300, "hidden": 48, "num_layers": 4, "neg_ratio": 8},
    "e300_nr12_h64": {"epochs": 300, "hidden": 64, "num_layers": 5,
                      "neg_ratio": 12},
}

real_density = reference.adjacency().mean()
real_deg = reference.adjacency().sum(axis=1)
print(f"reference: density={real_density:.4f} "
      f"deg_mean={real_deg.mean():.2f} deg_max={real_deg.max()}")

for name, diffusion in variants.items():
    config = resolve_preset("fast", seed=0, diffusion=diffusion)
    session = Session(config=config)
    t0 = time.time()
    session.fit(train)
    t_fit = time.time() - t0

    result = session.generate(GenerateRequest(
        count=3, nodes=reference.num_nodes, optimize=False, seed=0,
    ))
    n = reference.num_nodes
    gini_density = np.mean([r.initial_edges / (n * n) for r in result.records])
    maxdegs = [
        r.g_val.adjacency().sum(axis=1).max() for r in result.records
    ]
    rep = session.evaluate(EvalRequest(reference, result.graphs))
    losses = session.engine.trained.losses
    print(
        f"{name:16s} loss={losses[-1]:.4f} fit={t_fit:.0f}s "
        f"gini_density={gini_density:.4f} gval_maxdeg={np.mean(maxdegs):.1f} "
        f"w1_deg={rep.w1_out_degree:.3f} w1_clu={rep.w1_clustering:.3f} "
        f"w1_orb={rep.w1_orbit:.3f} tri={rep.ratio_triangle:.2f} "
        f"h={rep.ratio_homophily:.2f} h2={rep.ratio_homophily_two_hop:.2f}"
    )
