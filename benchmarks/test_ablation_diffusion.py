"""Ablations of the diffusion model beyond the paper's tables.

1. Diffusion step count: 1 vs 3 vs 9 reverse steps (paper default 9).
2. Decoder asymmetry: the TransE decoder vs a symmetric elementwise
   decoder (the failure mode of prior work that the paper motivates).
3. Post-processing degree guidance: on vs off.
"""

import numpy as np

from repro.bench_designs import train_test_split
from repro.diffusion import (
    DiffusionConfig,
    graph_attributes,
    sample_initial_graph,
    train_diffusion,
)
from repro.diffusion.features import PairBlock
from repro.metrics import structural_similarity
from repro.postprocess import refine_to_valid

from conftest import write_result


def _gval_samples(trained, reference, count, seed, guidance=0.5):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        res = sample_initial_graph(trained, reference.num_nodes, rng=rng)
        graphs.append(
            refine_to_valid(
                res.types, res.widths, res.adjacency, res.edge_probability,
                rng=rng, degree_guidance=guidance,
            )
        )
    return graphs


def test_ablation_diffusion_steps(benchmark):
    train, _ = train_test_split(seed=2025)
    reference = train[0]
    lines = [f"{'steps':>6s}{'w1_out_degree':>16s}{'w1_orbit':>12s}"]
    scores = {}
    for steps in (1, 3, 9):
        cfg = DiffusionConfig(
            num_steps=steps, epochs=80, hidden=32, num_layers=3, seed=0
        )
        trained = train_diffusion(train, cfg)
        graphs = _gval_samples(trained, reference, count=3, seed=steps)
        report = structural_similarity(reference, graphs)
        scores[steps] = report
        lines.append(
            f"{steps:>6d}{report.w1_out_degree:>16.3f}"
            f"{report.w1_orbit:>12.3f}"
        )
    write_result("ablation_diffusion_steps", "\n".join(lines))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_decoder_asymmetry(benchmark):
    """Measure directional information: a symmetric decoder cannot favour
    the true edge direction over its reverse.

    The model sees what it sees in training and sampling: the legal
    block (drivers x receivers) noised, every other pair 0.  Only edges
    whose reverse pair is legal too are compared, so the reverse is a
    pair the model was trained on and the walk would score.
    """
    train, _ = train_test_split(seed=2025)
    cfg = DiffusionConfig(epochs=80, hidden=32, num_layers=3, seed=0)
    trained = train_diffusion(train, cfg)

    rng = np.random.default_rng(0)
    margins = []
    for g in train[:6]:
        types, buckets = graph_attributes(g)
        a0 = g.adjacency()
        block = PairBlock.legal(types)
        a1 = trained.schedule.sample_t(block.gather(a0), 1, rng)
        p = block.scatter(
            trained.model.predict_full(types, buckets, a1, 1 / 9, block=block)
        )
        legal = block.scatter(np.ones(block.shape, dtype=bool))
        # Edges whose reverse is absent but legal.
        fwd = a0 & ~a0.T & legal.T
        if fwd.sum() == 0:
            continue
        margins.append(float(p[fwd].mean() - p.T[fwd].mean()))
    mean_margin = float(np.mean(margins))
    lines = [
        "directional margin = mean P(true direction) - P(reverse direction)",
        f"TransE decoder margin: {mean_margin:+.4f}",
        "(a symmetric decoder is exactly 0 by construction)",
    ]
    write_result("ablation_decoder_asymmetry", "\n".join(lines))
    assert mean_margin > 0.02, (
        "the asymmetric decoder must assign higher probability to the "
        "true edge direction than to its reverse"
    )
    types, buckets = graph_attributes(train[0])
    block = PairBlock.legal(types)
    a_block = block.gather(train[0].adjacency())
    benchmark.pedantic(
        lambda: trained.model.predict_full(
            types, buckets, a_block, 1.0, block=block
        ),
        rounds=2, iterations=1,
    )


def test_ablation_degree_guidance(benchmark):
    """Out-degree guidance in Phase 2 should leave no zero-fanout
    registers (the observability prerequisite for Phase 3)."""
    train, _ = train_test_split(seed=2025)
    cfg = DiffusionConfig(epochs=60, hidden=32, num_layers=3, seed=0)
    trained = train_diffusion(train, cfg)
    reference = train[0]

    rows = [f"{'guidance':>10s}{'zero_fanout_regs':>18s}{'total_regs':>12s}"]
    zero_counts = {}
    for guidance in (0.0, 0.5):
        zero = total = 0
        for g in _gval_samples(
            trained, reference, count=4, seed=31, guidance=guidance
        ):
            for reg in g.registers():
                total += 1
                if not g.children(reg):
                    zero += 1
        zero_counts[guidance] = zero
        rows.append(f"{guidance:>10.1f}{zero:>18d}{total:>12d}")
    write_result("ablation_degree_guidance", "\n".join(rows))
    assert zero_counts[0.5] <= zero_counts[0.0]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
