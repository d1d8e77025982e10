"""Figure 4: SCPR improvement and preserved registers from MCTS.

(a) The five most redundant G_val circuits are optimized with MCTS and
with the random-search ablation at the same simulation budget; SCPR is
reported before and after.
(b) The distribution of registers preserved after logic synthesis under
no optimization / random search / MCTS across the synthetic dataset.
"""

import numpy as np

from repro.mcts import MCTSConfig, SynthesisReward, random_search_registers
from repro.synth import synthesize

from conftest import CLOCK_PERIOD, write_result


def test_fig4_scpr_improvement(syncircuit, syncircuit_records, benchmark):
    # Rank G_val by redundancy (lowest SCPR first), take the worst five.
    scored = []
    for rec in syncircuit_records:
        result = synthesize(rec.g_val, clock_period=CLOCK_PERIOD)
        scored.append((result.scpr, rec))
    scored.sort(key=lambda pair: pair[0])
    worst = scored[:5]

    cfg = syncircuit.config.mcts
    lines_a = [
        f"{'design':<10s}{'scpr_no_opt':>14s}{'scpr_random':>14s}"
        f"{'scpr_mcts':>14s}"
    ]
    mcts_wins = 0
    for scpr_before, rec in worst:
        random_rep = random_search_registers(
            rec.g_val, reward_fn=syncircuit.engine._reward_fn, config=cfg
        )
        scpr_random = synthesize(
            random_rep.graph, clock_period=CLOCK_PERIOD
        ).scpr
        scpr_mcts = synthesize(rec.g_opt, clock_period=CLOCK_PERIOD).scpr
        if scpr_mcts >= scpr_random:
            mcts_wins += 1
        lines_a.append(
            f"{rec.g_val.name:<10s}{scpr_before:>14.3f}"
            f"{scpr_random:>14.3f}{scpr_mcts:>14.3f}"
        )
    write_result("fig4a_scpr", "\n".join(lines_a))

    # (b) Registers preserved across the full synthetic set.
    preserved = {"no_opt": [], "mcts": []}
    for rec in syncircuit_records:
        preserved["no_opt"].append(
            synthesize(rec.g_val, clock_period=CLOCK_PERIOD).num_dffs
        )
        preserved["mcts"].append(
            synthesize(rec.g_opt, clock_period=CLOCK_PERIOD).num_dffs
        )
    lines_b = [f"{'method':<10s}{'mean_dffs':>12s}{'median':>10s}{'max':>8s}"]
    for method, counts in preserved.items():
        arr = np.array(counts)
        lines_b.append(
            f"{method:<10s}{arr.mean():>12.1f}"
            f"{np.median(arr):>10.1f}{arr.max():>8d}"
        )
    write_result("fig4b_preserved_registers", "\n".join(lines_b))

    # Shape checks per the paper: MCTS lifts SCPR well above the
    # unoptimized circuits and is at least as good as random search on a
    # majority of the worst designs.
    mean_before = np.mean([s for s, _ in worst])
    mean_after = np.mean(
        [synthesize(r.g_opt, clock_period=CLOCK_PERIOD).scpr for _, r in worst]
    )
    assert mean_after > mean_before
    assert mcts_wins >= 3
    assert np.mean(preserved["mcts"]) > np.mean(preserved["no_opt"])

    # Benchmark: one full-design PCS reward evaluation (the MCTS inner loop).
    reward = SynthesisReward(CLOCK_PERIOD)
    g = syncircuit_records[0].g_val
    benchmark(lambda: reward(g))
