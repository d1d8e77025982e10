"""Data augmentation for ML-based RTL PPA prediction (the paper's Table III).

Demonstrates the paper's headline application through the session API: a
gradient-boosted PPA predictor trained on a small set of real designs
improves when the training set is augmented with SynCircuit-generated
pseudo-circuits.  The fitted generator is cached in the session's
artifact store, so re-running the experiment only pays for generation.

    python examples/ppa_augmentation.py
"""

from repro.api import GenerateRequest, Session
from repro.bench_designs import train_test_split
from repro.ppa import evaluate_augmentation, format_table


def main() -> None:
    train, test = train_test_split(seed=2025)
    print(f"{len(train)} real training designs, {len(test)} held-out designs")

    session = Session(preset="fast", seed=0)
    session.config.diffusion.epochs = 80
    session.config.mcts.num_simulations = 40
    session.config.mcts.max_depth = 6
    session.config.mcts.branching = 5
    session.fit(train)

    print("generating 10 pseudo-circuits (w/ and w/o MCTS optimization) ...")
    result = session.generate(GenerateRequest(
        count=10, nodes=(40, 60), optimize=True, seed=3,
    ))

    rows = evaluate_augmentation(
        base_train=train,
        test=test,
        synthetic_sets={
            "SynCircuit w/o opt": [r.g_val for r in result.records],
            "SynCircuit w/ opt": [r.g_opt for r in result.records],
        },
        clock_period=1.0,
        # Tight periods so WNS/TNS labels carry real violations.
        periods=[0.12, 0.2, 0.35, 0.6],
    )
    print()
    print(format_table(rows))


if __name__ == "__main__":
    main()
