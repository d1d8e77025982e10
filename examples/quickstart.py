"""Quickstart: train SynCircuit through the session API and emit Verilog.

Runs the full three-phase pipeline at a small scale:
  1. open a Session (scenario preset + persistent artifact store) and
     fit it on the 22-design benchmark corpus -- rerunning this script
     hits the store and skips retraining entirely,
  2. generate three brand-new synthetic circuits in parallel,
  3. MCTS-optimize their logic redundancy,
  4. print the synthesizable Verilog of the best one with its PPA report.

    python examples/quickstart.py
"""

from repro.api import GenerateRequest, Session, SynthRequest
from repro.hdl import generate_verilog
from repro.obs import configure_logging


def main() -> None:
    # fit(verbose=True) reports training progress via the repro.*
    # loggers at INFO; opt in so the demo shows its work.
    configure_logging(verbose=1)
    session = Session(
        preset="fast",
        seed=0,
    )
    # Overriding a couple of preset fields keeps the demo minutes-scale.
    session.config.diffusion.epochs = 80
    session.config.mcts.num_simulations = 40
    session.config.mcts.max_depth = 6
    session.config.mcts.branching = 5
    session.config.mcts.clock_period = 1.0

    print("fitting (cached in the artifact store after the first run) ...")
    session.fit(verbose=True)

    result = session.generate(GenerateRequest(
        count=3, nodes=(40, 60), optimize=True, seed=1, synth_period=1.0,
    ))

    best = None
    for record, opt in zip(result.records, result.synth):
        val = session.synth(SynthRequest(record.g_val, clock_period=1.0))
        print(
            f"{record.g_val.name}: {record.g_val.num_nodes} nodes | "
            f"SCPR {val.scpr:.2f} -> {opt.scpr:.2f} | "
            f"PCS {val.pcs:.2f} -> {opt.pcs:.2f} | "
            f"area {opt.area:.1f} um^2, WNS {opt.wns:+.3f} ns"
        )
        if best is None or opt.scpr > best[1].scpr:
            best = (record, opt)

    record, report = best
    graph = record.graph  # G_opt when optimization ran, else G_val
    print(f"\n--- Verilog for {graph.name} "
          f"(SCPR {report.scpr:.2f}, {report.num_cells} cells) ---")
    print(generate_verilog(graph))


if __name__ == "__main__":
    main()
