"""Phase-3 scaling record: ``BENCH_phase3_scaling.json``.

    PYTHONPATH=src python scripts/phase3_scaling.py \\
        --parent /path/to/parent/checkout -o BENCH_phase3_scaling.json

Samples unoptimized circuits of 96, 192 and 384 nodes from the ``fast``
preset (session seed 0, request seed 11, two graphs per size), then
times ``optimize_registers`` on them at the 12/8/6 budget (simulations /
depth / branching) in this checkout and, with ``--parent``, in a second
checkout of the same repository.  Each side runs in a fresh process
pinned to one BLAS thread; sides alternate per repeat and the record
keeps each size's median over repeats.  Per size it records ms per
graph, estimate-reward calls per graph, ms per reward call (search wall
over reward calls) and the acceptance oracle's share of the search wall.
The result graphs' ``result_sha`` values are compared across sides, so
a record also states whether the two searches returned the same graphs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIZES = (96, 192, 384)
GRAPHS_PER_SIZE = 2
SESSION_SEED = 0
REQUEST_SEED = 11
BUDGET = {"num_simulations": 12, "max_depth": 8, "branching": 6}
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def sample_graphs(path: pathlib.Path, cache_dir: str) -> None:
    """Write the unoptimized sample population as JSON graph dicts."""
    from repro.api import GenerateRequest, Session

    session = Session(preset="fast", seed=SESSION_SEED, cache_dir=cache_dir)
    session.fit()
    graphs = {}
    for size in SIZES:
        result = session.generate(GenerateRequest(
            count=GRAPHS_PER_SIZE, nodes=size, seed=REQUEST_SEED,
            optimize=False,
        ))
        graphs[str(size)] = [record.graph.to_dict() for record in result.records]
    path.write_text(json.dumps(graphs))


def measure(path: pathlib.Path) -> dict:
    """Search every sampled graph once; per-size totals as a dict."""
    from repro.bench.suites import result_sha
    from repro.ir import CircuitGraph
    from repro.mcts import MCTSConfig, optimize_registers
    from repro.obs import TraceRecorder, tracing

    config = MCTSConfig(**BUDGET)
    out = {}
    for size, rows in json.loads(path.read_text()).items():
        wall_ms = oracle_ms = 0.0
        calls = 0
        shas = []
        for row in rows:
            graph = CircuitGraph.from_dict(row)
            recorder = TraceRecorder()
            started = time.perf_counter()
            with tracing(recorder):
                report = optimize_registers(graph, config=config)
            wall_ms += (time.perf_counter() - started) * 1e3
            oracle_ms += recorder.totals().get("mcts.oracle", (0, 0.0))[1]
            calls += report.reward_calls
            shas.append(result_sha(report.graph))
        out[size] = {
            "wall_ms": wall_ms, "oracle_ms": oracle_ms,
            "reward_calls": calls, "graphs": len(rows), "result_sha": shas,
        }
    return out


def _run_side(src: pathlib.Path, graphs: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--measure", str(graphs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev(checkout: pathlib.Path) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=checkout,
        capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _summary(runs: list[dict]) -> dict:
    sizes = {}
    for size in runs[0]:
        per = [run[size] for run in runs]
        graphs = per[0]["graphs"]
        wall = statistics.median(p["wall_ms"] for p in per)
        oracle = statistics.median(p["oracle_ms"] / p["wall_ms"] for p in per)
        calls = per[0]["reward_calls"]
        sizes[size] = {
            "ms_per_graph": round(wall / graphs, 1),
            "reward_calls_per_graph": calls / graphs,
            "ms_per_reward_call": round(wall / calls, 4),
            "oracle_share": round(oracle, 4),
            "wall_ms_runs": [round(p["wall_ms"], 1) for p in per],
        }
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path,
                        help="checkout to measure against this one")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", default="BENCH_phase3_scaling.json")
    parser.add_argument("--measure", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        graphs = pathlib.Path(tmp) / "graphs.json"
        sample_graphs(graphs, cache_dir=str(pathlib.Path(tmp) / "store"))
        runs: dict[str, list[dict]] = {name: [] for name in sides}
        for repeat in range(args.repeats):
            for name, checkout in sides.items():
                runs[name].append(_run_side(checkout / "src", graphs))
                print(f"repeat {repeat + 1}/{args.repeats} {name} done",
                      file=sys.stderr)
    record = {
        "budget": BUDGET,
        "graphs": {"preset": "fast", "sizes": list(SIZES),
                   "per_size": GRAPHS_PER_SIZE,
                   "session_seed": SESSION_SEED,
                   "request_seed": REQUEST_SEED},
        "repeats": args.repeats,
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "env": PINNED_ENV,
        "sides": {
            name: {"rev": _git_rev(checkout), "sizes": _summary(runs[name])}
            for name, checkout in sides.items()
        },
    }
    shas = {
        name: {size: run[size]["result_sha"] for size in run}
        for name, run in ((n, r[0]) for n, r in runs.items())
    }
    record["identical_results"] = len(
        {json.dumps(s, sort_keys=True) for s in shas.values()}
    ) == 1
    record["result_sha"] = shas["change"]
    pathlib.Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["sides"], indent=2))
    print(f"wrote {args.output}; identical results across sides: "
          f"{record['identical_results']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
