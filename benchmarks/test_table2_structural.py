"""Table II: structural-property similarity with the reference designs.

Six generators (four baselines, SynCircuit without diffusion, full
SynCircuit) are compared against the two reference designs on the six
metrics of the paper: W1 distances of out-degree / clustering / orbit
distributions (lower better) and expectation ratios of triangle count,
h^(A,Y) and h^(A^2,Y) (closer to 1 better).
"""

import zlib

import numpy as np

from repro.api import GenerateRequest
from repro.metrics import structural_similarity

from conftest import write_result

SAMPLES_PER_MODEL = 4


def _model_seed(model_name: str) -> int:
    """Stable per-model seed.  ``hash()`` is salted per process, which
    made every run regenerate results/table2_structural.txt with
    different numbers -- exactly the silent drift the golden tests in
    tests/test_results_golden.py now reject."""
    return zlib.crc32(model_name.encode()) % 1000


def _baseline_set(model):
    """``(num_nodes, seed) -> graphs`` for a baseline generator."""
    def generate(num_nodes: int, seed: int):
        rng = np.random.default_rng(seed)
        return [
            model.generate(num_nodes, rng) for _ in range(SAMPLES_PER_MODEL)
        ]
    return generate


def _session_set(session):
    """``(num_nodes, seed) -> graphs``: unoptimized G_val from a Session."""
    def generate(num_nodes: int, seed: int):
        return session.generate(GenerateRequest(
            count=SAMPLES_PER_MODEL, nodes=num_nodes, seed=seed,
            optimize=False,
        )).graphs
    return generate


def test_table2_structural_similarity(
    references, graphrnn, dvae, graphmaker, sparse_digress,
    syncircuit, syncircuit_no_diff, benchmark,
):
    generators = {
        "GraphRNN": _baseline_set(graphrnn),
        "DVAE": _baseline_set(dvae),
        "GraphMaker-v": _baseline_set(graphmaker),
        "SparseDigress-v": _baseline_set(sparse_digress),
        "SynCircuit w/o diff": _session_set(syncircuit_no_diff),
        "SynCircuit w/ diff": _session_set(syncircuit),
    }

    metric_names = ("out_degree", "cluster", "orbit",
                    "triangle", "h(A,Y)", "h(A2,Y)")
    results: dict[str, dict[str, dict[str, float]]] = {}
    for model_name, generate in generators.items():
        results[model_name] = {}
        for ref_name, ref in references.items():
            graphs = generate(ref.num_nodes, _model_seed(model_name))
            report = structural_similarity(ref, graphs)
            results[model_name][ref_name] = report.as_row()

    ref_names = list(references)
    header = f"{'Model':<22s}" + "".join(
        f"{m + '/' + r.split('_')[0]:>18s}"
        for m in metric_names for r in ref_names
    )
    lines = [header, "-" * len(header)]
    for model_name, per_ref in results.items():
        cells = []
        for metric in metric_names:
            for ref_name in ref_names:
                value = per_ref[ref_name][metric]
                cells.append(f"{value:>18.3f}")
        lines.append(f"{model_name:<22s}" + "".join(cells))
    write_result("table2_structural", "\n".join(lines))

    # Shape check (paper: SynCircuit w/ diff wins most W1 metrics, and the
    # no-diffusion ablation is clearly worse than the full model).
    w1_metrics = ("out_degree", "cluster", "orbit")
    for ref_name in ref_names:
        full = np.mean([
            results["SynCircuit w/ diff"][ref_name][m] for m in w1_metrics
        ])
        baseline_means = {
            name: np.mean([results[name][ref_name][m] for m in w1_metrics])
            for name in ("GraphRNN", "DVAE")
        }
        assert full <= max(baseline_means.values()) * 1.5, (
            f"SynCircuit w/ diff should be competitive on {ref_name}"
        )

    # Benchmark the metric computation itself.
    ref = references["core_like"]
    sample = _session_set(syncircuit)(ref.num_nodes, 0)
    benchmark.pedantic(
        lambda: structural_similarity(ref, sample), rounds=2, iterations=1
    )
