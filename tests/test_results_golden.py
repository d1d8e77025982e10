"""Golden-file regression tests for the ``results/`` tables.

The paper-reproduction tables under ``results/`` are rewritten in place
by the (slow, session-scoped) ``benchmarks/`` suite, so a metric drift
used to *silently* rewrite them.  These tests pin the pipeline that
produces every table family:

* ``table1_dataset``    -- regenerated at full fidelity (it only depends
  on the corpus and the synthesis flow) and diffed against the committed
  ``results/table1_dataset.txt`` itself.
* ``fig5_real_designs`` -- the training-independent "Real designs" row of
  Fig. 5, full fidelity.
* ``table2_structural_smoke`` / ``fig4a_scpr_smoke`` -- the trained-model
  tables, regenerated on the ``smoke`` preset against goldens committed
  under ``tests/goldens/``.

Comparison is numeric with tolerances (ints exact, floats atol+rtol), so
cross-platform float noise passes while real metric drift fails.

To refresh after an *intentional* metric change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_results_golden.py
"""

import os
import pathlib
import re

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"
CLOCK_PERIOD = 1.0

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def assert_tables_match(actual: str, golden: str, atol=2e-3, rtol=1e-2):
    """Numeric table diff: identical skeleton, ints exact, floats close."""
    skeleton_actual = _NUMBER.sub("<n>", actual).strip()
    skeleton_golden = _NUMBER.sub("<n>", golden).strip()
    assert skeleton_actual == skeleton_golden, (
        "table layout changed:\n--- golden ---\n"
        f"{golden}\n--- regenerated ---\n{actual}"
    )
    numbers_actual = _NUMBER.findall(actual)
    numbers_golden = _NUMBER.findall(golden)
    assert len(numbers_actual) == len(numbers_golden)
    for got, want in zip(numbers_actual, numbers_golden):
        if "." not in got and "." not in want:
            assert int(got) == int(want), f"integer cell {got} != {want}"
        else:
            assert float(got) == pytest.approx(
                float(want), abs=atol, rel=rtol
            ), f"numeric cell {got} drifted from {want}"


# ---------------------------------------------------------------------------
# Shared smoke-preset models (trained once per module)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_split():
    from repro.bench_designs import train_test_split

    return train_test_split(seed=2025)


def _smoke_session(split, **overrides):
    from repro.api import Session, resolve_preset

    return Session(
        config=resolve_preset("smoke", **overrides), use_cache=False
    ).fit(split[0])


@pytest.fixture(scope="module")
def smoke_session(smoke_split):
    return _smoke_session(smoke_split)


@pytest.fixture(scope="module")
def smoke_session_no_diff(smoke_split):
    return _smoke_session(smoke_split, use_diffusion=False)


# ---------------------------------------------------------------------------
# Table builders (same rendering as the benchmarks/ suite)
# ---------------------------------------------------------------------------


def build_table1(request) -> str:
    from repro.bench_designs import corpus_statistics, load_corpus
    from repro.synth import synthesize

    gate_counts = {
        graph.name: synthesize(graph, clock_period=CLOCK_PERIOD).num_cells
        for graph in load_corpus()
    }
    rows = corpus_statistics(gate_counts)
    header = (
        f"{'Source Benchmark':<18s}{'# Designs':>10s}{'HDL Type':>10s}"
        f"{'Min':>8s}{'Median':>8s}{'Max':>8s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['source']:<18s}{row['num_designs']:>10d}"
            f"{row['hdl_type']:>10s}{row['min_gates']:>8d}"
            f"{row['median_gates']:>8d}{row['max_gates']:>8d}"
        )
    return "\n".join(lines)


def build_fig5_real(request) -> str:
    from repro.bench_designs import load_corpus
    from repro.metrics import collect_timing_distribution

    distribution = collect_timing_distribution(
        load_corpus(), "Real designs", clock_period=0.25
    )
    summary = distribution.summary()
    header = (
        f"{'dataset':<14s}{'wns_mean':>10s}{'wns_std':>10s}{'wns_min':>10s}"
        f"{'tns/nvp_mean':>14s}{'tns/nvp_std':>13s}{'tns/nvp_min':>13s}"
    )
    row = (
        f"{'Real designs':<14s}{summary['wns_mean']:>10.3f}"
        f"{summary['wns_std']:>10.3f}{summary['wns_min']:>10.3f}"
        f"{summary['tns_nvp_mean']:>14.3f}{summary['tns_nvp_std']:>13.3f}"
        f"{summary['tns_nvp_min']:>13.3f}"
    )
    return "\n".join([header, "-" * len(header), row])


def build_table2_smoke(request) -> str:
    from repro.api import GenerateRequest
    from repro.bench_designs import reference_designs
    from repro.metrics import structural_similarity

    generators = {
        "SynCircuit w/o diff": request.getfixturevalue(
            "smoke_session_no_diff"
        ),
        "SynCircuit w/ diff": request.getfixturevalue("smoke_session"),
    }
    references = reference_designs()
    metric_names = ("out_degree", "cluster", "orbit",
                    "triangle", "h(A,Y)", "h(A2,Y)")
    results = {}
    for model_name, session in generators.items():
        results[model_name] = {}
        for ref_name, reference in references.items():
            graphs = session.generate(GenerateRequest(
                count=2, nodes=reference.num_nodes, seed=17, optimize=False,
            )).graphs
            results[model_name][ref_name] = structural_similarity(
                reference, graphs
            ).as_row()

    ref_names = list(references)
    header = f"{'Model':<22s}" + "".join(
        f"{metric + '/' + ref.split('_')[0]:>18s}"
        for metric in metric_names for ref in ref_names
    )
    lines = [header, "-" * len(header)]
    for model_name, per_ref in results.items():
        cells = [
            f"{per_ref[ref_name][metric]:>18.3f}"
            for metric in metric_names for ref_name in ref_names
        ]
        lines.append(f"{model_name:<22s}" + "".join(cells))
    return "\n".join(lines)


def build_fig4a_smoke(request) -> str:
    from repro.api import GenerateRequest
    from repro.mcts import random_search_registers
    from repro.synth import synthesize

    session = request.getfixturevalue("smoke_session")
    records = session.generate(GenerateRequest(
        count=2, nodes=(40, 50), seed=11, name_prefix="sc",
    )).records
    lines = [
        f"{'design':<10s}{'scpr_no_opt':>14s}{'scpr_random':>14s}"
        f"{'scpr_mcts':>14s}"
    ]
    for record in records:
        scpr_before = synthesize(record.g_val, clock_period=CLOCK_PERIOD).scpr
        random_report = random_search_registers(
            record.g_val, reward_fn=session.engine._reward_fn,
            config=session.config.mcts,
        )
        scpr_random = synthesize(
            random_report.graph, clock_period=CLOCK_PERIOD
        ).scpr
        scpr_mcts = synthesize(record.g_opt, clock_period=CLOCK_PERIOD).scpr
        lines.append(
            f"{record.g_val.name:<10s}{scpr_before:>14.3f}"
            f"{scpr_random:>14.3f}{scpr_mcts:>14.3f}"
        )
    return "\n".join(lines)


#: case name -> (builder, committed golden path)
CASES = {
    "table1_dataset": (build_table1, RESULTS_DIR / "table1_dataset.txt"),
    "fig5_real_designs": (build_fig5_real,
                          GOLDEN_DIR / "fig5_real_designs.txt"),
    "table2_structural_smoke": (build_table2_smoke,
                                GOLDEN_DIR / "table2_structural_smoke.txt"),
    "fig4a_scpr_smoke": (build_fig4a_smoke,
                         GOLDEN_DIR / "fig4a_scpr_smoke.txt"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_results_tables_match_goldens(case, request):
    builder, golden_path = CASES[case]
    regenerated = builder(request)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(regenerated + "\n")
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run with REPRO_UPDATE_GOLDENS=1 "
        "to create it"
    )
    assert_tables_match(regenerated, golden_path.read_text())


def test_fig5_real_row_consistent_with_results_table():
    """The committed full Fig. 5 table must contain the same
    training-independent row this test regenerates -- the guard that
    benchmarks/ and tests/ do not drift apart."""
    committed = (RESULTS_DIR / "fig5_timing_stats.txt").read_text()
    row = next(
        line for line in committed.splitlines()
        if line.startswith("Real designs")
    )
    regenerated_row = build_fig5_real(None).splitlines()[-1]
    assert_tables_match(regenerated_row, row)
