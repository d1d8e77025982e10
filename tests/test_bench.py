"""Tests for the repro.bench subsystem: harness, report schema, the CI
regression gate, and the Session/CLI entry points."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchRecord,
    Benchmark,
    BenchReport,
    compare,
    run_benchmark,
    run_suite,
)

#: The stable contract of BENCH_<suite>.json; renaming or dropping any of
#: these keys is a schema break and must bump SCHEMA_VERSION.
REPORT_KEYS = {
    "schema_version", "suite", "preset", "config_fingerprint", "git_rev",
    "created_unix", "python_version", "numpy_version", "benchmarks",
}
RECORD_KEYS = {
    "name", "repeats", "ops", "wall_best", "wall_mean", "wall_std",
    "ops_per_s", "meta",
}


def _record(name: str, wall: float) -> BenchRecord:
    return BenchRecord(
        name=name, repeats=3, ops=10,
        wall_best=wall, wall_mean=wall, wall_std=0.0,
    )


def _report(**walls) -> BenchReport:
    return BenchReport(
        suite="t", preset="t", config_fingerprint="cfg",
        records=[_record(k, v) for k, v in walls.items()],
    )


class TestHarness:
    def test_run_benchmark_counts_and_ops(self):
        calls = []
        bench = Benchmark(
            name="demo",
            setup=lambda: calls.append("setup") or "state",
            run=lambda state: calls.append(state),
            ops=7,
        )
        record = run_benchmark(bench, repeats=3, warmup=2)
        assert calls == ["setup", "state", "state", "state", "state", "state"]
        assert record.repeats == 3 and record.ops == 7
        assert 0 <= record.wall_best <= record.wall_mean
        assert record.ops_per_s > 0

    def test_run_return_value_overrides_ops(self):
        bench = Benchmark(name="dyn", setup=lambda: None, run=lambda _: 123)
        assert run_benchmark(bench, repeats=1, warmup=0).ops == 123

    def test_benchmark_repeats_override(self):
        count = []
        bench = Benchmark(
            name="once", setup=lambda: None,
            run=lambda _: count.append(1), repeats=1,
        )
        record = run_benchmark(bench, repeats=5, warmup=0)
        assert record.repeats == 1 and len(count) == 1

    def test_invalid_repeats(self):
        bench = Benchmark(name="x", setup=lambda: None, run=lambda _: None)
        with pytest.raises(ValueError):
            run_benchmark(bench, repeats=0)


class TestReportSchema:
    def test_schema_keys_stable(self, tmp_path):
        report = _report(a=0.1)
        data = json.loads(report.write(tmp_path / "b.json").read_text())
        assert set(data) == REPORT_KEYS
        assert data["schema_version"] == SCHEMA_VERSION
        assert all(set(row) == RECORD_KEYS for row in data["benchmarks"])

    def test_json_roundtrip(self, tmp_path):
        report = _report(a=0.25, b=0.5)
        report.git_rev = "abc123"
        path = report.write(tmp_path / "BENCH_t.json")
        loaded = BenchReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_render_mentions_every_benchmark(self):
        text = _report(alpha=0.1, beta=0.2).render()
        assert "alpha" in text and "beta" in text


class TestRegressionGate:
    def test_no_regression_within_budget(self):
        current, baseline = _report(a=0.018), _report(a=0.010)
        assert compare(current, baseline, max_regression=2.0) == []

    def test_regression_detected(self):
        current, baseline = _report(a=0.021, b=0.010), _report(a=0.010, b=0.010)
        regressions = compare(current, baseline, max_regression=2.0)
        assert [r.name for r in regressions] == ["a"]
        assert regressions[0].ratio == pytest.approx(2.1)
        assert "2.10x" in str(regressions[0])

    def test_tiny_benchmarks_are_noise_exempt(self):
        current, baseline = _report(a=0.004), _report(a=0.0001)
        assert compare(current, baseline, max_regression=2.0) == []
        assert compare(current, baseline, max_regression=2.0, min_time=0.0)

    def test_added_and_removed_benchmarks_ignored(self):
        current, baseline = _report(new=9.0), _report(old=0.01)
        assert compare(current, baseline) == []


class TestSuite:
    def test_simulation_suite_and_speedup_annotation(self):
        report = run_suite(
            preset="smoke", repeats=1, warmup=1, filter_pattern="simulate"
        )
        names = [record.name for record in report.records]
        assert names == [
            "simulate.scalar", "simulate.bitparallel",
            "simulate.bitparallel_steady",
        ]
        by_name = {record.name: record for record in report.records}
        packed = by_name["simulate.bitparallel"]
        assert packed.meta["speedup_vs_scalar"] > 1.0
        # Throughput accounting: both backends report the same op count.
        assert packed.ops == by_name["simulate.scalar"].ops > 0
        assert report.suite == "smoke" and report.config_fingerprint

    def test_profile_rendering_shows_drift(self):
        from repro.bench import render_profile

        report = run_suite(
            preset="smoke", repeats=1, warmup=0,
            filter_pattern="metrics",
        )
        text = render_profile(report, report)
        assert "metrics.structural" in text
        assert "+0%" in text or "-0%" in text
        assert "baseline rev" in text
        # Without a baseline the table still renders (dashes).
        assert "metrics.structural" in render_profile(report, None)

    def test_mcts_result_sha_guard(self):
        """The ``mcts.optimize`` record's ``result_sha`` pins the smoke
        search result; a change that moves it changed the algorithm."""
        from repro.api.presets import resolve_preset
        from repro.bench.suites import result_sha
        from repro.bench_designs import load_design
        from repro.mcts import optimize_registers

        report = optimize_registers(
            load_design("uart_tx"), config=resolve_preset("smoke").mcts
        )
        assert result_sha(report.graph) == "a03d2c4397fec96e"


class TestCli:
    def test_cli_bench_writes_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        # simulate.scalar is well above compare()'s noise floor.
        run = ["bench", "--filter", "simulate.scalar", "--repeats", "1"]
        out = tmp_path / "BENCH_smoke.json"
        assert main([*run, "-o", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

        # A wildly faster baseline must trip the gate ...
        fast = BenchReport.load(out)
        for record in fast.records:
            record.wall_best = record.wall_best / 100.0
        baseline = tmp_path / "baseline.json"
        fast.write(baseline)
        assert main([*run, "-o", str(out), "--compare", str(baseline)]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

        # ... and a generous one must pass.
        slow = BenchReport.load(out)
        for record in slow.records:
            record.wall_best = record.wall_best * 100.0
        slow.write(baseline)
        assert main([*run, "-o", str(out), "--compare", str(baseline)]) == 0

    def test_cli_bench_filter_is_repeatable(self, tmp_path, capsys):
        """Every ``--filter`` counts: a benchmark matching any one runs."""
        from repro.cli import main

        out = tmp_path / "BENCH_smoke.json"
        run = ["bench", "--filter", "simulate.scalar", "--filter", "metrics",
               "--repeats", "1", "--warmup", "0", "-o", str(out)]
        assert main(run) == 0
        capsys.readouterr()
        assert [r.name for r in BenchReport.load(out).records] == [
            "simulate.scalar", "metrics.structural",
        ]

    def test_cli_bench_profile_flag(self, tmp_path, monkeypatch, capsys):
        # --profile prints the per-op drift table against the committed
        # BENCH_<suite>.json in the working directory.
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        run = ["bench", "--filter", "metrics", "--repeats", "1"]
        assert main([*run, "-o", "BENCH_smoke.json"]) == 0
        capsys.readouterr()
        assert main([*run, "--profile", "-o", str(tmp_path / "x.json")]) == 0
        out = capsys.readouterr().out
        assert "per-op" in out and "baseline" in out
        assert "metrics.structural" in out

    def test_cli_compare_with_default_output_does_not_self_compare(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro bench --compare BENCH_smoke.json` (no -o) writes its
        # report to that same default path; the gate must still run
        # against the baseline's *old* contents, not the fresh report.
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        run = ["bench", "--filter", "simulate.scalar", "--repeats", "1"]
        assert main([*run, "-o", "BENCH_smoke.json"]) == 0
        baseline = BenchReport.load("BENCH_smoke.json")
        for record in baseline.records:
            record.wall_best = record.wall_best / 100.0
        baseline.write("BENCH_smoke.json")
        assert main([*run, "--compare", "BENCH_smoke.json"]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out
