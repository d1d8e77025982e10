"""Performance measurement subsystem: seeded microbenchmarks with a
machine-readable trajectory.

``repro bench --preset smoke`` runs the standard suite over the stack's
hot paths (through :func:`run_suite`, the library entry point) and
writes ``BENCH_<suite>.json`` -- wall times, per-op throughput,
scenario-config fingerprint and git revision -- so every PR's perf
impact is a diffable number instead of a guess.  ``compare`` gates CI
on the committed baseline.

    from repro.bench import run_suite, compare, BenchReport

    report = run_suite(preset="smoke")
    report.write("BENCH_smoke.json")
    regressions = compare(report, BenchReport.load("BENCH_smoke.json"))
"""

from .core import Benchmark, BenchRecord, run_benchmark
from .report import (
    SCHEMA_VERSION,
    BenchReport,
    Regression,
    compare,
    git_revision,
    render_profile,
)
from .serve_suite import build_serve_benchmarks, run_serve_suite
from .suites import SIM_CYCLES, build_suite, run_suite

__all__ = [
    "SCHEMA_VERSION",
    "SIM_CYCLES",
    "BenchRecord",
    "BenchReport",
    "Benchmark",
    "Regression",
    "build_serve_benchmarks",
    "build_suite",
    "compare",
    "run_serve_suite",
    "git_revision",
    "render_profile",
    "run_benchmark",
    "run_suite",
]
