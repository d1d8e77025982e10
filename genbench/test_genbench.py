"""The benchmark's own tests: request streams, normalisation, self times.

Run with ``PYTHONPATH=src python -m pytest genbench -q``.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from genbench import layers, report
from genbench.refkernel import (
    NOMINAL_KERNEL_MS,
    KernelGuardError,
    SpeedSampler,
    Window,
    normalise,
)
from genbench.worker import hd_median
from genbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = workload.request_specs(11, 30)
    assert first == workload.request_specs(11, 30)
    # A held-out seed draws a different stream.
    assert first != workload.request_specs(12, 30)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_sends_the_same_counts_and_strata(name):
    workload = WORKLOADS[name]

    def cells(seed):
        out = []
        for spec in workload.request_specs(seed, 60):
            lo, hi = spec["nodes"]
            stratum = next(
                k for k, (low, high) in enumerate(workload.strata)
                if low <= lo and hi <= high
            )
            out.append((spec["count"], stratum))
        return sorted(out)

    assert cells(1) == cells(2) == cells(3)


@pytest.mark.parametrize("name", ["population-fast", "population-lowbudget"])
def test_population_variants_see_the_identical_request_list(name):
    population, variant = WORKLOADS["population"], WORKLOADS[name]
    exact = population.request_specs(5, 30)
    # Equal block counts give equal lists, up to the tier.
    seconds = population.num_blocks(30) * variant.block_seconds
    same = variant.request_specs(5, seconds)
    assert [{**spec, "tier": None} for spec in same] == exact
    assert {spec["tier"] for spec in same} == {variant.tier}


def test_requests_are_generate_requests():
    from repro.api import GenerateRequest

    requests = WORKLOADS["sample-only"].requests(3, 10)
    assert all(isinstance(r, GenerateRequest) for r in requests)
    assert all(not r.optimize and r.workers == 1 for r in requests)


def test_normalisation_rescales_to_the_nominal_kernel():
    # Measured while the kernel ran 25% slower than nominal, a request
    # reads 25% faster once normalised.
    slow_kernel = NOMINAL_KERNEL_MS * 1.25
    assert normalise(2.5, slow_kernel) == pytest.approx(2.0)
    # A uniform machine slowdown cancels out.
    raw = [1.0, 2.0, 4.0]
    slow = [normalise(t * 1.4, NOMINAL_KERNEL_MS * 1.4) for t in raw]
    assert slow == pytest.approx(raw)


def test_window_removes_kernel_time_and_uses_the_sample_mean():
    window = Window()
    window.wall_s = 2.0
    window.kernel_s = 0.5
    window.samples_ms = [0.2, 0.4, 0.6]  # mean 0.4 = 2x nominal 0.2
    assert window.raw_s == pytest.approx(1.5)
    assert window.kernel_ms == pytest.approx(0.4)
    nominal = NOMINAL_KERNEL_MS / 0.4
    assert window.normalised_s == pytest.approx(1.5 * nominal)
    # A sub-interval loses its pro-rata share of the kernel time.
    assert window.normalise_part(1.0) == pytest.approx(0.75 * nominal)


def test_sampler_samples_inside_the_window():
    if threading.active_count() != 1:
        pytest.skip("the kernel needs a process without other threads")
    sampler = SpeedSampler()
    with sampler.window() as window:
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            pass
    # One sample before, about ten inside, one after.
    assert len(window.samples_ms) >= 5
    assert 0 < window.kernel_s < window.wall_s
    assert window.normalised_s > 0


def test_sampler_refuses_to_run_beside_a_live_thread():
    sampler = SpeedSampler()
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with pytest.raises(KernelGuardError):
            with sampler.window():
                pass
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def _span(name, start, duration, thread=1):
    return SimpleNamespace(
        name=name, start_ns=start, duration_ns=duration, thread_id=thread
    )


def test_self_times_by_interval_nesting():
    trace = [
        _span("session.generate", 0, 100),
        _span("session.presample", 5, 20),
        _span("diffusion.sample_batch", 6, 15),
        _span("mcts.optimize", 30, 60),
        _span("mcts.cone", 32, 40),
        _span("incr.apply_edit", 35, 5),
        _span("mcts.oracle", 75, 10),
        # Another thread's span does not cover this thread's time.
        _span("mcts.cone", 40, 30, thread=2),
    ]
    stats = layers.span_stats(trace)
    self_ns = {name: entry.self_ms * 1e6 for name, entry in stats.items()}
    assert self_ns == pytest.approx({
        "session.generate": 100 - 20 - 60,
        "session.presample": 5,
        "diffusion.sample_batch": 15,
        "mcts.optimize": 60 - 40 - 10,
        "mcts.cone": (40 - 5) + 30,
        "incr.apply_edit": 5,
        "mcts.oracle": 10,
    })
    assert stats["mcts.cone"].count == 2
    split, untraced = layers.layer_split(stats)
    assert split == pytest.approx({
        "diffusion": 20e-6, "postprocess": 0.0,
        "mcts": 55e-6 + 30e-6, "incr": 5e-6,
    })
    assert untraced == pytest.approx(20e-6)
    # Thread 1's self times partition its outermost span.
    assert sum(split.values()) + untraced == pytest.approx(130e-6)


def test_layer_metrics_cover_every_per_layer_name():
    stats = layers.span_stats([_span("mcts.cone", 0, 10)])
    values = layers.layer_metrics(
        stats, dict.fromkeys(layers.COUNTERS, 0.0),
        circuits=2, requests=1, wall_ms=1.0, fill_ratio=1.0, time_scale=1.0,
    )
    worker_only = {
        name for name in report.PER_LAYER
        if name.startswith(("setup.", "bench."))
    }
    assert set(values) == set(report.PER_LAYER) - worker_only


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        report.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        report.PER_LAYER
    )


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "genbench", tmp_path / "genbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "genbench/run.py", "--workload", "population",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_hd_median():
    assert hd_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert hd_median([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    # Equivariant under shift and scale, like the median it estimates.
    sample = [0.3, 1.7, 0.2, 5.0, 0.9, 1.1, 0.4]
    assert hd_median([2 * v + 1 for v in sample]) == pytest.approx(
        2 * hd_median(sample) + 1)
    # A failed request (never completes) falls back to the plain median.
    assert hd_median([1.0, 2.0, math.inf]) == 2.0
    mstats = pytest.importorskip("scipy.stats.mstats")
    assert hd_median(sample) == pytest.approx(
        float(mstats.hdquantiles(sample, [0.5])[0]), rel=1e-4)
