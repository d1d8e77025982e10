"""Service-layer benchmark suite: requests/s and tail latency.

``run_serve_suite`` boots a real :class:`~repro.serve.ReproServer`
(multi-process workers, persistent queue in a throwaway directory) and
measures the three paths a deployment cares about through the actual
HTTP client:

* ``serve.submit_roundtrip`` -- submit -> worker -> result, dedup off,
  so every request runs the full generation pipeline.
* ``serve.dedup_hit``        -- the identical request re-submitted with
  dedup on: answered from the artifact cache, zero worker dispatch.
* ``serve.queue_persist``    -- the on-disk job ledger alone (atomic
  submit writes plus a restart ``load()`` replay), no server.

Latency percentiles (p50/p99 over the per-request samples of the last
timed run) land in each record's ``meta`` next to ``requests_per_s``,
so ``BENCH_serve.json`` rides the same ``compare()`` regression gate as
the smoke suite.
"""

from __future__ import annotations

import tempfile
import time
from collections.abc import Sequence
from typing import Callable

from .core import Benchmark, matches, run_benchmark
from .report import BenchReport

#: Requests per timed run of each latency benchmark.
ROUNDTRIP_REQUESTS = 4
DEDUP_REQUESTS = 16
QUEUE_JOBS = 50


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (small-sample honest: p99 of 4 = max)."""
    ordered = sorted(samples)
    rank = min(int(round(q / 100.0 * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[rank]


def _stamp_latencies(meta: dict, samples: list[float]) -> None:
    meta["p50_ms"] = round(_percentile(samples, 50) * 1000.0, 3)
    meta["p99_ms"] = round(_percentile(samples, 99) * 1000.0, 3)
    meta["requests_per_s"] = round(len(samples) / sum(samples), 2)


def build_serve_benchmarks(client, seed: int = 0) -> list[Benchmark]:
    """The two live-server benchmarks against an already-booted client."""
    from ..api import GenerateRequest

    roundtrip_meta: dict = {"requests": ROUNDTRIP_REQUESTS, "dedupe": False}
    dedup_meta: dict = {"requests": DEDUP_REQUESTS, "dedupe": True}

    def roundtrip_setup():
        # One cached-artifact warmup isn't wanted here: dedup is off, so
        # every submit (warmup included) dispatches a worker.
        return GenerateRequest(count=1, nodes=40, seed=seed)

    def roundtrip_run(request):
        samples = []
        for _ in range(ROUNDTRIP_REQUESTS):
            started = time.perf_counter()
            accepted = client.submit(request, dedupe=False)
            client.wait(accepted["job_id"])
            samples.append(time.perf_counter() - started)
        _stamp_latencies(roundtrip_meta, samples)
        return ROUNDTRIP_REQUESTS

    def dedup_setup():
        request = GenerateRequest(count=1, nodes=40, seed=seed + 1)
        accepted = client.submit(request, dedupe=True)
        client.wait(accepted["job_id"])  # prime the artifact cache
        return request

    def dedup_run(request):
        samples = []
        for _ in range(DEDUP_REQUESTS):
            started = time.perf_counter()
            accepted = client.submit(request, dedupe=True)
            samples.append(time.perf_counter() - started)
            assert accepted["deduplicated"], "dedup benchmark missed cache"
        _stamp_latencies(dedup_meta, samples)
        return DEDUP_REQUESTS

    return [
        Benchmark("serve.submit_roundtrip", roundtrip_setup, roundtrip_run,
                  meta=roundtrip_meta),
        Benchmark("serve.dedup_hit", dedup_setup, dedup_run,
                  meta=dedup_meta),
    ]


def _queue_benchmark(seed: int) -> Benchmark:
    from ..api import GenerateRequest
    from ..serve import JobQueue, request_key

    def queue_setup():
        request = GenerateRequest(count=1, nodes=40, seed=seed).to_dict()
        return request, tempfile.mkdtemp(prefix="repro-queue-bench-")

    def queue_run(state):
        import pathlib
        import shutil

        request, root = state
        scratch = pathlib.Path(root) / "ledger"
        queue = JobQueue(scratch)
        for k in range(QUEUE_JOBS):
            queue.submit(request, request_key({"seed": k}, request))
        JobQueue(scratch).load()  # the restart-replay scan
        shutil.rmtree(scratch)
        return QUEUE_JOBS

    return Benchmark(
        "serve.queue_persist", queue_setup, queue_run,
        meta={"jobs": QUEUE_JOBS,
              "note": "atomic submit writes + restart load()"},
    )


def run_serve_suite(
    preset: str = "smoke",
    *,
    config=None,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    workers: int = 2,
    filter_pattern: str | Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Boot a server, measure the service paths, return the report.

    The scenario is pre-fitted through a local session first so worker
    boot is artifact-load only; the server (daemon threads + spawn
    worker processes) is stopped before returning.
    """
    from ..api import Session
    from ..api.presets import resolve_preset
    from ..api.store import fingerprint
    from ..serve import ReproServer, ServeClient

    preset_name: str | None = preset
    if config is None:
        config = resolve_preset(preset, seed=seed)
    else:
        preset_name = None

    benchmarks = [_queue_benchmark(seed)]
    server = None
    needs_server = any(
        matches(name, filter_pattern)
        for name in ("serve.submit_roundtrip", "serve.dedup_hit")
    )
    try:
        if needs_server:
            if progress is not None:
                progress("[bench] booting serve worker pool ...")
            Session(config=config).fit()  # pre-warm the artifact store
            server = ReproServer(
                config=config,
                workers=workers,
                queue_dir=tempfile.mkdtemp(prefix="repro-serve-bench-"),
            ).start_background()
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            benchmarks = (
                build_serve_benchmarks(client, seed=seed) + benchmarks
            )
        benchmarks = [
            b for b in benchmarks if matches(b.name, filter_pattern)
        ]
        records = []
        for benchmark in benchmarks:
            if progress is not None:
                progress(f"[bench] {benchmark.name} ...")
            records.append(
                run_benchmark(benchmark, repeats=repeats, warmup=warmup)
            )
    finally:
        if server is not None:
            server.stop()
    return BenchReport.stamped(
        suite="serve",
        preset=preset_name,
        config_fingerprint=fingerprint(config.to_dict()),
        records=records,
    )
