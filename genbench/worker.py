"""One benchmark run, inside the pinned process :mod:`genbench.run` starts.

Set-up (import, cold ``Session.fit`` into the empty store given by
``--store``, one warm-up request) is timed from ``--launched``, the
launcher's monotonic clock reading just before it started this process.
Then the workload's request list runs closed loop, each request in its
own window of the speed sampler (:mod:`genbench.refkernel`), the
generated circuits are checked, and the metrics are printed.  With
``--trace 1`` the list is sized from half of ``--seconds`` and run
twice, untraced and then under a :class:`repro.obs.TraceRecorder`; the
per-layer metrics come from the traced pass.
"""

from __future__ import annotations

import argparse
import math
import resource
import statistics
import sys
import time

import numpy as np

from . import layers, report
from .check import check_circuit, digest
from .refkernel import SpeedSampler
from .workloads import WORKLOADS

#: The program's own seed: the fitted model is the same in every run;
#: ``--seed`` varies only the request stream.
SESSION_SEED = 0

#: Traced layers plus remainder must match the traced wall this closely.
SPLIT_TOLERANCE = 0.05


class Pass:
    """One closed-loop pass over a request list."""

    def __init__(self) -> None:
        self.windows: list = []  # one refkernel.Window per request
        self.failed: list[bool] = []
        self.graphs: list = []
        self.attempted = 0
        self.fill: list[float] = []

    def times(self, normalised: bool = True) -> list[float]:
        """Per-request seconds; a failed request never completes."""
        return [
            math.inf if failed
            else window.normalised_s if normalised else window.raw_s
            for window, failed in zip(self.windows, self.failed)
        ]

    def circuits_per_s(self, normalised: bool = True) -> float:
        return len(self.graphs) / sum(self.times(normalised))

    def p50_s(self, normalised: bool = True) -> float:
        return hd_median(self.times(normalised))

    @property
    def wall_s(self) -> float:
        return sum(window.wall_s for window in self.windows)

    @property
    def kernel_ms(self) -> float:
        return statistics.median(
            ms for window in self.windows for ms in window.samples_ms
        )


def run_pass(session, sampler, requests, recorder=None) -> Pass:
    """Send ``requests`` one after another, each in a sampled window."""
    from repro.obs import registry, span, tracing

    result = Pass()
    for request in requests:
        result.attempted += request.count
        generated = None
        with sampler.window() as window:
            try:
                with tracing(recorder), span(
                    "bench.request", count=request.count
                ):
                    generated = session.generate(request)
            except Exception as exc:  # counted, never raised
                print(f"request failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        result.windows.append(window)
        result.failed.append(generated is None)
        if generated is not None:
            result.graphs.extend(generated.graphs)
        if recorder is not None:
            result.fill.append(registry().value("diffusion_batch_fill_ratio"))
    return result


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, with Beta((n+1)/2,
    (n+1)/2) weights; it estimates the same median as the middle order
    statistic with a smaller spread from sample to sample.  Falls back
    to the plain median when a value is not finite (a failed request).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 3 or not np.all(np.isfinite(x)):
        return float(np.median(x))
    steps = 64  # midpoint-rule integration points per order statistic
    u = (np.arange(steps * n) + 0.5) / (steps * n)
    pdf = np.exp((n - 1) / 2 * (np.log(u) + np.log1p(-u)))
    weights = pdf.reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _counters() -> dict[str, float]:
    from repro.obs import registry

    return {name: registry().value(name) for name in layers.COUNTERS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="genbench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sampler = SpeedSampler()
    with sampler.window() as setup:
        began = time.monotonic()
        from repro.api import GenerateRequest, Session, resolve_preset
        from repro.obs import TraceRecorder

        imported = time.monotonic()
        config = resolve_preset(
            "fast", seed=SESSION_SEED, mcts=workload.mcts or None
        )
        session = Session(config=config, cache_dir=args.store)
        session.fit()
        fitted = time.monotonic()
        session.generate(GenerateRequest(
            count=1, nodes=workload.strata[0][0], seed=2**31 - 1,
            optimize=workload.optimize, tier=workload.tier,
        ))
    ready = time.monotonic()

    requests = workload.requests(
        args.seed, args.seconds / 2 if args.trace else args.seconds
    )
    untraced = run_pass(session, sampler, requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_started = time.monotonic()
    checks = [
        check_circuit(graph, config.mcts.clock_period)
        for graph in untraced.graphs
    ]
    passed = [check for check in checks if check.ok]
    failed = untraced.attempted - len(passed)
    problems = [f"check: {check.reason}" for check in checks if not check.ok]
    out_digest = digest(untraced.graphs)
    check_s = time.monotonic() - check_started
    lines = [
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}",
        f"requests {len(requests)} circuits {untraced.attempted} "
        f"digest {out_digest}, checked in {check_s:.1f} s",
        f"raw: circuits_per_s {untraced.circuits_per_s(False):.6g} 1/s, "
        f"request_p50_s {untraced.p50_s(False):.6g} s (n={len(requests)} "
        f"requests), setup_s {ready - args.launched:.6g} s; reference "
        f"kernel median {untraced.kernel_ms:.4g} ms",
    ]

    if not args.trace:
        values = {
            "circuits_per_s": untraced.circuits_per_s(),
            "request_p50_s": untraced.p50_s(),
            "setup_s": setup.normalise_part(ready - args.launched),
            "peak_rss_mb": peak_rss_mb,
            "scpr_mean": _mean(check.scpr for check in passed),
            "pcs_mean": _mean(check.pcs for check in passed),
            "valid_frac": len(passed) / untraced.attempted,
        }
        units = report.END_TO_END
    else:
        before = _counters()
        recorder = TraceRecorder()
        traced = run_pass(session, sampler, requests, recorder)
        after = _counters()
        lines.append(f"traced spans {recorder.recorded}")
        if recorder.dropped:
            problems.append(f"trace ring dropped {recorder.dropped} spans")
        traced_digest = digest(traced.graphs)
        if traced_digest != out_digest:
            problems.append(
                f"traced digest {traced_digest} != untraced {out_digest}"
            )
        stats = layers.span_stats(recorder.spans())
        wall_ms = traced.wall_s * 1e3
        split, untraced_ms = layers.layer_split(stats)
        covered = sum(split.values()) + untraced_ms
        if abs(covered - wall_ms) > SPLIT_TOLERANCE * wall_ms:
            problems.append(
                f"layer split {covered:.1f} ms != traced wall {wall_ms:.1f} ms"
            )
        # Layer times are normalised with the traced pass's own factor.
        scale = sum(traced.times()) * 1e3 / wall_ms
        values = layers.layer_metrics(
            stats,
            {name: after[name] - before[name] for name in after},
            circuits=len(traced.graphs), requests=len(requests),
            wall_ms=wall_ms, fill_ratio=_mean(traced.fill), time_scale=scale,
        )
        values.update({
            "setup.import_s": setup.normalise_part(imported - began),
            "setup.fit_s": setup.normalise_part(fitted - imported),
            "bench.ref_kernel_ms": untraced.kernel_ms,
            "bench.raw_circuits_per_s": untraced.circuits_per_s(False),
            "bench.raw_request_p50_s": untraced.p50_s(False),
            "bench.trace_overhead": (
                sum(traced.times()) / sum(untraced.times())),
            "bench.requests": len(requests),
            "bench.circuits": untraced.attempted,
        })
        units = report.PER_LAYER
        lines.append("layer split of the traced wall (self time):")
        for layer, ms in [*split.items(), ("untraced", untraced_ms)]:
            lines.append(
                f"  {layer:<12} {ms * scale / len(traced.graphs):>10.2f} "
                f"ms/circuit {ms / wall_ms:>7.1%}"
            )

    lines.extend(report.table(values, units))
    lines.extend(problems)
    print("\n".join(lines))
    print(report.result_line(
        values, units, correct=not problems and failed == 0,
        attempted=untraced.attempted, failed=failed,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
