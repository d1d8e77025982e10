"""Per-layer split of a traced run: span self times and counter deltas.

A span's *self time* is its duration minus the part of it covered by
spans nested inside it on the same thread.  Self times partition the
wall time of the outermost spans, so the layers below plus the
untraced remainder (the self time of the request and session spans,
and of any span no layer claims) add up to the traced request wall.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

#: Span names whose self time belongs to each layer.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "diffusion": (
        "session.presample", "diffusion.sample_batch", "diffusion.sample",
    ),
    "postprocess": ("engine.refine",),
    "mcts": ("mcts.optimize", "mcts.cone", "mcts.oracle"),
    "incr": ("incr.rebase", "incr.apply_edit", "incr.flush"),
}

#: ``repro_*`` registry counters whose per-run deltas the layers report.
COUNTERS = (
    "simulations_total",
    "improved_cones_total",
    "reward_calls_total",
    "reward_cache_hits_total",
    "analysis_delta_hits_total",
    "analysis_fallbacks_total",
    "oracle_delta_hits_total",
    "oracle_fallbacks_total",
)


class SpanStats:
    __slots__ = ("count", "total_ms", "self_ms")

    def __init__(self) -> None:
        self.count = 0
        self.total_ms = 0.0
        self.self_ms = 0.0


def span_stats(spans: Iterable) -> dict[str, SpanStats]:
    """``{name: SpanStats}`` with self times by interval nesting.

    ``spans`` are :class:`repro.obs.SpanRecord`-like objects (``name``,
    ``start_ns``, ``duration_ns``, ``thread_id``).  Each thread's spans
    are swept in start order with a stack of open intervals; a span's
    direct parent is the innermost open interval containing its start,
    and the parent's self time loses the overlap with the child.
    """
    by_thread: dict[int, list] = defaultdict(list)
    for record in spans:
        by_thread[record.thread_id].append(record)
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for records in by_thread.values():
        records.sort(key=lambda r: (r.start_ns, -r.duration_ns))
        covered = [0] * len(records)
        stack: list[tuple[int, int]] = []  # (index, end_ns)
        for index, record in enumerate(records):
            end = record.start_ns + record.duration_ns
            while stack and stack[-1][1] <= record.start_ns:
                stack.pop()
            if stack:
                parent, parent_end = stack[-1]
                covered[parent] += min(end, parent_end) - record.start_ns
            stack.append((index, end))
        for record, child_ns in zip(records, covered):
            entry = stats[record.name]
            entry.count += 1
            entry.total_ms += record.duration_ns / 1e6
            entry.self_ms += (record.duration_ns - child_ns) / 1e6
    return dict(stats)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_split(stats: dict[str, SpanStats]) -> tuple[dict[str, float], float]:
    """(self ms per layer, untraced remainder ms)."""
    claimed = {name for names in LAYER_SPANS.values() for name in names}
    layers = {
        layer: sum(stats[n].self_ms for n in names if n in stats)
        for layer, names in LAYER_SPANS.items()
    }
    untraced = sum(
        entry.self_ms for name, entry in stats.items() if name not in claimed
    )
    return layers, untraced


def layer_metrics(
    stats: dict[str, SpanStats],
    counters: dict[str, float],
    *,
    circuits: int,
    requests: int,
    wall_ms: float,
    fill_ratio: float,
    time_scale: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``counters`` are the pass's deltas of :data:`COUNTERS`; ``wall_ms``
    is the traced requests' summed wall time.  Every reported time is
    multiplied by ``time_scale`` (the pass's normalisation factor);
    shares of ``wall_ms`` are not.
    """

    def total(name: str) -> float:
        return stats[name].total_ms * time_scale if name in stats else 0.0

    def self_ms(name: str) -> float:
        return stats[name].self_ms * time_scale if name in stats else 0.0

    def count(name: str) -> int:
        return stats[name].count if name in stats else 0

    def per_circuit(value: float) -> float:
        return _ratio(value, circuits)

    cones = count("mcts.cone")
    _, untraced = layer_split(stats)
    return {
        "diffusion.sample_ms_per_circuit": per_circuit(
            total("session.presample")),
        "diffusion.batch_fill_ratio": fill_ratio,
        "postprocess.refine_ms_per_circuit": per_circuit(
            total("engine.refine")),
        "mcts.optimize_ms_per_circuit": per_circuit(total("mcts.optimize")),
        "mcts.optimize_self_ms_per_circuit": per_circuit(
            self_ms("mcts.optimize")),
        "mcts.cone_self_ms_per_circuit": per_circuit(self_ms("mcts.cone")),
        "mcts.cones_per_circuit": per_circuit(cones),
        "mcts.accept_ratio": _ratio(
            counters["improved_cones_total"], cones),
        "mcts.simulations_per_circuit": per_circuit(
            counters["simulations_total"]),
        "mcts.reward_calls_per_circuit": per_circuit(
            counters["reward_calls_total"]),
        "mcts.reward_cache_hit_ratio": _ratio(
            counters["reward_cache_hits_total"],
            counters["reward_calls_total"]),
        "mcts.oracle_ms_per_circuit": per_circuit(total("mcts.oracle")),
        "mcts.oracle_calls_per_circuit": per_circuit(count("mcts.oracle")),
        "mcts.oracle_share": _ratio(
            total("mcts.oracle"), wall_ms * time_scale),
        "incr.analysis_delta_hit_ratio": _ratio(
            counters["analysis_delta_hits_total"],
            counters["analysis_delta_hits_total"]
            + counters["analysis_fallbacks_total"]),
        "incr.oracle_delta_hit_ratio": _ratio(
            counters["oracle_delta_hits_total"],
            counters["oracle_delta_hits_total"]
            + counters["oracle_fallbacks_total"]),
        "incr.rebase_ms_per_circuit": per_circuit(total("incr.rebase")),
        "incr.apply_edit_ms_per_circuit": per_circuit(
            total("incr.apply_edit")),
        "api.untraced_ms_per_request": _ratio(
            untraced * time_scale, requests),
    }
