"""Metric names and units, and the printed report."""

from __future__ import annotations

import json

END_TO_END: dict[str, str] = {
    "circuits_per_s": "1/s",
    "request_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scpr_mean": "ratio",
    "pcs_mean": "area/node",
    "valid_frac": "ratio",
}

PER_LAYER: dict[str, str] = {
    "diffusion.sample_ms_per_circuit": "ms",
    "diffusion.batch_fill_ratio": "ratio",
    "postprocess.refine_ms_per_circuit": "ms",
    "mcts.optimize_ms_per_circuit": "ms",
    "mcts.optimize_self_ms_per_circuit": "ms",
    "mcts.cone_self_ms_per_circuit": "ms",
    "mcts.cones_per_circuit": "count",
    "mcts.accept_ratio": "ratio",
    "mcts.simulations_per_circuit": "count",
    "mcts.reward_calls_per_circuit": "count",
    "mcts.reward_cache_hit_ratio": "ratio",
    "mcts.oracle_ms_per_circuit": "ms",
    "mcts.oracle_calls_per_circuit": "count",
    "mcts.oracle_share": "ratio",
    "incr.analysis_delta_hit_ratio": "ratio",
    "incr.oracle_delta_hit_ratio": "ratio",
    "incr.rebase_ms_per_circuit": "ms",
    "incr.apply_edit_ms_per_circuit": "ms",
    "api.untraced_ms_per_request": "ms",
    "setup.import_s": "s",
    "setup.fit_s": "s",
    "bench.ref_kernel_ms": "ms",
    "bench.raw_circuits_per_s": "1/s",
    "bench.raw_request_p50_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.requests": "count",
    "bench.circuits": "count",
}


def result_line(
    values: dict[str, float], units: dict[str, str], *,
    correct: bool, attempted: int, failed: int,
) -> str:
    """The final JSON line: exactly the metrics named in ``units``."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def table(values: dict[str, float], units: dict[str, str]) -> list[str]:
    return [
        f"{name:<36} {values[name]:>14.6g} {unit}"
        for name, unit in units.items()
    ]
