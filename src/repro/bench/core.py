"""Timed, seeded microbenchmark harness.

A :class:`Benchmark` is a named (setup, run) pair; ``setup`` builds the
workload once (models trained, netlists elaborated, stimuli drawn) and is
excluded from timing, ``run`` is the measured hot path.  Measurement is
``warmup`` untimed calls followed by ``repeats`` timed calls; the *best*
wall time is the headline number (minimum over repeats is the standard
low-noise estimator for CPU microbenchmarks), mean and standard deviation
are kept for noise inspection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Callable


@dataclass
class Benchmark:
    """One microbenchmark: an isolated, seeded, repeatable hot path.

    ``ops`` is the number of logical operations one ``run`` call performs
    (gate-cycles simulated, candidates evaluated, circuits generated);
    it turns wall time into a throughput that stays comparable when the
    workload is re-scaled.  When the op count is only known after running
    (e.g. search budgets), ``run`` may return an ``int`` which overrides
    ``ops``.
    """

    name: str
    setup: Callable[[], object]
    run: Callable[[object], object]
    ops: int = 1
    repeats: int | None = None  # override the suite-wide repeat count
    meta: dict = field(default_factory=dict)


def matches(name: str, patterns: str | Sequence[str] | None) -> bool:
    """Does a benchmark ``name`` pass a ``--filter``: no pattern, or
    one substring, or any of several?"""
    if patterns is None:
        return True
    if isinstance(patterns, str):
        patterns = [patterns]
    return any(pattern in name for pattern in patterns)


@dataclass
class BenchRecord:
    """Measured result of one benchmark (the JSON schema's inner row)."""

    name: str
    repeats: int
    ops: int
    wall_best: float
    wall_mean: float
    wall_std: float
    meta: dict = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_best if self.wall_best > 0 else math.inf

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "ops": self.ops,
            "wall_best": self.wall_best,
            "wall_mean": self.wall_mean,
            "wall_std": self.wall_std,
            "ops_per_s": self.ops_per_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        return cls(
            name=str(data["name"]),
            repeats=int(data["repeats"]),
            ops=int(data["ops"]),
            wall_best=float(data["wall_best"]),
            wall_mean=float(data["wall_mean"]),
            wall_std=float(data["wall_std"]),
            meta=dict(data.get("meta", {})),
        )


def run_benchmark(
    benchmark: Benchmark,
    repeats: int = 3,
    warmup: int = 1,
) -> BenchRecord:
    """Execute one benchmark and return its measured record."""
    repeats = benchmark.repeats or repeats
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    state = benchmark.setup()
    ops = benchmark.ops
    for _ in range(warmup):
        result = benchmark.run(state)
        if isinstance(result, int):
            ops = result
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = benchmark.run(state)
        walls.append(time.perf_counter() - started)
        if isinstance(result, int):
            ops = result
    mean = sum(walls) / len(walls)
    variance = sum((w - mean) ** 2 for w in walls) / len(walls)
    return BenchRecord(
        name=benchmark.name,
        repeats=repeats,
        ops=ops,
        wall_best=min(walls),
        wall_mean=mean,
        wall_std=math.sqrt(variance),
        meta=dict(benchmark.meta),
    )
