"""Machine-readable benchmark reports: ``BENCH_<suite>.json``.

The report is the repo's perf trajectory substrate: every run stamps the
git revision, a fingerprint of the exact scenario config, and the
library versions, so two reports are comparable iff their fingerprints
match and regressions can be attributed to a commit range.

``compare`` implements the CI gate: a benchmark regresses when its best
wall time grew by more than ``max_regression`` x against the committed
baseline.  Sub-``min_time`` benchmarks are exempt -- at that scale the
measurement is scheduler noise, not signal.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from .core import BenchRecord

#: Bump when a field changes meaning; additive changes keep the version.
SCHEMA_VERSION = 1

#: Variables sizing the BLAS/OpenMP thread pools.  They only take effect
#: when set before numpy loads, so ``repro bench`` cannot set them for
#: itself.  CI and genbench pin them to 1, and a baseline compares only
#: against runs with the same setting.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def current_blas_threads() -> str:
    """This process's BLAS thread setting, ``"unset"`` for the default."""
    return os.environ.get(THREAD_ENV[0], "unset")


def git_revision() -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@dataclass
class BenchReport:
    """One suite run: environment stamp plus per-benchmark records."""

    suite: str
    preset: str | None
    config_fingerprint: str
    records: list[BenchRecord] = field(default_factory=list)
    git_rev: str = "unknown"
    created_unix: float = 0.0
    python_version: str = ""
    numpy_version: str = ""
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def stamped(
        cls,
        suite: str,
        preset: str | None,
        config_fingerprint: str,
        records: list[BenchRecord],
    ) -> "BenchReport":
        """Build a report stamped with the current environment; each
        record's meta gets the run's ``blas_threads``."""
        threads = current_blas_threads()
        for record in records:
            record.meta["blas_threads"] = threads
        return cls(
            suite=suite,
            preset=preset,
            config_fingerprint=config_fingerprint,
            records=records,
            git_rev=git_revision(),
            created_unix=time.time(),
            python_version=platform.python_version(),
            numpy_version=np.__version__,
        )

    # -- JSON round-trip ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "preset": self.preset,
            "config_fingerprint": self.config_fingerprint,
            "git_rev": self.git_rev,
            "created_unix": self.created_unix,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "benchmarks": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        return cls(
            suite=str(data["suite"]),
            preset=data.get("preset"),
            config_fingerprint=str(data.get("config_fingerprint", "")),
            records=[
                BenchRecord.from_dict(row) for row in data.get("benchmarks", [])
            ],
            git_rev=str(data.get("git_rev", "unknown")),
            created_unix=float(data.get("created_unix", 0.0)),
            python_version=str(data.get("python_version", "")),
            numpy_version=str(data.get("numpy_version", "")),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    def blas_threads(self) -> str:
        """The BLAS thread setting its records ran with."""
        return ",".join(sorted({
            str(record.meta.get("blas_threads", "unset"))
            for record in self.records
        })) or "unset"

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "BenchReport":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        """Fixed-width table for terminals and CI logs."""
        header = (
            f"{'benchmark':<28s}{'best':>10s}{'mean':>10s}"
            f"{'ops':>10s}{'ops/s':>12s}"
        )
        lines = [header, "-" * len(header)]
        for record in self.records:
            lines.append(
                f"{record.name:<28s}"
                f"{record.wall_best * 1e3:>8.2f}ms"
                f"{record.wall_mean * 1e3:>8.2f}ms"
                f"{record.ops:>10d}"
                f"{record.ops_per_s:>12.0f}"
            )
        return "\n".join(lines)


def render_profile(
    current: BenchReport, baseline: BenchReport | None
) -> str:
    """Hot-loop profile table: per-op cost and drift vs a baseline.

    This is the ``repro bench --profile`` view -- the per-candidate /
    per-simulation numbers the ROADMAP tracks, compared against the
    committed ``BENCH_<suite>.json`` so a hot-loop regression is visible
    in the terminal without opening the JSON.
    """
    baseline_by_name = (
        {record.name: record for record in baseline.records}
        if baseline is not None else {}
    )
    header = (
        f"{'benchmark':<28s}{'best':>10s}{'per-op':>12s}"
        f"{'baseline':>10s}{'delta':>8s}"
    )
    lines = [header, "-" * len(header)]
    for record in current.records:
        per_op = (
            f"{record.wall_best * 1e3 / record.ops:>10.3f}ms"
            if record.ops else f"{'-':>12s}"
        )
        base = baseline_by_name.get(record.name)
        if base is not None and base.wall_best > 0:
            delta = record.wall_best / base.wall_best - 1.0
            base_col = f"{base.wall_best * 1e3:>8.2f}ms"
            delta_col = f"{delta:>+8.0%}"
        else:
            base_col = f"{'-':>10s}"
            delta_col = f"{'-':>8s}"
        lines.append(
            f"{record.name:<28s}{record.wall_best * 1e3:>8.2f}ms"
            f"{per_op}{base_col}{delta_col}"
        )
    if baseline is not None:
        lines.append(
            f"(baseline rev {baseline.git_rev}, "
            f"config {baseline.config_fingerprint[:12]})"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Regression:
    """One benchmark that got slower than the gate allows."""

    name: str
    current: float
    baseline: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline > 0 else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.current * 1e3:.2f}ms vs baseline "
            f"{self.baseline * 1e3:.2f}ms ({self.ratio:.2f}x)"
        )


def compare(
    current: BenchReport,
    baseline: BenchReport,
    max_regression: float = 2.0,
    min_time: float = 0.005,
) -> list[Regression]:
    """Benchmarks in ``current`` that regressed past the gate.

    Benchmarks present on only one side are ignored (adding or retiring
    a benchmark is not a regression).  Pairs where *both* sides are under
    ``min_time`` seconds are skipped as noise.
    """
    baseline_by_name = {record.name: record for record in baseline.records}
    regressions = []
    for record in current.records:
        base = baseline_by_name.get(record.name)
        if base is None:
            continue
        if record.wall_best < min_time and base.wall_best < min_time:
            continue
        if record.wall_best > base.wall_best * max_regression:
            regressions.append(
                Regression(
                    name=record.name,
                    current=record.wall_best,
                    baseline=base.wall_best,
                )
            )
    return regressions
