"""Named counters / gauges / histograms with Prometheus text rendering.

One process-wide :func:`registry` aggregates every layer's numbers --
reward calls, delta-analysis outcomes, artifact-store hit/miss,
queue depth, job latencies -- so surfaces like ``GET /metrics`` and
``/stats`` read a single source instead of threading fields by hand.
Isolated :class:`MetricsRegistry` instances exist for tests and for
scoped measurement.

Metric updates are observation only (plain numbers under a lock); they
can never change a search result, which is what lets the instrumented
paths keep the repo's bit-identity contract.

Rendering follows the Prometheus text exposition format 0.0.4::

    # TYPE repro_store_hits_total counter
    repro_store_hits_total 42
    # TYPE repro_job_seconds histogram
    repro_job_seconds_bucket{le="0.1"} 3
    ...
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from typing import Iterable, Mapping, cast

#: Default histogram buckets (seconds-flavoured, Prometheus style).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Cap on per-histogram retained samples for exact quantiles; beyond it
#: the oldest samples are evicted (recent-window percentiles).
_SAMPLE_WINDOW = 2048


def _label_str(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[str]:
        return [f"{self.name} {_format(self._value)}"]


class Gauge:
    """A value that goes up and down (queue depth, busy workers)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> list[str]:
        return [f"{self.name} {_format(self._value)}"]


class Histogram:
    """Cumulative-bucket histogram plus a recent-sample window.

    The buckets feed the Prometheus exposition; the bounded sorted
    sample window gives exact p50/p99 over the most recent
    ``_SAMPLE_WINDOW`` observations -- the numbers ``/stats`` and
    ``repro top`` display.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("need at least one bucket bound")
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf last
        self._count = 0
        self._sum = 0.0
        self._sorted: list[float] = []
        self._window: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._bucket_counts[bisect_left(self.bounds, value)] += 1
            self._count += 1
            self._sum += value
            insort(self._sorted, value)
            self._window.append(value)
            if len(self._window) > _SAMPLE_WINDOW:
                oldest = self._window.pop(0)
                del self._sorted[bisect_left(self._sorted, oldest)]

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float | None:
        """Exact quantile over the recent window (``None`` when empty)."""
        with self._lock:
            if not self._sorted:
                return None
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantile must be in [0, 1]")
            index = min(
                int(math.ceil(q * len(self._sorted))) - 1,
                len(self._sorted) - 1,
            )
            return self._sorted[max(index, 0)]

    def render(self) -> list[str]:
        lines = []
        cumulative = 0
        with self._lock:
            for bound, bucket in zip(self.bounds, self._bucket_counts):
                cumulative += bucket
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_str({'le': _format(bound)})} {cumulative}"
                )
            lines.append(
                f'{self.name}_bucket{{le="+Inf"}} {self._count}'
            )
            lines.append(f"{self.name}_sum {_format(self._sum)}")
            lines.append(f"{self.name}_count {self._count}")
        return lines


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Name-keyed metric instances; idempotent get-or-create accessors."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(
        self, name: str, factory: type, **kwargs: object
    ) -> Metric:
        name = self.prefix + name
        with self._lock:
            metric: Metric | None = self._metrics.get(name)
            if metric is None:
                metric = cast(Metric, factory(name, **kwargs))
                self._metrics[name] = metric
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {factory.__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get(name, Counter, help=help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get(name, Gauge, help=help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get(name, Histogram, help=help, buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    # -- introspection ---------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(self.prefix + name)

    def value(self, name: str) -> float:
        """Counter/gauge value by name (0.0 when absent) -- the reader
        surfaces like ``/stats`` use this instead of hasattr dances."""
        metric = self._metrics.get(self.prefix + name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-able snapshot (counters/gauges as numbers, histograms as
        count/sum/p50/p99)."""
        out: dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "p50": metric.quantile(0.50),
                    "p99": metric.quantile(0.99),
                }
            else:
                out[metric.name] = metric.value
        return out

    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric (tests only; production metrics live for
        the process lifetime)."""
        with self._lock:
            self._metrics.clear()


def _format(value: float) -> str:
    """Prometheus number formatting: integers without a trailing .0."""
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


#: The process-wide registry every instrumented layer publishes into.
_GLOBAL = MetricsRegistry(prefix="repro_")


def registry() -> MetricsRegistry:
    """The process-wide default registry (prefix ``repro_``)."""
    return _GLOBAL
