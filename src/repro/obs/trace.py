"""Low-overhead tracing spans over a preallocated ring buffer.

The recorder follows the sanitizer's activation idiom
(:mod:`repro.lint.sanitize`): the active :class:`TraceRecorder` rides a
:class:`contextvars.ContextVar`, so the default-off cost at every
instrumented call site is one context-variable read returning ``None``
-- no timestamps, no allocation, no branching beyond the guard.  When a
recorder *is* active, :func:`span` stamps two ``perf_counter_ns`` reads
around the instrumented region and writes one fixed-shape record into a
preallocated ring buffer; once the buffer wraps, the oldest spans are
overwritten and counted on :attr:`TraceRecorder.dropped` rather than
growing memory without bound.

Tracing is *observation only*: no instrumented code path reads anything
back from the recorder, no random stream is touched, and every value
recorded is a wall-clock timestamp or an attribute the caller already
computed -- which is why a fully traced run is bit-identical to an
untraced one (asserted in ``tests/test_obs.py``).

Export is the Chrome trace-event JSON format (``"X"`` complete events,
microsecond timestamps), which https://ui.perfetto.dev loads directly::

    from repro.obs import TraceRecorder, tracing

    recorder = TraceRecorder()
    with tracing(recorder):
        session.generate(request)
    path = recorder.write_chrome_trace("trace.json")
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar, Token
from typing import Any, Iterator, Mapping

#: Default ring capacity: enough for every span of a paper-scale
#: generate run (~thousands of candidate edits) at ~100 bytes/span.
DEFAULT_CAPACITY = 65536

_ACTIVE: ContextVar["TraceRecorder | None"] = ContextVar(
    "repro_trace", default=None
)


def current_recorder() -> "TraceRecorder | None":
    """The recorder tracing this context, or ``None`` (the fast path)."""
    return _ACTIVE.get()


def is_tracing() -> bool:
    return _ACTIVE.get() is not None


class SpanRecord:
    """One finished span (a view over the ring's fixed-shape tuples)."""

    __slots__ = ("name", "start_ns", "duration_ns", "thread_id", "attrs")

    def __init__(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        thread_id: int,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.thread_id = thread_id
        self.attrs = attrs

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, "
            f"{self.duration_ns / 1e6:.3f}ms, {self.attrs})"
        )


class _Span:
    """Context manager for one active span (reused fields, no closure)."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        attrs: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def add(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open (e.g. a
        search's simulation count, known only at the end)."""
        self._attrs.update(attrs)

    def __exit__(self, *exc: object) -> None:
        self._recorder._record(
            self._name,
            self._start,
            time.perf_counter_ns() - self._start,
            self._attrs,
        )


class _NullSpan:
    """The disabled path: a shared, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def add(self, **attrs: Any) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Open a trace span around the ``with`` body.

    Disabled (no active recorder) this returns a shared no-op object:
    the total cost is the call, one ContextVar read and two trivial
    ``__enter__``/``__exit__`` dispatches -- the property the
    ``obs.overhead`` bench entry and its CI gate keep honest.
    """
    recorder = _ACTIVE.get()
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration marker event (disabled: one dict read)."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder._record(name, time.perf_counter_ns(), 0, attrs)


class tracing:
    """Activate ``recorder`` for the dynamic extent of the ``with`` body.

    ``tracing(None)`` is a no-op context, so call sites that take an
    optional recorder need no branching (mirrors ``sanitizing``).
    """

    __slots__ = ("_recorder", "_token")

    def __init__(self, recorder: "TraceRecorder | None") -> None:
        self._recorder = recorder
        self._token: Token[TraceRecorder | None] | None = None

    def __enter__(self) -> "TraceRecorder | None":
        if self._recorder is not None:
            self._token = _ACTIVE.set(self._recorder)
        return self._recorder

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


class TraceRecorder:
    """Preallocated ring buffer of finished spans.

    ``capacity`` bounds memory: the ring holds the *newest* ``capacity``
    spans and counts everything overwritten on :attr:`dropped`.  Records
    are appended under a lock -- spans from ``Session.generate`` worker
    threads interleave into one buffer -- but the lock is only ever
    taken when tracing is active, so the disabled path pays nothing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: list[SpanRecord | None] = [None] * capacity
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()
        self._epoch_ns = time.perf_counter_ns()

    # -- recording -------------------------------------------------------
    def _record(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        attrs: dict[str, Any],
    ) -> None:
        record = SpanRecord(
            name, start_ns, duration_ns,
            threading.get_ident(), attrs,
        )
        with self._lock:
            self._ring[self._next] = record
            self._next = (self._next + 1) % self.capacity
            self._count += 1

    # -- inspection ------------------------------------------------------
    def __len__(self) -> int:
        """Spans currently held (≤ capacity)."""
        return min(self._count, self.capacity)

    @property
    def recorded(self) -> int:
        """Total spans ever recorded, including overwritten ones."""
        return self._count

    @property
    def dropped(self) -> int:
        """Spans overwritten by ring wraparound."""
        return max(self._count - self.capacity, 0)

    def spans(self) -> list[SpanRecord]:
        """Held spans, oldest first (stable under concurrent recording)."""
        with self._lock:
            if self._count <= self.capacity:
                held = self._ring[: self._count]
            else:
                held = self._ring[self._next:] + self._ring[: self._next]
        return [record for record in held if record is not None]

    def clear(self) -> None:
        with self._lock:
            self._ring = [None] * self.capacity
            self._next = 0
            self._count = 0
            self._epoch_ns = time.perf_counter_ns()

    # -- export ----------------------------------------------------------
    def to_chrome_trace(
        self, process_name: str = "repro",
        metadata: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Chrome trace-event JSON (the format Perfetto's UI loads).

        Every span becomes one ``"ph": "X"`` complete event with
        microsecond ``ts``/``dur`` relative to the recorder's epoch;
        span attributes ride in ``args``.  Thread ids are compacted to
        small consecutive ints and named via ``thread_name`` metadata
        events so the Perfetto track list stays readable.
        """
        pid = os.getpid()
        events: list[dict[str, Any]] = [{
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": process_name},
        }]
        tids: dict[int, int] = {}
        for record in self.spans():
            tid = tids.get(record.thread_id)
            if tid is None:
                tid = len(tids)
                tids[record.thread_id] = tid
                events.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": f"thread-{tid}"},
                })
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": record.name,
                "ts": (record.start_ns - self._epoch_ns) / 1000.0,
                "dur": record.duration_ns / 1000.0,
                "args": {
                    key: _jsonable(value)
                    for key, value in record.attrs.items()
                },
            })
        payload: dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "recorded": self.recorded,
                "dropped": self.dropped,
                "capacity": self.capacity,
            },
        }
        if metadata:
            payload["otherData"].update(
                {str(k): _jsonable(v) for k, v in metadata.items()}
            )
        return payload

    def write_chrome_trace(
        self, path: str | os.PathLike[str],
        metadata: Mapping[str, Any] | None = None,
    ) -> str:
        """Write :meth:`to_chrome_trace` JSON to ``path``; returns it."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(metadata=metadata), handle)
        return str(path)

    # -- aggregation -----------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (count, total milliseconds)}`` over held spans."""
        out: dict[str, tuple[int, float]] = {}
        for record in self.spans():
            count, total = out.get(record.name, (0, 0.0))
            out[record.name] = (count + 1, total + record.duration_ns / 1e6)
        return out

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.spans())


def _jsonable(value: Any) -> Any:
    """Coerce span attributes to JSON-safe scalars (never raises)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
