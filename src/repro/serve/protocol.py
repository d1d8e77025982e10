"""Typed wire protocol for the generation service.

Every message that crosses a process or socket boundary -- job records
persisted by the queue, worker events on the multiprocessing channel,
websocket frames pushed to streaming clients -- is a dataclass with a
``to_dict`` / ``from_dict`` JSON round-trip, mirroring the request
substrate in :mod:`repro.api.requests`.  The server, the workers, the
client helpers and the ``repro top`` dashboard all speak exactly these
shapes; nothing parses ad-hoc dicts.

Deduplication identity
----------------------
:func:`request_key` is the content address of a generation job: the
server's resolved scenario config plus the request payload, minus the
``workers`` field (it only sizes the session's Phase-1 chunks, which
cannot change the artifact).  The key doubles as
the :class:`~repro.api.store.ArtifactStore` key under which the finished
:class:`~repro.api.GenerateResult` is cached -- identical requests
therefore resolve to the same artifact without touching a worker.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

from ..api.store import ArtifactStore

# -- job lifecycle ----------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a job can be observed in (terminal states last).
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)


def new_job_id() -> str:
    """Short opaque job handle (identity lives in :func:`request_key`)."""
    return uuid.uuid4().hex[:12]


def request_key(config: dict, request: dict) -> str:
    """Content address of one generation job (dedup + artifact key)."""
    payload = dict(request)
    # Only a Phase-1 chunk size in the Session, which changes no
    # output bit, so it is not part of the job's identity.
    payload.pop("workers", None)
    # Tracing is observation-only (repro.obs contract), so a traced and
    # an untraced submit produce -- and share -- the same artifact.
    payload.pop("trace", None)
    return ArtifactStore.key("generate", {
        "config": config, "request": payload,
    })


def trace_key(result_key: str) -> str:
    """Store key of the execution trace captured for ``result_key``.

    Kept *separate* from the result artifact: traces are wall-clock
    data, so folding them into the result would make the same content
    address resolve to different bytes across runs.
    """
    return f"{result_key}-trace"


@dataclass
class Job:
    """One persisted queue entry (the unit of dispatch and replay)."""

    job_id: str
    seq: int
    request: dict            # GenerateRequest.to_dict() payload
    result_key: str          # dedup fingerprint == artifact-store key
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    worker: int | None = None
    records_done: int = 0
    error: str | None = None
    #: True when this submit was answered from the artifact cache (the
    #: job never went to a worker).
    from_cache: bool = False

    @property
    def count(self) -> int:
        return int(self.request.get("count", 1))

    @property
    def elapsed(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "request": dict(self.request),
            "result_key": self.result_key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "records_done": self.records_done,
            "error": self.error,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            job_id=str(data["job_id"]),
            seq=int(data["seq"]),
            request=dict(data["request"]),
            result_key=str(data["result_key"]),
            state=str(data.get("state", QUEUED)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            worker=data.get("worker"),
            records_done=int(data.get("records_done", 0)),
            error=data.get("error"),
            from_cache=bool(data.get("from_cache", False)),
        )

    def summary(self) -> dict:
        """The ``/jobs`` listing row (no full request payload)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "count": self.count,
            "records_done": self.records_done,
            "seed": self.request.get("seed"),
            "result_key": self.result_key,
            "worker": self.worker,
            "elapsed": self.elapsed,
            "error": self.error,
            "from_cache": self.from_cache,
        }


# -- worker -> server events (also the websocket stream frames) -------------
@dataclass
class WorkerReady:
    """A worker process finished fitting its session and can take jobs."""

    worker: int

    def to_dict(self) -> dict:
        return {"type": "ready", "worker": self.worker}


@dataclass
class JobStarted:
    job_id: str
    worker: int

    def to_dict(self) -> dict:
        return {"type": "started", "job_id": self.job_id,
                "worker": self.worker}


@dataclass
class JobProgress:
    """One generated record inside a job (streamed as it completes).

    ``timings`` is the record's per-phase wall-second breakdown
    (``sample`` / ``refine`` / ``optimize``) from
    :class:`~repro.api.GenerationRecord` -- the payload ``repro top``
    and latency accounting read.
    """

    job_id: str
    index: int
    count: int
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"type": "progress", "job_id": self.job_id,
                "index": self.index, "count": self.count,
                "timings": dict(self.timings)}


@dataclass
class JobDone:
    job_id: str
    result_key: str
    elapsed: float

    def to_dict(self) -> dict:
        return {"type": "done", "job_id": self.job_id,
                "result_key": self.result_key, "elapsed": self.elapsed}


@dataclass
class JobFailed:
    job_id: str
    error: str

    def to_dict(self) -> dict:
        return {"type": "failed", "job_id": self.job_id,
                "error": self.error}


#: Event types that end a job's stream.
TERMINAL_EVENTS = ("done", "failed")


def parse_event(data: dict):
    """Rehydrate a worker/stream event dict into its typed message."""
    kind = data.get("type")
    if kind == "ready":
        return WorkerReady(worker=int(data["worker"]))
    if kind == "started":
        return JobStarted(job_id=str(data["job_id"]),
                          worker=int(data["worker"]))
    if kind == "progress":
        return JobProgress(
            job_id=str(data["job_id"]), index=int(data["index"]),
            count=int(data["count"]), timings=dict(data.get("timings", {})),
        )
    if kind == "done":
        return JobDone(job_id=str(data["job_id"]),
                       result_key=str(data["result_key"]),
                       elapsed=float(data.get("elapsed", 0.0)))
    if kind == "failed":
        return JobFailed(job_id=str(data["job_id"]),
                         error=str(data.get("error", "unknown")))
    raise ValueError(f"unknown event type {kind!r}")
