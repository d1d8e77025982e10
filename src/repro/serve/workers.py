"""Multi-process worker pool executing generation jobs.

Each worker is a separate OS process (``spawn`` start method: no
inherited locks or loop state) that builds its own
:class:`~repro.api.Session` over the *shared* content-addressed
:class:`~repro.api.ArtifactStore`.  The first worker to fit a scenario
trains and saves the model artifacts; every other worker -- and every
later server boot -- loads the identical bytes, so which worker runs a
job can never change its output.

Determinism: a job is executed with
:meth:`~repro.api.Session.iter_generate`, whose per-item
``SeedSequence.spawn`` derivation is bit-identical to sequential
:meth:`~repro.api.Session.generate`.  Job artifacts therefore depend
only on (scenario config, request) -- the same pair that forms the
dedup key -- regardless of pool size, dispatch order, or how often a
job is replayed after a crash.

Channel shapes are the typed events of :mod:`repro.serve.protocol`;
records stream up as each circuit finishes, which is what feeds the
per-job websocket progress push.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback

from .protocol import (
    JobDone,
    JobFailed,
    JobProgress,
    JobStarted,
    WorkerReady,
    trace_key,
)


def worker_main(
    worker_id: int,
    config_payload: dict,
    cache_dir: str | None,
    job_q,
    event_q,
) -> None:
    """Entry point of one worker process: fit once, then drain jobs."""
    from ..api import GenerateRequest, Session, SynCircuitConfig
    from ..obs import TraceRecorder, tracing

    session = Session(
        config=SynCircuitConfig.from_dict(config_payload), cache_dir=cache_dir
    )
    session.fit()
    event_q.put(WorkerReady(worker=worker_id).to_dict())

    while True:
        task = job_q.get()
        if task is None:  # shutdown sentinel
            break
        job_id = str(task["job_id"])
        event_q.put(JobStarted(job_id=job_id, worker=worker_id).to_dict())
        try:
            request = GenerateRequest.from_dict(task["request"])
            recorder = TraceRecorder() if request.trace else None
            started = time.perf_counter()
            records = []
            with tracing(recorder):
                for record in session.iter_generate(request):
                    records.append(record)
                    event_q.put(JobProgress(
                        job_id=job_id,
                        index=len(records) - 1,
                        count=request.count,
                        timings=record.timings,
                    ).to_dict())
                result = session.finish(records, request, started)
            session.store.save_json(task["result_key"], result.to_dict())
            if recorder is not None:
                # Stored beside -- never inside -- the result artifact:
                # traces are wall-clock data and must not perturb the
                # content-addressed result bytes (see protocol.trace_key).
                session.store.save_json(
                    trace_key(str(task["result_key"])),
                    recorder.to_chrome_trace(
                        process_name=f"repro-worker-{worker_id}",
                        metadata={"job_id": job_id},
                    ),
                )
            event_q.put(JobDone(
                job_id=job_id,
                result_key=str(task["result_key"]),
                elapsed=result.elapsed,
            ).to_dict())
        except Exception as exc:  # noqa: BLE001 -- job isolation boundary:
            # a failing job must surface on the job record, not kill the
            # worker (traceback included for the server log).
            event_q.put(JobFailed(
                job_id=job_id,
                error=f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc()}",
            ).to_dict())


class WorkerPool:
    """Fixed pool of spawn-started worker processes plus the two queues.

    ``dispatched`` counts jobs actually handed to a worker -- the number
    the dedup tests pin at zero for cache hits.
    """

    def __init__(
        self,
        config_payload: dict,
        cache_dir: str | None = None,
        workers: int = 2,
    ):
        self.config_payload = dict(config_payload)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.workers = max(int(workers), 1)
        self._ctx = multiprocessing.get_context("spawn")
        self.job_q = self._ctx.Queue()
        self.event_q = self._ctx.Queue()
        self._procs: list = []
        self.dispatched = 0

    def start(self) -> "WorkerPool":
        for worker_id in range(self.workers):
            proc = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self.config_payload, self.cache_dir,
                      self.job_q, self.event_q),
                daemon=True,
                name=f"repro-serve-worker-{worker_id}",
            )
            proc.start()
            self._procs.append(proc)
        return self

    def dispatch(self, job_id: str, request: dict, result_key: str) -> None:
        self.job_q.put({
            "job_id": job_id,
            "request": dict(request),
            "result_key": result_key,
        })
        self.dispatched += 1

    def poll_event(self, timeout: float = 0.2) -> dict | None:
        """Next worker event, or ``None`` after ``timeout`` seconds."""
        try:
            return self.event_q.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def alive(self) -> int:
        return sum(1 for proc in self._procs if proc.is_alive())

    def stop(self, timeout: float = 10.0) -> None:
        """Drain-free shutdown: sentinel per worker, then join/terminate."""
        for _ in self._procs:
            self.job_q.put(None)
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs.clear()
