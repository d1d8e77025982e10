"""Tests for the generation service (``repro serve``) and the
concurrency-correctness bugfix sweep that shipped with it.

The end-to-end tests boot one real server (spawn worker processes,
persistent queue) per module against a shared pre-fitted artifact
store, so worker startup is artifact-load, not training.  Determinism
is the load-bearing assertion throughout: a multi-process pool -- and a
kill-and-restart queue replay -- must reproduce the sequential
``Session.generate`` output bit for bit.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.api import (
    ArtifactStore,
    BatchItemError,
    GenerateRequest,
    Session,
)
from repro.api.presets import resolve_preset
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobDone,
    JobProgress,
    JobQueue,
    JobStarted,
    ReproServer,
    ServeClient,
    ServeError,
    parse_event,
    render_frame,
    request_key,
)


def graph_dicts(result):
    """The bit-identity projection: graphs only (timings vary per run)."""
    return [record.graph.to_dict() for record in result.records]


# ---------------------------------------------------------------------------
# Protocol and queue units (no server)
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_key_ignores_workers(self):
        config = {"preset": "smoke"}
        one = GenerateRequest(count=2, nodes=40, seed=3, workers=1).to_dict()
        four = GenerateRequest(count=2, nodes=40, seed=3, workers=4).to_dict()
        # Fan-out is bit-identical, so worker count is not request identity.
        assert request_key(config, one) == request_key(config, four)

    def test_request_key_ignores_trace(self):
        # Tracing is observation only, so a traced submit of a request
        # the server has already answered is a dedup hit, not a re-run.
        config = {"preset": "smoke"}
        plain = GenerateRequest(count=2, nodes=40, seed=3).to_dict()
        traced = GenerateRequest(count=2, nodes=40, seed=3,
                                 trace=True).to_dict()
        assert request_key(config, plain) == request_key(config, traced)

    def test_request_key_depends_on_config_and_request(self):
        request = GenerateRequest(seed=3).to_dict()
        assert request_key({"a": 1}, request) != request_key({"a": 2}, request)
        other = GenerateRequest(seed=4).to_dict()
        assert request_key({"a": 1}, request) != request_key({"a": 1}, other)

    def test_job_roundtrip(self):
        job = Job(
            job_id="abc123", seq=7,
            request=GenerateRequest(count=3).to_dict(),
            result_key="generate-" + "0" * 32,
            state=RUNNING, submitted_at=1.0, started_at=2.0,
            worker=1, records_done=2,
        )
        clone = Job.from_dict(job.to_dict())
        assert clone.to_dict() == job.to_dict()
        assert clone.count == 3

    def test_parse_event_roundtrip(self):
        events = [
            JobStarted(job_id="j", worker=0),
            JobProgress(job_id="j", index=1, count=4,
                        timings={"sample": 0.1}),
            JobDone(job_id="j", result_key="k", elapsed=0.5),
        ]
        for event in events:
            parsed = parse_event(event.to_dict())
            assert parsed == event

    def test_render_frame_mentions_jobs(self):
        stats = {"uptime": 5.0, "config_fingerprint": "abc",
                 "workers": 2, "workers_ready": 2, "workers_alive": 2,
                 "queue": {QUEUED: 1, RUNNING: 0, DONE: 2, FAILED: 0},
                 "dispatched": 3, "dedup_hits": 1}
        jobs = [{"job_id": "deadbeef0000", "state": DONE, "records_done": 2,
                 "count": 2, "seed": 5, "elapsed": 0.5,
                 "result_key": "generate-" + "0" * 32, "error": None}]
        frame = render_frame(stats, jobs)
        assert "deadbeef0000" in frame
        assert "dedup hits 1" in frame


class TestJobQueue:
    def test_submit_persists_and_reloads(self, tmp_path):
        queue = JobQueue(tmp_path)
        request = GenerateRequest(count=2, seed=1).to_dict()
        a = queue.submit(request, "generate-" + "a" * 32)
        b = queue.submit(request, "generate-" + "b" * 32)
        c = queue.submit(request, "generate-" + "c" * 32)
        queue.mark_running(b.job_id, worker=0)
        queue.mark_progress(b.job_id, 1)
        queue.mark_done(c.job_id)

        fresh = JobQueue(tmp_path)
        replay = fresh.load()
        # queued + running jobs come back queued, in submit order; the
        # crashed-mid-job entry has its progress cleared.
        assert [j.job_id for j in replay] == [a.job_id, b.job_id]
        assert all(j.state == QUEUED for j in replay)
        rehydrated_b = fresh.get(b.job_id)
        assert rehydrated_b.records_done == 0
        assert rehydrated_b.worker is None
        assert fresh.get(c.job_id).state == DONE
        # New submissions never collide with rehydrated sequence numbers.
        d = fresh.submit(request, "generate-" + "d" * 32)
        assert d.seq > c.seq

    def test_load_skips_corrupt_ledger_file(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(GenerateRequest().to_dict(), "generate-" + "e" * 32)
        (tmp_path / "job-99999999-bogus.json").write_text("{not json")
        fresh = JobQueue(tmp_path)
        replay = fresh.load()
        assert [j.job_id for j in replay] == [job.job_id]

    def test_mark_unknown_job_is_noop(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.mark_done("nope") is None
        assert queue.mark_failed("nope", "err") is None


# ---------------------------------------------------------------------------
# End-to-end service (one module-scoped server)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_env(tmp_path_factory):
    """Shared config + pre-fitted artifact store for every server boot.

    The autouse per-test cache isolation doesn't apply here: workers are
    separate processes that must see the same store the pre-fit warmed,
    so the path is explicit everywhere.
    """
    root = tmp_path_factory.mktemp("serve")
    cache = root / "cache"
    config = resolve_preset("smoke")
    session = Session(config=config, cache_dir=cache).fit()
    return SimpleNamespace(root=root, cache=cache, config=config,
                           session=session)


@pytest.fixture(scope="module")
def server(serve_env):
    instance = ReproServer(
        config=serve_env.config,
        workers=2,
        cache_dir=serve_env.cache,
        queue_dir=serve_env.root / "queue",
    ).start_background()
    yield instance
    instance.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}")


class TestServeEndToEnd:
    def test_healthz_and_stats(self, client, server):
        assert client.healthy()
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["store"]["root"] == str(server.store.root)

    def test_submit_stream_result_bit_identical(self, client, serve_env):
        request = GenerateRequest(count=2, nodes=40, seed=11)
        accepted = client.submit(request)
        assert accepted["state"] in (QUEUED, RUNNING, DONE)

        events = list(client.stream(accepted["job_id"]))
        kinds = [e["type"] for e in events]
        assert kinds[0] == "status"
        assert kinds[-1] == "done"
        progress = [e for e in events if e["type"] == "progress"]
        assert [e["index"] for e in progress] == [0, 1]
        for e in progress:
            assert set(e["timings"]) >= {"sample", "refine"}

        status = client.wait(accepted["job_id"])
        assert status["state"] == DONE
        served = client.result(accepted["job_id"])
        reference = serve_env.session.generate(request)
        assert graph_dicts(served) == graph_dicts(reference)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.status("doesnotexist")
        with pytest.raises(ServeError, match="404"):
            client.result("doesnotexist")
        with pytest.raises(ServeError, match="upgrade refused"):
            list(client.stream("doesnotexist"))

    def test_invalid_request_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.submit({"count": 1, "bogus_field": True})

    @pytest.mark.parametrize("field, value, message", [
        ("tier", "turbo", "unknown tier"),
        ("count", -1, "count must be >= 0"),
        ("seed", -1, "seed must be >= 0"),
        ("nodes", [40, 20], "nodes range .* is reversed"),
        ("nodes", -1, "nodes must be >= 4"),
        ("nodes", 3, "nodes must be >= 4"),
        ("nodes", [3, 40], "nodes must be >= 4"),
    ], ids=["tier", "count", "seed", "nodes", "negative_nodes",
            "too_few_nodes", "too_few_nodes_range"])
    def test_bad_field_value_is_400(self, client, field, value, message):
        # Rejected when the request is built at submit, so no job is
        # queued only to fail later inside a worker.
        jobs_before = len(client.jobs())
        with pytest.raises(ServeError, match=f"400.*{message}"):
            client.submit({"count": 1, field: value})
        assert len(client.jobs()) == jobs_before

    # A node range past int64 passes request validation but raises
    # ValueError inside the engine, when the item sizes are drawn.
    UNDRAWABLE = (40, 2 ** 63)

    def test_worker_failure_is_isolated(self, client):
        # The job fails, the worker survives for the next job.
        accepted = client.submit(
            GenerateRequest(count=1, nodes=self.UNDRAWABLE, seed=21)
        )
        status = client.wait(accepted["job_id"])
        assert status["state"] == FAILED
        assert "ValueError" in status["error"]
        with pytest.raises(ServeError, match="409"):
            client.result(accepted["job_id"])
        events = list(client.stream(accepted["job_id"]))
        assert events[-1]["type"] == "failed"
        with pytest.raises(ServeError, match="failed"):
            client.generate(
                GenerateRequest(count=1, nodes=self.UNDRAWABLE, seed=21),
                dedupe=False,
            )
        # The pool is still fully alive and serving.
        assert client.stats()["workers_alive"] == 2
        ok = client.generate(GenerateRequest(count=1, nodes=40, seed=22))
        assert len(ok.records) == 1

    def test_failed_jobs_are_not_dedup_hits(self, client):
        # Resubmitting the failed request above must dispatch a fresh
        # attempt, never return the cached failure.
        accepted = client.submit(
            GenerateRequest(count=1, nodes=self.UNDRAWABLE, seed=21)
        )
        assert not accepted["deduplicated"]

    def test_dedup_hit_zero_dispatch(self, client):
        request = GenerateRequest(count=1, nodes=40, seed=31)
        first = client.submit(request)
        client.wait(first["job_id"])
        before = client.stats()
        hits = []
        for _ in range(3):
            hits.append(client.submit(request))
        after = client.stats()
        assert all(h["deduplicated"] for h in hits)
        assert all(h["job_id"] == first["job_id"] for h in hits)
        assert after["dispatched"] == before["dispatched"]
        assert after["dedup_hits"] == before["dedup_hits"] + 3
        assert graph_dicts(client.result(first["job_id"])) == graph_dicts(
            client.result(hits[0]["job_id"])
        )

    def test_dedupe_false_forces_dispatch(self, client):
        request = GenerateRequest(count=1, nodes=40, seed=31)
        before = client.stats()["dispatched"]
        fresh = client.submit(request, dedupe=False)
        assert not fresh["deduplicated"]
        client.wait(fresh["job_id"])
        assert client.stats()["dispatched"] == before + 1

    def test_stream_of_finished_job_replays_history(self, client):
        request = GenerateRequest(count=1, nodes=40, seed=31)
        job_id = client.submit(request)["job_id"]
        client.wait(job_id)
        events = list(client.stream(job_id))
        assert events[0]["type"] == "status"
        assert events[-1]["type"] == "done"

    def test_top_renders_live_stats(self, client):
        frame = render_frame(client.stats(), client.jobs())
        assert "repro serve" in frame
        assert "workers 2/2 ready" in frame

    def test_client_disconnect_mid_stream_is_isolated(self, client, server):
        """An abrupt websocket hangup must not wedge the handler, leak
        the subscriber queue, or disturb the job it was watching."""
        accepted = client.submit(GenerateRequest(count=3, nodes=40, seed=71))
        job_id = accepted["job_id"]
        stream = client.stream(job_id)
        first = next(stream)
        assert first["type"] == "status"
        stream.close()  # generator teardown closes the socket mid-stream
        assert client.wait(job_id)["state"] == DONE
        # The server notices the dead peer on its next push and drops
        # the subscription (poll: the failing send happens on its loop).
        deadline = time.monotonic() + 10.0
        while server._subscribers.get(job_id) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not server._subscribers.get(job_id)
        # Pool unharmed; a fresh subscriber replays the full history.
        assert client.stats()["workers_alive"] == 2
        events = list(client.stream(job_id))
        assert events[-1]["type"] == "done"
        progress = [e["index"] for e in events if e["type"] == "progress"]
        assert progress == [0, 1, 2]

    def test_malformed_submit_bodies_are_400(self, client):
        """POST /jobs with unparseable or non-object JSON is a clean 400
        (never a 500, never a connection drop) and leaves the pool up."""
        import http.client as http_client

        for body in (b"{not json", b'"just a string"', b"[1, 2]"):
            conn = http_client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.request("POST", "/jobs", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
            finally:
                conn.close()
            assert response.status == 400, body
            assert "bad request" in payload["error"]
        assert client.healthy()
        assert client.stats()["workers_alive"] == 2


class TestObservabilityEndpoints:
    """The tentpole's serve surface: /metrics, per-job traces, and the
    registry-backed worker/throughput numbers in /stats."""

    def test_metrics_is_prometheus_text(self, client):
        import http.client as http_client

        # At least one job has finished by the time this runs (module
        # ordering), so the lifetime counters are live, not zero stubs.
        client.generate(GenerateRequest(count=1, nodes=40, seed=81))
        conn = http_client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "# TYPE repro_serve_jobs_dispatched_total counter" in text
        assert "# TYPE repro_serve_jobs_done_total counter" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_job_seconds histogram" in text
        assert 'repro_serve_job_seconds_bucket{le="+Inf"}' in text
        # The same numbers through the typed client helper.
        assert client.metrics() == text

    def test_traced_job_serves_perfetto_json(self, client):
        accepted = client.submit(GenerateRequest(
            count=2, nodes=40, seed=82, trace=True,
        ))
        assert not accepted["deduplicated"]
        client.wait(accepted["job_id"])
        trace = client.trace(accepted["job_id"])

        events = trace["traceEvents"]
        json.dumps(trace)  # fully serializable
        complete = [e for e in events if e.get("ph") == "X"]
        assert complete, "no complete events in the worker trace"
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
        names = {e["name"] for e in complete}
        assert "session.item" in names
        assert "engine.refine" in names
        process = [e for e in events
                   if e.get("ph") == "M" and e["name"] == "process_name"]
        assert process[0]["args"]["name"].startswith("repro-worker-")
        assert trace["otherData"]["job_id"] == accepted["job_id"]

    def test_untraced_job_has_no_trace(self, client):
        accepted = client.submit(GenerateRequest(count=1, nodes=40, seed=83))
        client.wait(accepted["job_id"])
        with pytest.raises(ServeError, match="404"):
            client.trace(accepted["job_id"])

    def test_traced_resubmit_is_still_a_dedup_hit(self, client):
        # trace is not request identity: the traced duplicate of the
        # job above is answered from cache -- and therefore (documented
        # semantics) records no trace, because no worker ran.
        duplicate = client.submit(GenerateRequest(
            count=1, nodes=40, seed=83, trace=True,
        ))
        assert duplicate["deduplicated"]
        with pytest.raises(ServeError, match="404"):
            client.trace(duplicate["job_id"])

    def test_stats_exposes_worker_and_throughput_accounting(self, client):
        stats = client.stats()
        states = stats["worker_states"]
        assert set(states) == {"0", "1"}
        assert stats["workers_busy"] + stats["workers_idle"] == 2
        assert stats["workers_busy"] == 0  # nothing in flight right now

        jobs = stats["jobs"]
        assert jobs["done"] >= 1
        assert jobs["dispatched"] >= jobs["done"]
        assert jobs["records"] >= 1
        assert 0.0 <= stats["dedup_rate"] <= 1.0

        throughput = stats["throughput"]
        assert throughput["p50_seconds"] > 0
        assert throughput["p99_seconds"] >= throughput["p50_seconds"]
        assert throughput["jobs_per_minute"] > 0

    def test_top_frame_shows_throughput_line(self, client):
        frame = render_frame(client.stats(), client.jobs())
        assert "jobs/min" in frame
        assert "dedup rate" in frame


# ---------------------------------------------------------------------------
# Restart replay: the queue-determinism contract
# ---------------------------------------------------------------------------


class TestRestartReplay:
    def test_replay_of_interrupted_ledger_is_bit_identical(self, serve_env):
        """Boot a 4-worker pool over a ledger holding one queued and one
        crashed-mid-job entry; both replays must reproduce the
        sequential reference exactly."""
        queue_dir = serve_env.root / "replay-queue"
        config_payload = serve_env.config.to_dict()
        queue = JobQueue(queue_dir)
        requests = [
            GenerateRequest(count=2, nodes=40, seed=41),
            GenerateRequest(count=1, nodes=40, seed=42),
        ]
        jobs = [
            queue.submit(r.to_dict(),
                         request_key(config_payload, r.to_dict()))
            for r in requests
        ]
        # Simulate a server killed mid-job: the second entry was running.
        queue.mark_running(jobs[1].job_id, worker=3)
        queue.mark_progress(jobs[1].job_id, 1)

        server = ReproServer(
            config=serve_env.config, workers=4,
            cache_dir=serve_env.cache, queue_dir=queue_dir,
        ).start_background()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            for job, request in zip(jobs, requests):
                status = client.wait(job.job_id)
                assert status["state"] == DONE
                served = client.result(job.job_id)
                reference = serve_env.session.generate(request)
                assert graph_dicts(served) == graph_dicts(reference)
        finally:
            server.stop()

    def test_kill_and_restart_serves_identical_result(self, serve_env):
        """Live crash flavor: kill() terminates workers mid-flight; the
        next boot replays whatever the ledger says is unfinished and the
        final artifact is still bit-identical."""
        queue_dir = serve_env.root / "kill-queue"
        request = GenerateRequest(count=4, nodes=40, seed=51)

        first = ReproServer(
            config=serve_env.config, workers=4,
            cache_dir=serve_env.cache, queue_dir=queue_dir,
        ).start_background()
        job_id = ServeClient(
            f"http://127.0.0.1:{first.port}"
        ).submit(request)["job_id"]
        first.kill()

        second = ReproServer(
            config=serve_env.config, workers=4,
            cache_dir=serve_env.cache, queue_dir=queue_dir,
        ).start_background()
        try:
            client = ServeClient(f"http://127.0.0.1:{second.port}")
            status = client.wait(job_id)
            assert status["state"] == DONE
            served = client.result(job_id)
            reference = serve_env.session.generate(request)
            assert graph_dicts(served) == graph_dicts(reference)
        finally:
            second.stop()


class TestLedgerArtifactLoss:
    def test_deleted_artifact_between_lives(self, serve_env):
        """A DONE ledger entry whose result artifact vanished between
        server lives: the next boot replays the ledger cleanly, the
        result endpoint reports the loss instead of crashing, and a
        forced re-run re-installs the artifact under the same content
        address -- healing the original job id."""
        queue_dir = serve_env.root / "lost-artifact-queue"
        request = GenerateRequest(count=1, nodes=40, seed=61)

        first = ReproServer(
            config=serve_env.config, workers=2,
            cache_dir=serve_env.cache, queue_dir=queue_dir,
        ).start_background()
        try:
            c1 = ServeClient(f"http://127.0.0.1:{first.port}")
            job_id = c1.submit(request)["job_id"]
            assert c1.wait(job_id)["state"] == DONE
            result_key = c1.status(job_id)["result_key"]
        finally:
            first.stop()
        artifact = first.store.path(result_key, ".json")
        assert artifact.exists()
        artifact.unlink()

        second = ReproServer(
            config=serve_env.config, workers=2,
            cache_dir=serve_env.cache, queue_dir=queue_dir,
        ).start_background()
        try:
            c2 = ServeClient(f"http://127.0.0.1:{second.port}")
            # The DONE entry replayed into the ledger, not the pool.
            assert c2.status(job_id)["state"] == DONE
            with pytest.raises(ServeError, match="result artifact missing"):
                c2.result(job_id)
            # Same request, dedupe off: a real dispatch regenerates the
            # artifact at the same key, so the old job serves again --
            # bit-identical to the sequential reference.
            fresh = c2.generate(request, dedupe=False)
            healed = c2.result(job_id)
            assert graph_dicts(healed) == graph_dicts(fresh)
            reference = serve_env.session.generate(request)
            assert graph_dicts(healed) == graph_dicts(reference)
        finally:
            second.stop()


# ---------------------------------------------------------------------------
# Satellite 1: ArtifactStore._atomic_write
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_derived_filename_writer_installs_real_artifact(self, tmp_path):
        """Regression: a writer that appends its own ``.npz`` (the
        ``np.savez`` behaviour) must install the derived file, never the
        empty mkstemp placeholder the old existence heuristic picked."""
        store = ArtifactStore(tmp_path)
        target = store.path("blob-" + "0" * 32, ".dat")

        def derived_writer(path):
            with open(path + ".npz", "wb") as handle:
                handle.write(b"real-artifact-bytes")

        store._atomic_write(target, derived_writer)
        assert target.read_bytes() == b"real-artifact-bytes"
        leftovers = [p for p in store.root.iterdir() if p != target]
        assert leftovers == []

    def test_plain_writer_installs_written_file(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target = store.path("blob-" + "1" * 32, ".json")
        store._atomic_write(
            target, lambda p: pathlib_write(p, b'{"ok": true}')
        )
        assert json.loads(target.read_text()) == {"ok": True}

    def test_failing_writer_leaves_no_trace(self, tmp_path):
        store = ArtifactStore(tmp_path)
        target = store.path("blob-" + "2" * 32, ".json")

        def exploding_writer(path):
            with open(path, "w") as handle:
                handle.write("partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            store._atomic_write(target, exploding_writer)
        assert not target.exists()
        assert list(store.root.iterdir()) == []

    def test_concurrent_same_key_writers_never_expose_torn_reads(
        self, tmp_path
    ):
        """Multi-process stress: 4 writers hammer the same key while the
        parent reads it; every observed file state must be a complete
        JSON document from exactly one writer."""
        key = "stress-" + "3" * 32
        writer_code = (
            "import sys\n"
            "from repro.api import ArtifactStore\n"
            "root, proc = sys.argv[1], int(sys.argv[2])\n"
            "store = ArtifactStore(root)\n"
            "for k in range(20):\n"
            f"    store.save_json({key!r}, "
            "{'proc': proc, 'iter': k, 'pad': 'x' * 4096})\n"
        )
        import repro

        src_dir = str(pathlib.Path(repro.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", writer_code, str(tmp_path), str(i)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            for i in range(4)
        ]
        path = ArtifactStore(tmp_path).path(key, ".json")
        observed = 0
        deadline = time.monotonic() + 60
        while any(p.poll() is None for p in procs):
            assert time.monotonic() < deadline, "writers wedged"
            if path.exists():
                payload = json.loads(path.read_text())
                assert set(payload) == {"proc", "iter", "pad"}
                assert len(payload["pad"]) == 4096
                observed += 1
        for proc in procs:
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err.decode()
        assert observed > 0
        final = ArtifactStore(tmp_path).load_json(key)
        assert final["iter"] == 19


def pathlib_write(path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


# ---------------------------------------------------------------------------
# Satellite 2: cone-equivalence diagnostic error accounting
# ---------------------------------------------------------------------------


def _cone_test_design():
    from repro.ir import GraphBuilder

    b = GraphBuilder("cone_regress")
    a = b.input("a", 4)
    c = b.input("c", 4)
    r1 = b.reg("r1", 4)
    r2 = b.reg("r2", 4)
    b.drive_reg(r1, b.xor(a, a))
    b.drive_reg(r2, b.and_(a, c))
    b.output("y", b.mux(b.bit(c, 0), r1, r2))
    return b.build()


class TestConeCheckFailures:
    CFG = dict(num_simulations=10, max_depth=3, branching=3, seed=2)

    def test_clean_run_counts_zero_failures(self):
        from repro.mcts import MCTSConfig, optimize_registers

        report = optimize_registers(
            _cone_test_design(), config=MCTSConfig(**self.CFG)
        )
        assert report.cone_check_failures == 0
        assert report.cone_function_preserved  # diagnostic actually ran

    def test_expected_errors_are_counted_not_swallowed(self, monkeypatch):
        from repro.mcts import MCTSConfig, optimize_registers
        from repro.mcts.reward import ConeBatchEvaluator

        def broken_signature(self, graph, register):
            raise ValueError("combinational loop through cone")

        monkeypatch.setattr(
            ConeBatchEvaluator, "signature", broken_signature
        )
        report = optimize_registers(
            _cone_test_design(), config=MCTSConfig(**self.CFG)
        )
        # The search survives, but the breakage is visible: every check
        # attempt is counted and no verdict is recorded as known.
        assert report.cone_check_failures > 0
        assert report.cone_function_preserved == {}

    def test_unexpected_errors_propagate(self, monkeypatch):
        from repro.mcts import MCTSConfig, optimize_registers
        from repro.mcts.reward import ConeBatchEvaluator

        def buggy_signature(self, graph, register):
            raise TypeError("engine bug: wrong argument shape")

        monkeypatch.setattr(ConeBatchEvaluator, "signature", buggy_signature)
        with pytest.raises(TypeError, match="engine bug"):
            optimize_registers(
                _cone_test_design(), config=MCTSConfig(**self.CFG)
            )


# ---------------------------------------------------------------------------
# Satellite 3: batch worker-error handling
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_session(tmp_path_factory):
    cache = tmp_path_factory.mktemp("batch-cache")
    return Session(preset="smoke", cache_dir=cache).fit()


def _fail_at(session, failing_index, monkeypatch, slow=0.0, invoked=None):
    original = session._generate_item

    def instrumented(index, *args):
        if invoked is not None:
            invoked.add(index)
        if index == failing_index:
            raise ValueError(f"synthetic failure at {index}")
        if slow:
            time.sleep(slow)
        return original(index, *args)

    monkeypatch.setattr(session, "_generate_item", instrumented)


class TestBatchItemError:
    def test_sequential_iter_chains_cause_and_index(
        self, batch_session, monkeypatch
    ):
        _fail_at(batch_session, 2, monkeypatch)
        request = GenerateRequest(count=4, nodes=40, seed=61, workers=1)
        yielded = []
        with pytest.raises(BatchItemError) as excinfo:
            for record in batch_session.iter_generate(request):
                yielded.append(record.graph.name)
        # Everything before the failing index came out, in order.
        assert yielded == ["syn0_opt", "syn1_opt"]
        assert excinfo.value.index == 2
        assert excinfo.value.name == "syn2"
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "synthetic failure at 2" in str(excinfo.value.__cause__)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_generate_cancels_pending_siblings(
        self, batch_session, monkeypatch, workers
    ):
        invoked = set()
        _fail_at(batch_session, 0, monkeypatch, slow=0.2, invoked=invoked)
        request = GenerateRequest(count=8, nodes=40, seed=62, workers=workers)
        with pytest.raises(BatchItemError) as excinfo:
            batch_session.generate(request)
        assert excinfo.value.index == 0
        assert isinstance(excinfo.value.__cause__, ValueError)
        # Item 0 fails immediately; pending futures are cancelled, so
        # the tail of the batch never starts.
        assert len(invoked) < request.count

    def test_threaded_iter_preserves_yield_order(self, batch_session):
        request = GenerateRequest(count=4, nodes=40, seed=63)
        sequential = batch_session.generate(request)
        threaded = list(batch_session.iter_generate(
            GenerateRequest(count=4, nodes=40, seed=63, workers=3)
        ))
        assert [r.graph.name for r in threaded] == [
            f"syn{k}_opt" for k in range(4)
        ]
        assert [r.graph.to_dict() for r in threaded] == graph_dicts(
            sequential
        )

    def test_threaded_iter_raises_with_failing_index(
        self, batch_session, monkeypatch
    ):
        _fail_at(batch_session, 1, monkeypatch)
        request = GenerateRequest(count=4, nodes=40, seed=64, workers=2)
        yielded = []
        with pytest.raises(BatchItemError) as excinfo:
            for record in batch_session.iter_generate(request):
                yielded.append(record.graph.name)
        assert yielded == ["syn0_opt"]
        assert excinfo.value.index == 1


# ---------------------------------------------------------------------------
# Bench suite wiring
# ---------------------------------------------------------------------------


class TestServeBench:
    def test_queue_persist_benchmark_runs_standalone(self):
        from repro.bench import run_serve_suite

        report = run_serve_suite(
            preset="smoke", repeats=1, warmup=0,
            filter_pattern="queue_persist",
        )
        assert report.suite == "serve"
        names = [record.name for record in report.records]
        assert names == ["serve.queue_persist"]
        assert report.records[0].ops == 50

    def test_percentile_stamp(self):
        from repro.bench.serve_suite import _percentile, _stamp_latencies

        samples = [0.010, 0.020, 0.030, 0.040, 0.100]
        assert _percentile(samples, 50) == 0.030
        assert _percentile(samples, 99) == 0.100
        meta = {}
        _stamp_latencies(meta, samples)
        assert meta["p50_ms"] == 30.0
        assert meta["p99_ms"] == 100.0
        assert meta["requests_per_s"] == 25.0


class TestWorkerPoolLifecycle:
    def test_stop_is_idempotent_and_joins(self, serve_env):
        from repro.serve import WorkerPool

        pool = WorkerPool(
            serve_env.config.to_dict(),
            cache_dir=str(serve_env.cache),
            workers=1,
        )
        pool.start()
        deadline = time.monotonic() + 120
        while pool.poll_event(timeout=0.2) is None:
            assert time.monotonic() < deadline, "worker never became ready"
        assert pool.alive() == 1
        pool.stop()
        assert pool.alive() == 0
        pool.stop()  # second stop is a no-op, not an error


def test_server_shutdown_endpoint(serve_env):
    server = ReproServer(
        config=serve_env.config, workers=1,
        cache_dir=serve_env.cache,
        queue_dir=serve_env.root / "shutdown-queue",
    ).start_background()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    assert client.shutdown()["shutting_down"]
    deadline = time.monotonic() + 30
    while client.healthy():
        assert time.monotonic() < deadline, "server ignored /shutdown"
        time.sleep(0.1)
    server.stop()  # join the (already exiting) thread


def test_package_reexports_public_surface():
    # The surface the CLI and docs reference is importable from the
    # package root.
    import repro.serve as serve

    for name in ("ReproServer", "ServeClient", "JobQueue", "WorkerPool",
                 "request_key", "render_frame", "run_top"):
        assert hasattr(serve, name), name
