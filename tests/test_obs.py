"""Tests for the observability layer (``repro.obs``).

Three contracts are load-bearing:

* **Bit-identity** -- tracing is observation only, so a traced run of
  the MCTS optimizer or ``Session.generate`` must reproduce the
  untraced output exactly (same graphs, same rewards, same counters).
* **Bounded memory** -- the span ring holds the newest ``capacity``
  records, counts what it overwrote, and never grows.
* **Loadable export** -- the Chrome trace JSON round-trips through
  ``json`` and carries the event shapes Perfetto expects
  (``"X"`` complete events with ``ts``/``dur``, ``"M"`` metadata).
"""

import contextvars
import io
import json
import logging
import threading

import pytest

from repro.api import GenerateRequest, Session
from repro.api.presets import resolve_preset
from repro.bench_designs import load_corpus, load_design, train_test_split
from repro.mcts.optimize import optimize_registers
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    configure_logging,
    get_logger,
    instant,
    is_tracing,
    parse_env_spec,
    registry,
    span,
    tracing,
)


# ---------------------------------------------------------------------------
# Spans and the activation contract
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        # No active recorder: every call site gets the same stateless
        # object -- the zero-allocation fast path the bench gate keeps.
        assert not is_tracing()
        first = span("a", x=1)
        second = span("b")
        assert first is second
        with first as handle:
            handle.add(ignored=True)  # must not raise

    def test_span_records_name_duration_attrs(self):
        recorder = TraceRecorder()
        with tracing(recorder):
            assert is_tracing()
            with span("phase", design="uart") as active:
                active.add(items=3)
        assert not is_tracing()
        [record] = recorder.spans()
        assert record.name == "phase"
        assert record.duration_ns >= 0
        assert record.attrs == {"design": "uart", "items": 3}

    def test_tracing_none_is_noop(self):
        with tracing(None):
            assert not is_tracing()
            with span("never"):
                pass
        assert len(TraceRecorder()) == 0

    def test_nested_spans_both_recorded(self):
        recorder = TraceRecorder()
        with tracing(recorder):
            with span("outer"):
                with span("inner"):
                    pass
        names = [record.name for record in recorder.spans()]
        # Inner closes first (completion order, like Chrome traces).
        assert names == ["inner", "outer"]

    def test_instant_records_zero_duration(self):
        recorder = TraceRecorder()
        with tracing(recorder):
            instant("marker", reason="test")
        [record] = recorder.spans()
        assert record.duration_ns == 0
        assert record.attrs == {"reason": "test"}

    def test_recorder_propagates_into_copied_context(self):
        # A thread started through contextvars.copy_context().run
        # inherits the active recorder -- the contract a caller relies
        # on to trace work it fans out to its own threads.
        recorder = TraceRecorder()
        results = []

        def worker():
            with span("in-thread"):
                results.append(is_tracing())

        with tracing(recorder):
            ctx = contextvars.copy_context()
        thread = threading.Thread(target=ctx.run, args=(worker,))
        thread.start()
        thread.join()
        assert results == [True]
        [record] = recorder.spans()
        assert record.name == "in-thread"
        assert record.thread_id != threading.get_ident()


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_wraparound_keeps_newest_and_counts_dropped(self):
        recorder = TraceRecorder(capacity=8)
        with tracing(recorder):
            for index in range(20):
                with span("tick", index=index):
                    pass
        assert len(recorder) == 8
        assert recorder.recorded == 20
        assert recorder.dropped == 12
        # Oldest-first order over the survivors: the last 8 spans.
        kept = [record.attrs["index"] for record in recorder.spans()]
        assert kept == list(range(12, 20))

    def test_clear_resets_everything(self):
        recorder = TraceRecorder(capacity=4)
        with tracing(recorder):
            for _ in range(9):
                with span("tick"):
                    pass
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded == 0
        assert recorder.dropped == 0
        assert recorder.spans() == []

    def test_totals_aggregates_by_name(self):
        recorder = TraceRecorder()
        with tracing(recorder):
            for _ in range(3):
                with span("a"):
                    pass
            with span("b"):
                pass
        totals = recorder.totals()
        assert totals["a"][0] == 3
        assert totals["b"][0] == 1
        assert totals["a"][1] >= 0.0


# ---------------------------------------------------------------------------
# Chrome trace export (the Perfetto-loadable JSON)
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def test_round_trip_through_json(self, tmp_path):
        recorder = TraceRecorder()
        with tracing(recorder):
            with span("work", nodes=40):
                pass
        path = recorder.write_chrome_trace(
            tmp_path / "trace.json", metadata={"preset": "smoke"}
        )
        with open(path) as handle:
            payload = json.load(handle)

        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        # Process metadata first, then one thread_name per thread seen.
        assert events[0] == {
            "ph": "M", "pid": events[0]["pid"], "tid": 0,
            "name": "process_name", "args": {"name": "repro"},
        }
        assert any(
            e["ph"] == "M" and e["name"] == "thread_name" for e in events
        )
        [complete] = [e for e in events if e["ph"] == "X"]
        assert complete["name"] == "work"
        assert isinstance(complete["ts"], float)
        assert isinstance(complete["dur"], float)
        assert complete["ts"] >= 0.0 and complete["dur"] >= 0.0
        assert complete["args"] == {"nodes": 40}

        other = payload["otherData"]
        assert other["recorded"] == 1
        assert other["dropped"] == 0
        assert other["preset"] == "smoke"

    def test_non_json_attrs_are_coerced(self):
        recorder = TraceRecorder()
        with tracing(recorder):
            with span("odd", path=object(), seq=(1, 2), table={3: "x"}):
                pass
        [event] = [
            e for e in recorder.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        ]
        json.dumps(event)  # must not raise
        assert event["args"]["seq"] == [1, 2]
        assert event["args"]["table"] == {"3": "x"}
        assert isinstance(event["args"]["path"], str)

    def test_threads_get_compact_ids(self):
        recorder = TraceRecorder()
        # Both threads must be alive at once: the OS reuses thread ids,
        # so a sequentially-run pair can legitimately share one.
        barrier = threading.Barrier(2)

        def work():
            with span("t"):
                barrier.wait(timeout=10)

        with tracing(recorder):
            # One context copy per thread: a Context object can only be
            # entered by one thread at a time.
            threads = [
                threading.Thread(
                    target=contextvars.copy_context().run, args=(work,)
                )
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with span("t"):
                pass
        events = recorder.to_chrome_trace()["traceEvents"]
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert tids == {0, 1, 2}


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        counter = reg.counter("jobs_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4.0

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")

    def test_kind_mismatch_is_loud(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("hits")

    def test_prefix_applies_to_names(self):
        reg = MetricsRegistry(prefix="repro_")
        reg.counter("hits").inc()
        assert reg.names() == ["repro_hits"]
        assert reg.value("hits") == 1.0
        assert reg.value("absent") == 0.0
        assert reg.get("hits").name == "repro_hits"

    def test_histogram_quantiles_and_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(3.05)
        assert hist.quantile(0.5) == 0.5
        assert hist.quantile(1.0) == 2.0
        assert hist.quantile(0.0) == 0.05
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert MetricsRegistry().histogram("empty").quantile(0.5) is None

    def test_histogram_window_keeps_recent_samples(self):
        from repro.obs.metrics import _SAMPLE_WINDOW

        hist = MetricsRegistry().histogram("seconds")
        for value in range(_SAMPLE_WINDOW + 100):
            hist.observe(float(value))
        # Lifetime counters keep everything; quantiles see the window.
        assert hist.count == _SAMPLE_WINDOW + 100
        assert hist.quantile(0.0) == 100.0

    def test_render_prometheus_text_format(self):
        reg = MetricsRegistry(prefix="repro_")
        reg.counter("jobs_total", help="jobs finished").inc(42)
        reg.gauge("queue_depth").set(3)
        hist = reg.histogram("job_seconds", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(7.0)
        text = reg.render_prometheus()
        assert "# HELP repro_jobs_total jobs finished" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 42" in text  # integer: no trailing .0
        assert "# TYPE repro_queue_depth gauge" in text
        assert 'repro_job_seconds_bucket{le="1"} 1' in text
        assert 'repro_job_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_job_seconds_sum 7.5" in text
        assert "repro_job_seconds_count 2" in text
        assert text.endswith("\n")

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.histogram("seconds").observe(0.25)
        snapshot = reg.to_dict()
        assert snapshot["hits"] == 1.0
        assert snapshot["seconds"]["count"] == 1
        assert snapshot["seconds"]["p50"] == 0.25

    def test_global_registry_is_shared_and_prefixed(self):
        assert registry() is registry()
        assert registry().prefix == "repro_"


# ---------------------------------------------------------------------------
# Logging configuration
# ---------------------------------------------------------------------------


class TestLogs:
    def test_get_logger_prefixes_bare_names(self):
        assert get_logger("mcts").name == "repro.mcts"
        assert get_logger("repro.mcts.optimize").name == "repro.mcts.optimize"

    def test_parse_env_spec(self):
        assert parse_env_spec("DEBUG") == {"repro": logging.DEBUG}
        assert parse_env_spec("serve=DEBUG, mcts=INFO") == {
            "repro.serve": logging.DEBUG,
            "repro.mcts": logging.INFO,
        }
        assert parse_env_spec("") == {}
        with pytest.raises(ValueError, match="unknown level"):
            parse_env_spec("serve=LOUD")

    def test_configure_is_idempotent_and_level_gated(self):
        stream = io.StringIO()
        root = configure_logging(verbose=0, stream=stream, env="")
        handlers_before = len(root.handlers)
        configure_logging(verbose=1, stream=stream, env="")
        assert len(root.handlers) == handlers_before  # no stacking
        assert root.level == logging.INFO

        logger = get_logger("repro.obs.test")
        logger.debug("hidden")
        logger.info("shown")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown" in output

        configure_logging(verbose=2, stream=stream, env="")
        assert root.level == logging.DEBUG
        configure_logging(verbose=0, stream=stream,
                          env="obs.test=DEBUG,WARNING")
        assert root.level == logging.WARNING
        assert logging.getLogger("repro.obs.test").level == logging.DEBUG
        logging.getLogger("repro.obs.test").setLevel(logging.NOTSET)


# ---------------------------------------------------------------------------
# Bit-identity: a traced run reproduces the untraced output exactly
# ---------------------------------------------------------------------------


def _report_fingerprint(report):
    """Everything search-determined in an OptimizationReport."""
    return {
        "total_simulations": report.total_simulations,
        "reward_calls": report.reward_calls,
        "cones": {
            register: (
                result.best_reward,
                result.initial_reward,
                result.simulations,
                None if result.best_graph is None
                else result.best_graph.to_json(),
            )
            for register, result in report.cone_results.items()
        },
    }


class TestBitIdentity:
    def test_traced_optimize_matches_untraced(self):
        config = resolve_preset("smoke").mcts
        graph = load_design("uart_tx")
        untraced = optimize_registers(graph, config=config)

        recorder = TraceRecorder()
        with tracing(recorder):
            traced = optimize_registers(graph, config=config)

        assert recorder.recorded > 0
        assert _report_fingerprint(traced) == _report_fingerprint(untraced)
        names = {record.name for record in recorder.spans()}
        assert "mcts.optimize" in names
        assert "mcts.cone" in names

    def test_cone_spans_split_reward_swap_and_sample(self):
        config = resolve_preset("smoke").mcts
        graph = load_design("uart_tx")
        untraced = optimize_registers(graph, config=config)
        # Untraced searches measure nothing.
        assert not any(r.split_ms for r in untraced.cone_results.values())

        recorder = TraceRecorder()
        with tracing(recorder):
            optimize_registers(graph, config=config)
        cones = [r for r in recorder.spans() if r.name == "mcts.cone"]
        assert cones
        for record in cones:
            split = [record.attrs[name]
                     for name in ("reward_ms", "apply_swap_ms", "sample_ms")]
            assert record.attrs["reward_ms"] > 0 and min(split) >= 0
            assert sum(split) <= record.duration_ns / 1e6

    def test_traced_session_generate_matches_untraced(self, tmp_path):
        session = Session(preset="smoke", seed=0, cache_dir=tmp_path)
        session.fit(load_corpus()[:4])
        request = GenerateRequest(count=2, nodes=30, seed=5, optimize=False)
        plain = session.generate(request)

        recorder = TraceRecorder()
        with tracing(recorder):
            traced = session.generate(request)

        assert [r.graph.to_dict() for r in traced.records] == \
            [r.graph.to_dict() for r in plain.records]
        names = {record.name for record in recorder.spans()}
        assert "session.generate" in names
        assert "session.item" in names
        assert "diffusion.sample_batch" in names

        # Streaming presamples in chunks of 4 * workers items: six items
        # at one worker span two chunks, each under its own span.
        stream = GenerateRequest(count=6, nodes=30, seed=5, optimize=False)
        recorder = TraceRecorder()
        with tracing(recorder):
            streamed = list(session.iter_generate(stream))
        assert [r.graph.to_dict() for r in streamed] == \
            [r.graph.to_dict() for r in session.generate(stream).records]
        names = [record.name for record in recorder.spans()]
        assert names.count("session.presample") == 2


# ---------------------------------------------------------------------------
# Fit spans: the denoiser's training is the cost of a cold fit
# ---------------------------------------------------------------------------


class TestFitSpans:
    def test_cold_fit_is_covered_by_training_and_hit_skips_it(self, tmp_path):
        # Graphs loaded up front and enough epochs that a cold fit is
        # mostly training, as it is at the fast preset's 120 epochs.
        graphs = train_test_split(seed=2025)[0]
        config = resolve_preset("smoke", diffusion={"epochs": 80})

        recorder = TraceRecorder()
        with tracing(recorder):
            Session(config=config, cache_dir=tmp_path).fit(graphs)
        spans = {record.name: record for record in recorder.spans()}
        fit, train = spans["session.fit"], spans["diffusion.train"]
        assert fit.attrs == {"cached": False}
        assert train.attrs == {"epochs": 80, "steps": 80 * len(graphs),
                               "graphs": len(graphs)}
        assert fit.start_ns <= train.start_ns
        assert train.start_ns + train.duration_ns <= \
            fit.start_ns + fit.duration_ns
        assert train.duration_ns >= 0.95 * fit.duration_ns

        recorder = TraceRecorder()
        with tracing(recorder):
            Session(config=config, cache_dir=tmp_path).fit(graphs)
        names = [record.name for record in recorder.spans()]
        assert names == ["session.fit"]
        assert recorder.spans()[0].attrs == {"cached": True}
