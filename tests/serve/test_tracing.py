"""The tracing layer: spans, the collector, exporters.

Covers the ISSUE-4 tentpole (span recording through a real replay, the
Chrome trace-event exporter round-trip, per-request timelines, a
collector that keeps every span) plus the satellite validation fixes in
``synthetic_trace``.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    COMPLETED,
    FaultPlan,
    ServeConfig,
    ServeRuntime,
    Span,
    TraceCollector,
    synthetic_trace,
    verify_trace_invariants,
)
from repro.serve.tracing import TERMINAL_KINDS


def _replay(artifact, inputs, **overrides):
    defaults = dict(n_devices=2, max_queue_depth=256,
                    max_queue_wait_ms=None)
    defaults.update(overrides)
    trace = synthetic_trace(30, 2000.0, 64, seed=21, inputs=inputs)
    return ServeRuntime(artifact, ServeConfig(**defaults)).replay(trace)


class TestSpan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Span(kind="telemetry", start_ms=0.0, end_ms=1.0)

    def test_terminal_kinds(self):
        assert Span(kind="completed", start_ms=1.0, end_ms=1.0).terminal
        assert Span(kind="shed", start_ms=1.0, end_ms=1.0).terminal
        assert not Span(kind="execute", start_ms=0.0, end_ms=1.0).terminal


class TestTraceCollector:
    def test_keeps_every_span(self):
        # One more span than the old 200,000-span cap: a finite replay
        # keeps its whole trace, so its invariants stay checkable.
        collector = TraceCollector()
        n_spans = 200_001
        for i in range(n_spans):
            collector.record(
                Span(kind="queued", start_ms=float(i),
                     end_ms=float(i + 1), request_id=i)
            )
        assert len(collector) == n_spans
        spans = collector.spans()
        assert spans[0].request_id == 0
        assert spans[-1].request_id == n_spans - 1

    def test_request_spans_sorted_by_time(self):
        collector = TraceCollector()
        collector.record(Span(kind="execute", start_ms=5.0, end_ms=6.0,
                              request_id=7, device_id=0))
        collector.record(Span(kind="queued", start_ms=0.0, end_ms=5.0,
                              request_id=7))
        starts = [s.start_ms for s in collector.request_spans(7)]
        assert starts == sorted(starts)
        assert collector.request_ids() == (7,)

    def test_timeline_renders_unknown_request(self):
        assert "no spans" in TraceCollector().timeline(99)


class TestReplayTracing:
    def test_clean_replay_spans_and_timeline(self, small_artifact,
                                             digits_small):
        report = _replay(small_artifact, digits_small.x_test)
        assert report.completed == 30
        tracer = report.trace
        # Every request: admitted -> queued -> execute -> completed.
        for outcome in report.outcomes:
            kinds = [s.kind for s in
                     tracer.request_spans(outcome.request_id)]
            assert kinds == ["admitted", "queued", "execute", "completed"]
            text = tracer.timeline(outcome.request_id)
            assert f"request {outcome.request_id}" in text
            assert "terminal=completed" in text
            assert f"device.{outcome.device_id}" in text

    def test_brownout_replay_traces_retries(self, small_artifact,
                                            digits_small):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        report = _replay(small_artifact, digits_small.x_test,
                         n_devices=2, fault_plan=plan)
        assert report.completed == 30
        tracer = report.trace
        retried = [o for o in report.outcomes if o.attempts > 1]
        assert retried, "fault plan should have caused retries"
        for outcome in retried:
            kinds = [s.kind for s in
                     tracer.request_spans(outcome.request_id)]
            assert "retry" in kinds        # wasted work on device 0
            assert "backoff" in kinds      # delay before the retry
            assert kinds.count("execute") == 1
        assert not verify_trace_invariants(report)


class TestChromeTraceExport:
    def test_round_trip_and_per_device_monotonicity(
        self, small_artifact, digits_small, tmp_path
    ):
        plan = FaultPlan(brownout_rate=0.4, seed=3)
        report = _replay(small_artifact, digits_small.x_test,
                         n_devices=3, fault_plan=plan, max_retries=3)
        path = tmp_path / "trace.json"
        report.trace.write_chrome_trace(path, labels={"engine": "fastpath"})

        payload = json.loads(path.read_text())    # JSON loads
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"]["engine"] == "fastpath"
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] in ("X", "i")]
        assert spans, "no span events exported"

        # Events are sorted by timestamp.
        stamps = [e["ts"] for e in spans]
        assert stamps == sorted(stamps)

        # Track metadata: a queue thread plus one per device.
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert "queue" in names
        assert {"device.0", "device.1", "device.2"} <= names

        # Per-device complete events are monotone and non-overlapping.
        by_tid = {}
        for event in spans:
            if event["ph"] == "X" and event["tid"] != 0:
                by_tid.setdefault(event["tid"], []).append(event)
        assert by_tid, "no device-track events"
        for events_on_device in by_tid.values():
            end = -1.0
            for event in events_on_device:
                assert event["ts"] >= end - 1e-3
                end = event["ts"] + event["dur"]

        # Exactly one terminal event per offered request.
        terminal = {}
        for event in spans:
            if event["args"].get("terminal"):
                rid = event["args"]["request_id"]
                terminal[rid] = terminal.get(rid, 0) + 1
                assert event["name"] in TERMINAL_KINDS
        assert sorted(terminal) == sorted(
            o.request_id for o in report.outcomes
        )
        assert set(terminal.values()) == {1}

    def test_report_trace_accessor_matches_runtime(self, small_artifact,
                                                   digits_small):
        trace = synthetic_trace(10, 2000.0, 64, seed=23,
                                inputs=digits_small.x_test)
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=2, max_queue_wait_ms=None),
        )
        report = runtime.replay(trace)
        assert report.trace is runtime.tracer
        assert all(o.status == COMPLETED for o in report.outcomes)


class TestSyntheticTraceValidation:
    """ISSUE-4 satellite: fail at construction, not inside devices."""

    def test_mismatched_input_features_rejected(self):
        inputs = np.zeros((4, 10), dtype=np.float32)
        with pytest.raises(ConfigurationError, match="features"):
            synthetic_trace(5, 100.0, 64, inputs=inputs)

    def test_matching_input_features_accepted(self):
        inputs = np.zeros((4, 64), dtype=np.float32)
        trace = synthetic_trace(5, 100.0, 64, inputs=inputs)
        assert len(trace) == 5

    def test_zero_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            synthetic_trace(5, 100.0, 64, deadline_ms=0.0)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            synthetic_trace(5, 100.0, 64, deadline_ms=-3.0)

    def test_positive_deadline_accepted(self):
        trace = synthetic_trace(5, 100.0, 64, deadline_ms=4.0)
        assert all(
            r.deadline_ms == pytest.approx(r.arrival_ms + 4.0)
            for r in trace
        )


class TestFleetNamespacing:
    """ISSUE-7 satellite: per-fleet device/track identities."""

    def test_collector_stamps_namespace_on_spans(self):
        collector = TraceCollector(namespace="fleet-3")
        collector.record(Span(kind="execute", start_ms=0.0, end_ms=1.0,
                              device_id=1))
        span = collector.spans()[0]
        assert span.fleet == "fleet-3"

    def test_existing_fleet_stamp_not_overwritten(self):
        collector = TraceCollector(namespace="fleet-3")
        collector.record(Span(kind="execute", start_ms=0.0, end_ms=1.0,
                              fleet="fleet-9"))
        assert collector.spans()[0].fleet == "fleet-9"

    def test_track_names_carry_namespace(self):
        collector = TraceCollector(namespace="fleet-0")
        assert collector._track_name(2) == "fleet-0/device.2"
        assert collector._track_name(None) == "fleet-0/queue"
        plain = TraceCollector()
        assert plain._track_name(2) == "device.2"

    def test_two_fleets_export_one_chrome_trace(
        self, small_artifact, digits_small
    ):
        """Regression: two namespaced runtimes merge into one trace
        with distinguishable per-fleet tracks and no tid collisions."""
        from repro.serve import merged_chrome_trace

        collectors = []
        for fleet in ("fleet-0", "fleet-1"):
            trace = synthetic_trace(12, 2000.0, 64, seed=11,
                                    inputs=digits_small.x_test)
            runtime = ServeRuntime(
                small_artifact,
                ServeConfig(n_devices=2, max_queue_depth=64,
                            trace_namespace=fleet),
            )
            report = runtime.replay(trace)
            assert not verify_trace_invariants(report)
            collectors.append(report.trace)

        merged = merged_chrome_trace(
            collectors, labels={"scenario": "two-fleet"}
        )
        merged = json.loads(json.dumps(merged))    # serializable
        events = merged["traceEvents"]
        assert merged["metadata"] == {"scenario": "two-fleet"}

        # One process per fleet, named by namespace.
        process_names = {
            e["pid"]: e["args"]["name"] for e in events
            if e.get("name") == "process_name"
        }
        assert process_names == {
            0: "repro.serve/fleet-0", 1: "repro.serve/fleet-1",
        }
        # Track names are namespaced and unique per (pid, tid).
        tracks = {
            (e["pid"], e["tid"]): e["args"]["name"] for e in events
            if e.get("name") == "thread_name"
        }
        assert tracks[(0, 1)] == "fleet-0/device.0"
        assert tracks[(1, 2)] == "fleet-1/device.1"
        assert len(set(tracks.values())) == len(tracks)
        # Every span event is attributed to its fleet.
        for event in events:
            if event.get("cat") == "serve":
                expected = f"fleet-{event['pid']}"
                assert event["args"]["fleet"] == expected
