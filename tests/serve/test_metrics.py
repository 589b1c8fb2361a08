"""The metrics layer: exact summaries, and the snapshot a replay's
outcomes and spans determine."""

import json
import random

import pytest

from repro.serve.metrics import replay_metrics, summarize
from repro.serve.request import COMPLETED, FAILED, REJECTED, ServeOutcome
from repro.serve.tracing import Span


class TestSummarize:
    def test_exact_quantiles_small_n(self):
        summary = summarize([float(v) for v in range(1, 101)])  # 1..100
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] in (50.0, 51.0)
        assert summary["p95"] in (95.0, 96.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_summary(self):
        summary = summarize([])
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_exact_quantiles_at_any_size(self):
        # Past the old 65,536-sample reservoir: the quantiles are still
        # the exact nearest-rank values of every input.
        values = [float(v) for v in range(70_000)]
        random.Random(0).shuffle(values)
        summary = summarize(values)
        assert summary["count"] == 70_000
        assert summary["min"] == 0.0 and summary["max"] == 69_999.0
        # Nearest rank over 0..69_999: index round(q * 69_999).
        assert summary["p50"] == 35_000.0
        assert summary["p99"] == 69_299.0
        assert summary["mean"] == pytest.approx(69_999 / 2)


def _span(kind, request_id=None, device_id=None):
    return Span(kind=kind, start_ms=0.0, end_ms=0.0,
                request_id=request_id, device_id=device_id)


def _completed(request_id, latency_ms=3.0, queue_ms=1.0, cycles=500):
    return ServeOutcome(
        request_id=request_id, status=COMPLETED, device_id=0,
        cycles=cycles, latency_ms=latency_ms, queue_ms=queue_ms,
    )


def _snapshot(outcomes=(), spans=(), *, offered=None, queue_depth=0):
    return replay_metrics(
        offered=len(outcomes) if offered is None else offered,
        outcomes=list(outcomes),
        spans=list(spans),
        utilization={"device.0": 0.5},
        queue_depth=queue_depth,
        engine="verified",
    )


class TestReplayMetrics:
    def test_zero_counter_is_absent(self):
        counters = _snapshot([_completed(0)])["counters"]
        assert counters == {"requests.completed": 1,
                            "requests.offered": 1}
        assert "requests.rejected" not in counters
        assert _snapshot(offered=0)["counters"] == {}

    def test_counts_outcomes_by_status_and_reason(self):
        outcomes = [
            _completed(0),
            ServeOutcome(request_id=1, status=REJECTED,
                         reason="queue_full"),
            ServeOutcome(request_id=2, status=REJECTED, reason="deadline"),
            ServeOutcome(request_id=3, status=FAILED,
                         reason="deadline_after_retry"),
            ServeOutcome(request_id=4, status=FAILED, reason="retry_cap"),
        ]
        spans = [
            _span("dispatch_overhead", device_id=0),
            _span("queued", 0),
            _span("retry", 0, device_id=0),
            _span("backoff", 0),
            _span("retry", 0, device_id=0),
        ]
        assert _snapshot(outcomes, spans)["counters"] == {
            "batches.dispatched": 1,
            "device.brownouts": 2,
            "failed.deadline_after_retry": 1,
            "rejected.deadline": 1,
            "rejected.queue_full": 1,
            "requests.completed": 1,
            "requests.failed": 2,
            "requests.offered": 5,
            "requests.rejected": 2,
            "requests.retries": 1,
        }

    def test_batches_group_queued_spans_after_each_overhead(self):
        spans = [
            _span("admitted", 0), _span("admitted", 1),
            _span("admitted", 2),
            _span("dispatch_overhead", device_id=0),
            _span("queued", 0), _span("execute", 0, device_id=0),
            _span("completed", 0),
            _span("queued", 1), _span("execute", 1, device_id=0),
            _span("completed", 1),
            _span("dispatch_overhead", device_id=1),
            _span("queued", 2), _span("shed", 2),
        ]
        batch = _snapshot(spans=spans, offered=3)["histograms"][
            "batch_size"
        ]
        assert batch["count"] == 2
        assert (batch["min"], batch["max"], batch["mean"]) == \
            (1.0, 2.0, 1.5)

    def test_histogram_values_are_floats(self):
        outcomes = [_completed(i, latency_ms=2, queue_ms=0, cycles=4)
                    for i in range(3)]
        spans = [_span("dispatch_overhead", device_id=0)] + [
            _span("queued", i) for i in range(4)
        ]
        histograms = _snapshot(outcomes, spans)["histograms"]
        assert sorted(histograms) == [
            "batch_size", "cycles", "latency_ms", "queue_ms",
        ]
        for summary in histograms.values():
            for key in ("mean", "min", "max", "p50", "p95", "p99"):
                assert type(summary[key]) is float, (key, summary)
        assert json.dumps(histograms["batch_size"]["max"]) == "4.0"
        assert json.dumps(histograms["cycles"]["p50"]) == "4.0"

    def test_histograms_follow_recording_order(self):
        # The running-sum mean adds values in the order recorded, not by
        # request id, and float addition is not associative.
        outcomes = [_completed(2, latency_ms=0.3),
                    _completed(1, latency_ms=0.2),
                    _completed(0, latency_ms=0.1)]
        mean = _snapshot(outcomes)["histograms"]["latency_ms"]["mean"]
        assert mean == summarize([0.3, 0.2, 0.1])["mean"]
        assert mean != summarize([0.1, 0.2, 0.3])["mean"]

    def test_no_completion_means_no_latency_histograms(self):
        shed = ServeOutcome(request_id=0, status=REJECTED,
                            reason="queue_full")
        assert _snapshot([shed])["histograms"] == {}

    def test_queue_depth_appears_only_after_an_admission(self):
        shed = ServeOutcome(request_id=0, status=REJECTED,
                            reason="queue_full")
        gauges = _snapshot([shed], [_span("shed", 0)],
                           queue_depth=0)["gauges"]
        assert gauges == {"device.0.utilization": 0.5}
        gauges = _snapshot([], [_span("admitted", 0)], offered=1,
                           queue_depth=1)["gauges"]
        assert gauges == {"device.0.utilization": 0.5,
                          "queue.depth": 1.0}
        assert type(gauges["queue.depth"]) is float

    def test_snapshot_is_json_serializable(self):
        snapshot = _snapshot(
            [_completed(0, latency_ms=1.5)],
            [_span("admitted", 0), _span("dispatch_overhead", device_id=0),
             _span("queued", 0)],
            queue_depth=7,
        )
        encoded = json.loads(json.dumps(snapshot))
        assert list(encoded) == [
            "counters", "gauges", "histograms", "rates", "labels",
        ]
        assert encoded["counters"]["requests.offered"] == 1
        assert encoded["gauges"]["queue.depth"] == 7
        assert encoded["histograms"]["latency_ms"]["count"] == 1
        assert encoded["rates"] == {}
        assert encoded["labels"] == {"engine": "verified"}
