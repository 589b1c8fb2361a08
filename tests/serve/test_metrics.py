"""The metrics layer: counters, gauges, histograms, snapshots."""

import json
import random
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateView,
)


class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_thread_safe(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_gauge_set_add(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_exact_quantiles_small_n(self):
        hist = Histogram()
        for value in range(1, 101):          # 1..100
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] in (50.0, 51.0)
        assert summary["p95"] in (95.0, 96.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_summary_is_one_consistent_snapshot(self):
        """ISSUE-4 satellite: all summary fields from ONE lock hold.

        A single writer observes the sequence 0, 1, 2, ..., so at every
        instant the histogram satisfies ``max == count - 1`` exactly.
        Pre-fix, ``summary()`` read ``count`` under the lock but
        ``_min``/``_max`` (and the quantile reservoir) *after* releasing
        it, so a concurrent ``observe()`` produced summaries mixing two
        instants — detectable as ``max > count - 1``.
        """
        hist = Histogram()
        stop = threading.Event()

        def writer():
            # Bounded, so every summary's sort stays cheap.
            for value in range(20_000):
                if stop.is_set():
                    return
                hist.observe(float(value))

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        torn = []
        try:
            thread.start()
            for _ in range(2000):
                summary = hist.summary()
                if summary["count"] == 0:
                    continue
                if summary["max"] != summary["count"] - 1:
                    torn.append(summary)
                if not (summary["min"] <= summary["p50"]
                        <= summary["p95"] <= summary["p99"]
                        <= summary["max"]):
                    torn.append(summary)
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(interval)
        assert not torn, f"torn summaries: {torn[:3]}"

    def test_exact_quantiles_at_any_size(self):
        # Past the old 65,536-sample reservoir: the quantiles are still
        # the exact nearest-rank values of every input.
        values = [float(v) for v in range(70_000)]
        random.Random(0).shuffle(values)
        hist = Histogram()
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == hist.count == 70_000
        assert summary["min"] == 0.0 and summary["max"] == 69_999.0
        # Nearest rank over 0..69_999: index round(q * 69_999).
        assert summary["p50"] == 35_000.0
        assert summary["p99"] == 69_299.0
        assert summary["mean"] == pytest.approx(69_999 / 2)


class TestRegistry:
    def test_same_name_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counter("a").value == 2

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("latency_ms").observe(1.5)
        snapshot = registry.snapshot()
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["counters"]["requests"] == 3
        assert encoded["gauges"]["depth"] == 7
        assert encoded["histograms"]["latency_ms"]["count"] == 1

    def test_lookup_of_existing_name_constructs_nothing(self, monkeypatch):
        from repro.serve import metrics

        registry = MetricsRegistry()
        existing = (registry.counter("c"), registry.gauge("g"),
                    registry.histogram("h"))
        built = []
        for cls in (Counter, Gauge, Histogram):
            monkeypatch.setattr(
                metrics, cls.__name__,
                lambda *args, _cls=cls, **kwargs: (
                    built.append(_cls) or _cls(*args, **kwargs)
                ),
            )
        again = (registry.counter("c"), registry.gauge("g"),
                 registry.histogram("h"))
        assert all(a is b for a, b in zip(again, existing))
        assert built == []
        registry.histogram("new")          # a miss builds exactly one
        assert built == [Histogram]


class TestRateView:
    def test_windowed_rate_over_steady_increments(self):
        counter = Counter()
        view = RateView(counter, window_ms=100.0)
        # 10 increments every 10 ms -> 1000 increments/s.
        for tick in range(0, 200, 10):
            view.sample(float(tick))
            counter.inc(10)
        view.sample(200.0)
        assert view.rate_per_s() == pytest.approx(1000.0)

    def test_window_prunes_old_samples(self):
        counter = Counter()
        view = RateView(counter, window_ms=50.0)
        counter.inc(1000)
        view.sample(0.0)                 # burst long before the window
        for tick in range(100, 200, 10):
            view.sample(float(tick))     # counter flat ever since
        assert view.rate_per_s() == 0.0

    def test_non_advancing_time_ignored(self):
        counter = Counter()
        view = RateView(counter)
        view.sample(10.0)
        counter.inc(5)
        view.sample(10.0)                # same instant: dropped
        view.sample(5.0)                 # going backwards: dropped
        assert view.rate_per_s() == 0.0  # still a single sample

    def test_cold_view_reads_zero(self):
        view = RateView(Counter())
        assert view.rate_per_s() == 0.0
        assert view.summary() == {"windowed_per_s": 0.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateView(Counter(), window_ms=0.0)
        with pytest.raises(ConfigurationError):
            RateView(Counter(), window_ms=-1.0)

    def test_registry_hands_out_one_view_per_name(self):
        registry = MetricsRegistry()
        view = registry.rate_view("requests.offered")
        again = registry.rate_view("requests.offered")
        assert view is again
        registry.counter("requests.offered").inc(10)
        view.sample(0.0)
        registry.counter("requests.offered").inc(10)
        view.sample(10.0)
        snapshot = registry.snapshot()
        assert snapshot["rates"]["requests.offered"][
            "windowed_per_s"
        ] == pytest.approx(1000.0)

    def test_no_torn_reads_under_hammer(self):
        """ISSUE-7 satellite: windowed rates stay sane mid-increment.

        One writer increments the counter monotonically while a sampler
        advances simulated time and reads rates at a hostile thread
        switch interval.  A torn read would surface as a negative or
        non-finite rate (a sample pair whose counter values ran
        backwards) -- monotone counters can never yield one.
        """
        import math

        counter = Counter()
        view = RateView(counter, window_ms=5.0)
        stop = threading.Event()
        torn = []

        def sampler():
            now = 0.0
            while not stop.is_set():
                now += 0.01
                view.sample(now)
                windowed = view.rate_per_s()
                if windowed < 0.0 or not math.isfinite(windowed):
                    torn.append(("windowed", windowed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=sampler)
        thread.start()
        try:
            for _ in range(20_000):
                counter.inc()
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(interval)
        assert not torn, f"torn rates: {torn[:3]}"
        assert counter.value == 20_000
