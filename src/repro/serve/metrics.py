"""Fleet metrics: counters, gauges, and latency/cycle histograms.

The runtime records everything it does into a :class:`MetricsRegistry`;
``snapshot()`` renders the whole registry as one plain, JSON-serializable
dict so benchmarks can persist it and dashboards (or tests) can assert
on it without importing any serve types.

Histograms keep every observation of a replay, so the reported
p50/p95/p99 are exact at any trace length (see :func:`summarize`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.errors import ConfigurationError

#: Default trailing window for :class:`RateView` (simulated ms).
RATE_WINDOW_MS = 250.0


class Counter:
    """A monotonically increasing count (thread-safe)."""

    def __init__(self) -> None:
        self._value = 0  # guarded_by: _lock
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        # Read under the lock: an unlocked read races inc()'s RMW and
        # is exactly the PR 4 tally-race shape the concurrency linter
        # now flags (unguarded-read).
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (thread-safe set/add)."""

    def __init__(self) -> None:
        self._value = 0.0  # guarded_by: _lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class RateView:
    """Windowed rate view over a :class:`Counter`.

    Counters are cumulative; control loops (the cluster autoscaler's
    shed-rate signal) need *derivatives* on the simulated clock.  A
    RateView is sampled at control ticks (``sample(now_ms)``) and reads
    the exact rate over the trailing ``window_ms``.

    Thread-safe: every reading is computed from one consistent
    ``(time, value)`` sample pair taken under the view's lock, so a
    reader racing the sampler can never observe a torn (negative or
    time-inverted) rate.  A sample that does not advance time is
    ignored, which makes concurrent ticks race benignly.
    """

    def __init__(
        self, counter: Counter, window_ms: float = RATE_WINDOW_MS
    ) -> None:
        if window_ms <= 0.0:
            raise ConfigurationError("rate window must be positive")
        self._counter = counter
        self.window_ms = float(window_ms)
        self._samples: deque[tuple[float, float]] = deque()  # guarded_by: _lock
        self._lock = threading.Lock()

    def sample(self, now_ms: float) -> None:
        """Record the counter's value at simulated time ``now_ms``."""
        value = self._counter.value      # counter's own lock; not nested
        with self._lock:
            if self._samples and now_ms <= self._samples[-1][0]:
                return
            self._samples.append((now_ms, float(value)))
            # Keep one sample at/before the window start so the windowed
            # rate spans at least window_ms once warmed up.
            cutoff = now_ms - self.window_ms
            while len(self._samples) > 2 and self._samples[1][0] <= cutoff:
                self._samples.popleft()

    def rate_per_s(self) -> float:
        """Increments per second over the trailing window (0.0 cold)."""
        with self._lock:
            if len(self._samples) < 2:
                return 0.0
            first_ms, first_value = self._samples[0]
            last_ms, last_value = self._samples[-1]
        return (last_value - first_value) / (last_ms - first_ms) * 1e3

    def summary(self) -> dict[str, float]:
        return {"windowed_per_s": self.rate_per_s()}


def summarize(values: list[float]) -> dict[str, float]:
    """Exact count/mean/min/max/p50/p95/p99 of ``values`` (zeros if empty).

    The mean is a running sum in the order given; each quantile is the
    nearest-rank element of the sorted values.
    """
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(values)
    n = len(ordered)
    total = 0.0
    for value in values:
        total += value

    def quantile(q: float) -> float:
        return ordered[min(n - 1, int(round(q * (n - 1))))]

    return {
        "count": n,
        "mean": total / n,
        "min": ordered[0],
        "max": ordered[-1],
        "p50": quantile(0.50),
        "p95": quantile(0.95),
        "p99": quantile(0.99),
    }


class Histogram:
    """Every observation, summarized exactly (thread-safe)."""

    def __init__(self) -> None:
        self._samples: list[float] = []  # guarded_by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    def summary(self) -> dict[str, float]:
        # Copy the observations under ONE lock acquisition, so count,
        # extrema and quantiles all describe the same instant even while
        # another thread observes.
        with self._lock:
            samples = list(self._samples)
        return summarize(samples)


class MetricsRegistry:
    """Named metrics, created on first use, snapshotted as one dict."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}  # guarded_by: _lock
        self._gauges: dict[str, Gauge] = {}  # guarded_by: _lock
        self._histograms: dict[str, Histogram] = {}  # guarded_by: _lock
        self._rates: dict[str, RateView] = {}  # guarded_by: _lock
        self._labels: dict[str, str] = {}  # guarded_by: _lock
        self._lock = threading.Lock()

    def label(self, name: str, value: str | None = None) -> str | None:
        """Set (or, with ``value=None``, read) a string-valued label.

        Labels carry run metadata — e.g. which execution engine produced
        a benchmark snapshot — so persisted JSONs are self-describing.
        """
        with self._lock:
            if value is not None:
                self._labels[name] = str(value)
            return self._labels.get(name)

    # Each lookup builds its metric only on a miss: ``setdefault`` would
    # construct a throwaway every call.

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram()
            return self._histograms[name]

    def rate_view(
        self, name: str, window_ms: float = RATE_WINDOW_MS
    ) -> RateView:
        """The (one) rate view over counter ``name``, created on first use.

        The window of the first caller wins; later callers share the
        same view so every control loop reads one signal.
        """
        counter = self.counter(name)
        with self._lock:
            return self._rates.setdefault(
                name, RateView(counter, window_ms)
            )

    def snapshot(self) -> dict[str, Any]:
        """Everything, as plain JSON-serializable values."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            rates = dict(self._rates)
            labels = dict(self._labels)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(histograms.items())
            },
            "rates": {k: r.summary() for k, r in sorted(rates.items())},
            "labels": dict(sorted(labels.items())),
        }
