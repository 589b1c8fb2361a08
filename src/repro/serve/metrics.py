"""Fleet metrics: counters, gauges, and latency/cycle histograms.

The runtime records everything it does into a :class:`MetricsRegistry`;
``snapshot()`` renders the whole registry as one plain, JSON-serializable
dict so benchmarks can persist it and dashboards (or tests) can assert
on it without importing any serve types.

Histograms keep a bounded reservoir of raw observations.  For the sizes
this repository serves (traces of a few thousand requests) the reservoir
holds everything and the reported p50/p95/p99 are exact; past the cap,
uniform reservoir sampling keeps the quantiles unbiased.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any

from repro.errors import ConfigurationError

#: Default reservoir capacity; a 1k-request bench fits with headroom.
RESERVOIR_SIZE = 65_536

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
    """Windowed + EWMA rate view over a :class:`Counter`.

    Counters are cumulative; control loops (the cluster autoscaler's
    shed-rate signal, the deployer's SLO probes) need *derivatives* on
    the simulated clock.  A RateView is sampled at control ticks
    (``sample(now_ms)``) and offers two readings: the exact rate over
    the trailing ``window_ms`` and an EWMA of per-interval rates with
    ``alpha`` weighting the newest interval.

    Thread-safe: every reading is computed from one consistent
    ``(time, value)`` sample pair taken under the view's lock, so a
    reader racing the sampler can never observe a torn (negative or
    time-inverted) rate.  A sample that does not advance time is
    ignored, which makes concurrent ticks race benignly.
    """

    def __init__(
        self,
        counter: Counter,
        window_ms: float = RATE_WINDOW_MS,
        alpha: float = 0.3,
    ) -> None:
        if window_ms <= 0.0:
            raise ConfigurationError("rate window must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("EWMA alpha must be in (0, 1]")
        self._counter = counter
        self.window_ms = float(window_ms)
        self.alpha = float(alpha)
        self._samples: deque[tuple[float, float]] = deque()  # guarded_by: _lock
        self._ewma_per_s: float | None = None  # guarded_by: _lock
        self._lock = threading.Lock()

    def sample(self, now_ms: float) -> None:
        """Record the counter's value at simulated time ``now_ms``."""
        value = self._counter.value      # counter's own lock; not nested
        with self._lock:
            if self._samples and now_ms <= self._samples[-1][0]:
                return
            if self._samples:
                last_ms, last_value = self._samples[-1]
                instant = (value - last_value) / (now_ms - last_ms) * 1e3
                self._ewma_per_s = (
                    instant if self._ewma_per_s is None
                    else self.alpha * instant
                    + (1.0 - self.alpha) * self._ewma_per_s
                )
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

    @property
    def ewma_per_s(self) -> float:
        with self._lock:
            return self._ewma_per_s if self._ewma_per_s is not None else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "windowed_per_s": self.rate_per_s(),
            "ewma_per_s": self.ewma_per_s,
        }


class Histogram:
    """Reservoir-sampled distribution with exact small-n quantiles."""

    def __init__(self, capacity: int = RESERVOIR_SIZE, seed: int = 0) -> None:
        self._capacity = capacity
        self._samples: list[float] = []  # guarded_by: _lock
        self._count = 0  # guarded_by: _lock
        self._sum = 0.0  # guarded_by: _lock
        self._min = float("inf")  # guarded_by: _lock
        self._max = float("-inf")  # guarded_by: _lock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self._capacity:
                self._samples.append(value)
            else:  # Vitter's algorithm R
                slot = self._rng.randrange(self._count)
                if slot < self._capacity:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) of the observed distribution, or 0.0."""
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict[str, float]:
        # Snapshot every field under ONE lock acquisition: a concurrent
        # observe() between piecemeal reads would yield a summary whose
        # count, extrema, and quantiles come from different instants
        # (e.g. a max larger than the latest observed value the count
        # accounts for).
        with self._lock:
            count = self._count
            total = self._sum
            minimum = self._min
            maximum = self._max
            ordered = sorted(self._samples)
        if count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}

        def quantile(q: float) -> float:
            index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
            return ordered[index]

        return {
            "count": count,
            "mean": total / count,
            "min": minimum,
            "max": maximum,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
        }


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
    # construct (and a Histogram seed an RNG for) a throwaway every call.

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
        self,
        name: str,
        window_ms: float = RATE_WINDOW_MS,
        alpha: float = 0.3,
    ) -> RateView:
        """The (one) rate view over counter ``name``, created on first use.

        The window/alpha of the first caller win; later callers share
        the same view so every control loop reads one signal.
        """
        counter = self.counter(name)
        with self._lock:
            return self._rates.setdefault(
                name, RateView(counter, window_ms, alpha)
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
