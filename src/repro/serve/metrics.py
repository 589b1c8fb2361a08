"""Fleet metrics, derived from what a replay recorded.

A replay records each fact once: a terminal
:class:`~repro.serve.request.ServeOutcome` per request, and a
:class:`~repro.serve.tracing.Span` per step on the simulated timeline.
:func:`replay_metrics` reads both, in recording order, and renders the
counters, gauges and histograms as one plain, JSON-serializable dict so
benchmarks can persist it and dashboards (or tests) can assert on it
without importing any serve types.

Histograms summarize every value of a replay, so the reported
p50/p95/p99 are exact at any trace length (see :func:`summarize`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from repro.serve.request import COMPLETED, FAILED, REJECTED, ServeOutcome
from repro.serve.tracing import Span

#: Counters that count one span kind each.
SPAN_COUNTERS = {
    "dispatch_overhead": "batches.dispatched",
    "retry": "device.brownouts",
    "backoff": "requests.retries",
}


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


def replay_metrics(
    *,
    offered: int,
    outcomes: Sequence[ServeOutcome],
    spans: Sequence[Span],
    utilization: dict[str, float],
    queue_depth: int,
    engine: str,
) -> dict[str, Any]:
    """One replay's metrics snapshot, derived from its records.

    ``outcomes`` and ``spans`` must be in recording order, so every
    histogram sums its values in the order they were recorded.

    - Counters count outcomes by status and reason, and spans by kind
      (:data:`SPAN_COUNTERS`); a counter appears only when non-zero.
    - ``latency_ms``, ``queue_ms`` and ``cycles`` summarize the
      completed outcomes.  ``batch_size`` counts the ``queued`` spans
      after each ``dispatch_overhead`` span: a batch records its
      overhead first, then one ``queued`` span per member.
    - ``utilization`` maps ``device.N`` to its busy fraction.
      ``queue.depth`` appears once something was admitted.
    """
    counts: defaultdict[str, int] = defaultdict(int)
    counts["requests.offered"] = offered
    latency: list[float] = []
    queue: list[float] = []
    cycles: list[float] = []
    for outcome in outcomes:
        counts[f"requests.{outcome.status}"] += 1
        if outcome.status == COMPLETED:
            latency.append(float(outcome.latency_ms))
            queue.append(float(outcome.queue_ms))
            cycles.append(float(outcome.cycles))
        elif outcome.status == REJECTED:
            counts[f"rejected.{outcome.reason}"] += 1
        elif (outcome.status == FAILED
              and outcome.reason == "deadline_after_retry"):
            counts["failed.deadline_after_retry"] += 1
    batch_sizes: list[int] = []
    admitted = False
    for span in spans:
        if span.kind in SPAN_COUNTERS:
            counts[SPAN_COUNTERS[span.kind]] += 1
        if span.kind == "dispatch_overhead":
            batch_sizes.append(0)
        elif span.kind == "queued":
            batch_sizes[-1] += 1
        elif span.kind == "admitted":
            admitted = True
    gauges = {
        f"{name}.utilization": float(value)
        for name, value in utilization.items()
    }
    if admitted:
        gauges["queue.depth"] = float(queue_depth)
    histograms = {
        "batch_size": [float(size) for size in batch_sizes],
        "cycles": cycles,
        "latency_ms": latency,
        "queue_ms": queue,
    }
    return {
        "counters": {k: v for k, v in sorted(counts.items()) if v},
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            k: summarize(v) for k, v in sorted(histograms.items()) if v
        },
        "rates": {},
        "labels": {"engine": engine},
    }
