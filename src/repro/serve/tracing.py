"""Per-request span tracing for the serving runtime.

Aggregate metrics answer "how is the fleet doing"; they cannot answer
"what happened to request 4711".  This module records every request's
journey through the runtime as typed *spans* on the simulated timeline —
admission, queueing, backoff, dispatch overhead, execution, retries, and
the terminal outcome — so a single inference can be reconstructed, and
so tests can assert *invariants* that aggregate counters hide (span
overlap on a device, negative queue waits, busy time that does not match
the occupied timeline).

Span taxonomy (all times simulated milliseconds):

==================  =====================================================
kind                meaning
==================  =====================================================
``admitted``        instant: admission control accepted the request
``queued``          interval: eligible-to-run until device service start
``backoff``         interval: post-brown-out delay before the retry is
                    eligible again
``dispatch_overhead``  interval (device track): per-batch host-link +
                    DMA setup cost
``execute``         interval (device track): one inference attempt that
                    ran to completion
``retry``           interval (device track): device time wasted by a
                    browned-out attempt (whether or not another attempt
                    follows)
``completed``       instant, terminal: the request finished
``shed``            instant, terminal: admission/dequeue shed the request
``failed``          instant, terminal: the request failed terminally
==================  =====================================================

Every offered request ends in **exactly one** terminal span — the
per-request refinement of the conservation law.  Spans live on tracks:
``device_id is None`` is the queue track, anything else the device's
track.  :func:`verify_trace_invariants` checks the full invariant list
(see ``docs/serving.md``); the soak harness runs it after every replay.

The collector keeps every span: a replay is a finite trace, so its
invariants are always checkable.  ``chrome_trace()`` exports the
standard Chrome trace-event JSON (load it in https://ui.perfetto.dev —
one track per device plus the queue track); ``timeline()`` renders one
request's journey as plain text for tests and the CLI.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from repro.errors import ConfigurationError

SPAN_KINDS = (
    "admitted",
    "queued",
    "backoff",
    "dispatch_overhead",
    "execute",
    "retry",
    "completed",
    "shed",
    "failed",
)

#: Exactly one of these is recorded per offered request.
TERMINAL_KINDS = frozenset({"completed", "shed", "failed"})

#: Device-track kinds whose summed durations must equal the device's
#: ``busy_ms`` — the accounting invariant the soak harness pins down.
DEVICE_BUSY_KINDS = frozenset({"dispatch_overhead", "execute", "retry"})


_KNOWN_KINDS = frozenset(SPAN_KINDS)


class _SpanFields(NamedTuple):
    kind: str
    start_ms: float
    end_ms: float
    request_id: int | None
    device_id: int | None       # None = queue track
    attempt: int
    detail: str | None
    #: Owning fleet (e.g. ``"fleet-0"``) when the collector belongs to a
    #: cluster; stamped by the collector's namespace so multiple device
    #: pools in one process keep distinguishable tracks.
    fleet: str | None


class Span(_SpanFields):
    """One typed interval (or instant) on the simulated timeline.

    An immutable named tuple: spans compare as tuples, and
    ``_replace``/``_asdict`` copy and serialize them.  ``request_id`` is
    ``None`` only for batch-level device spans (``dispatch_overhead``),
    which serve the whole batch.  Instants have ``end_ms == start_ms``.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        start_ms: float,
        end_ms: float,
        request_id: int | None = None,
        device_id: int | None = None,
        attempt: int = 0,
        detail: str | None = None,
        fleet: str | None = None,
    ) -> Span:
        if kind not in _KNOWN_KINDS:
            raise ConfigurationError(
                f"unknown span kind {kind!r}; known: {SPAN_KINDS}"
            )
        return tuple.__new__(cls, (
            kind, start_ms, end_ms, request_id, device_id, attempt,
            detail, fleet,
        ))

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS


def timeline_order(span: Span) -> tuple:
    """Sort key placing spans on the timeline.

    Ties on time resolve on the span's identity, so an ordering never
    depends on the order spans were recorded in.
    """
    return (
        span.start_ms,
        span.end_ms,
        -1 if span.request_id is None else span.request_id,
        span.kind,
        span.attempt,
        -1 if span.device_id is None else span.device_id,
    )


class TraceCollector:
    """Every span of one replay, indexed by request id.

    Spans are recorded from the runtime's single-threaded event loop.

    ``namespace`` names the fleet this collector traces (e.g.
    ``"fleet-0"``).  Every recorded span is stamped with it, and the
    Chrome export prefixes track names (``fleet-0/device.2``) so two
    pools exporting into one merged trace never collide.
    """

    def __init__(self, namespace: str | None = None) -> None:
        self.namespace = namespace
        self._spans: list[Span] = []

    def record(self, span: Span) -> None:
        """Store one span, stamped with the collector's namespace."""
        if self.namespace is not None and span.fleet is None:
            span = span._replace(fleet=self.namespace)
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in recording order."""
        return tuple(self._spans)

    def request_ids(self) -> tuple[int, ...]:
        """Distinct request ids with at least one span, ascending."""
        seen = {
            span.request_id
            for span in self.spans()
            if span.request_id is not None
        }
        return tuple(sorted(seen))

    def request_spans(self, request_id: int) -> tuple[Span, ...]:
        """One request's spans, in timeline order."""
        mine = [s for s in self.spans() if s.request_id == request_id]
        return tuple(sorted(mine, key=timeline_order))

    def device_spans(self, device_id: int) -> tuple[Span, ...]:
        """One device track's spans, in timeline order."""
        mine = [s for s in self.spans() if s.device_id == device_id]
        return tuple(sorted(mine, key=timeline_order))

    # -- rendering -------------------------------------------------------

    def timeline(self, request_id: int) -> str:
        """Plain-text per-request journey, one span per line."""
        spans = self.request_spans(request_id)
        if not spans:
            return f"request {request_id}: no spans recorded"
        terminal = next(
            (s.kind for s in spans if s.terminal), "in-flight"
        )
        lines = [
            f"request {request_id} ({len(spans)} spans, "
            f"terminal={terminal})"
        ]
        for span in spans:
            track = (
                "queue" if span.device_id is None
                else f"device.{span.device_id}"
            )
            where = f"{track:10s} attempt {span.attempt}"
            if span.detail:
                where += f"  [{span.detail}]"
            lines.append(
                f"  [{span.start_ms:10.3f} → {span.end_ms:10.3f}] "
                f"{span.kind:17s} {where}"
            )
        return "\n".join(lines)

    def _track_name(self, device_id: int | None) -> str:
        base = "queue" if device_id is None else f"device.{device_id}"
        if self.namespace is None:
            return base
        return f"{self.namespace}/{base}"

    def trace_events(self, pid: int = 0) -> list[dict[str, Any]]:
        """This collector's Chrome trace events, under process ``pid``.

        Track (thread) names carry the collector's namespace
        (``fleet-0/device.2``), so events from several collectors can be
        concatenated into one trace without colliding — each collector
        gets its own pid (see :func:`merged_chrome_trace`).
        """
        spans = sorted(self.spans(), key=timeline_order)
        tids = {None: 0}
        for device_id in sorted(
            {s.device_id for s in spans if s.device_id is not None}
        ):
            tids[device_id] = device_id + 1
        process = (
            "repro.serve" if self.namespace is None
            else f"repro.serve/{self.namespace}"
        )
        events: list[dict[str, Any]] = [
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": process}},
        ]
        for device_id, tid in tids.items():
            events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": self._track_name(device_id)}}
            )
        for span in spans:
            args: dict[str, Any] = {"attempt": span.attempt}
            if span.request_id is not None:
                args["request_id"] = span.request_id
            if span.detail:
                args["detail"] = span.detail
            if span.terminal:
                args["terminal"] = True
            if span.fleet is not None:
                args["fleet"] = span.fleet
            event: dict[str, Any] = {
                "pid": pid,
                "tid": tids[span.device_id],
                "cat": "serve",
                "name": span.kind,
                "ts": round(span.start_ms * 1_000.0, 3),
                "args": args,
            }
            if span.end_ms > span.start_ms:
                event["ph"] = "X"
                event["dur"] = round(span.duration_ms * 1_000.0, 3)
            else:
                event["ph"] = "i"
                event["s"] = "t"
            events.append(event)
        return events

    def chrome_trace(
        self, labels: dict[str, str] | None = None
    ) -> dict[str, Any]:
        """The trace in Chrome trace-event JSON (Perfetto-loadable).

        One process (`repro.serve`), one track per device plus a
        ``queue`` track (tid 0).  Intervals are complete (``"X"``)
        events in microseconds; instants are thread-scoped ``"i"``
        events.  Overlapping queue-track intervals (many requests queued
        at once) render stacked, which is the intended reading.
        """
        trace: dict[str, Any] = {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
        }
        if labels:
            trace["metadata"] = dict(labels)
        return trace

    def write_chrome_trace(
        self, path, labels: dict[str, str] | None = None
    ) -> None:
        """Serialize :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(labels), handle, indent=1)


def merged_chrome_trace(
    collectors, labels: dict[str, str] | None = None
) -> dict[str, Any]:
    """One Chrome trace over several collectors (e.g. a cluster's fleets).

    Each collector becomes its own process (pid = position in
    ``collectors``), so ``fleet-0/device.2`` and ``fleet-1/device.2``
    stay separate tracks in Perfetto even though both pools number
    their devices from zero.
    """
    events: list[dict[str, Any]] = []
    for pid, collector in enumerate(collectors):
        events.extend(collector.trace_events(pid=pid))
    trace: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if labels:
        trace["metadata"] = dict(labels)
    return trace


# -- invariants ----------------------------------------------------------

def verify_trace_invariants(
    report, *, tolerance_ms: float = 1e-6
) -> list[str]:
    """Check the runtime's accounting invariants against a replay trace.

    Takes a :class:`~repro.serve.runtime.ServeReport` whose ``trace``
    field holds the run's :class:`TraceCollector` and returns a list of
    human-readable violations (empty = all invariants hold):

    1. conservation: ``completed + rejected + failed == offered``;
    2. every offered request has **exactly one** terminal span, and the
       traced request ids match the recorded outcomes;
    3. per-device spans are non-overlapping and monotone (each device's
       clock only moves forward);
    4. no span runs backwards, and no queue wait is negative (every
       ``queued`` span and every outcome ``queue_ms`` is >= 0);
    5. per device, ``busy_ms`` equals the summed durations of its
       ``dispatch_overhead`` + ``execute`` + ``retry`` spans, and no
       device span ends past the makespan;
    6. utilization is in [0, 1].

    The soak harness runs this after every replay; each check fails on
    the pre-fix runtime bugs catalogued in ISSUE 4.
    """
    violations: list[str] = []
    if not report.conserved:
        violations.append(
            f"conservation violated: {report.completed} + "
            f"{report.rejected} + {report.failed} != {report.offered}"
        )
    tracer = report.trace
    spans = tracer.spans()

    # 2. exactly one terminal span per offered request.
    terminals: dict[int, list[Span]] = {}
    for span in spans:
        if span.terminal and span.request_id is not None:
            terminals.setdefault(span.request_id, []).append(span)
    for request_id, spans_for in sorted(terminals.items()):
        if len(spans_for) != 1:
            violations.append(
                f"request {request_id} has {len(spans_for)} terminal "
                f"spans: {[s.kind for s in spans_for]}"
            )
    outcome_ids = sorted(o.request_id for o in report.outcomes)
    if sorted(terminals) != outcome_ids:
        missing = set(outcome_ids) - set(terminals)
        extra = set(terminals) - set(outcome_ids)
        violations.append(
            f"terminal spans disagree with outcomes "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )

    # 4. no span runs backwards; queue waits non-negative.
    for span in spans:
        if span.end_ms < span.start_ms - tolerance_ms:
            violations.append(
                f"span runs backwards: {span.kind} request "
                f"{span.request_id} [{span.start_ms} → {span.end_ms}]"
            )
    for outcome in report.outcomes:
        if outcome.queue_ms < -tolerance_ms:
            violations.append(
                f"request {outcome.request_id} has negative queue wait "
                f"{outcome.queue_ms}"
            )

    # 3 + 5. per-device monotonicity and busy-time accounting.
    tracks: dict[int, list[Span]] = {}
    for span in spans:
        if span.device_id is not None:
            tracks.setdefault(span.device_id, []).append(span)
    for device_id, track in sorted(tracks.items()):
        track.sort(key=timeline_order)
        for prev, cur in zip(track, track[1:]):
            if cur.start_ms < prev.end_ms - tolerance_ms:
                violations.append(
                    f"device {device_id} spans overlap: "
                    f"{prev.kind}@[{prev.start_ms}, {prev.end_ms}] then "
                    f"{cur.kind}@[{cur.start_ms}, {cur.end_ms}]"
                )
        busy_spans = sum(
            s.duration_ms for s in track if s.kind in DEVICE_BUSY_KINDS
        )
        recorded = report.device_busy_ms.get(f"device.{device_id}")
        if recorded is not None:
            slack = max(1.0, abs(recorded)) * 1e-9 + tolerance_ms
            if abs(recorded - busy_spans) > slack:
                violations.append(
                    f"device {device_id} busy_ms {recorded:.6f} != "
                    f"sum of busy spans {busy_spans:.6f}"
                )
        late = [
            s for s in track
            if s.end_ms > report.makespan_ms + tolerance_ms
        ]
        if late:
            violations.append(
                f"device {device_id} has {len(late)} spans past the "
                f"makespan {report.makespan_ms}"
            )

    # 6. utilization bounded.
    for name, value in report.device_utilization.items():
        if not 0.0 <= value <= 1.0 + 1e-12:
            violations.append(f"{name} utilization {value} outside [0, 1]")
    return violations
