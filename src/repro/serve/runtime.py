"""The serving runtime: request streams over a pool of simulated MCUs.

:class:`ServeRuntime` wires the subsystem together: a verified
:class:`~repro.serve.registry.ModelArtifact` is flashed once and
served by ``n_devices`` simulated boards; requests enter through
admission control into one policy-ordered queue; idle devices take
batches, execute them cycle-exactly one request at a time, and retry
brown-outs on healthy devices with capped exponential backoff.  The
runtime serves on the ``verified`` engine by default: reference logits
plus the verifier's per-layer WCET cycles, device-exact by construction
(see :mod:`repro.deploy.artifact`), computed for the whole trace in one
batched forward before any request executes (see
:class:`~repro.serve.pool.Answers`).  ``ServeConfig.engine`` selects a
CPU engine instead (``"fastpath"``, ``"interpreter"``, ...); simulated
results are identical on every engine.
Every offered request ends in exactly one terminal outcome — completed,
rejected, or failed — so the conservation law

    completed + rejected + failed == offered

holds under any fault plan; tests assert it.

Execution model: one single-threaded discrete-event loop on the
simulated clock (:class:`~repro.serve.events.EventLoop`).  Its events
are arrivals, device-free instants and backoff expiries, and every
batching, shedding and retry decision is taken inside one of them, so a
replay's report is a pure function of (trace, config, artifact):
identical across repeats, engines and host speed.  A dispatched batch
runs to completion without preemption, so its outcomes are recorded at
dispatch, stamped with their simulated start and end times.  The one
way in is :meth:`ServeRuntime.replay`, which takes a whole finite trace.
All reported times are simulated milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.deploy.artifact import MODEL_ENGINES, VERIFIED_ENGINE
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeviceBrownoutError,
    InvalidInputError,
    ReproError,
)
from repro.mcu.intermittent import PowerBudget
from repro.serve.events import EventLoop
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import replay_metrics, summarize
from repro.serve.pool import Answers, SimulatedDevice, build_pool
from repro.serve.registry import ModelArtifact
from repro.serve.request import (
    COMPLETED,
    FAILED,
    REJECTED,
    InferenceRequest,
    ServeOutcome,
)
from repro.serve.scheduler import BoundedRequestQueue
from repro.serve.tracing import Span, TraceCollector


@dataclass(frozen=True)
class ServeConfig:
    """Tunable knobs of the runtime."""

    n_devices: int = 4
    policy: str = "fifo"               # "fifo" | "edf"
    max_queue_depth: int = 64
    max_batch: int = 4
    #: Retries after the first attempt; attempt count is capped at
    #: ``max_retries + 1`` before the request fails terminally.
    max_retries: int = 2
    backoff_base_ms: float = 2.0
    backoff_cap_ms: float = 50.0
    #: Sim-time load shedding: reject a first-attempt request whose queue
    #: wait (device start − arrival, simulated ms) exceeds this bound.
    #: The depth bound caps how many requests wait; this bound caps how
    #: long they wait, which is what keeps simulated tail latency finite
    #: under sustained open-loop overload.  ``None`` disables it; any
    #: other value must be ``> 0`` (``inf`` never sheds).
    max_queue_wait_ms: float | None = None
    power_budget: PowerBudget | None = None
    fault_plan: FaultPlan | None = None
    #: Execution engine of the replica the devices answer from:
    #: ``"verified"`` (reference forward + WCET cycles, default), or a
    #: CPU engine: ``"fastpath"``, ``"fastpath-v2"``, ``"interpreter"``.
    engine: str = VERIFIED_ENGINE
    #: Track namespace stamped on every span (``"fleet-0"``), so multiple
    #: runtimes tracing in one process export distinguishable tracks.
    trace_namespace: str | None = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ConfigurationError("need at least one device")
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        wait = self.max_queue_wait_ms
        if wait is not None and not wait > 0:     # NaN fails too
            raise ConfigurationError(
                f"max_queue_wait_ms must be positive, got {wait}"
            )
        if self.engine not in MODEL_ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {MODEL_ENGINES}"
            )
        faulty = self.fault_plan.faulty_devices if self.fault_plan else None
        outside = sorted(set(faulty or ()) - set(range(self.n_devices)))
        if outside:
            raise ConfigurationError(
                f"fault plan names devices {outside} outside "
                f"range({self.n_devices})"
            )


@dataclass(frozen=True)
class ServeReport:
    """End-of-replay summary in simulated time."""

    offered: int
    completed: int
    rejected: int
    failed: int
    makespan_ms: float
    throughput_rps: float              # completed per simulated second
    latency_ms: dict[str, float]       # count/mean/min/max/p50/p95/p99
    queue_ms: dict[str, float]
    device_utilization: dict[str, float]
    metrics: dict[str, Any]            # see metrics.replay_metrics
    engine: str = VERIFIED_ENGINE      # execution engine the fleet ran on
    outcomes: tuple[ServeOutcome, ...] = field(repr=False, default=())
    #: Raw per-device busy time — what utilization is computed from, and
    #: what the trace invariant ``busy_ms == Σ busy spans`` checks.
    device_busy_ms: dict[str, float] = field(default_factory=dict)
    #: The replay's span collector.
    trace: TraceCollector = field(repr=False, default_factory=TraceCollector)

    @property
    def conserved(self) -> bool:
        return self.completed + self.rejected + self.failed == self.offered

    def to_dict(self) -> dict[str, Any]:
        """Every simulated figure as plain JSON values, outcomes included
        (the span trace exports separately, as a Chrome trace)."""
        return {
            "engine": self.engine,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency_ms,
            "queue_ms": self.queue_ms,
            "device_utilization": self.device_utilization,
            "device_busy_ms": self.device_busy_ms,
            "metrics": self.metrics,
            "outcomes": [o._asdict() for o in self.outcomes],
        }

    def format(self) -> str:
        lines = [
            f"offered {self.offered}  completed {self.completed}  "
            f"rejected {self.rejected}  failed {self.failed}",
            f"makespan {self.makespan_ms:.1f} sim-ms  "
            f"throughput {self.throughput_rps:.1f} req/sim-s",
            f"latency sim-ms  p50 {self.latency_ms['p50']:.2f}  "
            f"p95 {self.latency_ms['p95']:.2f}  "
            f"p99 {self.latency_ms['p99']:.2f}  "
            f"mean {self.latency_ms['mean']:.2f}",
            f"queue wait sim-ms  p50 {self.queue_ms['p50']:.2f}  "
            f"p95 {self.queue_ms['p95']:.2f}",
        ]
        for name, value in sorted(self.device_utilization.items()):
            lines.append(f"{name} utilization {value * 100:5.1f}%")
        return "\n".join(lines)


def arrival_order(request: InferenceRequest) -> tuple[float, int]:
    """The order a trace's requests arrive in, whatever their list order."""
    return (request.arrival_ms, request.request_id)


class ServeRuntime:
    """Multi-device inference server over one registered model.

    ``loop`` is the event loop the runtime schedules on; a cluster
    passes its own so every fleet shares one simulated clock.  The
    devices read each request's label and cycles from ``answers``; a
    cluster passes its own so every generation on one artifact reads
    one table from one replica, which ``answers`` flashes the first time
    an artifact and engine serve.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        config: ServeConfig | None = None,
        *,
        loop: EventLoop | None = None,
        answers: Answers | None = None,
    ) -> None:
        self.artifact = artifact
        self.config = config or ServeConfig()
        self.loop = loop or EventLoop()
        self.tracer = TraceCollector(namespace=self.config.trace_namespace)
        self.answers = answers if answers is not None else Answers()
        injector = (
            FaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None else None
        )
        self.devices: list[SimulatedDevice] = build_pool(
            artifact,
            self.config.n_devices,
            power_budget=self.config.power_budget,
            injector=injector,
            tracer=self.tracer,
            answer=self.answers.source(artifact, self.config.engine),
        )
        self.queue = BoundedRequestQueue(
            policy=self.config.policy,
            max_depth=self.config.max_queue_depth,
            n_devices=self.config.n_devices,
        )
        #: Devices with a dispatched batch whose device-free event is
        #: still pending.
        self._busy: set[int] = set()
        #: Terminal outcomes in recording order.
        self.outcome_log: list[ServeOutcome] = []
        self.offered = 0
        self._last_arrival_ms = 0.0

    def replay(self, trace: list[InferenceRequest]) -> ServeReport:
        """Open-loop replay: every request arrives at its trace time.

        Arrivals are scheduled in :func:`arrival_order`, whatever the
        order of ``trace``, and the loop runs until every request has a
        terminal outcome.  Request ids must be distinct
        (``ConfigurationError`` otherwise): each request's answer is
        keyed by its id.
        """
        self.answers.load(trace)
        for request in sorted(trace, key=arrival_order):
            self.loop.at(request.arrival_ms, self.admit, request)
        self.loop.run()
        return self.report()

    # -- event handlers --------------------------------------------------

    def admit(self, request: InferenceRequest) -> bool:
        """The arrival of ``request`` at the loop's current time.

        Runs admission control, then hands queued work to idle devices.
        Returns whether the request was admitted (``False``: shed at the
        door).
        """
        self.offered += 1
        self._last_arrival_ms = max(self._last_arrival_ms,
                                    request.arrival_ms)
        try:
            self.queue.offer(request)
        except AdmissionError as exc:
            self._record(
                ServeOutcome(
                    request_id=request.request_id,
                    status=REJECTED,
                    attempts=request.attempts,
                    reason=exc.reason,
                )
            )
            self._span(request, "shed", request.arrival_ms,
                       detail=exc.reason)
            return False
        self._span(request, "admitted", request.arrival_ms)
        self._dispatch()
        return True

    def _retry_eligible(self, request: InferenceRequest) -> None:
        """Backoff expired: the retry rejoins the queue."""
        self.queue.offer(request, force=True)
        self._dispatch()

    def _device_free(self, device: SimulatedDevice) -> None:
        self._busy.discard(device.device_id)
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand queued work to idle devices, longest-idle first."""
        if not self.queue.depth:
            return
        idle = sorted(
            (d for d in self.devices if d.device_id not in self._busy),
            key=lambda d: (d.clock_ms, d.device_id),
        )
        for device in idle:
            if not self.queue.depth:
                break
            batch = self.queue.take_batch(
                device.device_id, self.config.max_batch
            )
            if batch:
                self._serve_batch(device, batch)
                self._busy.add(device.device_id)
                self.loop.at(device.clock_ms, self._device_free, device)

    # -- batch execution -------------------------------------------------

    def _serve_batch(
        self, device: SimulatedDevice, batch: list[InferenceRequest]
    ) -> None:
        device.begin_dispatch(min(r.earliest_start_ms for r in batch))
        for request in batch:
            # Where this attempt would start serving: the device cannot
            # run a request before it is eligible, and the request cannot
            # start before the device's clock.  Matches the `start` the
            # device computes in `execute()`.
            service_start = max(device.clock_ms, request.earliest_start_ms)
            if self._preflight(device, request, service_start):
                self._execute(device, request, service_start)

    def _preflight(
        self,
        device: SimulatedDevice,
        request: InferenceRequest,
        service_start: float,
    ) -> bool:
        """Shedding decisions for one attempt; True when it should run."""
        # The attempt's queueing interval: eligible-to-run until service
        # start.  First attempts become eligible at arrival; retries at
        # the end of their backoff.
        queued_from = request.earliest_start_ms
        if (
            request.deadline_ms is not None
            and service_start > request.deadline_ms
        ):
            self._span(request, "queued", queued_from, service_start)
            if request.attempts > 0:
                # A retried request was admitted once, at the door — the
                # scheduler contract says it can never be *rejected*
                # afterwards.  Backoff pushing it past its deadline is a
                # terminal *failure* (mirroring the queue_wait rule that
                # retries are never shed).
                self._fail(device, request, service_start,
                           "deadline_after_retry", "deadline_after_retry")
                return False
            # Shedding at dequeue: executing a request that already
            # missed its deadline wastes device time everyone else pays.
            self._shed(request, service_start, "deadline")
            return False
        if (
            self.config.max_queue_wait_ms is not None
            and request.attempts == 0  # retries are never shed
            and service_start - request.arrival_ms
            > self.config.max_queue_wait_ms
        ):
            self._span(request, "queued", queued_from, service_start)
            self._shed(request, service_start, "queue_wait")
            return False
        self._span(request, "queued", queued_from, service_start)
        return True

    def _execute(
        self,
        device: SimulatedDevice,
        request: InferenceRequest,
        service_start: float,
    ) -> None:
        """One post-preflight attempt: run it and record its outcome."""
        try:
            execution = device.execute(request)
        except DeviceBrownoutError:
            self._retry_or_fail(device, request)
            return
        except InvalidInputError as exc:
            self._fail(device, request, service_start,
                       f"invalid_input: {exc}", "invalid_input")
            return
        except ReproError as exc:
            # Any other library error is terminal for this request but
            # must never abort the loop: conservation requires one
            # outcome per offered request.
            self._fail(device, request, service_start,
                       f"{type(exc).__name__}: {exc}", type(exc).__name__)
            return
        latency = execution.end_ms - request.arrival_ms
        queue_wait = execution.start_ms - request.arrival_ms
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=COMPLETED,
                label=execution.label,
                device_id=device.device_id,
                cycles=execution.cycles,
                latency_ms=latency,
                queue_ms=queue_wait,
                attempts=request.attempts + 1,
            )
        )
        self._span(request, "completed", execution.end_ms)

    def _retry_or_fail(
        self, device: SimulatedDevice, request: InferenceRequest
    ) -> None:
        attempts_done = request.attempts + 1
        if attempts_done > self.config.max_retries:
            self._fail(
                device, request, device.clock_ms,
                f"brown-out on every attempt "
                f"({attempts_done} tries, retry cap reached)",
                "retry_cap",
            )
            return
        request.attempts = attempts_done
        request.avoid_device = device.device_id
        backoff = min(
            self.config.backoff_cap_ms,
            self.config.backoff_base_ms * (2 ** (attempts_done - 1)),
        )
        # The retry becomes eligible its backoff after the brown-out
        # (the failing device's clock); the interval is its backoff span.
        request.backoff_ms = device.clock_ms + backoff - request.arrival_ms
        self._span(request, "backoff", device.clock_ms,
                   request.earliest_start_ms)
        # Already admitted once: retries bypass admission control so no
        # request can be both rejected and failed.
        self.loop.at(request.earliest_start_ms, self._retry_eligible,
                     request)

    # -- reporting -------------------------------------------------------

    def _shed(
        self, request: InferenceRequest, at_ms: float, reason: str
    ) -> None:
        """Reject a first attempt at dequeue (it never ran)."""
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=REJECTED,
                attempts=request.attempts + 1,
                reason=reason,
            )
        )
        self._span(request, "shed", at_ms, detail=reason)

    def _fail(
        self,
        device: SimulatedDevice,
        request: InferenceRequest,
        at_ms: float,
        reason: str,
        detail: str,
    ) -> None:
        """Record a terminal failure of an admitted request."""
        self._record(
            ServeOutcome(
                request_id=request.request_id,
                status=FAILED,
                device_id=device.device_id,
                attempts=request.attempts + 1,
                reason=reason,
            )
        )
        self._span(request, "failed", at_ms, detail=detail)

    def _span(
        self,
        request: InferenceRequest,
        kind: str,
        start_ms: float,
        end_ms: float | None = None,
        *,
        detail: str | None = None,
    ) -> None:
        """Record one queue-track span for ``request``."""
        self.tracer.record(
            Span(
                kind=kind,
                start_ms=start_ms,
                end_ms=start_ms if end_ms is None else end_ms,
                request_id=request.request_id,
                attempt=request.attempts + 1,
                detail=detail,
                fleet=self.config.trace_namespace,
            )
        )

    def _record(self, outcome: ServeOutcome) -> None:
        self.outcome_log.append(outcome)

    @property
    def outcomes(self) -> tuple[ServeOutcome, ...]:
        """Terminal outcomes so far, by request id."""
        return tuple(sorted(self.outcome_log, key=lambda o: o.request_id))

    def report(self) -> ServeReport:
        makespan = max(
            [self._last_arrival_ms]
            + [device.clock_ms for device in self.devices]
        )
        utilization = {
            f"device.{d.device_id}": d.utilization(makespan)
            for d in self.devices
        }
        busy = {f"device.{d.device_id}": d.busy_ms for d in self.devices}
        snapshot = replay_metrics(
            offered=self.offered,
            outcomes=self.outcome_log,
            spans=self.tracer.spans(),
            utilization=utilization,
            queue_depth=self.queue.depth,
            engine=self.config.engine,
        )
        counters = snapshot["counters"]
        completed = counters.get("requests.completed", 0)
        throughput = (
            completed / (makespan / 1e3) if makespan > 0.0 else 0.0
        )
        return ServeReport(
            offered=self.offered,
            completed=completed,
            rejected=counters.get("requests.rejected", 0),
            failed=counters.get("requests.failed", 0),
            makespan_ms=makespan,
            throughput_rps=throughput,
            latency_ms=snapshot["histograms"].get(
                "latency_ms", summarize([])
            ),
            queue_ms=snapshot["histograms"].get("queue_ms", summarize([])),
            device_utilization=utilization,
            metrics=snapshot,
            engine=self.config.engine,
            outcomes=self.outcomes,
            device_busy_ms=busy,
            trace=self.tracer,
        )
