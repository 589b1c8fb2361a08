"""Simulated device pool: N boards serving one verified artifact.

Each :class:`SimulatedDevice` is a board's simulated clock in
milliseconds, plus its fault and power state.  It holds no replica of
the model.  A request's cycles never depend on its input: every kernel
has input-independent control flow, the verifier proves the WCET bound
equal to the measured cycles, and the reference matches the device bit
for bit.  So a device charges a proven constant, and reads the label
from :class:`Answers`: one batched reference forward over the replay's
trace on the ``verified`` engine, or one ``infer`` when the request
executes on a CPU engine.  The clock advances by exactly the cycles
charged, converted at the board's frequency, so latency and
utilization are reported in the same simulated-time domain as every
other number in this repository.  Every request runs through the one
per-request :meth:`SimulatedDevice.execute`.

Devices are driven by the runtime's single-threaded event loop, so
their mutable state needs no locking.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Sequence

from repro.deploy.artifact import VERIFIED_ENGINE, DeployedModel
from repro.errors import (
    ConfigurationError,
    DeviceBrownoutError,
    ExecutionError,
    InvalidInputError,
)
from repro.mcu.board import BoardProfile
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve.faults import BROWNOUT_WASTE_FRACTION, FaultInjector
from repro.serve.registry import ModelArtifact
from repro.serve.request import InferenceRequest
from repro.serve.tracing import Span, TraceCollector

#: Fixed per-dispatch cost (host link interrupt + input DMA setup),
#: charged once per *batch* — the cycles batching amortizes.
DISPATCH_OVERHEAD_CYCLES = 2_000


class DeviceExecution(NamedTuple):
    """One successful on-device inference, placed on the sim timeline."""

    label: int
    cycles: int
    start_ms: float
    end_ms: float


class Answers:
    """Each request's ``(label, cycles)`` on one replay's trace.

    :meth:`load` takes the trace.  :meth:`source` flashes one replica
    per (artifact id, engine), and every runtime sharing this
    ``Answers`` (a cluster's generations on one artifact) answers from
    it, as a pool's devices do: requests run one at a time on the event
    loop, so none interleave on it.  On the ``verified`` engine, the
    first request an artifact serves builds its table: one
    :meth:`~repro.deploy.artifact.DeployedModel.infer_rows` call over
    every input of the trace, keyed by request id.  Every later runtime
    on the same artifact reads the same table.  A request with no row,
    from a direct ``admit`` or ``execute`` caller, is answered by the
    same method with a batch of one.  CPU engines answer when a request
    executes, with one ``infer``: precomputing would pay for the rows an
    overloaded replay sheds.
    """

    def __init__(self) -> None:
        self._trace: Sequence[InferenceRequest] = ()
        #: Per ``verified`` artifact id: request id -> row.
        self._tables: dict[str, dict] = {}
        #: Per (artifact id, engine): the replica that answers.
        self._replicas: dict[tuple[str, str | None], DeployedModel] = {}

    def load(self, trace: Sequence[InferenceRequest]) -> None:
        """Take a replay's trace; its request ids must be distinct."""
        seen: set[int] = set()
        for request in trace:
            if request.request_id in seen:
                raise ConfigurationError(
                    f"trace repeats request id {request.request_id}"
                )
            seen.add(request.request_id)
        self._trace = trace
        self._tables = {}

    def source(
        self, artifact: ModelArtifact, engine: str | None = None
    ) -> Callable[[InferenceRequest], tuple[int, int]]:
        """Answer requests on the replica of ``artifact`` for ``engine``,
        flashed at the first call for the pair."""
        key = (artifact.model_id, engine)
        model = self._replicas.get(key)
        if model is None:
            model = self._replicas[key] = artifact.replica(engine)
        if model.engine != VERIFIED_ENGINE:
            return partial(_infer, model)
        return partial(self.row, artifact.model_id, model)

    def row(
        self, model_id: str, model: DeployedModel, request: InferenceRequest
    ) -> tuple[int, int]:
        """``(label, cycles)`` of ``request`` on the verified ``model``;
        raises the ``InvalidInputError`` its input carries."""
        table = self._tables.get(model_id)
        if table is None:
            table = self._tables[model_id] = dict(zip(
                (request.request_id for request in self._trace),
                model.infer_rows([request.x for request in self._trace]),
            ))
        row = table.get(request.request_id)
        if row is None:
            (row,) = model.infer_rows([request.x])
        if isinstance(row, InvalidInputError):
            raise row
        return row


def _infer(
    model: DeployedModel, request: InferenceRequest
) -> tuple[int, int]:
    """``(label, cycles)`` of ``request`` run on a CPU-engine ``model``."""
    result = model.infer(request.x)
    return result.label, result.cycles


class SimulatedDevice:
    """One board of the fleet: its sim clock, faults and power budget.

    ``answer`` gives a request's ``(label, cycles)``; a runtime passes
    the one its devices share.  A device built on its own answers from
    a replica flashed for it.
    """

    def __init__(
        self,
        device_id: int,
        artifact: ModelArtifact,
        *,
        power_budget: PowerBudget | None = None,
        injector: FaultInjector | None = None,
        tracer: TraceCollector | None = None,
        answer: Callable[[InferenceRequest], tuple[int, int]] | None = None,
    ) -> None:
        self.device_id = device_id
        self.board: BoardProfile = artifact.board
        self._answer = answer or Answers().source(artifact)
        self.injector = injector
        self.tracer = tracer
        self.power_budget = power_budget
        #: What every inference costs under the budget
        #: (``IntermittentCharge``), priced once; the ``ExecutionError``
        #: instead when the budget can never finish the model.
        self._charge = None
        if power_budget is not None:
            try:
                self._charge = IntermittentDeployment(
                    artifact.deployed
                ).charge(power_budget)
            except ExecutionError as exc:
                self._charge = exc
        # -- simulated-time accounting: ``clock_ms`` is when the device
        #    finishes the work dispatched to it so far ------------------
        self.clock_ms = 0.0
        self.busy_ms = 0.0
        self._nominal_ms = artifact.deployment.latency_ms
        self._overhead_ms = self.board.cycles_to_ms(DISPATCH_OVERHEAD_CYCLES)

    def _emit(
        self,
        kind: str,
        start_ms: float,
        end_ms: float,
        request: InferenceRequest | None = None,
        detail: str | None = None,
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.record(
            Span(
                kind=kind,
                start_ms=start_ms,
                end_ms=end_ms,
                request_id=(
                    request.request_id if request is not None else None
                ),
                device_id=self.device_id,
                attempt=(request.attempts + 1) if request is not None else 0,
                detail=detail,
                fleet=self.tracer.namespace,
            )
        )

    def begin_dispatch(self, earliest_start_ms: float = 0.0) -> None:
        """Charge the fixed per-batch dispatch overhead.

        The overhead lands on the *post-idle-jump* timeline: an idle
        device first jumps forward to the earliest start of the batch it
        is about to serve (it cannot begin the host-link transfer before
        any request in the batch is eligible), then pays the overhead as
        genuinely busy time.  Charging it before the jump — the pre-fix
        behaviour — let the idle gap absorb the overhead while it was
        still counted as busy, overstating utilization and understating
        the first request's queue wait.
        """
        start = max(self.clock_ms, earliest_start_ms)
        self.clock_ms = start + self._overhead_ms
        self.busy_ms += self._overhead_ms
        self._emit("dispatch_overhead", start, self.clock_ms)

    def execute(self, request: InferenceRequest) -> DeviceExecution:
        """Run one admitted request; may raise ``DeviceBrownoutError``.

        The request starts at ``max(device clock, arrival + backoff)``:
        a device cannot serve a request before it arrives, and backoff
        delays re-attempts on the simulated timeline.
        """
        start = max(self.clock_ms, request.earliest_start_ms)
        if self.injector and self.injector.should_brownout(self.device_id):
            waste_ms = self._nominal_ms * BROWNOUT_WASTE_FRACTION
            self.clock_ms = start + waste_ms
            self.busy_ms += waste_ms
            self._emit("retry", start, self.clock_ms, request,
                       detail="brownout")
            raise DeviceBrownoutError(
                f"device {self.device_id} lost power mid-request "
                f"{request.request_id}",
                device_id=self.device_id,
            )
        if isinstance(self._charge, ExecutionError):
            # Budget below the minimum viable charge (or power-cycle
            # cap): the device can never finish this model.
            waste_ms = self.board.cycles_to_ms(
                self.power_budget.cycles_per_charge
            )
            self.clock_ms = start + waste_ms
            self.busy_ms += waste_ms
            self._emit("retry", start, self.clock_ms, request,
                       detail="budget_brownout")
            raise DeviceBrownoutError(
                f"device {self.device_id} browned out: {self._charge}",
                device_id=self.device_id,
            ) from self._charge
        label, cycles = self._answer(request)
        if self._charge is not None:
            cycles = self._charge.total_cycles
        exec_ms = self.board.cycles_to_ms(cycles)
        self.clock_ms = start + exec_ms
        self.busy_ms += exec_ms
        self._emit("execute", start, self.clock_ms, request)
        return DeviceExecution(
            label=label, cycles=cycles, start_ms=start, end_ms=self.clock_ms
        )

    def utilization(self, horizon_ms: float) -> float:
        """Busy fraction of the fleet-wide simulated horizon."""
        if horizon_ms <= 0.0:
            return 0.0
        return min(1.0, self.busy_ms / horizon_ms)


def build_pool(
    artifact: ModelArtifact,
    n_devices: int,
    *,
    power_budget: PowerBudget | None = None,
    injector: FaultInjector | None = None,
    tracer: TraceCollector | None = None,
    answer: Callable[[InferenceRequest], tuple[int, int]] | None = None,
) -> list[SimulatedDevice]:
    """``n_devices`` boards serving one verified artifact, all reading
    ``answer`` (by default one replica flashed for the pool)."""
    answer = answer or Answers().source(artifact)
    return [
        SimulatedDevice(
            device_id=i,
            artifact=artifact,
            power_budget=power_budget,
            injector=injector,
            tracer=tracer,
            answer=answer,
        )
        for i in range(n_devices)
    ]
