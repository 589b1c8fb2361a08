"""Simulated device pool: N boards flashed from one verified artifact.

Each :class:`SimulatedDevice` owns a full replica of the deployed model
(its own RAM, CPU, and TIM2 timer — see
:meth:`~repro.serve.registry.ModelArtifact.replica`) plus a simulated
clock in milliseconds.  The clock advances by exactly the cycle counts
the replica charges (on every engine, the interpreter's), converted at
the board's frequency, so latency and utilization are reported in the
same simulated-time domain as every other number in this repository.
Every request runs through the one per-request :meth:`execute`.

Devices are driven by the runtime's single-threaded event loop, so
their mutable state needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceBrownoutError, ExecutionError
from repro.mcu.board import BoardProfile
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve.faults import BROWNOUT_WASTE_FRACTION, FaultInjector
from repro.serve.registry import ModelArtifact
from repro.serve.request import InferenceRequest
from repro.serve.tracing import Span, TraceCollector

#: Fixed per-dispatch cost (host link interrupt + input DMA setup),
#: charged once per *batch* — the cycles batching amortizes.
DISPATCH_OVERHEAD_CYCLES = 2_000


@dataclass(frozen=True)
class DeviceExecution:
    """One successful on-device inference, placed on the sim timeline."""

    label: int
    cycles: int
    start_ms: float
    end_ms: float


class SimulatedDevice:
    """One board of the fleet, with its own replica and sim clock."""

    def __init__(
        self,
        device_id: int,
        artifact: ModelArtifact,
        *,
        power_budget: PowerBudget | None = None,
        injector: FaultInjector | None = None,
        engine: str | None = None,
        tracer: TraceCollector | None = None,
    ) -> None:
        self.device_id = device_id
        self.board: BoardProfile = artifact.board
        self.deployed = artifact.replica(engine=engine)
        self.injector = injector
        self.tracer = tracer
        self.power_budget = power_budget
        self._intermittent = (
            IntermittentDeployment(self.deployed)
            if power_budget is not None else None
        )
        # -- simulated-time accounting: ``clock_ms`` is when the device
        #    finishes the work dispatched to it so far ------------------
        self.clock_ms = 0.0
        self.busy_ms = 0.0
        self._nominal_ms = artifact.deployment.latency_ms

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
        overhead_ms = self.board.cycles_to_ms(DISPATCH_OVERHEAD_CYCLES)
        start = max(self.clock_ms, earliest_start_ms)
        self.clock_ms = start + overhead_ms
        self.busy_ms += overhead_ms
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
        if self._intermittent is not None:
            try:
                run = self._intermittent.run(request.x, self.power_budget)
            except ExecutionError as exc:
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
                    f"device {self.device_id} browned out: {exc}",
                    device_id=self.device_id,
                ) from exc
            label, cycles = run.label, run.total_cycles
        else:
            result = self.deployed.infer(request.x)
            label, cycles = result.label, result.cycles
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
    engine: str | None = None,
    tracer: TraceCollector | None = None,
) -> list[SimulatedDevice]:
    """Flash ``n_devices`` replicas of one verified artifact."""
    return [
        SimulatedDevice(
            device_id=i,
            artifact=artifact,
            power_budget=power_budget,
            injector=injector,
            engine=engine,
            tracer=tracer,
        )
        for i in range(n_devices)
    ]
