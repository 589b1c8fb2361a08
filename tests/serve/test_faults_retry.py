"""Fault injection, retry-with-backoff, and terminal failure semantics.

Covers the ISSUE-2 satellite: a device that browns out on every attempt
must surface a terminal ``ServeError`` after the retry cap — never hang
— and with fault injection enabled the conservation law
``completed + rejected + failed == offered`` still holds.
"""

import pytest

from repro.errors import (
    ConfigurationError, DeviceBrownoutError, ServeError,
)
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve import (
    COMPLETED,
    FAILED,
    FaultInjector,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    SimulatedDevice,
    TraceCollector,
    synthetic_trace,
)


def _config(**overrides):
    defaults = dict(n_devices=4, max_queue_depth=256,
                    max_queue_wait_ms=None)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestFaultInjector:
    def test_rate_zero_never_fires(self):
        injector = FaultInjector(FaultPlan(brownout_rate=0.0))
        assert not any(injector.should_brownout(0) for _ in range(100))

    def test_rate_one_always_fires_on_faulty_devices(self):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({1}))
        injector = FaultInjector(plan)
        assert not injector.should_brownout(0)
        assert injector.should_brownout(1)

    def test_seeded_draws_are_reproducible(self):
        a = FaultInjector(FaultPlan(brownout_rate=0.5, seed=7))
        b = FaultInjector(FaultPlan(brownout_rate=0.5, seed=7))
        draws_a = [a.should_brownout(0) for _ in range(50)]
        draws_b = [b.should_brownout(0) for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestFaultPlanDevices:
    @pytest.mark.parametrize("faulty, outside", [
        ({9}, [9]), ({1, 4, 7}, [4, 7]), ({-1, 0}, [-1]),
    ])
    def test_devices_outside_the_pool_are_refused(self, faulty, outside):
        plan = FaultPlan(brownout_rate=0.3, faulty_devices=frozenset(faulty))
        with pytest.raises(ConfigurationError) as raised:
            _config(fault_plan=plan)
        assert str(raised.value) == (
            f"fault plan names devices {outside} outside range(4)"
        )

    @pytest.mark.parametrize("faulty", [None, frozenset(), frozenset({0, 3})])
    def test_devices_inside_the_pool_are_accepted(self, faulty):
        plan = FaultPlan(brownout_rate=0.3, faulty_devices=faulty)
        assert _config(fault_plan=plan).fault_plan is plan


class TestDeviceBrownout:
    def test_execute_raises_typed_brownout(self, small_artifact,
                                           digits_small):
        tracer = TraceCollector()
        device = SimulatedDevice(
            device_id=3, artifact=small_artifact,
            injector=FaultInjector(FaultPlan(brownout_rate=1.0)),
            tracer=tracer,
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        with pytest.raises(DeviceBrownoutError) as excinfo:
            device.execute(request)
        assert excinfo.value.device_id == 3
        [span] = tracer.device_spans(3)
        assert (span.kind, span.detail) == ("retry", "brownout")
        assert device.clock_ms > 0.0        # wasted work is charged

    def test_starved_power_budget_browns_out(self, small_artifact,
                                             digits_small):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(deployed).minimum_charge_cycles()
        device = SimulatedDevice(
            device_id=0, artifact=small_artifact,
            power_budget=PowerBudget(max(1, minimum // 2)),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        with pytest.raises(DeviceBrownoutError):
            device.execute(request)

    def test_sufficient_power_budget_completes(self, small_artifact,
                                               digits_small):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(deployed).minimum_charge_cycles()
        device = SimulatedDevice(
            device_id=0, artifact=small_artifact,
            power_budget=PowerBudget(minimum * 4),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        execution = device.execute(request)
        # Intermittent execution pays checkpoint overhead on top of the
        # plain inference cycles.
        assert execution.cycles > sum(deployed.layer_cycle_bounds())


class TestRetryOnHealthyDevice:
    def test_single_faulty_device_degrades_gracefully(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        trace = synthetic_trace(
            40, 2000.0, 64, seed=8, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact, _config(n_devices=3, fault_plan=plan)
        )
        report = runtime.replay(trace)
        assert report.conserved
        assert report.completed == 40        # fleet absorbed the faults
        completed_devices = {
            o.device_id for o in report.outcomes if o.status == COMPLETED
        }
        assert 0 not in completed_devices    # never completed on faulty
        retried = [o for o in report.outcomes if o.attempts > 1]
        if retried:                          # device 0 picked work up
            assert report.metrics["counters"]["requests.retries"] > 0

    def test_probabilistic_faults_conserve_requests(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=0.3, seed=11)
        trace = synthetic_trace(
            60, 4000.0, 64, seed=9, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=4, fault_plan=plan, max_retries=3),
        )
        report = runtime.replay(trace)
        assert report.conserved
        assert report.completed + report.failed == 60
        assert report.metrics["counters"]["device.brownouts"] > 0

    def test_backoff_accumulates_on_retries(self, small_artifact,
                                            digits_small):
        plan = FaultPlan(brownout_rate=1.0, faulty_devices=frozenset({0}))
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=2, fault_plan=plan,
                    backoff_base_ms=4.0, backoff_cap_ms=16.0),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        outcome = runtime.replay([request]).outcomes[0]
        assert outcome.status == COMPLETED
        if outcome.attempts > 1:             # retried off the faulty board
            assert request.backoff_ms >= 4.0


class TestTerminalFailure:
    """Brown-out on every attempt → typed terminal error, no hang."""

    def test_all_faulty_fleet_fails_after_retry_cap(
        self, small_artifact, digits_small
    ):
        plan = FaultPlan(brownout_rate=1.0)   # every device, every try
        trace = synthetic_trace(
            10, 1000.0, 64, seed=10, inputs=digits_small.x_test
        )
        runtime = ServeRuntime(
            small_artifact,
            _config(n_devices=2, fault_plan=plan, max_retries=2),
        )
        report = runtime.replay(trace)        # must terminate
        assert report.conserved
        assert report.failed == 10 and report.completed == 0
        for outcome in report.outcomes:
            assert outcome.status == FAILED
            assert outcome.attempts == 3      # initial + max_retries
            assert "retry cap" in outcome.reason
            with pytest.raises(ServeError):
                outcome.raise_for_status()

    def test_starved_intermittent_fleet_fails_terminally(
        self, small_artifact, digits_small
    ):
        deployed = small_artifact.replica()
        minimum = IntermittentDeployment(deployed).minimum_charge_cycles()
        runtime = ServeRuntime(
            small_artifact,
            _config(
                n_devices=2,
                power_budget=PowerBudget(max(1, minimum // 2)),
                max_retries=1,
            ),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0
        )
        outcome = runtime.replay([request]).outcomes[0]
        assert outcome.status == FAILED
        assert outcome.attempts == 2
        with pytest.raises(ServeError):
            outcome.raise_for_status()
