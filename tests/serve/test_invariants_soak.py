"""Invariant soak: trace-derived runtime invariants under hostile load.

The harness replays overload traces with EDF + deadlines, brown-out
fault plans, and retries, and asserts on *every* run the invariants
the tracer makes checkable:

- conservation: ``completed + rejected + failed == offered``;
- every offered request has exactly one terminal span;
- per-device spans are non-overlapping and monotone;
- no queue wait is negative;
- ``busy_ms`` equals the summed durations of execute/overhead/retry
  spans;
- utilization is within [0, 1].

The regression classes at the bottom pin the concrete accounting bugs
the harness was built to expose; each fails on the pre-fix runtime.
"""

import json
import random

import pytest

from repro.serve import (
    DISPATCH_OVERHEAD_CYCLES,
    FAILED,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    SimulatedDevice,
    synthetic_trace,
    verify_trace_invariants,
)


def _assert_invariants(report):
    violations = verify_trace_invariants(report)
    assert not violations, "\n".join(violations)


def _capacity_rps(artifact, n_devices):
    return n_devices * 1000.0 / artifact.deployment.latency_ms


SCENARIOS = {
    # Underloaded FIFO fleet: the do-no-harm baseline.
    "clean_fifo": dict(
        factor=0.5, config=dict(n_devices=2, max_queue_wait_ms=None),
    ),
    # 3x overload on EDF with tight deadlines: heavy shedding at the
    # door, at dequeue, and on simulated queue wait.
    "overload_edf_deadlines": dict(
        factor=3.0, deadline_ms=6.0,
        config=dict(n_devices=2, policy="edf", max_queue_depth=32,
                    max_queue_wait_ms=15.0),
    ),
    # Probabilistic brown-outs with retries: wasted work, backoff,
    # avoid-device rerouting.
    "faults_retries": dict(
        factor=0.8,
        config=dict(n_devices=3, max_retries=3, max_queue_wait_ms=None,
                    fault_plan=FaultPlan(brownout_rate=0.3, seed=13)),
    ),
    # Everything at once: the ISSUE-4 acceptance replay — overload, EDF,
    # deadlines, brown-outs, retries, and both shed bounds.
    "brownout_edf_overload": dict(
        factor=2.0, deadline_ms=10.0,
        config=dict(n_devices=4, policy="edf", max_queue_depth=48,
                    max_retries=2, max_queue_wait_ms=20.0,
                    fault_plan=FaultPlan(brownout_rate=0.25, seed=7)),
    ),
    # Large batches under overload (the name dates from fused tier-2
    # dispatch): served one request at a time on the verified engine,
    # every request still gets one execute span and busy_ms == sum of
    # span durations.
    "fused_v2_overload": dict(
        factor=1.5,
        config=dict(n_devices=2, max_batch=16, engine="verified"),
    ),
}


class TestSoakScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invariants_hold(self, name, small_artifact, digits_small):
        scenario = SCENARIOS[name]
        rate = scenario["factor"] * _capacity_rps(
            small_artifact, scenario["config"]["n_devices"]
        )
        trace = synthetic_trace(
            120, rate, 64, seed=sum(map(ord, name)) % 1000,
            deadline_ms=scenario.get("deadline_ms"),
            inputs=digits_small.x_test,
        )
        config = dict(max_queue_depth=256)
        config.update(scenario["config"])
        report = ServeRuntime(
            small_artifact, ServeConfig(**config)
        ).replay(trace)
        assert report.offered == 120
        _assert_invariants(report)
        if name == "fused_v2_overload":
            assert report.metrics["histograms"]["batch_size"]["max"] > 4

    def test_flooded_edf_faults_invariants(self, small_artifact,
                                           digits_small):
        """Faults + deadlines + both shed bounds under a 4x flood."""
        trace = synthetic_trace(
            160, 4.0 * _capacity_rps(small_artifact, 2), 64, seed=29,
            deadline_ms=12.0, inputs=digits_small.x_test,
        )
        config = ServeConfig(
            n_devices=2, policy="edf", max_queue_depth=32,
            max_retries=2, max_queue_wait_ms=25.0,
            fault_plan=FaultPlan(brownout_rate=0.2, seed=31),
        )
        report = ServeRuntime(small_artifact, config).replay(trace)
        assert report.offered == 160
        _assert_invariants(report)


class TestArrivalOrder:
    """A replay schedules arrivals by ``(arrival_ms, request_id)``.

    The list order of the trace never matters, even with many requests
    at one arrival time and a queue bound that sheds most of them.
    """

    def test_list_order_does_not_change_the_replay(self, small_artifact,
                                                   digits_small):
        config = ServeConfig(n_devices=1, max_queue_depth=2,
                             max_queue_wait_ms=None)
        n_sources, per_source = 4, 250
        x = digits_small.x_test[0]

        def requests():
            return [
                InferenceRequest(request_id=source * per_source + i, x=x,
                                 arrival_ms=float(i))
                for source in range(n_sources) for i in range(per_source)
            ]

        shuffled = requests()
        random.Random(0).shuffle(shuffled)
        report = ServeRuntime(small_artifact, config).replay(shuffled)
        assert report.offered == n_sources * per_source
        assert report.conserved
        assert report.metrics["counters"]["requests.offered"] \
            == n_sources * per_source
        in_order = ServeRuntime(small_artifact, config).replay(requests())
        assert json.dumps(report.to_dict()) \
            == json.dumps(in_order.to_dict())


class TestDispatchOverheadAccounting:
    """ISSUE-4 satellite: overhead is charged on the post-jump timeline.

    Pre-fix, ``begin_dispatch`` advanced the clock *before* the idle
    jump in ``execute``, so an idle device absorbed the overhead into
    the idle gap while still counting it as busy time.
    """

    def test_idle_device_overhead_not_absorbed(self, small_artifact,
                                               digits_small):
        device = SimulatedDevice(device_id=0, artifact=small_artifact)
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=100.0
        )
        overhead_ms = small_artifact.board.cycles_to_ms(
            DISPATCH_OVERHEAD_CYCLES
        )
        device.begin_dispatch(request.earliest_start_ms)
        # The idle jump happens first; only then is overhead charged.
        assert device.clock_ms == pytest.approx(100.0 + overhead_ms)
        execution = device.execute(request)
        assert execution.start_ms == pytest.approx(100.0 + overhead_ms)
        # Busy time equals occupied timeline: nothing busy inside the
        # idle gap [0, 100).
        assert device.busy_ms == pytest.approx(device.clock_ms - 100.0)

    def test_fleet_busy_equals_summed_spans(self, small_artifact,
                                            digits_small):
        # The soak invariant that pins the bug fleet-wide: busy_ms must
        # equal the summed execute/overhead/retry span durations even
        # when devices repeatedly go idle between sparse arrivals.
        trace = synthetic_trace(
            40, 0.3 * _capacity_rps(small_artifact, 2), 64, seed=37,
            inputs=digits_small.x_test,
        )
        report = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=2, max_queue_wait_ms=None),
        ).replay(trace)
        assert report.completed == 40
        _assert_invariants(report)


class TestRetryPastDeadline:
    """ISSUE-4 satellite: a retried request can never be *rejected*.

    Admission is decided once, at the door.  Pre-fix, a brown-out retry
    whose backoff pushed it past its deadline was recorded as REJECTED
    at dequeue, contradicting the scheduler contract.
    """

    def test_retry_past_deadline_fails_not_rejected(self, small_artifact,
                                                    digits_small):
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, max_retries=3, backoff_base_ms=5.0,
                max_queue_wait_ms=None,
                fault_plan=FaultPlan(brownout_rate=1.0),   # every device
            ),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0,
            deadline_ms=1.0,   # < backoff: the retry is born expired
        )
        report = runtime.replay([request])
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.reason == "deadline_after_retry"
        assert outcome.attempts == 2          # first try + expired retry
        counters = report.metrics["counters"]
        assert counters["failed.deadline_after_retry"] == 1
        assert counters.get("rejected.deadline", 0) == 0
        _assert_invariants(report)

    def test_deadline_after_retry_under_fault_plan(self, small_artifact,
                                                   digits_small):
        # Sustained load + tight deadlines + a device that always browns
        # out: the shed/fail split must keep rejected == first-attempt
        # decisions and failed == post-admission outcomes.
        trace = synthetic_trace(
            60, _capacity_rps(small_artifact, 2), 64, seed=41,
            deadline_ms=4.0, inputs=digits_small.x_test,
        )
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, policy="edf", max_retries=2,
                backoff_base_ms=6.0, max_queue_wait_ms=None,
                fault_plan=FaultPlan(
                    brownout_rate=1.0, faulty_devices=frozenset({0})
                ),
            ),
        )
        report = runtime.replay(trace)
        _assert_invariants(report)
        for outcome in report.outcomes:
            if outcome.reason == "deadline_after_retry":
                assert outcome.status == FAILED
                assert outcome.attempts > 1
            if outcome.status == "rejected":
                assert outcome.attempts <= 1
