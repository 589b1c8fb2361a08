"""Replays are a pure function of (trace, config, artifact).

The runtime takes every batching, shedding and retry decision on the
simulated clock, so a replay serializes to the same bytes on every
repeat and on every execution engine: the engines differ in host time
only.  The property is checked over fault plans, intermittent power
budgets, EDF, deadlines and both shed bounds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.serve import FaultPlan, ServeConfig, ServeRuntime, synthetic_trace
from tests.serve.conftest import spoil_inputs

ENGINES = ("verified", "fastpath", "fastpath-v2", "interpreter")


def sim_json(report) -> str:
    """The report and its span trace, minus the engine's name tags."""
    body = report.to_dict()
    del body["engine"]
    del body["metrics"]["labels"]["engine"]
    return json.dumps([body, report.trace.chrome_trace()], sort_keys=True)


@st.composite
def scenarios(draw):
    fault_plan = draw(st.one_of(st.none(), st.builds(
        FaultPlan,
        brownout_rate=st.floats(0.1, 0.6),
        faulty_devices=st.sampled_from([None, frozenset({0})]),
        seed=st.integers(0, 99),
    )))
    return dict(
        config=dict(
            n_devices=draw(st.integers(1, 3)),
            policy=draw(st.sampled_from(["fifo", "edf"])),
            max_batch=draw(st.integers(1, 6)),
            max_queue_depth=draw(st.integers(4, 64)),
            max_retries=draw(st.integers(0, 3)),
            max_queue_wait_ms=draw(st.one_of(st.none(), st.floats(1.0, 20.0))),
            fault_plan=fault_plan,
        ),
        #: Charge budget as a multiple of the minimum viable charge.
        budget=draw(st.sampled_from([None, 0.5, 1.5, 4.0])),
        load=draw(st.floats(0.3, 4.0)),
        deadline_ms=draw(st.one_of(st.none(), st.floats(0.5, 10.0))),
        seed=draw(st.integers(0, 999)),
    )


@settings(max_examples=12, deadline=None)
@given(scenario=scenarios())
def test_replay_identical_across_repeats_and_engines(
    small_artifact, digits_small, scenario
):
    config = dict(scenario["config"])
    if scenario["budget"] is not None:
        minimum = IntermittentDeployment(
            small_artifact.replica()
        ).minimum_charge_cycles()
        config["power_budget"] = PowerBudget(
            max(1, int(minimum * scenario["budget"]))
        )
    rate = (scenario["load"] * config["n_devices"] * 1000.0
            / small_artifact.deployment.latency_ms)

    def replay(engine):
        trace = synthetic_trace(
            24, rate, 64, seed=scenario["seed"],
            deadline_ms=scenario["deadline_ms"],
            inputs=digits_small.x_test,
        )
        report = ServeRuntime(
            small_artifact, ServeConfig(engine=engine, **config)
        ).replay(trace)
        assert report.conserved
        return sim_json(report)

    first = replay(ENGINES[0])
    assert replay(ENGINES[0]) == first
    for engine in ENGINES[1:]:
        assert replay(engine) == first, engine


@pytest.mark.parametrize("budget", [None, 3])
def test_rejected_rows_and_bad_inputs_identical_across_engines(
    overflowing_artifact, digits_small, budget
):
    """Rows the reference's audits reject (the device wraps them) and
    inputs ``infer`` refuses (NaN, 7 features) answer alike on every
    engine, with and without a charge budget."""
    config = dict(n_devices=3, max_queue_wait_ms=None,
                  fault_plan=FaultPlan(brownout_rate=0.2, seed=1))
    if budget is not None:
        minimum = IntermittentDeployment(
            overflowing_artifact.replica()
        ).minimum_charge_cycles()
        config["power_budget"] = PowerBudget(minimum * budget)

    def replay(engine):
        trace = spoil_inputs(synthetic_trace(
            60, 3000.0, 64, seed=4, inputs=digits_small.x_test
        ))
        report = ServeRuntime(
            overflowing_artifact, ServeConfig(engine=engine, **config)
        ).replay(trace)
        reasons = {o.reason for o in report.outcomes if o.reason}
        assert any(r.startswith("invalid_input: input contains NaN")
                   for r in reasons)
        assert any("has 7 values" in r for r in reasons)
        return sim_json(report)

    first = replay(ENGINES[0])
    for engine in ENGINES[1:]:
        assert replay(engine) == first, engine
