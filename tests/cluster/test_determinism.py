"""Cluster runs are a pure function of (trace, config, artifacts).

Routing, control ticks and rolling deploys all run on the cluster's
simulated clock, so a ``cluster-bench`` row — and every
generation's full serve report — comes out identical on every repeat
and on every execution engine.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    SLOPolicy,
    fleet_capacity_rps,
    run_cluster_once,
)
from repro.serve import FaultPlan, ServeConfig, synthetic_trace

ENGINES = ("verified", "fastpath", "fastpath-v2", "interpreter")
SLO = SLOPolicy(min_probe_completed=3, probe_ms=50.0)


def _engine_free(report_dict: dict) -> dict:
    """A serve report's figures without the engine's name tags."""
    del report_dict["engine"]
    del report_dict["metrics"]["labels"]["engine"]
    return report_dict


@pytest.mark.parametrize(
    "policy", ["hash", "least-queue-wait", "deadline-p2c"]
)
def test_bench_row_identical_across_repeats_and_engines(
    base_artifact, good_artifact, digits_small, policy,
):
    rate = 0.8 * fleet_capacity_rps(base_artifact, 2)

    def row(engine: str) -> str:
        result = run_cluster_once(
            base_artifact, n_fleets=2, policy=policy, requests=120,
            rate_rps=rate, devices_per_fleet=2, seed=3,
            inputs=digits_small.x_test, deploy_artifact=good_artifact,
            deploy_at_ms=40.0 / rate * 1e3, slo=SLO, tick_ms=2.0,
            engine=engine,
        )
        assert result["deploy_events"][-1]["kind"] == "complete"
        del result["engine"]
        return json.dumps(result)

    first = row(ENGINES[0])
    assert row(ENGINES[0]) == first
    for engine in ENGINES[1:]:
        assert row(engine) == first, engine


def test_overloaded_deploy_identical_across_engines(
    base_artifact, good_artifact, digits_small,
):
    """Deadline routing over three fleets, EDF, brown-out retries and a
    rolling deploy under overload: every generation's report and the
    deploy timeline match."""
    trace_args = dict(
        n_requests=160,
        rate_rps=4.0 * fleet_capacity_rps(base_artifact, 2),
        input_shape=64, seed=11, deadline_ms=3.0,
    )

    def run(engine: str) -> str:
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=3,
            serve=ServeConfig(
                n_devices=2, max_queue_depth=16, policy="edf",
                fault_plan=FaultPlan(brownout_rate=0.2, seed=3),
                engine=engine,
            ),
            router_policy="deadline-p2c", router_seed=5, tick_ms=1.0,
        ))
        cluster.schedule_deploy(good_artifact, 12.0, slo=SLO)
        report = cluster.replay(synthetic_trace(
            inputs=digits_small.x_test, **trace_args
        ))
        assert report.conserved and report.deploy_events
        assert sum(g.report.metrics["counters"].get("requests.retries", 0)
                   for g in report.generations)
        return json.dumps({
            "generations": [
                [g.fleet, g.generation, g.model_id,
                 _engine_free(g.report.to_dict()),
                 g.report.trace.chrome_trace()]
                for g in report.generations
            ],
            "deploy_events": [
                [e.time_ms, e.kind, e.fleet, e.detail]
                for e in report.deploy_events
            ],
        })

    first = run(ENGINES[0])
    assert run(ENGINES[0]) == first
    for engine in ENGINES[1:]:
        assert run(engine) == first, engine
