"""A cluster replay answers from one table per (artifact, engine).

Every generation, live or built later by a deploy or rollback, reads
the tables of the replay's trace from one replica per artifact, so a
rolling deploy over three fleets flashes two replicas and runs two
batched reference forwards: one per model.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, SLOPolicy
from repro.errors import ConfigurationError
from repro.serve import ServeConfig, synthetic_trace


def test_rolling_deploy_builds_one_table_per_artifact(
    base_artifact, good_artifact, digits_small,
    infer_calls,
):
    cluster = Cluster(base_artifact, ClusterConfig(
        n_fleets=3, serve=ServeConfig(n_devices=2, max_queue_depth=32),
        tick_ms=2.0,
    ))
    cluster.schedule_deploy(
        good_artifact, 4.0,
        slo=SLOPolicy(min_probe_completed=5, probe_ms=200.0),
    )
    report = cluster.replay(synthetic_trace(
        300, 20_000.0, 64, seed=5, inputs=digits_small.x_test
    ))
    assert [e.kind for e in report.deploy_events][-1] == "complete"
    assert len(report.generations) == 6
    assert infer_calls == {"infer_batch": 2, "infer": 0}


@pytest.mark.parametrize("target, last_event", [
    ("good", "complete"), ("slow", "rollback"),
])
def test_rollout_flashes_one_replica_per_artifact(
    base_artifact, good_artifact, slow_artifact, digits_small, flashed,
    target, last_event,
):
    """Blue and green generations, and the blue ones a rollback builds
    again, all answer from one replica per artifact."""
    target = {"good": good_artifact, "slow": slow_artifact}[target]
    cluster = Cluster(base_artifact, ClusterConfig(
        n_fleets=2, serve=ServeConfig(n_devices=2, max_queue_depth=32),
        tick_ms=2.0,
    ))
    cluster.schedule_deploy(
        target, 4.0, slo=SLOPolicy(min_probe_completed=5, probe_ms=200.0),
    )
    report = cluster.replay(synthetic_trace(
        300, 20_000.0, 64, seed=5, inputs=digits_small.x_test
    ))
    assert [e.kind for e in report.deploy_events][-1] == last_event
    assert len(report.generations) > 2
    assert flashed == [(base_artifact.model_id, "verified"),
                       (target.model_id, "verified")]


def test_replay_refuses_a_repeated_request_id(base_artifact, digits_small):
    trace = synthetic_trace(6, 100.0, 64, seed=0,
                            inputs=digits_small.x_test)
    trace[3].request_id = trace[1].request_id
    cluster = Cluster(base_artifact)
    with pytest.raises(ConfigurationError,
                       match=f"request id {trace[1].request_id}$"):
        cluster.replay(trace)
    assert cluster.loop.pending == 0 and cluster.submitted_ids == []
