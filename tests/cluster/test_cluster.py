"""Cluster integration: replay, conservation, ticks, trace export."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    Fleet,
    SLOPolicy,
    generation_namespace,
    verify_cluster_invariants,
)
from repro.errors import ConfigurationError
from repro.serve import synthetic_trace


def _trace(digits_small, n=200, rate=15_000.0, seed=9):
    return synthetic_trace(n, rate, 64, seed=seed,
                           inputs=digits_small.x_test)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_fleets=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(router_policy="nope")
        with pytest.raises(ConfigurationError):
            ClusterConfig(tick_ms=0.0)


class TestReplayConservation:
    @pytest.mark.parametrize(
        "policy", ["hash", "least-queue-wait", "deadline-p2c"]
    )
    def test_every_policy_conserves_and_verifies(
        self, base_artifact, digits_small, small_serve_config, policy,
    ):
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=3, serve=small_serve_config,
            router_policy=policy, tick_ms=2.0,
        ))
        report = cluster.replay(_trace(digits_small))
        violations = verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        assert not violations, "\n".join(violations)
        assert report.submitted == 200
        assert report.conserved
        assert report.router_policy == policy
        assert report.completed > 0
        # All three fleets saw traffic.
        assert len(report.generations) == 3
        assert all(g.report.offered > 0 for g in report.generations)


class TickCountingCluster(Cluster):
    """A cluster that records the simulated time of every control tick."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tick_times: list[float] = []

    def tick(self, now_ms: float) -> None:
        self.tick_times.append(now_ms)
        super().tick(now_ms)


class TestControlTicks:
    """The control loop ticks only while a deploy is scheduled or
    running."""

    def test_replay_without_a_deploy_never_ticks(
        self, base_artifact, digits_small, small_serve_config,
    ):
        cluster = TickCountingCluster(base_artifact, ClusterConfig(
            n_fleets=2, serve=small_serve_config, tick_ms=2.0,
        ))
        report = cluster.replay(_trace(digits_small))
        assert report.conserved and report.completed > 0
        assert cluster.tick_times == []

    @pytest.mark.parametrize("target, last_event", [
        ("good_artifact", "complete"), ("slow_artifact", "rollback"),
    ])
    def test_no_tick_after_the_deploys_terminal_event(
        self, request, base_artifact, digits_small, small_serve_config,
        target, last_event,
    ):
        cluster = TickCountingCluster(base_artifact, ClusterConfig(
            n_fleets=2, serve=small_serve_config, tick_ms=2.0,
        ))
        cluster.schedule_deploy(
            request.getfixturevalue(target), 3.0,
            slo=SLOPolicy(min_probe_completed=3, probe_ms=200.0),
        )
        trace = _trace(digits_small, n=400)
        report = cluster.replay(trace)
        terminal = report.deploy_events[-1]
        assert terminal.kind == last_event
        # The trace outlasts the deploy: ticking while any event is
        # pending would tick past its terminal event.
        assert trace[-1].arrival_ms > terminal.time_ms
        assert cluster.tick_times[-1] == terminal.time_ms
        assert cluster.tick_times == sorted(set(cluster.tick_times))


class TestFleetLifecycle:
    def test_shutdown_fleet_refuses_then_cluster_reroutes(
        self, base_artifact, digits_small, small_serve_config,
    ):
        fleet = Fleet(0, base_artifact, small_serve_config)
        request = _trace(digits_small, n=1)[0]
        assert fleet.submit(request) is True
        fleet.shutdown()
        assert fleet.submit(request) is None     # no live generation
        (gen_index, model_id, report), = fleet.generation_reports()
        assert gen_index == 0
        assert model_id == base_artifact.model_id
        assert report.offered == 1

    def test_generation_namespaces(
        self, base_artifact, good_artifact, small_serve_config,
    ):
        fleet = Fleet(4, base_artifact, small_serve_config)
        assert fleet._current().runtime.tracer.namespace == "fleet-4"
        old = fleet.begin_generation(good_artifact)
        fleet.retire_generation(old)
        assert fleet._current().runtime.tracer.namespace == "fleet-4.g1"
        fleet.shutdown()
        assert generation_namespace("fleet-4", 0) == "fleet-4"
        assert generation_namespace("fleet-4", 1) == "fleet-4.g1"


class TestTraceExport:
    def test_merged_chrome_trace_has_one_process_per_generation(
        self, base_artifact, digits_small, small_serve_config,
    ):
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=2, serve=small_serve_config, tick_ms=2.0,
        ))
        cluster.replay(_trace(digits_small, n=80))
        trace = cluster.chrome_trace(labels={"run": "test"})
        events = trace["traceEvents"]
        processes = {
            e["pid"]: e["args"]["name"] for e in events
            if e.get("name") == "process_name"
        }
        assert set(processes.values()) == {
            "repro.serve/fleet-0", "repro.serve/fleet-1",
        }
        fleet_args = {
            e["args"]["fleet"] for e in events
            if e.get("cat") == "serve"
        }
        assert fleet_args == {"fleet-0", "fleet-1"}

    def test_report_format_mentions_deploys(
        self, base_artifact, good_artifact, digits_small,
        small_serve_config,
    ):
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=1, serve=small_serve_config, tick_ms=2.0,
        ))
        cluster.schedule_deploy(
            good_artifact, 3.0,
            slo=SLOPolicy(min_probe_completed=3, probe_ms=200.0),
        )
        report = cluster.replay(_trace(digits_small, n=200))
        text = report.format()
        assert "cluster:" in text
        assert "deploy @" in text
        assert "goodput" in text
