"""Cluster integration: replay, conservation, autoscaling, trace export."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    AutoscalerConfig,
    Fleet,
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

    def test_signal_window_validation(self):
        for window_ms in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                ClusterConfig(signal_window_ms=window_ms)


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


class TestAutoscaling:
    def test_overload_scales_up_and_invariants_hold(
        self, base_artifact, digits_small, small_serve_config,
    ):
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=1, serve=small_serve_config, tick_ms=2.0,
            signal_window_ms=10.0,
            autoscaler=AutoscalerConfig(
                min_fleets=1, max_fleets=3, up_ticks=2,
                up_shed_fraction=0.02, cooldown_ms=4.0,
            ),
        ))
        # Far over one fleet's capacity: shed shows up immediately.
        report = cluster.replay(
            _trace(digits_small, n=400, rate=60_000.0)
        )
        violations = verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        assert not violations, "\n".join(violations)
        ups = [d for d in report.scale_decisions
               if d.action == "scale_up"]
        assert ups, "overload never triggered a scale-up"
        assert len({g.fleet for g in report.generations}) >= 2

    def test_idle_scales_down_to_floor(
        self, base_artifact, digits_small, small_serve_config,
    ):
        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=3, serve=small_serve_config, tick_ms=2.0,
            signal_window_ms=10.0,
            autoscaler=AutoscalerConfig(
                min_fleets=1, max_fleets=3, down_ticks=2,
                down_utilization=0.9, down_queue_wait_ms=50.0,
                cooldown_ms=4.0,
            ),
        ))
        # A long quiet trickle: far below capacity.
        report = cluster.replay(
            _trace(digits_small, n=80, rate=500.0)
        )
        assert not verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        downs = [d for d in report.scale_decisions
                 if d.action == "scale_down"]
        assert downs, "idle cluster never scaled down"
        # Every drained fleet's requests still landed somewhere.
        assert report.conserved


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
        self, base_artifact, good_artifact, cluster_registry,
        digits_small, small_serve_config,
    ):
        from repro.cluster import SLOPolicy

        cluster = Cluster(base_artifact, ClusterConfig(
            n_fleets=1, serve=small_serve_config, tick_ms=2.0,
        ), registry=cluster_registry)
        cluster.schedule_deploy(
            good_artifact, 3.0,
            slo=SLOPolicy(min_probe_completed=3, probe_ms=200.0),
        )
        report = cluster.replay(_trace(digits_small, n=200))
        text = report.format()
        assert "cluster:" in text
        assert "deploy @" in text
        assert "goodput" in text
