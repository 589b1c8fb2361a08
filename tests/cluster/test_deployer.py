"""Rolling deploys: cutover, SLO probe, rollback — zero lost requests."""

from __future__ import annotations

from repro.cluster import (
    Cluster,
    ClusterConfig,
    SLOPolicy,
    verify_cluster_invariants,
)
from repro.serve import ServeConfig, synthetic_trace


def _cluster(artifact, *, n_fleets=2, policy="hash"):
    return Cluster(
        artifact,
        ClusterConfig(
            n_fleets=n_fleets,
            serve=ServeConfig(n_devices=2, max_queue_depth=32),
            router_policy=policy,
            tick_ms=2.0,
        ),
    )


def _trace(digits_small, n=300, rate=20_000.0, seed=5):
    return synthetic_trace(n, rate, 64, seed=seed,
                           inputs=digits_small.x_test)


_SLO = SLOPolicy(min_probe_completed=5, probe_ms=200.0,
                 max_cycles_ratio=2.0)


class TestGoodDeploy:
    def test_rolls_through_every_fleet_and_completes(
        self, base_artifact, good_artifact, digits_small,
    ):
        cluster = _cluster(base_artifact)
        cluster.schedule_deploy(good_artifact, 4.0, slo=_SLO)
        report = cluster.replay(_trace(digits_small))
        violations = verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        assert not violations, "\n".join(violations)

        kinds = [e.kind for e in report.deploy_events]
        assert kinds.count("cutover") == 2       # one per fleet
        assert kinds.count("probe_pass") == 2
        assert kinds[-1] == "complete"
        assert "rollback" not in kinds
        # Both fleets retired their blue generation and completed on
        # green: 2 generations per fleet, green ran the target model.
        by_fleet = {}
        for gen in report.generations:
            by_fleet.setdefault(gen.fleet, []).append(gen)
        for fleet, gens in by_fleet.items():
            assert [g.generation for g in sorted(
                gens, key=lambda g: g.generation)] == [0, 1]
            newest = max(gens, key=lambda g: g.generation)
            assert newest.model_id == good_artifact.model_id

    def test_already_on_target_completes_immediately(
        self, base_artifact, digits_small,
    ):
        cluster = _cluster(base_artifact)
        cluster.schedule_deploy(base_artifact, 1.0, slo=_SLO)
        report = cluster.replay(_trace(digits_small, n=100))
        kinds = [e.kind for e in report.deploy_events]
        assert kinds == ["complete"]             # nothing to cut over
        assert len(report.generations) == 2      # no extra generations


class TestRollback:
    def test_slow_model_trips_cycles_ratio_and_rolls_back(
        self, base_artifact, slow_artifact, digits_small,
    ):
        cluster = _cluster(base_artifact)
        cluster.schedule_deploy(slow_artifact, 4.0, slo=_SLO)
        report = cluster.replay(_trace(digits_small, n=400))
        violations = verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        assert not violations, "\n".join(violations)

        kinds = [e.kind for e in report.deploy_events]
        assert "cutover" in kinds
        assert "probe_fail" in kinds
        assert "rollback" in kinds
        assert "complete" not in kinds
        fail = next(e for e in report.deploy_events
                    if e.kind == "probe_fail")
        assert "cycles ratio" in fail.detail
        # Every fleet's newest retired-or-live generation runs the
        # restored blue model again.
        by_fleet = {}
        for gen in report.generations:
            by_fleet.setdefault(gen.fleet, []).append(gen)
        for gens in by_fleet.values():
            newest = max(gens, key=lambda g: g.generation)
            assert newest.model_id == base_artifact.model_id

    def test_no_goodput_probe_times_out_and_rolls_back(
        self, base_artifact, good_artifact, digits_small,
    ):
        """A deploy cut over after traffic stops gets no completions;
        the probe deadline treats that as a breach."""
        cluster = _cluster(base_artifact)
        # Trace spans ~15ms; the deploy fires long after it ends.
        cluster.schedule_deploy(good_artifact, 1_000.0, slo=_SLO)
        report = cluster.replay(_trace(digits_small, n=200))
        assert not verify_cluster_invariants(
            report, cluster.submitted_ids
        )
        fail = next(e for e in report.deploy_events
                    if e.kind == "probe_fail")
        assert "completions" in fail.detail
        assert any(e.kind == "rollback" for e in report.deploy_events)
