"""Cluster soak: 10x overload and rolling deploys.

The cluster acceptance run.  Four fleets of four devices each replay an
open-loop trace at ten times a single fleet's offered load while the
control loop ticks on the simulated clock.  Mid-replay, two rolling
deploys fire:

1. a *good* model (same architecture, different weights) — the SLO
   probe sees a cycles ratio of ~1.0 under live traffic and the deploy
   cuts over every fleet and completes;
2. a *slow* model (~4x cycles per inference) — the cycles-ratio
   discriminator breaches and the deployer rolls every cut-over fleet
   back.

Afterwards, every cluster-scope invariant must hold — per-generation
trace invariants, cluster conservation, the zero-lost-requests outcome
ledger, per-fleet span stamping — and a second replay of the same
trace must match the first exactly.

Reduced configuration: set ``REPRO_CLUSTER_SOAK_REQUESTS`` (the CI job
uses 300) to shrink the run; the default soaks 900 requests.
"""

from __future__ import annotations

import json
import os

from repro.cluster import (
    Cluster,
    ClusterConfig,
    SLOPolicy,
    fleet_capacity_rps,
    verify_cluster_invariants,
)
from repro.serve import ServeConfig, synthetic_trace

N_REQUESTS = int(os.environ.get("REPRO_CLUSTER_SOAK_REQUESTS", "900"))
N_FLEETS = 4
N_DEVICES = 4
LOAD_FACTOR = 10.0                 # x one fleet's offered capacity
QUEUE_DEPTH = 8                    # small on purpose: floods must shed


def _fingerprint(report) -> str:
    """Every simulated figure of a cluster run, as one JSON string."""
    return json.dumps({
        "generations": [
            [g.fleet, g.generation, g.model_id, g.report.to_dict()]
            for g in report.generations
        ],
        "deploy_events": [
            [e.time_ms, e.kind, e.fleet, e.model_id, e.detail]
            for e in report.deploy_events
        ],
    })


def test_cluster_soak_overload_and_deploys(
    base_artifact, good_artifact, slow_artifact, digits_small,
):
    capacity = fleet_capacity_rps(base_artifact, N_DEVICES)
    rate = LOAD_FACTOR * capacity
    trace = synthetic_trace(
        N_REQUESTS, rate, 64, seed=47, inputs=digits_small.x_test,
    )
    span_ms = trace[-1].arrival_ms
    slo = SLOPolicy(min_probe_completed=3, probe_ms=200.0,
                    max_cycles_ratio=2.0)

    def build() -> Cluster:
        cluster = Cluster(
            base_artifact,
            ClusterConfig(
                n_fleets=N_FLEETS,
                serve=ServeConfig(
                    n_devices=N_DEVICES,
                    max_queue_depth=QUEUE_DEPTH,
                ),
                router_policy="hash",
                tick_ms=span_ms / 60.0,
            ),
        )
        cluster.schedule_deploy(good_artifact, 0.35 * span_ms, slo=slo)
        cluster.schedule_deploy(slow_artifact, 0.75 * span_ms, slo=slo)
        return cluster

    cluster = build()
    report = cluster.replay(trace)

    # -- cluster-scope invariants, including through both deploys ------
    violations = verify_cluster_invariants(report, cluster.submitted_ids)
    assert not violations, "\n".join(violations)
    assert report.submitted == N_REQUESTS
    assert report.conserved
    assert report.rejected > 0, "10x overload should shed"
    assert report.completed > 0

    # -- deploy 1 (good) completed; deploy 2 (slow) forced a rollback --
    events = report.deploy_events
    good_kinds = [e.kind for e in events
                  if e.model_id == good_artifact.model_id]
    slow_kinds = [e.kind for e in events
                  if e.model_id == slow_artifact.model_id]
    assert "complete" in good_kinds, good_kinds
    assert good_kinds.count("cutover") == N_FLEETS
    assert "rollback" in slow_kinds, slow_kinds
    assert "complete" not in slow_kinds
    # Rollback restored the promoted good model on every touched fleet.
    newest_by_fleet = {}
    for gen in report.generations:
        current = newest_by_fleet.get(gen.fleet)
        if current is None or gen.generation > current.generation:
            newest_by_fleet[gen.fleet] = gen
    assert len(newest_by_fleet) == N_FLEETS
    for gen in newest_by_fleet.values():
        assert gen.model_id == good_artifact.model_id

    # -- a replay is a pure function of (trace, config, artifacts) -----
    again = build().replay(trace)
    assert _fingerprint(again) == _fingerprint(report)


def test_cluster_soak_fused_engine(
    base_artifact, digits_small,
):
    """A cluster whose fleets serve large batches on the ``verified``
    engine (the name dates from fused batch dispatch).

    A flooded overload trace forces real batches on every fleet, and
    every cluster-scope invariant, including per-request execute spans
    and ``busy_ms`` accounting inside each generation, must hold.
    """
    n_requests = max(120, N_REQUESTS // 3)
    capacity = fleet_capacity_rps(base_artifact, 2)
    trace = synthetic_trace(
        n_requests, 3.0 * capacity, 64, seed=53,
        inputs=digits_small.x_test,
    )
    cluster = Cluster(
        base_artifact,
        ClusterConfig(
            n_fleets=2,
            serve=ServeConfig(
                n_devices=2, max_queue_depth=64, max_batch=16,
                engine="verified",
            ),
            router_policy="hash",
            tick_ms=trace[-1].arrival_ms / 20.0,
        ),
    )
    report = cluster.replay(trace)

    violations = verify_cluster_invariants(report, cluster.submitted_ids)
    assert not violations, "\n".join(violations)
    assert report.submitted == n_requests
    assert report.conserved
    largest = max(
        g.report.metrics["histograms"]["batch_size"]["max"]
        for g in report.generations
    )
    assert largest > 4, "flooded fleets should dispatch large batches"
