"""Heterogeneous fleets: mixed board classes behind one router (ISSUE 9).

The same trained model is registered once per board profile — each
registration is a distinct content-addressed artifact with its own
per-board latency model — and a cluster flashes one fleet per board.
The latency-aware router policies (`least-queue-wait`, `deadline-p2c`)
then route on each fleet's own ``est_queue_wait_ms``, which is derived
from the artifact's per-board ``cycles_to_ms`` latency.  Every
cluster-scope invariant must hold exactly as on a homogeneous cluster.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    verify_cluster_invariants,
)
from repro.mcu.board import (
    CORTEX_M4_REFERENCE,
    CORTEX_M7_REFERENCE,
    STM32F072RB,
)
from repro.serve import ServeConfig, synthetic_trace

N_REQUESTS = int(os.environ.get("REPRO_CLUSTER_SOAK_REQUESTS", "900")) // 3

#: Slow → fast: 8 MHz M0, 120 MHz M4, 480 MHz M7.
MIXED_BOARDS = (STM32F072RB, CORTEX_M4_REFERENCE, CORTEX_M7_REFERENCE)


@pytest.fixture(scope="module")
def mixed_artifacts(cluster_registry, digits_small):
    """One artifact per board class, same weights, shared registry."""
    from repro.core.neuroc import NeuroCConfig, train_neuroc

    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="hetero", seed=5,
    )
    trained = train_neuroc(config, digits_small, epochs=10, lr=0.01)
    return tuple(
        cluster_registry.register(trained.quantized, board=board)
        for board in MIXED_BOARDS
    )


def test_per_board_artifacts_are_distinct(mixed_artifacts):
    ids = {artifact.model_id for artifact in mixed_artifacts}
    assert len(ids) == len(MIXED_BOARDS)
    latencies = [a.deployment.latency_ms for a in mixed_artifacts]
    # Strictly faster boards: M0 > M4 > M7 per-inference latency.
    assert latencies[0] > latencies[1] > latencies[2]


def test_fleets_flash_artifacts_round_robin(mixed_artifacts):
    cluster = Cluster(
        mixed_artifacts,
        ClusterConfig(
            n_fleets=4,
            serve=ServeConfig(n_devices=1),
            router_policy="hash",
        ),
    )
    report = cluster.replay([])
    by_fleet = {gen.fleet: gen.model_id for gen in report.generations}
    expected = {
        f"fleet-{fleet}":
            mixed_artifacts[fleet % len(mixed_artifacts)].model_id
        for fleet in range(4)
    }
    assert by_fleet == expected


def test_mixed_board_soak_least_queue_wait(
    mixed_artifacts, digits_small,
):
    """Flooded mixed-board cluster under `least-queue-wait`: invariants
    hold, and the router demonstrably shifts load toward the faster
    boards (whose queues drain quicker)."""
    from repro.cluster import fleet_capacity_rps

    # Price the flood against the *slowest* fleet so its queue builds.
    capacity = fleet_capacity_rps(mixed_artifacts[0], 2)
    trace = synthetic_trace(
        N_REQUESTS, 6.0 * capacity, 64, seed=61,
        inputs=digits_small.x_test,
    )
    cluster = Cluster(
        mixed_artifacts,
        ClusterConfig(
            n_fleets=len(MIXED_BOARDS),
            serve=ServeConfig(n_devices=2, max_queue_depth=16),
            router_policy="least-queue-wait",
            tick_ms=trace[-1].arrival_ms / 20.0,
        ),
    )
    report = cluster.replay(trace)

    violations = verify_cluster_invariants(report, cluster.submitted_ids)
    assert not violations, "\n".join(violations)
    assert report.submitted == N_REQUESTS
    assert report.conserved
    assert report.completed > 0

    # Per-fleet completions: the M7 fleet's est_queue_wait_ms is ~60x
    # smaller per queued request than the M0 fleet's, so the router
    # must push the bulk of the flood at the faster boards.
    completed = {}
    for gen in report.generations:
        counts = gen.report.metrics["counters"]
        completed[gen.fleet] = completed.get(gen.fleet, 0) + int(
            counts.get("requests.completed", 0)
        )
    m0_fleet, m7_fleet = "fleet-0", "fleet-2"
    assert completed[m7_fleet] > completed[m0_fleet], completed


def test_mixed_board_deadline_p2c(
    mixed_artifacts, digits_small,
):
    """`deadline-p2c` on a mixed cluster: per-board wait estimates feed
    the slack filter, every invariant holds, deadlines are honored."""
    from repro.cluster import fleet_capacity_rps

    n_requests = max(60, N_REQUESTS // 2)
    capacity = fleet_capacity_rps(mixed_artifacts[0], 2)
    # Deadline: generous vs the fast boards, tight vs a queued-up M0.
    deadline_ms = 4.0 * mixed_artifacts[0].deployment.latency_ms
    trace = synthetic_trace(
        n_requests, 4.0 * capacity, 64, seed=67,
        deadline_ms=deadline_ms, inputs=digits_small.x_test,
    )
    cluster = Cluster(
        mixed_artifacts,
        ClusterConfig(
            n_fleets=len(MIXED_BOARDS),
            serve=ServeConfig(n_devices=2, max_queue_depth=16),
            router_policy="deadline-p2c",
            router_seed=7,
            tick_ms=trace[-1].arrival_ms / 20.0,
        ),
    )
    report = cluster.replay(trace)

    violations = verify_cluster_invariants(report, cluster.submitted_ids)
    assert not violations, "\n".join(violations)
    assert report.submitted == n_requests
    assert report.conserved
    assert report.completed > 0
