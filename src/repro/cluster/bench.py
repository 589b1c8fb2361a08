"""Cluster scaling benchmark: goodput and tail latency vs fleet count.

One reusable sweep shared by ``repro cluster-bench`` and the
``benchmarks/test_cluster_scaling.py`` regression: replay an open-loop
trace at a multiple of a single fleet's capacity (10x and up — the
regime where the serve-level bench saturates) across a grid of fleet
counts and router policies, optionally firing a rolling deploy
mid-replay, and record one row per configuration:

* p50/p95/p99 completion latency (exact, merged across generations);
* goodput (completed requests per simulated second) — under overload
  this must grow monotonically with fleet count, which the benchmark
  asserts;
* shed/failed counts, router policy, and the deploy-event timeline.

Every row is invariant-checked with
:func:`~repro.cluster.invariants.verify_cluster_invariants` before it
is recorded; a benchmark that loses requests does not produce numbers.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.deploy import SLOPolicy
from repro.cluster.invariants import verify_cluster_invariants
from repro.deploy.artifact import VERIFIED_ENGINE
from repro.errors import ConfigurationError, VerificationError
from repro.serve.registry import ModelArtifact
from repro.serve.runtime import ServeConfig
from repro.serve.trace import synthetic_trace

DEFAULT_FLEET_COUNTS = (1, 2, 4)
DEFAULT_POLICIES = ("hash", "least-queue-wait")


def fleet_capacity_rps(
    artifact: ModelArtifact, devices_per_fleet: int
) -> float:
    """Ideal single-fleet service rate, requests per simulated second."""
    if devices_per_fleet < 1:
        raise ConfigurationError("need at least one device")
    return devices_per_fleet * 1e3 / artifact.deployment.latency_ms


def run_cluster_once(
    artifact: ModelArtifact,
    *,
    n_fleets: int,
    policy: str,
    requests: int,
    rate_rps: float,
    devices_per_fleet: int = 4,
    queue_depth: int = 64,
    seed: int = 0,
    inputs=None,
    deploy_artifact: ModelArtifact | None = None,
    deploy_at_ms: float = 0.0,
    slo: SLOPolicy | None = None,
    tick_ms: float = 25.0,
    engine: str = VERIFIED_ENGINE,
) -> dict[str, Any]:
    """One cell of the sweep: build, replay, verify, summarize."""
    trace = synthetic_trace(
        requests, rate_rps, artifact.deployed.quantized.n_in,
        seed=seed, inputs=inputs,
    )
    config = ClusterConfig(
        n_fleets=n_fleets,
        serve=ServeConfig(
            n_devices=devices_per_fleet,
            max_queue_depth=queue_depth,
            engine=engine,
        ),
        router_policy=policy,
        router_seed=seed,
        tick_ms=tick_ms,
    )
    cluster = Cluster(artifact, config)
    if deploy_artifact is not None:
        cluster.schedule_deploy(deploy_artifact, deploy_at_ms, slo=slo)
    report = cluster.replay(trace)
    violations = verify_cluster_invariants(
        report, cluster.submitted_ids
    )
    if violations:
        raise VerificationError(
            f"cluster bench (fleets={n_fleets}, policy={policy}) "
            "violated invariants:\n" + "\n".join(violations)
        )
    return {
        "n_fleets": n_fleets,
        "router_policy": policy,
        "engine": engine,
        "devices_per_fleet": devices_per_fleet,
        "requests": requests,
        "rate_rps": rate_rps,
        "offered": report.offered,
        "completed": report.completed,
        "rejected": report.rejected,
        "failed": report.failed,
        "goodput_rps": report.goodput_rps,
        "makespan_ms": report.makespan_ms,
        "latency_p50_ms": report.latency_ms["p50"],
        "latency_p95_ms": report.latency_ms["p95"],
        "latency_p99_ms": report.latency_ms["p99"],
        "generations": len(report.generations),
        "deploy_events": [
            {
                "time_ms": event.time_ms,
                "kind": event.kind,
                "fleet": event.fleet,
                "model_id": event.model_id,
                "detail": event.detail,
            }
            for event in report.deploy_events
        ],
    }


def run_cluster_scaling(
    artifact: ModelArtifact,
    *,
    fleet_counts=DEFAULT_FLEET_COUNTS,
    policies=DEFAULT_POLICIES,
    requests: int = 400,
    load_factor: float = 10.0,
    devices_per_fleet: int = 4,
    queue_depth: int = 64,
    seed: int = 0,
    inputs=None,
    engine: str = VERIFIED_ENGINE,
) -> dict[str, Any]:
    """The full sweep: fleet counts x router policies at fixed load.

    The offered rate is ``load_factor`` x one fleet's ideal capacity,
    held constant across the sweep, so adding fleets converts shed
    requests into goodput — the scaling curve the JSON records.
    """
    capacity = fleet_capacity_rps(artifact, devices_per_fleet)
    rate = load_factor * capacity
    rows = [
        run_cluster_once(
            artifact,
            n_fleets=n_fleets,
            policy=policy,
            requests=requests,
            rate_rps=rate,
            devices_per_fleet=devices_per_fleet,
            queue_depth=queue_depth,
            seed=seed,
            inputs=inputs,
            engine=engine,
        )
        for policy in policies
        for n_fleets in fleet_counts
    ]
    return {
        "model_id": artifact.model_id,
        "engine": engine,
        "single_fleet_capacity_rps": capacity,
        "load_factor": load_factor,
        "rate_rps": rate,
        "requests": requests,
        "devices_per_fleet": devices_per_fleet,
        "fleet_counts": list(fleet_counts),
        "policies": list(policies),
        "rows": rows,
    }


def format_scaling(result: dict[str, Any]) -> str:
    """Human-readable table of the sweep (printed by the CLI/bench)."""
    lines = [
        f"cluster scaling @ {result['rate_rps']:.0f} req/sim-s "
        f"({result['load_factor']:.0f}x single-fleet capacity, "
        f"{result['devices_per_fleet']} devices/fleet)",
        f"{'policy':<18} {'fleets':>6} {'goodput':>10} "
        f"{'p50':>8} {'p99':>8} {'shed':>6}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['router_policy']:<18} {row['n_fleets']:>6} "
            f"{row['goodput_rps']:>10.1f} "
            f"{row['latency_p50_ms']:>8.2f} "
            f"{row['latency_p99_ms']:>8.2f} "
            f"{row['rejected']:>6}"
        )
    return "\n".join(lines)
