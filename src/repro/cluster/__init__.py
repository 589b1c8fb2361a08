"""Sharded multi-fleet serving: routing, autoscaling, rolling deploys.

The layer above :mod:`repro.serve`: a :class:`Cluster` runs N
independent fleets (each a full serve runtime with its own simulated
device pool) behind a :class:`Router` with pluggable policies, grows
and shrinks the fleet set with a hysteresis :class:`Autoscaler` on the
simulated clock, and rolls new model versions across fleets with
zero-downtime blue/green :class:`Deployer` cutovers gated by an SLO
probe with automatic rollback.  ``docs/cluster.md`` has the
architecture walk-through; :mod:`repro.cluster.invariants` states and
checks the cluster-scope correctness laws.
"""

from repro.cluster.autoscaler import (
    SCALE_DOWN,
    SCALE_UP,
    Autoscaler,
    AutoscalerConfig,
    ScaleDecision,
)
from repro.cluster.bench import (
    fleet_capacity_rps,
    format_scaling,
    run_cluster_once,
    run_cluster_scaling,
)
from repro.cluster.cluster import (
    Cluster,
    ClusterConfig,
    ClusterReport,
    GenerationReport,
)
from repro.cluster.deploy import (
    DeployEvent,
    Deployer,
    SLOPolicy,
)
from repro.cluster.fleet import (
    Fleet,
    FleetGeneration,
    FleetSignals,
)
from repro.cluster.invariants import (
    generation_namespace,
    verify_cluster_invariants,
)
from repro.cluster.router import (
    ROUTER_POLICIES,
    NoRoutableFleetError,
    Router,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "Cluster",
    "ClusterConfig",
    "ClusterReport",
    "DeployEvent",
    "Deployer",
    "Fleet",
    "FleetGeneration",
    "FleetSignals",
    "GenerationReport",
    "NoRoutableFleetError",
    "ROUTER_POLICIES",
    "Router",
    "SCALE_DOWN",
    "SCALE_UP",
    "SLOPolicy",
    "ScaleDecision",
    "fleet_capacity_rps",
    "format_scaling",
    "generation_namespace",
    "run_cluster_once",
    "run_cluster_scaling",
    "verify_cluster_invariants",
]
