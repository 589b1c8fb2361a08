"""Sharded multi-fleet serving: routing and rolling deploys.

The layer above :mod:`repro.serve`: a :class:`Cluster` replays a
finite trace through a fixed set of N independent fleets (each a full
serve runtime with its own simulated device pool) behind a
:class:`Router` with pluggable policies, and rolls new model versions
across fleets with zero-downtime blue/green :class:`Deployer` cutovers
gated by an SLO probe with automatic rollback.  ``docs/cluster.md``
has the architecture walk-through; :mod:`repro.cluster.invariants`
states and checks the cluster-scope correctness laws.
"""

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
    generation_namespace,
)
from repro.cluster.invariants import verify_cluster_invariants
from repro.cluster.router import (
    ROUTER_POLICIES,
    NoRoutableFleetError,
    Router,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterReport",
    "DeployEvent",
    "Deployer",
    "Fleet",
    "FleetGeneration",
    "GenerationReport",
    "NoRoutableFleetError",
    "ROUTER_POLICIES",
    "Router",
    "SLOPolicy",
    "fleet_capacity_rps",
    "format_scaling",
    "generation_namespace",
    "run_cluster_once",
    "run_cluster_scaling",
    "verify_cluster_invariants",
]
