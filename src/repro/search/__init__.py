"""Distributed multi-fidelity hardware-aware architecture search.

Three stages per board — analytic screen, PTQ proxy, full QAT — over
the parallel work-unit runner, producing cached, resumable per-board
Pareto frontiers (accuracy x cycles x flash) the deploy planner can
consume as a model catalog.  See docs/search.md.
"""

from repro.search.engine import (
    SCHEMA,
    SearchReport,
    SearchSettings,
    promote,
    run_search,
)
from repro.search.frontier import (
    FrontierPoint,
    catalog_entries,
    hypervolume,
    load_frontier,
    pareto_points,
    reference_point,
)
from repro.search.space import (
    CandidateSpec,
    enumerate_space,
    sample_space,
)
from repro.search.stages import (
    analytic_screen,
    measure_on_board,
    stage2_unit,
    stage3_unit,
)

__all__ = [
    "SCHEMA",
    "CandidateSpec",
    "FrontierPoint",
    "SearchReport",
    "SearchSettings",
    "analytic_screen",
    "catalog_entries",
    "enumerate_space",
    "hypervolume",
    "load_frontier",
    "measure_on_board",
    "pareto_points",
    "promote",
    "reference_point",
    "run_search",
    "sample_space",
    "stage2_unit",
    "stage3_unit",
]
