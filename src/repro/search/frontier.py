"""Per-board Pareto frontiers over (accuracy, cycles, flash).

The frontier is the search's product: the non-dominated set of fully
QAT-trained candidates per board, persisted in the search report's
artifact (:meth:`repro.search.engine.SearchReport.write_artifact`, the
file ``repro search --out`` writes), which
:func:`repro.deploy.planner.plan_from_catalog` consumes as a model
catalog through :func:`catalog_entries`.  Frontier quality is compared
via dominated hypervolume — the volume of objective space a frontier
covers against a shared reference point — which is the scalar the
staged-vs-flat benchmark asserts on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class FrontierPoint:
    """One fully-evaluated candidate on one board."""

    key: str
    board: str
    accuracy: float
    cycles: int
    latency_ms: float
    flash_kb: float
    nnz: int
    spec: dict

    def dominates(self, other: "FrontierPoint") -> bool:
        """Pareto dominance on (accuracy up, cycles down, flash down)."""
        at_least = (
            self.accuracy >= other.accuracy
            and self.cycles <= other.cycles
            and self.flash_kb <= other.flash_kb
        )
        strictly = (
            self.accuracy > other.accuracy
            or self.cycles < other.cycles
            or self.flash_kb < other.flash_kb
        )
        return at_least and strictly

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FrontierPoint":
        """Build from a frontier entry of an artifact, or from a stage-3
        unit row (see ``stages.stage3_unit``), which carries the same
        fields."""
        return cls(
            key=d["key"], board=d["board"],
            accuracy=float(d["accuracy"]), cycles=int(d["cycles"]),
            latency_ms=float(d["latency_ms"]),
            flash_kb=float(d["flash_kb"]), nnz=int(d["nnz"]),
            spec=dict(d["spec"]),
        )


def pareto_points(
    points: Iterable[FrontierPoint],
) -> list[FrontierPoint]:
    """Non-dominated points, sorted by ascending cycles then key."""
    pts = list(points)
    frontier = [
        p for p in pts
        if not any(other.dominates(p) for other in pts)
    ]
    # Duplicate objective vectors all survive the dominance filter;
    # keep one per vector (first by key) so the frontier is a set.
    seen: set[tuple] = set()
    unique = []
    for p in sorted(frontier, key=lambda p: (p.cycles, p.key)):
        vec = (p.accuracy, p.cycles, p.flash_kb)
        if vec in seen:
            continue
        seen.add(vec)
        unique.append(p)
    return unique


def reference_point(
    *point_sets: Sequence[FrontierPoint],
) -> tuple[float, float, float]:
    """A reference point weakly dominated by every point of every set.

    Hypervolumes are only comparable against a *shared* reference, so
    the staged-vs-flat benchmark derives one from the union of both
    frontiers: zero accuracy, and 5% beyond the worst cycles/flash seen.
    """
    pts = [p for ps in point_sets for p in ps]
    if not pts:
        return (0.0, 1.0, 1.0)
    return (
        0.0,
        1.05 * max(p.cycles for p in pts),
        1.05 * max(p.flash_kb for p in pts),
    )


def _staircase_area(
    rects: list[tuple[float, float]], cycles_ref: float, flash_ref: float
) -> float:
    """Area of the union of boxes ``[c, cycles_ref] x [f, flash_ref]``."""
    area = 0.0
    best_flash = flash_ref
    for cycles, flash in sorted(set(rects)):
        if flash < best_flash:
            area += (cycles_ref - cycles) * (best_flash - flash)
            best_flash = flash
    return area


def hypervolume(
    points: Sequence[FrontierPoint],
    ref: tuple[float, float, float],
) -> float:
    """Dominated hypervolume of a point set against ``ref``.

    ``ref`` is ``(accuracy_ref, cycles_ref, flash_ref)`` — the worst
    corner.  Computed exactly by slicing accuracy into slabs and
    summing 2-D staircase areas, which is plenty for frontier-sized
    sets.
    """
    acc_ref, cycles_ref, flash_ref = ref
    pts = [
        (p.accuracy, float(p.cycles), p.flash_kb)
        for p in points
        if p.accuracy > acc_ref
        and p.cycles < cycles_ref
        and p.flash_kb < flash_ref
    ]
    if not pts:
        return 0.0
    levels = sorted({a for a, _, _ in pts}, reverse=True)
    volume = 0.0
    active: list[tuple[float, float]] = []
    for i, level in enumerate(levels):
        active.extend(
            (c, f) for a, c, f in pts if a == level
        )
        lower = levels[i + 1] if i + 1 < len(levels) else acc_ref
        volume += (level - lower) * _staircase_area(
            active, cycles_ref, flash_ref
        )
    return volume


def load_frontier(path: str | Path) -> dict[str, list[FrontierPoint]]:
    """Load the per-board frontiers of a search artifact back into typed
    points."""
    payload = json.loads(Path(path).read_text())
    return {
        board: [FrontierPoint.from_dict(d) for d in funnel["frontier"]]
        for board, funnel in payload["boards"].items()
    }


def catalog_entries(path: str | Path) -> list[dict]:
    """Flatten a search artifact's frontiers into planner catalog rows."""
    return [
        p.to_dict()
        for points in load_frontier(path).values()
        for p in points
    ]
