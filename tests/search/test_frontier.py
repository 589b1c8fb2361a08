"""Pareto frontier math: dominance, hypervolume, artifact roundtrip."""

import pytest

from repro.search import (
    FrontierPoint,
    catalog_entries,
    hypervolume,
    load_frontier,
    pareto_points,
    reference_point,
)
from repro.search.engine import BoardFunnel, SearchReport, SearchSettings


def point(key, acc, cycles, flash, board="STM32F072RB"):
    return FrontierPoint(
        key=key, board=board, accuracy=acc, cycles=cycles,
        latency_ms=cycles / 48_000.0, flash_kb=flash, nnz=100,
        spec={"strategy": "random", "hidden": [48], "threshold": 0.84,
              "encoding": "block", "act_width": 1},
    )


class TestDominance:
    def test_strict_dominance(self):
        better = point("a", 0.9, 1000, 4.0)
        worse = point("b", 0.8, 2000, 8.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_points_do_not_dominate(self):
        a, b = point("a", 0.9, 1000, 4.0), point("b", 0.9, 1000, 4.0)
        assert not a.dominates(b) and not b.dominates(a)

    def test_tradeoffs_do_not_dominate(self):
        fast = point("fast", 0.7, 500, 2.0)
        accurate = point("acc", 0.95, 5000, 9.0)
        assert not fast.dominates(accurate)
        assert not accurate.dominates(fast)


class TestParetoPoints:
    def test_dominated_points_removed(self):
        pts = [
            point("a", 0.9, 1000, 4.0),
            point("b", 0.8, 2000, 8.0),   # dominated by a
            point("c", 0.95, 5000, 9.0),  # tradeoff: survives
        ]
        frontier = pareto_points(pts)
        assert [p.key for p in frontier] == ["a", "c"]

    def test_duplicate_objective_vectors_collapse(self):
        pts = [point("b", 0.9, 1000, 4.0), point("a", 0.9, 1000, 4.0)]
        frontier = pareto_points(pts)
        assert len(frontier) == 1
        assert frontier[0].key == "a"  # first by key

    def test_sorted_by_cycles(self):
        pts = [point("slow", 0.95, 5000, 2.0), point("fast", 0.7, 500, 9.0)]
        assert [p.key for p in pareto_points(pts)] == ["fast", "slow"]


class TestHypervolume:
    def test_single_point_box(self):
        pts = [point("a", 0.5, 100, 2.0)]
        # Box: accuracy 0.5 x cycles (1000-100) x flash (10-2).
        assert hypervolume(pts, (0.0, 1000.0, 10.0)) == pytest.approx(
            0.5 * 900 * 8
        )

    def test_superset_never_smaller(self):
        base = [point("a", 0.5, 500, 5.0)]
        more = base + [point("b", 0.9, 900, 9.0)]
        ref = reference_point(more)
        assert hypervolume(more, ref) >= hypervolume(base, ref)

    def test_dominating_point_strictly_larger(self):
        ref = (0.0, 1000.0, 10.0)
        worse = [point("w", 0.5, 500, 5.0)]
        better = [point("b", 0.7, 400, 4.0)]
        assert hypervolume(better, ref) > hypervolume(worse, ref)

    def test_dominated_point_adds_nothing(self):
        ref = (0.0, 1000.0, 10.0)
        frontier = [point("a", 0.8, 300, 3.0)]
        padded = frontier + [point("d", 0.6, 500, 5.0)]
        assert hypervolume(padded, ref) == pytest.approx(
            hypervolume(frontier, ref)
        )

    def test_out_of_ref_points_ignored(self):
        assert hypervolume(
            [point("x", 0.5, 2000, 2.0)], (0.0, 1000.0, 10.0)
        ) == 0.0
        assert hypervolume([], (0.0, 1.0, 1.0)) == 0.0

    def test_reference_point_spans_all_sets(self):
        a = [point("a", 0.5, 500, 5.0)]
        b = [point("b", 0.9, 900, 9.0)]
        acc, cycles, flash = reference_point(a, b)
        assert acc == 0.0
        assert cycles == pytest.approx(1.05 * 900)
        assert flash == pytest.approx(1.05 * 9.0)
        assert reference_point() == (0.0, 1.0, 1.0)


def write_report(path, frontiers):
    """A search artifact, written the way ``repro search --out`` does,
    holding ``frontiers``."""
    report = SearchReport(
        settings=SearchSettings(boards=tuple(frontiers)), mode="staged",
        count=0, stage2_epochs=1, qat_epochs=1,
        funnels={
            board: BoardFunnel(board=board, frontier=points)
            for board, points in frontiers.items()
        },
    )
    return report.write_artifact(path)


class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        frontiers = {
            "STM32F072RB": [point("a", 0.9, 1000, 4.0)],
            "Kinetis-K64F": [point("b", 0.8, 700, 3.0, "Kinetis-K64F")],
        }
        path = write_report(tmp_path / "frontier.json", frontiers)
        assert load_frontier(path) == frontiers

    def test_catalog_entries_flatten(self, tmp_path):
        frontiers = {
            "STM32F072RB": [point("a", 0.9, 1000, 4.0)],
            "Kinetis-K64F": [point("b", 0.8, 700, 3.0, "Kinetis-K64F")],
        }
        path = write_report(tmp_path / "frontier.json", frontiers)
        entries = catalog_entries(path)
        assert {e["key"] for e in entries} == {"a", "b"}
        assert all(
            {"board", "accuracy", "cycles", "flash_kb"} <= set(e)
            for e in entries
        )
