"""The staged engine: funnel, promotion, settings, caching, artifacts."""

import json

import pytest

from repro.deploy.planner import DeploySLO, plan_from_catalog
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.cache import clear_memory_cache
from repro.search import engine
from repro.search import (
    SearchReport,
    SearchSettings,
    catalog_entries,
    pareto_points,
    promote,
    run_search,
    sample_space,
)

SMALL = dict(
    dataset="digits_like", n_train=400, n_test=150,
    count=6, stage2_epochs=2, qat_epochs=3, lr=0.01,
)

#: The training seed every sweep so far gave the first sampled
#: candidate at sweep seed 0.
PINNED_SEED = 1258388023


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    runner.reset_timings()
    yield
    clear_memory_cache()


class TestSettings:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SearchSettings(mode="turbo")
        with pytest.raises(ConfigurationError):
            SearchSettings(boards=())
        with pytest.raises(ConfigurationError):
            SearchSettings(boards=("NoSuchBoard",))
        with pytest.raises(ConfigurationError):
            SearchSettings(promote_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SearchSettings(min_promote=0)

    def test_global_epoch_cap_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_EPOCHS", "2")
        settings = SearchSettings(stage2_epochs=8, qat_epochs=24)
        assert settings.resolved_stage2_epochs() == 2
        assert settings.resolved_qat_epochs() == 2

    def test_unit_keys_embed_identity(self):
        settings = SearchSettings(**SMALL)
        spec = sample_space(1, settings.seed)[0]
        key = settings.unit_key(2, spec, ("STM32F072RB",), 2)
        assert key.startswith("search-v2-s2-")
        assert settings.dataset_tag in key
        assert spec.key in key
        assert "STM32F072RB+Kinetis-K64F" in settings.unit_key(
            2, spec, ("STM32F072RB", "Kinetis-K64F"), 2
        )
        # Seeds derive from spec identity, not sample position.
        assert settings.candidate_seed(spec) == SearchSettings(
            **SMALL
        ).candidate_seed(spec)

    def test_candidate_seed_ignores_cache_schema(self, monkeypatch):
        # A change to the cache format must not retrain different
        # models: seeds stay what every earlier sweep trained with.
        settings = SearchSettings(**SMALL)
        spec = sample_space(1, settings.seed)[0]
        assert spec.key == "quantization-256-t0.80-delta-w1"
        assert settings.candidate_seed(spec) == PINNED_SEED
        monkeypatch.setattr(engine, "SCHEMA", "search-v99")
        assert settings.candidate_seed(spec) == PINNED_SEED


class TestPromote:
    ROWS = [
        {"key": "a", "fits": True, "proxy_accuracy": 0.9, "error": ""},
        {"key": "b", "fits": True, "proxy_accuracy": 0.7, "error": ""},
        {"key": "c", "fits": False, "proxy_accuracy": 0.95, "error": ""},
        {"key": "d", "fits": True, "proxy_accuracy": 0.5, "error": ""},
        {"key": "e", "fits": True, "proxy_accuracy": 0.99,
         "error": "QuantizationError: boom"},
    ]

    def test_top_fraction_promotes_fitting_first(self):
        keys = promote(self.ROWS, promote_fraction=0.5, min_promote=1)
        # 4 eligible -> quota 2; fitting candidates outrank the
        # non-fitting one regardless of its higher proxy accuracy.
        assert keys == ["a", "b"]

    def test_min_promote_floor(self):
        keys = promote(self.ROWS, promote_fraction=0.01, min_promote=3)
        assert len(keys) == 3

    def test_errored_rows_never_promote(self):
        keys = promote(self.ROWS, promote_fraction=1.0, min_promote=1)
        assert "e" not in keys and len(keys) == 4

    def test_all_errored_promotes_nothing(self):
        rows = [dict(r, error="x") for r in self.ROWS]
        assert promote(rows, 1.0, 5) == []


class TestRunSearch:
    def run(self, jobs=1, **overrides):
        params = dict(SMALL)
        params.update(overrides)
        return run_search(SearchSettings(**params), jobs=jobs)

    def test_staged_funnel_narrows(self):
        report = self.run()
        funnel = report.funnels["STM32F072RB"]
        counts = funnel.counts
        assert counts["enumerated"] == SMALL["count"]
        assert counts["stage1_admitted"] <= counts["enumerated"]
        assert counts["stage2_evaluated"] == counts["stage1_admitted"]
        assert counts["promoted"] < counts["stage2_evaluated"]
        assert counts["stage3_trained"] == counts["promoted"]
        assert 1 <= counts["frontier"] <= counts["stage3_trained"]
        # Strictly fewer full-QAT trainings than candidates: the point
        # of the staged design.
        assert report.qat_units < report.count

    def test_frontier_is_nondominated(self):
        report = self.run()
        frontier = report.funnels["STM32F072RB"].frontier
        assert pareto_points(frontier) == frontier

    def test_flat_mode_trains_everything(self):
        report = self.run(mode="flat", count=3)
        funnel = report.funnels["STM32F072RB"]
        assert funnel.stage2_evaluated == 0
        assert funnel.promoted == 3
        assert funnel.stage3_trained == 3
        assert report.mode == "flat"

    def test_warm_rerun_computes_zero_units(self):
        self.run()
        runner.reset_timings()
        clear_memory_cache()  # memo gone: only the disk cache remains
        report = self.run()
        assert sum(run.cold_units for run in runner.runs()) == 0
        assert report.qat_units > 0

    def test_rerun_is_byte_identical(self):
        first = self.run().to_json()
        clear_memory_cache()
        second = self.run().to_json()
        assert first == second

    def test_multiboard_sweep_shares_units(self):
        report = self.run(boards=("STM32F072RB", "Kinetis-K64F"),
                          count=3, mode="flat")
        assert set(report.funnels) == {"STM32F072RB", "Kinetis-K64F"}
        # One map_units call served both boards' stage-3 sweeps, with
        # one training per candidate for both boards.
        stage3_runs = [
            r for r in runner.runs() if r.figure == "search-stage3"
        ]
        assert len(stage3_runs) == 1
        assert stage3_runs[0].units == 3
        assert report.qat_units == 6

    def test_board_subsets_get_one_board_sweep_rows(self):
        # The 8 MHz STM32F072RB admits fewer candidates than the faster
        # boards under a latency bound, so units cover different board
        # subsets; each funnel must still equal its one-board sweep.
        boards = ("STM32F072RB", "Kinetis-K64F", "FE310-G002")
        params = dict(count=8, max_latency_ms=1.0)
        report = self.run(boards=boards, **params)
        admitted = {
            name: report.funnels[name].stage1_admitted for name in boards
        }
        assert 0 < admitted["STM32F072RB"] < admitted["Kinetis-K64F"]
        stage2_runs = [
            r for r in runner.runs() if r.figure == "search-stage2"
        ]
        assert stage2_runs[0].units == max(admitted.values())
        for name in boards:
            alone = self.run(boards=(name,), **params).funnels[name]
            funnel = report.funnels[name]
            assert funnel.counts == alone.counts
            assert funnel.stage1 == alone.stage1
            assert funnel.stage2 == alone.stage2
            assert funnel.stage3 == alone.stage3
            assert funnel.frontier == alone.frontier

    def test_latency_slo_screens_before_training(self):
        report = self.run(max_latency_ms=0.2)
        funnel = report.funnels["STM32F072RB"]
        assert funnel.stage1_admitted < funnel.enumerated
        rejected = [r for r in funnel.stage1 if not r["admitted"]]
        assert rejected and all(r["reason"] for r in rejected)


class TestArtifactAndCatalog:
    def test_artifact_roundtrip_feeds_planner(self, tmp_path):
        report = run_search(SearchSettings(**SMALL), jobs=1)
        path = tmp_path / "artifact.json"
        report.write_artifact(path)

        payload = json.loads(path.read_text())
        assert payload["schema"] == "search-v2"
        assert payload["qat_units"] == report.qat_units

        # The planner reads the very file the report wrote.
        entries = catalog_entries(path)
        assert entries == [
            p.to_dict()
            for _, points in sorted(report.frontiers.items())
            for p in points
        ]
        plan = plan_from_catalog(entries, DeploySLO(max_latency_ms=50.0))
        best = max(
            (e for e in entries), key=lambda e: e["accuracy"]
        )
        assert plan.chosen.accuracy <= best["accuracy"] + 1e-9
        assert plan.chosen.feasible

    def test_report_payload_sorts_boards(self):
        report = SearchReport(
            settings=SearchSettings(**SMALL), mode="staged",
            count=0, stage2_epochs=1, qat_epochs=1, funnels={},
        )
        assert list(report.to_payload()["boards"]) == []
