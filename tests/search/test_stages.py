"""The three evaluation fidelities on a small dataset."""

import pytest

from repro.deploy.planner import DeploySLO
from repro.mcu.board import BOARD_PROFILES, STM32F072RB, board_by_name
from repro.search import CandidateSpec, analytic_screen, measure_on_board
from repro.search.stages import stage2_unit, stage3_unit

DATASET_KEY = {"name": "digits_like", "n_train": 600, "n_test": 200,
               "seed": 0}


def small_spec(**overrides):
    params = dict(
        strategy="quantization", hidden=(48,), threshold=0.84,
        encoding="block", act_width=1,
    )
    params.update(overrides)
    return CandidateSpec(**params)


class TestAnalyticScreen:
    def screen(self, spec, board=STM32F072RB, **slo):
        config = spec.to_config(64, 10, seed=0)
        (row,) = analytic_screen(spec, config, [board], DeploySLO(**slo))
        return row

    def test_one_row_per_board_in_board_order(self):
        spec = small_spec()
        boards = list(BOARD_PROFILES.values())
        slo = DeploySLO(max_latency_ms=0.05, max_flash_kb=600.0)
        rows = analytic_screen(
            spec, spec.to_config(64, 10, seed=0), boards, slo
        )
        assert rows == [
            self.screen(spec, board, max_latency_ms=0.05,
                        max_flash_kb=600.0)
            for board in boards
        ]
        # Flash is priced once; cycles follow each board's cost table.
        assert len({row["flash_kb"] for row in rows}) == 1
        assert len({row["cycles"] for row in rows}) > 1

    def test_small_config_admitted_unconstrained(self):
        row = self.screen(small_spec())
        assert row["admitted"] and row["reason"] == ""
        assert row["cycles"] > 0 and row["flash_kb"] > 0
        assert row["board"] == "STM32F072RB"
        assert row["key"] == small_spec().key

    def test_flash_slo_rejects_large_config(self):
        row = self.screen(
            small_spec(hidden=(256, 256)), max_flash_kb=4.0
        )
        assert not row["admitted"]
        assert "KB" in row["reason"]

    def test_device_budget_rejects_big_board(self):
        big = board_by_name("STM32H747XI")
        row = self.screen(small_spec(), board=big, max_flash_kb=64.0)
        assert not row["admitted"]
        assert "device budget" in row["reason"]

    def test_latency_slo_rejects_slow_config(self):
        row = self.screen(
            small_spec(hidden=(256, 256), encoding="csc"),
            max_latency_ms=0.05,
        )
        assert not row["admitted"]
        assert "cycle" in row["reason"]

    def test_latency_screen_has_slack(self):
        # The screen admits up to 1.25x the budget: an untrained
        # adjacency only approximates the trained nnz.
        spec = small_spec()
        row = self.screen(spec)
        board = STM32F072RB
        exact_ms = row["cycles"] / board.ms_to_cycles(1.0)
        just_under = self.screen(spec, max_latency_ms=exact_ms / 1.2)
        assert just_under["admitted"]


class TestStage2Unit:
    def test_proxy_evaluation_end_to_end(self):
        row = stage2_unit(
            small_spec().to_dict(), DATASET_KEY, "STM32F072RB",
            epochs=8, lr=0.01, cand_seed=7,
        )
        assert row["error"] == ""
        assert row["stage"] == 2
        assert row["fits"] is True
        assert row["cycles"] > 0 and row["flash_kb"] > 0
        assert row["nnz"] > 0
        # The proxy is low-fidelity but far better than chance, and
        # never better than its own float parent by a wide margin.
        assert row["proxy_accuracy"] > 0.3
        assert row["float_accuracy"] > row["proxy_accuracy"] - 0.05

    def test_deterministic(self):
        args = (
            small_spec().to_dict(), DATASET_KEY, "STM32F072RB", 2, 0.01,
            7,
        )
        assert stage2_unit(*args) == stage2_unit(*args)

    def test_fixed_strategy_uses_design_time_support(self):
        row = stage2_unit(
            small_spec(strategy="random").to_dict(), DATASET_KEY,
            "STM32F072RB", epochs=2, lr=0.01, cand_seed=7,
        )
        assert row["error"] == ""
        # density = (1 - 0.84) / 2 = 0.08 of the 64x48 + 48x10 grids,
        # minus whatever the float weights zeroed; the support caps nnz.
        assert 0 < row["nnz"] <= int(0.08 * (64 * 48 + 48 * 10)) + 58


class TestStage3Unit:
    def test_full_qat_end_to_end(self):
        row = stage3_unit(
            small_spec().to_dict(), DATASET_KEY, "STM32F072RB",
            epochs=10, lr=0.01, cand_seed=7,
        )
        assert row["error"] == ""
        assert row["stage"] == 3
        assert row["fits"] is True
        assert row["accuracy"] > 0.5
        assert row["cycles"] > 0 and row["nnz"] > 0


class TestMeasureOnBoard:
    def test_measured_cycles_match_analytic(self, trained_neuroc):
        from repro.deploy.artifact import analytic_model_cycles

        quantized = trained_neuroc.quantized
        metrics = measure_on_board(quantized, "block", STM32F072RB)
        assert metrics["fits"] is True
        # The repo's latency-agreement contract: the cycle-exact
        # simulator measures exactly what the analytic model prices.
        assert metrics["cycles"] == analytic_model_cycles(
            quantized, "block", STM32F072RB
        )
        assert metrics["latency_ms"] == pytest.approx(
            STM32F072RB.cycles_to_ms(metrics["cycles"])
        )
