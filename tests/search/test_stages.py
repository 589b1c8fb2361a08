"""The three evaluation fidelities on a small dataset."""

import pytest

from repro.deploy.deployer import deploy
from repro.deploy.planner import DeploySLO
from repro.errors import BudgetExceededError, QuantizationError
from repro.kernels.codegen_sparse import SPARSE_FORMATS
from repro.mcu.board import BOARD_PROFILES, STM32F072RB, board_by_name
from repro.nn.trainer import Trainer
from repro.quantize.ptq import quantize_model
from repro.search import CandidateSpec, analytic_screen, measure_on_board
from repro.search import stages
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
        (row,) = stage2_unit(
            small_spec().to_dict(), DATASET_KEY, ["STM32F072RB"],
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
            small_spec().to_dict(), DATASET_KEY,
            ["STM32F072RB", "FE310-G002"], 2, 0.01, 7,
        )
        rows = stage2_unit(*args)
        assert [row["board"] for row in rows] == list(args[2])
        assert rows == stage2_unit(*args)

    def test_fixed_strategy_uses_design_time_support(self):
        (row,) = stage2_unit(
            small_spec(strategy="random").to_dict(), DATASET_KEY,
            ["STM32F072RB"], epochs=2, lr=0.01, cand_seed=7,
        )
        assert row["error"] == ""
        # density = (1 - 0.84) / 2 = 0.08 of the 64x48 + 48x10 grids,
        # minus whatever the float weights zeroed; the support caps nnz.
        assert 0 < row["nnz"] <= int(0.08 * (64 * 48 + 48 * 10)) + 58


class TestStage3Unit:
    def test_full_qat_end_to_end(self):
        (row,) = stage3_unit(
            small_spec().to_dict(), DATASET_KEY, ["STM32F072RB"],
            epochs=10, lr=0.01, cand_seed=7,
        )
        assert row["error"] == ""
        assert row["stage"] == 3
        assert row["fits"] is True
        assert row["accuracy"] > 0.5
        assert row["cycles"] > 0 and row["nnz"] > 0


BOARDS = list(BOARD_PROFILES)


class TestOneTrainingForEveryBoard:
    """A unit trains its candidate once and measures it on each board;
    each row is the one a unit for that board alone returns."""

    @pytest.mark.parametrize("unit", [stage2_unit, stage3_unit],
                             ids=["stage2", "stage3"])
    def test_rows_equal_one_board_units(self, unit, monkeypatch):
        fits = []
        original = Trainer.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Trainer, "fit", counting_fit)
        spec = small_spec(hidden=(24,), encoding="csc").to_dict()
        rows = unit(spec, DATASET_KEY, BOARDS, 2, 0.01, 7)
        assert len(fits) == 1
        assert rows == [
            row
            for board in BOARDS
            for row in unit(spec, DATASET_KEY, [board], 2, 0.01, 7)
        ]
        assert len({row["cycles"] for row in rows}) > 1

    def test_training_error_marks_every_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise QuantizationError("dead layer")

        monkeypatch.setattr(stages, "quantize_model", fail)
        rows = stage2_unit(small_spec().to_dict(), DATASET_KEY, BOARDS,
                           1, 0.01, 7)
        assert [row["board"] for row in rows] == BOARDS
        for row in rows:
            assert row["error"] == "QuantizationError: dead layer"
            assert row["cycles"] == 0 and row["fits"] is False

    def test_no_dense_export_is_made(self, monkeypatch):
        """Stage 2 exports only the ternarized model: the float MLP is
        never int8-quantized or scored, so an export of it that would
        raise cannot mark the rows."""
        import repro.core.neuroc as neuroc

        def fail(*args, **kwargs):
            raise QuantizationError("dense export")

        monkeypatch.setattr(neuroc, "quantize_model", fail)
        rows = stage2_unit(small_spec().to_dict(), DATASET_KEY, BOARDS,
                           1, 0.01, 7)
        for row in rows:
            assert row["error"] == ""
            assert row["cycles"] > 0 and row["proxy_accuracy"] > 0.0

    def test_measuring_error_marks_only_its_board(self, monkeypatch):
        measure = stages.measure_on_board

        def fail_on_k64f(quantized, encoding, board):
            if board.name == "Kinetis-K64F":
                raise BudgetExceededError("no room")
            return measure(quantized, encoding, board)

        monkeypatch.setattr(stages, "measure_on_board", fail_on_k64f)
        rows = stage2_unit(small_spec().to_dict(), DATASET_KEY, BOARDS,
                           1, 0.01, 7)
        for board, row in zip(BOARDS, rows):
            if board == "Kinetis-K64F":
                assert row["error"] == "BudgetExceededError: no room"
                assert row["cycles"] == 0 and row["proxy_accuracy"] == 0.0
            else:
                assert row["error"] == "" and row["cycles"] > 0

    def test_scoring_error_keeps_measured_fields(self, monkeypatch):
        export = stages.quantize_model

        def unscorable(*args, **kwargs):
            quantized = export(*args, **kwargs)

            def fail(x, y):
                raise QuantizationError("test row overflows")

            quantized.accuracy = fail
            return quantized

        monkeypatch.setattr(stages, "quantize_model", unscorable)
        rows = stage2_unit(small_spec().to_dict(), DATASET_KEY, BOARDS,
                           1, 0.01, 7)
        for row in rows:
            assert row["error"] == "QuantizationError: test row overflows"
            assert row["cycles"] > 0 and row["fits"] is True
            assert row["proxy_accuracy"] == 0.0 and row["nnz"] == 0


@pytest.fixture(scope="module")
def two_byte_model(trained_neuroc, digits_small):
    return quantize_model(
        trained_neuroc.model, digits_small.x_train[:256], act_width=2
    )


class TestMeasureOnBoard:
    @pytest.mark.parametrize("encoding", SPARSE_FORMATS)
    @pytest.mark.parametrize("width", [1, 2])
    def test_static_cycles_equal_tier1_cycles(
        self, width, encoding, trained_neuroc, two_byte_model,
        digits_small,
    ):
        # The cycle contract behind the static count: the tier-1 CPU
        # measures exactly what measure_on_board charges, on every
        # board.
        quantized = (
            trained_neuroc.quantized if width == 1 else two_byte_model
        )
        assert quantized.act_width == width
        x = digits_small.x_test[0]
        for board in BOARD_PROFILES.values():
            metrics = measure_on_board(quantized, encoding, board)
            assert metrics["fits"] is True
            deployment = deploy(quantized, format_name=encoding,
                                board=board, verify=False,
                                engine="fastpath")
            assert deployment.model.infer(x).cycles == metrics["cycles"]
            assert metrics["latency_ms"] == board.cycles_to_ms(
                metrics["cycles"]
            )
