"""SLO-driven deployment planning (ISSUE-9 tentpole acceptance).

The planner must demonstrably choose *different* (encoding, engine,
board) tuples for tight-latency vs tight-flash SLOs, admit candidates
through the ceiling cycle budget, and reject infeasible SLOs with the
full search table.
"""

import pytest

from repro.deploy import DeploySLO, plan_deployment
from repro.deploy.planner import rejection_reason
from repro.errors import BudgetExceededError, ConfigurationError
from repro.kernels.codegen_sparse import SPARSE_FORMATS
from repro.mcu.board import BOARD_PROFILES, STM32F072RB


class TestPlanSpace:
    def test_considers_every_encoding_on_every_board(self, trained_neuroc):
        plan = plan_deployment(trained_neuroc.quantized, verify=False)
        assert len(plan.considered) == (
            len(BOARD_PROFILES) * len(SPARSE_FORMATS)
        )
        seen = {c.choice for c in plan.considered}
        assert len(seen) == len(plan.considered)

    def test_candidates_are_priced_with_board_cost_tables(
        self, trained_neuroc
    ):
        plan = plan_deployment(trained_neuroc.quantized, verify=False)
        by_board = {}
        for c in plan.considered:
            by_board.setdefault(c.board.name, set()).add(c.cycles)
        # Same program, different wait-state models: totals differ
        # between the M0 and the M4 (fetch_extra=1) for every encoding.
        assert by_board["STM32F072RB"].isdisjoint(by_board["Kinetis-K64F"])

    def test_empty_plan_space_is_typed(self, trained_neuroc):
        with pytest.raises(ConfigurationError):
            plan_deployment(trained_neuroc.quantized, boards=[])
        with pytest.raises(ConfigurationError):
            DeploySLO(max_latency_ms=-1.0)


class TestSLOObjectives:
    def test_tight_latency_and_tight_flash_choose_differently(
        self, trained_neuroc
    ):
        """The acceptance criterion: a tight deadline buys the fast
        Cortex-M7; a tight flash budget forces the small M0."""
        quantized = trained_neuroc.quantized
        tight_latency = plan_deployment(
            quantized, DeploySLO(max_latency_ms=0.05), verify=False
        )
        tight_flash = plan_deployment(
            quantized, DeploySLO(max_flash_kb=STM32F072RB.flash_kb),
            verify=False,
        )
        assert tight_latency.chosen.choice != tight_flash.chosen.choice
        assert tight_latency.chosen.board.name == "STM32H747XI"
        assert tight_flash.chosen.board.name == "STM32F072RB"

    def test_loose_latency_slo_prefers_the_small_board(self, trained_neuroc):
        # A deadline the 8 MHz M0 can make should not buy an M7.
        plan = plan_deployment(
            trained_neuroc.quantized, DeploySLO(max_latency_ms=5.0),
            verify=False,
        )
        assert plan.chosen.board.name == "STM32F072RB"

    def test_latency_admission_uses_the_ceiling_budget(self, trained_neuroc):
        """ISSUE-9 satellite boundary: an SLO exactly equal to a
        candidate's latency admits it — the ceiling budget covers the
        final partial cycle that banker's rounding used to drop."""
        probe = plan_deployment(trained_neuroc.quantized, verify=False)
        fastest = min(probe.considered, key=lambda c: c.latency_ms)
        exact = plan_deployment(
            trained_neuroc.quantized,
            DeploySLO(max_latency_ms=fastest.latency_ms),
            verify=False,
        )
        assert exact.chosen.cycles == fastest.cycles
        board = fastest.board
        assert board.ms_to_cycles(fastest.latency_ms) >= fastest.cycles

    def test_infeasible_slo_reports_the_rejection_table(
        self, trained_neuroc
    ):
        with pytest.raises(BudgetExceededError, match="no .* candidate"):
            plan_deployment(
                trained_neuroc.quantized,
                DeploySLO(max_latency_ms=1e-6),
                verify=False,
            )

    def test_chosen_deployment_is_built_and_consistent(self, trained_neuroc):
        plan = plan_deployment(
            trained_neuroc.quantized, DeploySLO(max_latency_ms=5.0),
            verify=False,
        )
        deployment = plan.deployment
        assert deployment.deployable
        assert deployment.board is plan.chosen.board
        assert deployment.format_name == plan.chosen.format_name
        assert deployment.model.engine == plan.chosen.engine
        assert deployment.latency_ms == pytest.approx(
            plan.chosen.latency_ms
        )


class TestCatalogPlanning:
    """plan_from_catalog: SLO admission over search-frontier rows."""

    @staticmethod
    def entry(key, board, accuracy, cycles, flash_kb):
        return {
            "key": key, "board": board, "accuracy": accuracy,
            "cycles": cycles, "flash_kb": flash_kb,
            "latency_ms": 0.0, "nnz": 100, "spec": {},
        }

    @pytest.fixture()
    def catalog(self):
        return [
            self.entry("small", "STM32F072RB", 0.82, 10_000, 4.0),
            self.entry("big", "STM32F072RB", 0.95, 60_000, 20.0),
            self.entry("fast", "STM32H747XI", 0.91, 6_000, 12.0),
        ]

    def test_unconstrained_picks_highest_accuracy(self, catalog):
        from repro.deploy import plan_from_catalog

        plan = plan_from_catalog(catalog)
        assert plan.chosen.key == "big"
        assert len(plan.feasible) == 3

    def test_latency_slo_filters_by_ceiling_cycle_budget(self, catalog):
        from repro.deploy import plan_from_catalog
        from repro.mcu.board import board_by_name

        f072 = board_by_name("STM32F072RB")
        # A budget that admits 10k cycles on the F072 but not 60k.
        budget_ms = 20_000 / f072.ms_to_cycles(1.0)
        plan = plan_from_catalog(
            catalog, DeploySLO(max_latency_ms=budget_ms)
        )
        rejected = {c.key for c in plan.considered if not c.feasible}
        assert "big" in rejected
        # The H7 entry clears the same wall-clock budget easily.
        assert plan.chosen.key in ("fast", "small")
        assert plan.chosen.accuracy == max(
            c.accuracy for c in plan.feasible
        )

    def test_flash_slo_caps_the_device_class(self, catalog):
        from repro.deploy import plan_from_catalog

        plan = plan_from_catalog(
            catalog, DeploySLO(max_flash_kb=STM32F072RB.flash_kb)
        )
        # The H7 carries more flash than the device budget allows.
        assert all(
            c.board.name != "STM32H747XI" for c in plan.feasible
        )
        assert plan.chosen.key == "big"

    def test_program_over_board_flash_is_rejected(self):
        from repro.deploy import plan_from_catalog

        oversized = [
            self.entry("huge", "STM32F072RB", 0.99, 1_000,
                       STM32F072RB.flash_kb + 1.0),
            self.entry("fits", "STM32F072RB", 0.5, 1_000, 4.0),
        ]
        plan = plan_from_catalog(oversized)
        assert plan.chosen.key == "fits"

    def test_impossible_slo_raises_with_table(self, catalog):
        from repro.deploy import plan_from_catalog

        with pytest.raises(BudgetExceededError, match="no catalog model"):
            plan_from_catalog(catalog, DeploySLO(max_latency_ms=1e-6))

    def test_empty_catalog_is_a_configuration_error(self):
        from repro.deploy import plan_from_catalog

        with pytest.raises(ConfigurationError):
            plan_from_catalog([])



class TestRejectionReason:
    """The one admission rule's reasons, word for word: they appear in
    the ``repro search`` artifact and the ``repro deploy`` table."""

    @pytest.mark.parametrize("cycles, flash_kb, slo, slack, reason", [
        (100, 1.0, DeploySLO(max_flash_kb=64.0), 1.0,
         "STM32F072RB carries 128 KB flash, over the 64 KB device "
         "budget"),
        (100, 200.0, DeploySLO(), 1.0,
         "needs 200.0 KB flash, STM32F072RB has 128 KB"),
        (100, 128.0, DeploySLO(max_flash_kb=128.0), 1.0, ""),
        (80, 2.0, DeploySLO(max_latency_ms=0.01), 1.0, ""),
        (100, 2.0, DeploySLO(max_latency_ms=0.01), 1.0,
         "100 cycles over the 80-cycle budget (0.01 ms on "
         "STM32F072RB)"),
        (100, 2.0, DeploySLO(max_latency_ms=0.01), 1.25, ""),
        (101, 2.0, DeploySLO(max_latency_ms=0.01), 1.25,
         "101 analytic cycles over 1.25x the 80-cycle budget (0.01 ms "
         "on STM32F072RB)"),
    ])
    def test_reasons(self, cycles, flash_kb, slo, slack, reason):
        assert rejection_reason(
            STM32F072RB, cycles, flash_kb, slo, slack
        ) == reason
