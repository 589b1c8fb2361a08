"""Intermittent execution: correctness under any power schedule."""

import numpy as np
import pytest

from repro.deploy.artifact import DeployedModel
from repro.deploy.deployer import deploy
from repro.errors import ConfigurationError, ExecutionError
from repro.mcu.board import BOARD_PROFILES
from repro.mcu.intermittent import (
    IntermittentDeployment,
    PowerBudget,
)


@pytest.fixture(scope="module")
def deployment(trained_neuroc):
    deployed = DeployedModel(trained_neuroc.quantized, "block")
    return IntermittentDeployment(deployed)


class TestIntermittentExecution:
    def test_generous_budget_completes_in_one_power_cycle(
        self, deployment, digits_small
    ):
        budget = PowerBudget(cycles_per_charge=10_000_000)
        run = deployment.run(digits_small.x_test[0], budget)
        assert run.completed
        assert run.power_cycles_used == 1
        assert run.wasted_cycles == 0

    def test_tight_budget_needs_multiple_charges(
        self, deployment, digits_small
    ):
        minimum = deployment.minimum_charge_cycles()
        run = deployment.run(
            digits_small.x_test[0], PowerBudget(minimum)
        )
        assert run.completed
        assert run.power_cycles_used >= 2

    def test_results_identical_across_power_schedules(
        self, deployment, digits_small
    ):
        x = digits_small.x_test[3]
        generous = deployment.run(x, PowerBudget(10_000_000))
        tight = deployment.run(
            x, PowerBudget(deployment.minimum_charge_cycles())
        )
        assert np.array_equal(generous.logits, tight.logits)
        assert generous.label == tight.label

    def test_overhead_accounting(self, deployment, digits_small):
        run = deployment.run(
            digits_small.x_test[0],
            PowerBudget(deployment.minimum_charge_cycles() * 2),
        )
        assert run.total_cycles == (
            run.compute_cycles + run.checkpoint_cycles + run.wasted_cycles
        )
        assert run.checkpoint_cycles > 0

    def test_starvation_detected(self, deployment, digits_small):
        too_small = deployment.minimum_charge_cycles() - 1
        with pytest.raises(ExecutionError, match="forward progress"):
            deployment.run(digits_small.x_test[0], PowerBudget(too_small))

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            PowerBudget(0)


class TestForwardProgressBoundary:
    """ISSUE-9 satellite: the guard threshold IS minimum_charge_cycles().

    Every post-reboot charge only supplies ``cycles_per_charge -
    RESTORE_OVERHEAD_CYCLES`` of useful work, so the admission guard must
    include the restore overhead — a guard on the bare layer+checkpoint
    unit would admit a charge that then spins against the power-cycle
    limit with a misleading error.  These tests pin the exact boundary
    on both sides so the guard and ``minimum_charge_cycles()`` can never
    drift apart again.
    """

    def test_exact_minimum_charge_completes(self, deployment, digits_small):
        minimum = deployment.minimum_charge_cycles()
        run = deployment.run(digits_small.x_test[1], PowerBudget(minimum))
        assert run.completed
        # Progress every charge: each reboot's usable window (minimum
        # minus restore) covers the worst layer+checkpoint unit, so the
        # run can never need more charges than units of work.
        assert run.power_cycles_used <= len(
            deployment.deployed.quantized.specs
        ) + 1

    def test_one_cycle_below_minimum_raises_immediately_not_a_spin(
        self, deployment, digits_small
    ):
        from repro.mcu.intermittent import RESTORE_OVERHEAD_CYCLES

        minimum = deployment.minimum_charge_cycles()
        # Anywhere in (bare unit, minimum): enough for the largest unit
        # on the *first* charge, not after a restore — the starvation
        # hazard the guard exists for.  It must be the typed
        # forward-progress error, never the power-cycle-limit error a
        # spin would eventually hit.
        for charge in (minimum - 1, minimum - RESTORE_OVERHEAD_CYCLES + 1):
            with pytest.raises(ExecutionError, match="forward progress"):
                deployment.run(
                    digits_small.x_test[1], PowerBudget(charge)
                )

    def test_guard_threshold_includes_restore_overhead(self, deployment):
        from repro.mcu.intermittent import (
            CHECKPOINT_CYCLES_PER_BYTE,
            RESTORE_OVERHEAD_CYCLES,
        )

        worst_bare = max(
            layer + checkpoint
            for layer, checkpoint in zip(
                deployment._layer_costs, deployment._checkpoint_costs
            )
        )
        assert deployment.minimum_charge_cycles() == (
            worst_bare + RESTORE_OVERHEAD_CYCLES
        )
        assert CHECKPOINT_CYCLES_PER_BYTE > 0


class TestBoardPricing:
    """Each layer costs its verified WCET bound on the model's own board,
    never another board's cost table."""

    @pytest.mark.parametrize("board_name", sorted(BOARD_PROFILES))
    def test_compute_cycles_are_the_boards_bounds(
        self, trained_neuroc, digits_small, board_name
    ):
        model = deploy(
            trained_neuroc.quantized, "block",
            board=BOARD_PROFILES[board_name],
        ).model
        x = digits_small.x_test[0]
        run = IntermittentDeployment(model).run(x, PowerBudget(10**9))
        assert run.power_cycles_used == 1
        assert run.compute_cycles == sum(model.layer_cycle_bounds()) \
            == model.infer(x).cycles
