"""Intermittent (energy-harvesting) execution of Neuro-C inference.

The paper motivates ultra-low-power inference with energy-harvesting
deployments (§2, citing battery-less systems).  Such devices lose power
mid-computation and must resume from non-volatile checkpoints.  This
module models the standard JIT-checkpointing scheme on top of the
layer-sequential Neuro-C deployment:

- energy arrives in bounded *power cycles* (a capacitor charge),
- the natural checkpoint boundary is a layer: after each layer, the
  live state is just one activation buffer — tiny, thanks to the paper's
  static buffer design — so a checkpoint copies that buffer (plus the
  layer index) to FRAM/flash at a per-byte cost,
- if the budget dies mid-layer, the layer restarts from its input
  checkpoint (layers are idempotent: they read one buffer and write
  another, so re-execution is safe — the same §4.1 property the
  preemption model relies on).

The simulation produces the forward progress / recharge-count trade-off,
and the tests assert the headline invariant: the final logits under any
power schedule are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ExecutionError

#: FRAM-style checkpoint cost per byte, in CPU cycles (write + verify).
CHECKPOINT_CYCLES_PER_BYTE = 4
#: Fixed cost of a restore (locate checkpoint, rehydrate the buffer).
RESTORE_OVERHEAD_CYCLES = 400


@dataclass(frozen=True)
class PowerBudget:
    """Energy per power cycle, expressed in CPU cycles of work."""

    cycles_per_charge: int

    def __post_init__(self) -> None:
        if self.cycles_per_charge <= 0:
            raise ConfigurationError("charge budget must be positive")


@dataclass(frozen=True)
class IntermittentCharge:
    """What one inference costs under a charge budget.

    A function of the budget alone: every kernel's cost is its
    input-independent WCET bound, so each inference of a model under one
    budget pays the same.
    """

    power_cycles_used: int
    total_cycles: int            # compute + checkpoints + restores
    compute_cycles: int          # useful work (incl. re-execution)
    checkpoint_cycles: int
    wasted_cycles: int           # progress lost to mid-layer power loss


@dataclass(frozen=True)
class IntermittentRun(IntermittentCharge):
    """Outcome of one inference across power failures."""

    logits: np.ndarray
    label: int
    completed: bool


class IntermittentDeployment:
    """Runs a deployed model under an intermittent power supply.

    ``deployed`` is a :class:`repro.deploy.DeployedModel`.  Each layer
    costs its verified WCET bound (``deployed.layer_cycle_bounds()``),
    priced on the board the model was deployed to.
    """

    def __init__(self, deployed) -> None:
        self.deployed = deployed
        self._layer_costs = deployed.layer_cycle_bounds()
        self._checkpoint_costs = self._per_layer_checkpoint_cycles()

    def _per_layer_checkpoint_cycles(self) -> list[int]:
        costs = []
        for spec in self.deployed.quantized.specs:
            state_bytes = spec.n_out * spec.act_out_width + 4  # + layer id
            costs.append(state_bytes * CHECKPOINT_CYCLES_PER_BYTE)
        return costs

    def charge(
        self,
        budget: PowerBudget,
        max_power_cycles: int = 10_000,
    ) -> IntermittentCharge:
        """What one inference costs under the given charge budget.

        The smallest layer+checkpoint unit must fit one charge, or the
        device can never make forward progress (the classic intermittent-
        computing non-termination hazard) — detected and reported as an
        ``ExecutionError``.

        The guard threshold is exactly :meth:`minimum_charge_cycles` (one
        definition, not a re-derivation): it must include the restore
        overhead, because every post-reboot charge only supplies
        ``cycles_per_charge - RESTORE_OVERHEAD_CYCLES`` of useful work —
        a guard on the bare layer+checkpoint unit would admit a charge
        that then spins against the power-cycle limit.
        """
        worst_unit = self.minimum_charge_cycles()
        if budget.cycles_per_charge < worst_unit:
            raise ExecutionError(
                f"no forward progress possible: a charge supplies "
                f"{budget.cycles_per_charge} cycles but the largest "
                f"layer + checkpoint unit needs {worst_unit}"
            )

        layer = 0
        remaining = budget.cycles_per_charge
        power_cycles = 1
        compute = checkpointed = wasted = 0
        n_layers = len(self._layer_costs)

        while layer < n_layers:
            need = self._layer_costs[layer] + self._checkpoint_costs[layer]
            if remaining >= need:
                remaining -= need
                compute += self._layer_costs[layer]
                checkpointed += self._checkpoint_costs[layer]
                layer += 1
                continue
            # Power dies mid-layer: everything since the last checkpoint
            # is lost; reboot, restore, retry on a fresh charge.
            wasted += max(remaining, 0)
            power_cycles += 1
            if power_cycles > max_power_cycles:
                raise ExecutionError(
                    "exceeded the power-cycle limit without completing"
                )
            remaining = budget.cycles_per_charge - RESTORE_OVERHEAD_CYCLES
            checkpointed += RESTORE_OVERHEAD_CYCLES

        return IntermittentCharge(
            power_cycles_used=power_cycles,
            total_cycles=compute + checkpointed + wasted,
            compute_cycles=compute,
            checkpoint_cycles=checkpointed,
            wasted_cycles=wasted,
        )

    def run(
        self,
        x: np.ndarray,
        budget: PowerBudget,
        max_power_cycles: int = 10_000,
    ) -> IntermittentRun:
        """One inference under the given charge budget: :meth:`charge`
        plus the label.

        The numeric result is charge-schedule independent: layers are
        idempotent over their checkpointed inputs.  So it comes from the
        deployed model's normal path.
        """
        charge = self.charge(budget, max_power_cycles)
        result = self.deployed.infer(x)
        return IntermittentRun(
            **vars(charge),
            logits=result.logits,
            label=result.label,
            completed=True,
        )

    def minimum_charge_cycles(self) -> int:
        """Smallest viable charge: the worst layer + checkpoint + restore."""
        return max(
            layer + checkpoint
            for layer, checkpoint in zip(
                self._layer_costs, self._checkpoint_costs
            )
        ) + RESTORE_OVERHEAD_CYCLES
