"""Figure 1: adjacency strategies vs parameter count (digits dataset).

Protocol (§3.2): single hidden layer on the 8×8 digits task; grid over
hidden sizes and sparsity levels for each of the four strategies (random,
constrained random, locality, quantization-aware).  Parameter count is the
paper's definition — neurons plus non-zero adjacency entries.

Claim reproduced: the quantization-based strategy achieves the highest
accuracy for a given parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adjacency import FIXED_STRATEGIES
from repro.core.neuroc import NeuroCConfig, build_neuroc
from repro.datasets import load
from repro.experiments import runner
from repro.experiments.tables import format_table
from repro.nn.optimizers import Adam
from repro.nn.trainer import TrainConfig, Trainer

#: v2: one cache entry per (strategy, hidden, level) training unit with a
#: unit-key-derived trainer seed, and whole-array fixed-adjacency
#: generators (different RNG stream, same distributions).
SCHEMA = "fig1-v2"

#: Training epochs per grid point (before the ``REPRO_MAX_EPOCHS`` cap).
EPOCHS = 30
HIDDEN_GRID = (16, 32, 64)
DENSITY_GRID = (0.05, 0.1, 0.2)
#: Thresholds giving the quantization strategy a comparable sparsity sweep
#: (latent init is U(-1,1), so threshold ≈ resulting zero fraction).
THRESHOLD_GRID = (0.95, 0.9, 0.8)
#: Parameter budgets of the per-strategy frontier.
BUDGETS = (600, 1200, 2400)


@dataclass(frozen=True)
class StrategyPoint:
    strategy: str
    hidden: int
    level: float          # density (fixed) or threshold (quantization)
    parameters: int
    accuracy: float


def _unit_key(strategy: str, hidden: int, level: float,
              epochs: int) -> str:
    return f"{SCHEMA}-{strategy}-h{hidden}-l{level}-e{epochs}"


def _train_point(
    strategy: str, hidden: int, level: float, epochs: int
) -> dict:
    """One training unit (runs in a worker process when jobs > 1)."""
    dataset = load("digits_like")
    if strategy == "quantization":
        config = NeuroCConfig(
            n_in=dataset.num_features, n_out=dataset.num_classes,
            hidden=(hidden,), threshold=level, strategy="quantization",
            name=f"fig1-quant-{hidden}-{level}",
        )
    else:
        config = NeuroCConfig(
            n_in=dataset.num_features, n_out=dataset.num_classes,
            hidden=(hidden,), strategy=strategy, fixed_density=level,
            image_shape=dataset.image_shape[:2],
            name=f"fig1-{strategy}-{hidden}-{level}",
        )
    model = build_neuroc(config)
    x_train, y_train, x_val, y_val = dataset.split_validation()
    seed = runner.unit_seed(_unit_key(strategy, hidden, level, epochs))
    Trainer(model, Adam(0.006), rng=np.random.default_rng(seed)).fit(
        x_train, y_train, x_val, y_val, TrainConfig(epochs=epochs)
    )
    return {
        "strategy": strategy,
        "hidden": hidden,
        "level": level,
        "parameters": model.parameter_count,
        "accuracy": model.accuracy(dataset.x_test, dataset.y_test),
    }


def grid_units(epochs: int) -> list[runner.WorkUnit]:
    """The figure's independent training units, one per grid point."""
    units = []
    for strategy in FIXED_STRATEGIES + ("quantization",):
        levels = (
            THRESHOLD_GRID if strategy == "quantization"
            else DENSITY_GRID
        )
        for hidden in HIDDEN_GRID:
            for level in levels:
                units.append(runner.WorkUnit(
                    key=_unit_key(strategy, hidden, level, epochs),
                    fn=_train_point,
                    args=(strategy, hidden, level, epochs),
                ))
    return units


def run_fig1() -> list[StrategyPoint]:
    """Train the full strategy × size × sparsity grid (cached)."""
    epochs = runner.effective_epochs(EPOCHS)
    raw = runner.map_units(
        "fig1", grid_units(epochs), setup=lambda: load("digits_like"),
    )
    return [StrategyPoint(**p) for p in raw]


def frontier_by_strategy(
    points: list[StrategyPoint],
) -> dict[str, dict[int, float]]:
    """Best accuracy per strategy under each of :data:`BUDGETS`."""
    out: dict[str, dict[int, float]] = {}
    for point in points:
        row = out.setdefault(point.strategy, {})
        for budget in BUDGETS:
            if point.parameters <= budget:
                row[budget] = max(row.get(budget, 0.0), point.accuracy)
    return out


def quantization_wins(points: list[StrategyPoint]) -> bool:
    """The figure's claim: quantization dominates every budget where all
    strategies have at least one configuration."""
    frontier = frontier_by_strategy(points)
    quant = frontier.get("quantization", {})
    for budget, best in quant.items():
        for strategy, row in frontier.items():
            if strategy == "quantization" or budget not in row:
                continue
            if row[budget] > best:
                return False
    return bool(quant)


def format_fig1(points: list[StrategyPoint]) -> str:
    rows = [
        (p.strategy, p.hidden, p.level, p.parameters, f"{p.accuracy:.3f}")
        for p in sorted(points, key=lambda p: (p.strategy, p.parameters))
    ]
    return format_table(
        ("strategy", "hidden", "level", "params", "accuracy"),
        rows,
        title="Figure 1: test accuracy vs parameters per adjacency "
              "strategy (digits_like)",
    )
