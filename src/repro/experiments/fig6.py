"""Figure 6: MLP vs Neuro-C on MNIST (accuracy, latency, program memory).

Four panels, one protocol (§5.2):

- 6a: random search over MLP configurations; accuracy vs parameter count,
  with the deployability frontier at the board's 128 KB flash.
- 6b: inference latency of the *deployable* MLPs vs parameter count
  (grows linearly).
- 6c/6d: three accuracy tiers (small/medium/large Neuro-C); each Neuro-C
  model is paired with the smallest searched MLP matching its accuracy,
  and latency / program memory are compared.

Training results are cached as JSON under ``.repro_cache/`` — delete the
directory to retrain from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mlp import train_mlp
from repro.core.neuroc import train_neuroc
from repro.core.search import paper_board_metrics, random_mlp_configs
from repro.core.zoo import zoo_entry
from repro.datasets import load
from repro.experiments import runner
from repro.experiments.tables import format_table

#: v2: one cache entry per searched configuration / per tier (the unit
#: granularity the parallel runner fans out over).
SCHEMA = "fig6-v2"

#: Search budget: enough configurations to populate the accuracy/size
#: point cloud on both sides of the deployability frontier.
SEARCH_COUNT = 28
SEARCH_EPOCHS = 18


def search_count() -> int:
    """``REPRO_FIG6_SEARCH_COUNT`` override (CI smoke runs shrink it)."""
    return runner.env_int("REPRO_FIG6_SEARCH_COUNT", SEARCH_COUNT)

#: The three §5.2 tiers and their zoo keys.
TIERS = ("small", "medium", "large")


@dataclass(frozen=True)
class MLPPoint:
    name: str
    hidden: tuple[int, ...]
    accuracy: float
    parameters: int
    memory_kb: float
    latency_ms: float
    deployable: bool


@dataclass(frozen=True)
class NeuroCPoint:
    tier: str
    accuracy: float
    parameters: int
    nnz: int
    memory_kb: float
    latency_ms: float
    deployable: bool


@dataclass(frozen=True)
class TierComparison:
    tier: str
    neuroc: NeuroCPoint
    mlp: MLPPoint | None     # None when no searched MLP reaches the tier


def _search_unit(index: int, count: int, epochs: int,
                 seed: int) -> dict:
    """Train and evaluate searched configuration ``index``.

    The worker regenerates the (deterministic) configuration list and
    trains exactly one entry — the unit is a pure function of
    ``(index, count, epochs, seed)``.
    """
    dataset = load("mnist_like")
    configs = random_mlp_configs(
        dataset.num_features, dataset.num_classes,
        count=count, seed=seed,
    )
    config = configs[index]
    trained = train_mlp(config, dataset, epochs=epochs)
    memory_kb, latency_ms, deployable = paper_board_metrics(
        trained.quantized
    )
    return {
        "name": config.name,
        "hidden": list(config.hidden),
        "accuracy": trained.quantized_accuracy,
        "parameters": trained.parameter_count,
        "memory_kb": memory_kb,
        "latency_ms": latency_ms,
        "deployable": deployable,
    }


def search_units(seed: int = 0) -> list[runner.WorkUnit]:
    count = search_count()
    epochs = runner.effective_epochs(SEARCH_EPOCHS)
    return [
        runner.WorkUnit(
            key=f"{SCHEMA}-search-c{count}-e{epochs}-s{seed}-i{index:02d}",
            fn=_search_unit,
            args=(index, count, epochs, seed),
        )
        for index in range(count)
    ]


def mlp_search_points(
    seed: int = 0, jobs: int | None = None
) -> list[MLPPoint]:
    """Figure 6a/6b's point cloud (cached per configuration)."""
    raw = runner.map_units(
        "fig6-search", search_units(seed), jobs=jobs,
        setup=lambda: load("mnist_like"),
    )
    return [
        MLPPoint(
            name=r["name"], hidden=tuple(r["hidden"]),
            accuracy=r["accuracy"], parameters=r["parameters"],
            memory_kb=r["memory_kb"], latency_ms=r["latency_ms"],
            deployable=r["deployable"],
        )
        for r in raw
    ]


def _tier_unit(tier: str, epochs: int) -> dict:
    """Train one Neuro-C zoo tier (a single parallelizable unit)."""
    dataset = load("mnist_like")
    entry = zoo_entry(f"mnist-{tier}")
    trained = train_neuroc(
        entry.config, dataset, epochs=epochs, lr=entry.lr
    )
    memory_kb, latency_ms, deployable = paper_board_metrics(
        trained.quantized
    )
    return {
        "accuracy": trained.quantized_accuracy,
        "parameters": trained.parameter_count,
        "nnz": sum(
            layer.nnz for layer in trained.model.neuroc_layers()
        ),
        "memory_kb": memory_kb,
        "latency_ms": latency_ms,
        "deployable": deployable,
    }


def tier_units() -> list[runner.WorkUnit]:
    units = []
    for tier in TIERS:
        epochs = runner.effective_epochs(zoo_entry(f"mnist-{tier}").epochs)
        units.append(runner.WorkUnit(
            key=f"{SCHEMA}-neuroc-{tier}-e{epochs}",
            fn=_tier_unit, args=(tier, epochs),
        ))
    return units


def neuroc_tier_points(jobs: int | None = None) -> dict[str, NeuroCPoint]:
    """Train (or load) the three MNIST zoo scales."""
    raw = runner.map_units(
        "fig6-tiers", tier_units(), jobs=jobs,
        setup=lambda: load("mnist_like"),
    )
    return {
        tier: NeuroCPoint(tier=tier, **row)
        for tier, row in zip(TIERS, raw)
    }


def tier_comparisons(
    seed: int = 0, jobs: int | None = None
) -> list[TierComparison]:
    """Figure 6c/6d: pair each tier with the smallest matching MLP.

    The one §5.2 pairing rule: the searched MLP with the fewest
    parameters whose accuracy is at least the tier's minus 0.002,
    deployable or not (the paper pairs its large tier with a >200 KB
    MLP).
    """
    mlps = mlp_search_points(seed, jobs=jobs)
    tiers = neuroc_tier_points(jobs=jobs)
    comparisons = []
    for tier in TIERS:
        neuroc = tiers[tier]
        candidates = [
            m for m in mlps if m.accuracy >= neuroc.accuracy - 0.002
        ]
        mlp = (
            min(candidates, key=lambda m: m.parameters)
            if candidates else None
        )
        comparisons.append(TierComparison(tier=tier, neuroc=neuroc,
                                          mlp=mlp))
    return comparisons


def latency_reduction(comparison: TierComparison) -> float | None:
    """Fractional latency saving of Neuro-C over its paired MLP."""
    if comparison.mlp is None:
        return None
    return 1.0 - comparison.neuroc.latency_ms / comparison.mlp.latency_ms


def memory_reduction(comparison: TierComparison) -> float | None:
    if comparison.mlp is None:
        return None
    return 1.0 - comparison.neuroc.memory_kb / comparison.mlp.memory_kb


def format_fig6a(points: list[MLPPoint]) -> str:
    rows = [
        (p.name, "x".join(map(str, p.hidden)), p.parameters,
         f"{p.memory_kb:.1f}", f"{p.accuracy:.4f}", p.deployable)
        for p in sorted(points, key=lambda p: p.parameters)
    ]
    return format_table(
        ("config", "hidden", "params", "flash KB", "accuracy",
         "deployable"),
        rows,
        title="Figure 6a: MLP accuracy vs size (mnist_like); "
              "deployability frontier at 128 KB",
    )


def format_fig6b(points: list[MLPPoint]) -> str:
    rows = [
        (p.name, p.parameters, f"{p.latency_ms:.1f}")
        for p in sorted(points, key=lambda p: p.parameters)
        if p.deployable
    ]
    return format_table(
        ("config", "params", "latency ms"),
        rows,
        title="Figure 6b: deployable MLP latency vs size "
              "(linear in parameters)",
    )


def format_fig6cd(comparisons: list[TierComparison]) -> str:
    rows = []
    for c in comparisons:
        rows.append(
            (
                c.tier,
                f"{c.neuroc.accuracy:.4f}",
                f"{c.neuroc.latency_ms:.1f}",
                f"{c.neuroc.memory_kb:.1f}",
                f"{c.mlp.accuracy:.4f}" if c.mlp else None,
                f"{c.mlp.latency_ms:.1f}" if c.mlp else None,
                f"{c.mlp.memory_kb:.1f}" if c.mlp else None,
                c.mlp.deployable if c.mlp else None,
            )
        )
    return format_table(
        ("tier", "nc acc", "nc ms", "nc KB", "mlp acc", "mlp ms",
         "mlp KB", "mlp fits"),
        rows,
        title="Figure 6c/6d: latency and program memory at matched "
              "accuracy",
    )
