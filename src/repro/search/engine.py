"""Staged search engine: screen -> PTQ proxy -> QAT, over the runner.

Every stage-2/3 evaluation is one :class:`~repro.experiments.runner.
WorkUnit` per candidate, covering every board that admitted (stage 2) or
promoted (stage 3) it: training never reads the board, so a candidate
trains once per stage.  Each unit has a content-derived cache key (spec
x dataset x boards x stage x epochs x lr x seed) and is mapped over
:func:`~repro.experiments.runner.map_units`:

- parallel at any ``--jobs`` (stage sweeps fan out over the process
  pool),
- byte-deterministic (unit results are pure functions of their keys, so
  reports and artifacts are identical at any job count),
- resumable mid-sweep — killing a sweep loses at most the in-flight
  units; the rerun serves finished ones from the disk cache and a fully
  warm rerun performs **zero** training units (the CI smoke job asserts
  this through the runner's timing registry).

The promotion rule is one round of successive halving: after stage 2,
the top ``promote_fraction`` of candidates per board (by proxy
accuracy, deployability first, spec key as the deterministic
tie-break) get full QAT; everything else stops at proxy fidelity.
``mode="flat"`` skips stages 1-2 and trains every candidate — the
full-fidelity baseline the benchmark compares against.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.deploy.planner import DeploySLO
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.mcu.board import board_by_name
from repro.search import stages
from repro.search.frontier import FrontierPoint, pareto_points
from repro.search.space import CandidateSpec, sample_space

#: Cache-key schema: bump when unit payloads or semantics change, then
#: ``repro cache-prune --stale-schemas`` reclaims the dead entries.
SCHEMA = "search-v2"

#: Namespace of the candidate training seeds.  Fixed on purpose, apart
#: from :data:`SCHEMA`: a change to the cache format must not retrain
#: different models.
SEED_NAMESPACE = "search-v1"

#: Defaults for the two sweep-budget fields (``--count`` and
#: ``--stage2-epochs`` on the command line).
DEFAULT_COUNT = 24
DEFAULT_STAGE2_EPOCHS = 8


@dataclass(frozen=True)
class SearchSettings:
    """Everything that identifies one search sweep.

    Every field that changes what a unit computes is embedded in the
    unit cache keys (through :meth:`dataset_tag` and the per-stage key
    format), so two sweeps with different settings never share cache
    entries.
    """

    dataset: str = "digits_like"
    n_train: int | None = None
    n_test: int | None = None
    dataset_seed: int = 0
    boards: tuple[str, ...] = ("STM32F072RB",)
    count: int = DEFAULT_COUNT
    seed: int = 0
    stage2_epochs: int = DEFAULT_STAGE2_EPOCHS
    qat_epochs: int = 24
    lr: float = 0.004
    promote_fraction: float = 0.25
    min_promote: int = 2
    max_latency_ms: float | None = None
    max_flash_kb: float | None = None
    mode: str = "staged"

    def __post_init__(self) -> None:
        if self.mode not in ("staged", "flat"):
            raise ConfigurationError(
                f"mode must be 'staged' or 'flat', got {self.mode!r}"
            )
        if not self.boards:
            raise ConfigurationError("search needs at least one board")
        for name in self.boards:
            board_by_name(name)
        if not 0.0 < self.promote_fraction <= 1.0:
            raise ConfigurationError(
                f"promote_fraction must be in (0, 1]: "
                f"{self.promote_fraction}"
            )
        if self.min_promote < 1:
            raise ConfigurationError("min_promote must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be non-negative, got {self.seed}"
            )
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigurationError(
                f"lr must be positive and finite, got {self.lr}"
            )
        self.slo  # the admission rule's input validates the bounds

    @property
    def slo(self) -> DeploySLO:
        """The sweep's SLO, as the stage-1 screen admits against it."""
        return DeploySLO(
            max_latency_ms=self.max_latency_ms,
            max_flash_kb=self.max_flash_kb,
        )

    # -- knob resolution ---------------------------------------------------

    def resolved_count(self) -> int:
        if self.count < 1:
            raise ConfigurationError(
                f"search count must be >= 1, got {self.count}"
            )
        return self.count

    def resolved_stage2_epochs(self) -> int:
        """The ``stage2_epochs`` field under the global
        ``REPRO_MAX_EPOCHS`` cap."""
        if self.stage2_epochs < 1:
            raise ConfigurationError(
                f"stage-2 epochs must be >= 1, got {self.stage2_epochs}"
            )
        return runner.effective_epochs(self.stage2_epochs)

    def resolved_qat_epochs(self) -> int:
        if self.qat_epochs < 1:
            raise ConfigurationError(
                f"QAT epochs must be >= 1, got {self.qat_epochs}"
            )
        return runner.effective_epochs(self.qat_epochs)

    # -- identity ----------------------------------------------------------

    @property
    def dataset_tag(self) -> str:
        """The dataset identity embedded in every unit key."""
        n_train = "d" if self.n_train is None else str(self.n_train)
        n_test = "d" if self.n_test is None else str(self.n_test)
        return (
            f"{self.dataset}-n{n_train}x{n_test}-ds{self.dataset_seed}"
        )

    @property
    def dataset_key(self) -> dict:
        return {
            "name": self.dataset,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "seed": self.dataset_seed,
        }

    def candidate_seed(self, spec: CandidateSpec) -> int:
        """Deterministic per-candidate training seed.

        Derived from the sweep seed and the spec identity — *not* the
        sample index — so the same candidate trains identically whether
        it was sampled 3rd or 30th (staged and flat sweeps over nested
        pools then share stage-3 results exactly).
        """
        return runner.unit_seed(
            f"{SEED_NAMESPACE}-seed-{self.seed}-{spec.key}"
        ) % (2 ** 31)

    def unit_key(
        self,
        stage: int,
        spec: CandidateSpec,
        boards: tuple[str, ...],
        epochs: int,
    ) -> str:
        return (
            f"{SCHEMA}-s{stage}-{self.dataset_tag}-{'+'.join(boards)}"
            f"-{spec.key}-e{epochs}-lr{self.lr:g}-s{self.seed}"
        )


@dataclass
class BoardFunnel:
    """Per-board result of one sweep: counts, stage tables, frontier."""

    board: str
    enumerated: int = 0
    stage1_admitted: int = 0
    stage2_evaluated: int = 0
    promoted: int = 0
    stage3_trained: int = 0
    stage1: list[dict] = field(default_factory=list)
    stage2: list[dict] = field(default_factory=list)
    stage3: list[dict] = field(default_factory=list)
    frontier: list[FrontierPoint] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "stage1_admitted": self.stage1_admitted,
            "stage2_evaluated": self.stage2_evaluated,
            "promoted": self.promoted,
            "stage3_trained": self.stage3_trained,
            "frontier": len(self.frontier),
        }


@dataclass
class SearchReport:
    """Outcome of :func:`run_search` — deterministic and serializable."""

    settings: SearchSettings
    mode: str
    count: int
    stage2_epochs: int
    qat_epochs: int
    funnels: dict[str, BoardFunnel]

    @property
    def qat_units(self) -> int:
        """Stage-3 rows over all boards: one per (candidate, board that
        promoted it).  A candidate promoted on several boards trains
        once, so this counts rows, not trainings."""
        return sum(f.stage3_trained for f in self.funnels.values())

    @property
    def stage2_units(self) -> int:
        """Stage-2 rows over all boards: one per (candidate, board that
        admitted it); rows, not trainings, as :attr:`qat_units`."""
        return sum(f.stage2_evaluated for f in self.funnels.values())

    @property
    def frontiers(self) -> dict[str, list[FrontierPoint]]:
        return {
            board: funnel.frontier
            for board, funnel in self.funnels.items()
        }

    def to_payload(self) -> dict:
        """A JSON payload with no timestamps or host facts: reruns at
        any job count serialize byte-identically."""
        settings = asdict(self.settings)
        settings["boards"] = list(self.settings.boards)
        return {
            "schema": SCHEMA,
            "settings": settings,
            "mode": self.mode,
            "count": self.count,
            "stage2_epochs": self.stage2_epochs,
            "qat_epochs": self.qat_epochs,
            "qat_units": self.qat_units,
            "stage2_units": self.stage2_units,
            "boards": {
                board: {
                    "counts": funnel.counts,
                    "stage1": funnel.stage1,
                    "stage2": funnel.stage2,
                    "stage3": funnel.stage3,
                    "frontier": [
                        p.to_dict() for p in funnel.frontier
                    ],
                }
                for board, funnel in sorted(self.funnels.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=1, sort_keys=True)

    def write_artifact(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


def promote(
    stage2_rows: list[dict],
    promote_fraction: float,
    min_promote: int,
) -> list[str]:
    """Successive-halving promotion: the spec keys that earn full QAT.

    Error-free candidates rank by (deployability, proxy accuracy) with
    the spec key as the final deterministic tie-break; the top
    ``max(min_promote, ceil(n * promote_fraction))`` promote.  Errored
    candidates never promote.
    """
    eligible = [row for row in stage2_rows if not row["error"]]
    if not eligible:
        return []
    quota = max(
        min_promote,
        math.ceil(len(eligible) * promote_fraction),
    )
    ranked = sorted(
        eligible,
        key=lambda r: (
            not r["fits"], -r["proxy_accuracy"], r["key"]
        ),
    )
    return [row["key"] for row in ranked[:quota]]


def run_search(
    settings: SearchSettings, jobs: int | None = None
) -> SearchReport:
    """Run one sweep: sample -> screen -> proxy -> promote -> QAT.

    Stage-2 and stage-3 units fan out over :func:`runner.map_units`
    across *all* boards at once, one unit per candidate, so the pool
    stays full even when one board's admission list is short.
    """
    count = settings.resolved_count()
    stage2_epochs = settings.resolved_stage2_epochs()
    qat_epochs = settings.resolved_qat_epochs()
    specs = sample_space(count, settings.seed)
    by_key = {spec.key: spec for spec in specs}
    funnels = {
        name: BoardFunnel(board=name, enumerated=count)
        for name in settings.boards
    }

    def dataset_setup():
        stages._dataset_from_key(settings.dataset_key)

    def run_stage(stage, fn, epochs, chosen):
        """Run one unit per candidate any board chose, in sweep order,
        covering every board that chose it (in settings order); return
        the rows by (spec key, board)."""
        groups = []
        for spec in specs:
            boards = tuple(
                name for name in settings.boards if spec in chosen[name]
            )
            if boards:
                groups.append((spec, boards))
        units = [
            runner.WorkUnit(
                key=settings.unit_key(stage, spec, boards, epochs),
                fn=fn,
                args=(
                    spec.to_dict(), settings.dataset_key, list(boards),
                    epochs, settings.lr, settings.candidate_seed(spec),
                ),
            )
            for spec, boards in groups
        ]
        results = runner.map_units(
            f"search-stage{stage}", units, jobs=jobs, setup=dataset_setup
        )
        return {
            (spec.key, name): row
            for (spec, boards), rows in zip(groups, results)
            for name, row in zip(boards, rows)
        }

    # Stage 1: inline analytic screen (milliseconds per candidate, no
    # training, no units — and in flat mode, no screen at all).  Each
    # candidate is priced once and admitted on every board.
    n_in, n_out = _probe_dims(settings)
    plane = _probe_plane(settings)
    survivors: dict[str, list[CandidateSpec]] = {
        name: list(specs) if settings.mode == "flat" else []
        for name in settings.boards
    }
    if settings.mode != "flat":
        boards = [board_by_name(name) for name in settings.boards]
        for spec in specs:
            rows = stages.analytic_screen(
                spec,
                spec.to_config(
                    n_in, n_out,
                    seed=settings.candidate_seed(spec),
                    image_shape=plane,
                ),
                boards,
                settings.slo,
            )
            for name, row in zip(settings.boards, rows):
                funnels[name].stage1.append(row)
                if row["admitted"]:
                    survivors[name].append(spec)
    for name in settings.boards:
        funnels[name].stage1_admitted = len(survivors[name])

    # Stage 2: the PTQ proxy sweep (staged mode only).
    promoted: dict[str, list[CandidateSpec]] = {}
    if settings.mode == "staged":
        rows = run_stage(2, stages.stage2_unit, stage2_epochs, survivors)
        for name in settings.boards:
            funnel = funnels[name]
            funnel.stage2 = [rows[spec.key, name] for spec in survivors[name]]
            funnel.stage2_evaluated = len(funnel.stage2)
            keys = promote(
                funnel.stage2,
                settings.promote_fraction,
                settings.min_promote,
            )
            promoted[name] = [by_key[k] for k in keys]
            funnel.promoted = len(keys)
    else:
        for name in settings.boards:
            promoted[name] = survivors[name]
            funnels[name].promoted = len(survivors[name])

    # Stage 3: full QAT for the promoted set.
    rows = run_stage(3, stages.stage3_unit, qat_epochs, promoted)
    for name in settings.boards:
        funnel = funnels[name]
        funnel.stage3 = [rows[spec.key, name] for spec in promoted[name]]
        funnel.stage3_trained = len(funnel.stage3)
        funnel.frontier = pareto_points(
            FrontierPoint.from_dict(row)
            for row in funnel.stage3
            if not row["error"] and row["fits"]
        )

    return SearchReport(
        settings=settings,
        mode=settings.mode,
        count=count,
        stage2_epochs=stage2_epochs,
        qat_epochs=qat_epochs,
        funnels=funnels,
    )


def _probe_dims(settings: SearchSettings) -> tuple[int, int]:
    """The dataset's (n_in, n_out) — loaded once, memoized by the
    dataset registry."""
    dataset = stages._dataset_from_key(settings.dataset_key)
    return dataset.num_features, dataset.num_classes


def _probe_plane(settings: SearchSettings):
    dataset = stages._dataset_from_key(settings.dataset_key)
    return stages._plane(dataset)
