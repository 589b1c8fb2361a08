"""SLO-driven deployment planning across encodings and board profiles.

The paper's Figure 6 explores encodings on one board; this module closes
the loop the ISSUE-9 tentpole asks for: given a quantized model and a
latency and/or flash service-level objective, enumerate every candidate
``(encoding, board)`` pair, price each analytically (operation counts
through the board's cost table — exact, by the latency-agreement tests),
and build the single best deployment.

Objectives are lexicographic and deterministic:

- a **latency** SLO constrains admission via the board's *ceiling*
  cycle budget (``board.ms_to_cycles``) — a candidate is feasible only
  when its exact cycle count fits the budget — and among feasible
  candidates the planner picks the smallest device class (board flash
  capacity as the cost proxy) that makes the deadline, then the
  smallest program, then the fastest encoding;
- a **flash** SLO caps the *device*: only boards with at most that much
  flash (and programs fitting the cap) are admitted, and among fitting
  candidates the planner picks the lowest latency; the same
  latency-first objective applies when both SLOs are set, or neither.

A tight-latency SLO therefore buys the fast, large board while a
tight-flash SLO forces the small one — different ``(encoding, engine,
board)`` tuples, the acceptance criterion of ISSUE 9.

One function, :func:`rejection_reason`, owns the admission rule for
the planner, the catalog and the search's stage-1 screen.
:func:`plan_from_catalog` applies it to a *model catalog* — the
per-board Pareto frontier artifact a ``repro search`` sweep emits —
picking the most accurate already-trained model that meets the SLO
instead of re-pricing one fixed model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.deploy.artifact import model_opcount
from repro.deploy.deployer import Deployment, deploy
from repro.deploy.size import model_program_memory
from repro.errors import BudgetExceededError, ConfigurationError
from repro.kernels.codegen_sparse import SPARSE_FORMATS
from repro.mcu.board import BOARD_PROFILES, BoardProfile
from repro.quantize.ptq import QuantizedModel


@dataclass(frozen=True)
class DeploySLO:
    """Service-level objective for :func:`plan_deployment`.

    Either bound may be ``None`` (unconstrained); at least one should be
    set for the plan to mean anything, but an SLO-free plan is legal and
    simply optimizes latency.
    """

    max_latency_ms: float | None = None
    #: Flash capacity of the target device class, in KB: boards with more
    #: flash than this are out of budget (cost/footprint proxy), and the
    #: program itself must also fit under the cap.
    max_flash_kb: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_latency_ms", "max_flash_kb"):
            bound = getattr(self, name)
            if bound is None:
                continue
            if bound <= 0:
                raise ConfigurationError(f"{name} must be positive")
            if not math.isfinite(bound):   # NaN fails every comparison
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {bound}"
                )


@dataclass(frozen=True)
class PlanCandidate:
    """One priced ``(encoding, board)`` point of the plan space."""

    format_name: str
    board: BoardProfile
    engine: str
    block_size: int
    cycles: int
    latency_ms: float
    flash_kb: float
    feasible: bool
    #: Why the candidate was rejected ("" when feasible).
    reason: str

    @property
    def choice(self) -> tuple[str, str, str]:
        """The ``(encoding, engine, board-name)`` identity tuple."""
        return (self.format_name, self.engine, self.board.name)


@dataclass(frozen=True)
class DeploymentPlan:
    """Outcome of :func:`plan_deployment`: winner + the full search table."""

    slo: DeploySLO
    chosen: PlanCandidate
    deployment: Deployment
    considered: tuple[PlanCandidate, ...]

    @property
    def feasible(self) -> tuple[PlanCandidate, ...]:
        return tuple(c for c in self.considered if c.feasible)


def rejection_reason(
    board: BoardProfile,
    cycles: int,
    flash_kb: float,
    slo: DeploySLO,
    latency_slack: float = 1.0,
) -> str:
    """The SLO admission rule: why ``board`` rejects a priced program.

    Returns ``""`` when the program is admitted.  The checks run in
    order: the device class under the flash SLO, the program under the
    board's flash, and the cycles under the board's *ceiling* cycle
    budget for the latency SLO, widened by ``latency_slack`` (the search
    screen's allowance for untrained models; 1.0 everywhere else).  A
    program that passes the first two is within the flash SLO as well:
    it fits a board that fits the SLO.
    """
    if slo.max_flash_kb is not None and board.flash_kb > slo.max_flash_kb:
        return (
            f"{board.name} carries {board.flash_kb} KB flash, over the "
            f"{slo.max_flash_kb:g} KB device budget"
        )
    if flash_kb * 1024 > board.flash_bytes:
        return (
            f"needs {flash_kb:.1f} KB flash, "
            f"{board.name} has {board.flash_kb} KB"
        )
    if slo.max_latency_ms is None:
        return ""
    # Admission goes through the ceiling cycle budget, never a float ms
    # comparison: a request priced exactly at the deadline fits.
    budget = board.ms_to_cycles(slo.max_latency_ms)
    if cycles <= latency_slack * budget:
        return ""
    over = (
        f"{cycles} cycles over the" if latency_slack == 1.0
        else f"{cycles} analytic cycles over {latency_slack:g}x the"
    )
    return (
        f"{over} {budget}-cycle budget "
        f"({slo.max_latency_ms:g} ms on {board.name})"
    )


def plan_deployment(
    quantized: QuantizedModel,
    slo: DeploySLO | None = None,
    boards: Sequence[BoardProfile] | None = None,
    verify: bool = True,
) -> DeploymentPlan:
    """Pick and build the best ``(encoding, engine, board)`` for an SLO.

    Enumerates every sparse encoding (at block size 256) on every board
    in ``boards`` (default: every reference profile), prices each
    candidate analytically, applies the SLO admission rules, ranks the
    feasible set by the lexicographic objective described in the module
    docstring, and builds the winner
    via :func:`~repro.deploy.deployer.deploy` with ``require_fit=True``.

    Raises :class:`~repro.errors.BudgetExceededError` with the full
    rejection table when no candidate satisfies the SLO.
    """
    slo = slo or DeploySLO()
    board_list = tuple(
        boards if boards is not None else BOARD_PROFILES.values()
    )
    if not board_list:
        raise ConfigurationError("plan needs at least one board")

    # Flash and operation counts are board-independent: price each
    # encoding once, then cost it with every board's cycle table.
    priced = {
        fmt: (
            model_program_memory(quantized.specs, format_name=fmt).total_kb,
            model_opcount(quantized.specs, fmt),
        )
        for fmt in SPARSE_FORMATS
    }
    considered = []
    for board in board_list:
        for fmt in SPARSE_FORMATS:
            flash_kb, ops = priced[fmt]
            cycles = ops.cycles(board.costs)
            reason = rejection_reason(board, cycles, flash_kb, slo)
            considered.append(PlanCandidate(
                format_name=fmt,
                board=board,
                engine=board.resolve_engine(),
                block_size=256,
                cycles=cycles,
                latency_ms=board.cycles_to_ms(cycles),
                flash_kb=flash_kb,
                feasible=reason == "",
                reason=reason,
            ))
    feasible = [c for c in considered if c.feasible]
    if not feasible:
        table = "; ".join(
            f"{c.format_name}@{c.board.name}: {c.reason}"
            for c in considered
        )
        raise BudgetExceededError(
            f"no (encoding, board) candidate satisfies the SLO — {table}"
        )

    if slo.max_latency_ms is not None and slo.max_flash_kb is None:
        # Latency-constrained: the smallest device class that makes the
        # deadline, then the smallest program, then the fastest encoding.
        def key(c: PlanCandidate):
            return (
                c.board.flash_kb, c.flash_kb, c.latency_ms,
                c.board.name, c.format_name,
            )
    else:
        # Flash-constrained (admission already filtered the device
        # class), doubly-constrained, or unconstrained: be fast, then
        # small; names break exact ties deterministically.
        def key(c: PlanCandidate):
            return (
                c.latency_ms, c.flash_kb, c.board.name, c.format_name,
            )
    chosen = min(feasible, key=key)
    deployment = deploy(
        quantized,
        format_name=chosen.format_name,
        board=chosen.board,
        block_size=chosen.block_size,
        require_fit=True,
        verify=verify,
        engine=chosen.engine,
    )
    return DeploymentPlan(
        slo=slo,
        chosen=chosen,
        deployment=deployment,
        considered=tuple(considered),
    )


# -- catalog planning (search-frontier artifacts) ---------------------------

@dataclass(frozen=True)
class CatalogCandidate:
    """One catalog row (a trained frontier model) after SLO admission."""

    entry: dict
    board: BoardProfile
    feasible: bool
    reason: str

    @property
    def key(self) -> str:
        return str(self.entry["key"])

    @property
    def accuracy(self) -> float:
        return float(self.entry["accuracy"])

    @property
    def cycles(self) -> int:
        return int(self.entry["cycles"])

    @property
    def flash_kb(self) -> float:
        return float(self.entry["flash_kb"])


@dataclass(frozen=True)
class CatalogPlan:
    """Outcome of :func:`plan_from_catalog`: winner + admission table."""

    slo: DeploySLO
    chosen: CatalogCandidate
    considered: tuple[CatalogCandidate, ...]

    @property
    def feasible(self) -> tuple[CatalogCandidate, ...]:
        return tuple(c for c in self.considered if c.feasible)


def plan_from_catalog(
    entries: Sequence[dict],
    slo: DeploySLO | None = None,
) -> CatalogPlan:
    """Pick the best *trained* model from a search-frontier catalog.

    ``entries`` are frontier rows as a ``repro search`` artifact stores
    them (see :func:`repro.search.frontier.catalog_entries`): each names
    its own board, exact cycle count, and flash footprint.  Admission is
    :func:`plan_deployment`'s :func:`rejection_reason`, but the
    objective flips: a catalog spans models of different accuracies, so the
    planner maximizes accuracy first, then minimizes cycles, then
    flash, with the candidate key as the deterministic tie-break.

    Raises :class:`~repro.errors.BudgetExceededError` with the full
    rejection table when nothing in the catalog satisfies the SLO.
    """
    from repro.mcu.board import board_by_name

    slo = slo or DeploySLO()
    if not entries:
        raise ConfigurationError("catalog has no entries")

    considered = []
    for entry in entries:
        board = board_by_name(str(entry["board"]))
        reason = rejection_reason(
            board, int(entry["cycles"]), float(entry["flash_kb"]), slo
        )
        considered.append(CatalogCandidate(
            entry=dict(entry), board=board,
            feasible=reason == "", reason=reason,
        ))

    feasible = [c for c in considered if c.feasible]
    if not feasible:
        table = "; ".join(
            f"{c.key}@{c.board.name}: {c.reason}" for c in considered
        )
        raise BudgetExceededError(
            f"no catalog model satisfies the SLO — {table}"
        )
    chosen = min(
        feasible,
        key=lambda c: (-c.accuracy, c.cycles, c.flash_kb, c.key),
    )
    return CatalogPlan(
        slo=slo, chosen=chosen, considered=tuple(considered)
    )
