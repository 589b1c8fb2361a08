"""High-level deployment: quantized model → flashed artifact + reports."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import (
    ModelVerificationReport,
    verify_deployed_model,
)
from repro.deploy.artifact import DeployedModel, analytic_model_cycles
from repro.deploy.size import ProgramMemoryReport, model_program_memory
from repro.errors import BudgetExceededError
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.fastpath import DEFAULT_ENGINE
from repro.quantize.ptq import QuantizedModel


@dataclass(frozen=True)
class Deployment:
    """A deployable (or sized-but-rejected) model with its cost reports."""

    model: DeployedModel | None       # None when the model does not fit
    program_memory: ProgramMemoryReport
    #: Cycles of one inference: input-independent, so a static count
    #: of the kernels' operations (what the CPU measures; tests hold
    #: the two equal on every board and encoding).
    cycles: int
    board: BoardProfile
    format_name: str
    #: Static-verification verdict of every layer kernel; ``None`` when
    #: the model was not built (does not fit) or verification was skipped.
    verification: ModelVerificationReport | None = None

    @property
    def latency_ms(self) -> float:
        return self.board.cycles_to_ms(self.cycles)

    @property
    def deployable(self) -> bool:
        return self.model is not None

    @property
    def verified(self) -> bool:
        return self.verification is not None and self.verification.ok


def deploy(
    quantized: QuantizedModel,
    format_name: str = "block",
    board: BoardProfile = STM32F072RB,
    block_size: int = 256,
    require_fit: bool = False,
    verify: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> Deployment:
    """Size, check, verify, and (when it fits) flash a quantized model.

    Program memory is always computed (against scratch memory, so
    oversized models can be sized — Figure 6a's non-deployable points).
    The executable artifact is built only when the model fits the board;
    with ``require_fit`` a non-fitting model raises instead.

    When the artifact is built and ``verify`` is on (the default), the
    full static-verification suite (:mod:`repro.analysis`) runs over
    every layer kernel and the deployment ships with its verdict —
    deployments are verified by construction.  The model keeps the
    verdict's per-layer WCET bounds, which the ``verified`` engine
    charges.  A kernel that fails verification raises
    :class:`~repro.errors.VerificationError` naming the offending
    instruction.
    """
    memory_report = model_program_memory(
        quantized.specs, format_name=format_name, block_size=block_size
    )
    cycles = analytic_model_cycles(
        quantized, format_name, board, block_size
    )
    model: DeployedModel | None = None
    verification: ModelVerificationReport | None = None
    if memory_report.fits(board):
        model = DeployedModel(
            quantized, format_name=format_name, board=board,
            block_size=block_size, engine=engine,
        )
        if verify:
            verification = verify_deployed_model(model)
            model.record_verification(verification)
    elif require_fit:
        raise BudgetExceededError(
            f"model needs {memory_report.total_kb:.1f} KB of program "
            f"memory but {board.name} has {board.flash_kb} KB"
        )
    return Deployment(
        model=model,
        program_memory=memory_report,
        cycles=cycles,
        board=board,
        format_name=format_name,
        verification=verification,
    )
