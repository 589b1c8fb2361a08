"""Aggregate verification: run every pass, produce one verdict.

:func:`verify_program` is the front door of the verifier framework.  It
chains the passes in dependency order —

1. CFG construction (structural validation: branch targets, fallthrough,
   unreachable code),
2. taint analysis (§4.1 discipline: input-independent control flow and
   store addresses),
3. definite register initialization,
4. abstract execution, feeding both
5. memory safety (every access inside the board map) and
6. WCET (exact static cycle bound + loop structure)

— and folds the results into a :class:`VerificationReport` whose
:meth:`~VerificationReport.require_ok` raises a typed
:class:`~repro.errors.VerificationError` naming the offending
instruction.  :func:`verify_kernel_image` and
:func:`verify_deployed_model` lift the same check to generated kernels
and whole deployments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VerificationError
from repro.analysis.absexec import abstract_execute
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.initreg import InitRegResult, check_initialized_reads
from repro.analysis.memsafe import MemorySafetyResult, check_memory_safety
from repro.analysis.taint import AnalysisResult, verify_static_control_flow
from repro.analysis.wcet import WCETResult, infer_wcet
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.cpu import CycleCosts
from repro.mcu.isa import Program
from repro.mcu.memory import MemoryMap


@dataclass(frozen=True)
class VerificationReport:
    """Combined verdict of every verifier pass over one program."""

    program_name: str
    cfg: CFG | None
    structural_error: VerificationError | None
    unreachable: tuple[int, ...]
    taint: AnalysisResult | None
    initreg: InitRegResult | None
    memsafe: MemorySafetyResult | None
    wcet: WCETResult | None

    @property
    def ok(self) -> bool:
        return (
            self.structural_error is None
            and not self.unreachable
            and self.taint is not None and self.taint.ok
            and self.initreg is not None and self.initreg.ok
            and self.memsafe is not None and self.memsafe.ok
            and self.wcet is not None and self.wcet.ok
        )

    @property
    def cycle_bound(self) -> int | None:
        if self.wcet is not None and self.wcet.ok:
            return self.wcet.cycle_bound
        return None

    def require_ok(self) -> None:
        """Raise a :class:`VerificationError` describing the first failure."""
        if self.structural_error is not None:
            raise self.structural_error
        if self.unreachable:
            raise VerificationError(
                f"program {self.program_name!r} contains unreachable "
                f"instructions: {list(self.unreachable)}",
                instruction_index=self.unreachable[0],
                pass_name="cfg",
            )
        assert self.taint is not None
        assert self.initreg is not None
        assert self.memsafe is not None
        assert self.wcet is not None
        self.taint.require_clean()
        self.initreg.require_clean()
        self.memsafe.require_clean()
        self.wcet.require_bound()

    def summary(self) -> str:
        if not self.ok:
            return f"{self.program_name}: FAIL ({self._first_failure()})"
        assert self.wcet is not None and self.memsafe is not None
        return (
            f"{self.program_name}: verified "
            f"(bound {self.wcet.cycle_bound} cycles, "
            f"{self.memsafe.loads_checked} loads / "
            f"{self.memsafe.stores_checked} stores checked)"
        )

    def _first_failure(self) -> str:
        if self.structural_error is not None:
            return str(self.structural_error)
        if self.unreachable:
            return f"unreachable instructions {list(self.unreachable)}"
        for name, result in (
            ("taint", self.taint), ("initreg", self.initreg),
            ("memsafe", self.memsafe), ("wcet", self.wcet),
        ):
            if result is None:
                return f"{name} pass did not run"
            if not result.ok:
                try:
                    if name == "wcet":
                        result.require_bound()   # type: ignore[union-attr]
                    else:
                        result.require_clean()   # type: ignore[union-attr]
                except VerificationError as exc:
                    return str(exc)
        return "unknown failure"

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"verification report: {self.program_name}"]
        if self.structural_error is not None:
            lines.append(f"  structure   FAIL  {self.structural_error}")
            return "\n".join(lines)
        assert self.cfg is not None
        lines.append(
            f"  structure   ok    {len(self.cfg.blocks)} blocks, "
            f"{len(self.cfg.loops)} loops, "
            f"{len(self.cfg.program.instructions)} instructions"
        )
        if self.unreachable:
            lines.append(
                f"  reachable   FAIL  unreachable instructions "
                f"{list(self.unreachable)}"
            )
        else:
            lines.append("  reachable   ok    no dead code")
        if self.taint is not None:
            status = "ok  " if self.taint.ok else "FAIL"
            detail = (
                "control flow and store addresses are input-independent"
                if self.taint.ok else
                "; ".join(str(v) for v in self.taint.violations)
            )
            lines.append(f"  discipline  {status}  {detail}")
        if self.initreg is not None:
            status = "ok  " if self.initreg.ok else "FAIL"
            detail = (
                "every read is dominated by a write"
                if self.initreg.ok else
                "; ".join(str(v) for v in self.initreg.violations)
            )
            lines.append(f"  registers   {status}  {detail}")
        if self.memsafe is not None:
            status = "ok  " if self.memsafe.ok else "FAIL"
            if self.memsafe.ok:
                detail = (
                    f"{self.memsafe.loads_checked} loads / "
                    f"{self.memsafe.stores_checked} stores inside the map"
                )
            else:
                detail = "; ".join(
                    str(v) for v in self.memsafe.violations
                ) or "abstract execution did not complete"
            lines.append(f"  memory      {status}  {detail}")
        if self.wcet is not None:
            if self.wcet.ok:
                lines.append(
                    f"  wcet        ok    bound {self.wcet.cycle_bound} "
                    f"cycles"
                )
            else:
                lines.append(
                    f"  wcet        FAIL  {self.wcet.failure}"
                )
            for loop in self.wcet.loops:
                lines.append(f"    {loop}")
        return "\n".join(lines)


def _writable_spans(memory: MemoryMap) -> list[tuple[int, int]]:
    return [
        (region.base, region.end)
        for region in memory.regions if region.writable
    ]


def verify_program(
    program: Program,
    memory: MemoryMap,
    *,
    tainted_regions: tuple[tuple[int, int], ...] | None = None,
    costs: CycleCosts | None = None,
) -> VerificationReport:
    """Run the full pass suite over ``program`` in ``memory``.

    ``tainted_regions`` defaults to *every writable region* of the map:
    anything RAM-resident (inputs, intermediate activations, scratch) is
    treated as attacker-chosen, which is the strongest discipline a
    kernel can satisfy and the one deployment demands.
    """
    try:
        cfg = build_cfg(program)
    except VerificationError as exc:
        return VerificationReport(
            program_name=program.name, cfg=None, structural_error=exc,
            unreachable=(), taint=None, initreg=None, memsafe=None,
            wcet=None,
        )

    if tainted_regions is None:
        spans = _writable_spans(memory)
    else:
        spans = list(tainted_regions)
    if spans:
        (input_addr, input_end), *extra = spans
        taint = verify_static_control_flow(
            program, input_addr, input_end - input_addr,
            tainted_regions=tuple(extra),
        )
    else:
        taint = verify_static_control_flow(program, 0, 0)

    initreg = check_initialized_reads(program)
    trace = abstract_execute(program, memory, costs=costs)
    memsafe = check_memory_safety(trace)
    wcet = infer_wcet(cfg, trace)
    return VerificationReport(
        program_name=program.name,
        cfg=cfg,
        structural_error=None,
        unreachable=cfg.unreachable_instructions,
        taint=taint,
        initreg=initreg,
        memsafe=memsafe,
        wcet=wcet,
    )


def verify_kernel_image(
    image, board: BoardProfile = STM32F072RB
) -> VerificationReport:
    """Verify a generated kernel in its own placed memory image."""
    return verify_program(
        image.program, image.memory, costs=board.costs
    )


@dataclass(frozen=True)
class LayerVerification:
    """One layer's verdict inside a deployed model."""

    layer: int
    report: VerificationReport


@dataclass(frozen=True)
class ModelVerificationReport:
    """Whole-model verdict: every layer kernel, one shared memory image."""

    layers: tuple[LayerVerification, ...]

    @property
    def ok(self) -> bool:
        return all(entry.report.ok for entry in self.layers)

    @property
    def total_cycle_bound(self) -> int | None:
        total = 0
        for entry in self.layers:
            bound = entry.report.cycle_bound
            if bound is None:
                return None
            total += bound
        return total

    def require_ok(self) -> None:
        for entry in self.layers:
            try:
                entry.report.require_ok()
            except VerificationError as exc:
                raise VerificationError(
                    f"layer {entry.layer} "
                    f"({entry.report.program_name!r}): {exc}",
                    instruction_index=exc.instruction_index,
                    pass_name=exc.pass_name,
                ) from exc

    def format(self) -> str:
        lines = []
        for entry in self.layers:
            lines.append(entry.report.format())
        total = self.total_cycle_bound
        if total is not None:
            lines.append(f"model total: bound {total} cycles")
        else:
            lines.append("model total: no bound (verification failed)")
        return "\n".join(lines)


def verify_deployed_model(model, board=None) -> ModelVerificationReport:
    """Verify every layer kernel of a deployed model.

    Uses only ``model.images`` and ``model.board`` so any object exposing
    those (including test doubles) can be verified.
    """
    board = board or model.board
    layers = tuple(
        LayerVerification(
            layer=i,
            report=verify_program(
                image.program, image.memory, costs=board.costs
            ),
        )
        for i, image in enumerate(model.images)
    )
    return ModelVerificationReport(layers=layers)
