"""Measurement harness: run a program N times and report latency statistics.

The paper reports the average of 100 timed runs per configuration.  The
simulator is deterministic, so repeated runs return identical cycle counts;
:class:`Profiler` still exposes the same run-loop interface so measurement
code matches the paper's methodology, and it verifies the determinism claim
("execution time is entirely predictable") as a side effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ExecutionError
from repro.mcu.board import BoardProfile
from repro.mcu.cpu import ExecutionResult
from repro.mcu.fastpath import DEFAULT_ENGINE, FastCPU, make_cpu
from repro.mcu.isa import Program, Reg
from repro.mcu.memory import MemoryMap


@dataclass(frozen=True)
class LatencyReport:
    """Latency statistics over repeated runs of one program."""

    runs: int
    cycles_mean: float
    cycles_min: int
    cycles_max: int
    latency_ms: float
    instructions: int

    @property
    def deterministic(self) -> bool:
        return self.cycles_min == self.cycles_max


@dataclass(frozen=True)
class BlockProfile:
    """Cycles attributed to one basic block over a single execution."""

    block_id: int
    start: int                 # first instruction index (inclusive)
    end: int                   # last instruction index (inclusive)
    executions: int
    taken: int                 # conditional-branch taken count
    cycles: int


class Profiler:
    """Times program executions on a board's clock."""

    def __init__(
        self,
        board: BoardProfile,
        memory: MemoryMap,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.board = board
        self.memory = memory
        self.engine = engine
        self.cpu = make_cpu(memory, costs=board.costs, engine=engine)

    def run_once(
        self, program: Program, registers: dict[Reg, int] | None = None
    ) -> ExecutionResult:
        """Single execution."""
        return self.cpu.run(program, registers)

    def measure(
        self,
        program: Program,
        registers: dict[Reg, int] | None = None,
        runs: int = 100,
    ) -> LatencyReport:
        """Average latency over ``runs`` executions (paper methodology)."""
        if runs < 1:
            raise ExecutionError("need at least one run")
        cycle_counts: list[int] = []
        instructions = 0
        for _ in range(runs):
            result = self.run_once(program, dict(registers or {}))
            cycle_counts.append(result.cycles)
            instructions = result.instructions
        return LatencyReport(
            runs=runs,
            cycles_mean=sum(cycle_counts) / runs,
            cycles_min=min(cycle_counts),
            cycles_max=max(cycle_counts),
            latency_ms=self.board.cycles_to_ms(
                round(sum(cycle_counts) / runs)
            ),
            instructions=instructions,
        )

    def profile_blocks(
        self, program: Program, registers: dict[Reg, int] | None = None
    ) -> tuple[ExecutionResult, tuple[BlockProfile, ...]]:
        """Run once and attribute the cycle total to each basic block.

        Requires the ``fastpath`` engine (the attribution comes from the
        translation's per-block execution counters); the per-block cycle
        totals sum exactly to ``result.cycles``.
        """
        if not isinstance(self.cpu, FastCPU):
            raise ConfigurationError(
                "per-block cycle attribution requires engine='fastpath' "
                f"(profiler was built with engine={self.engine!r})"
            )
        result = self.run_once(program, registers)
        translation = self.cpu.last_translation
        if translation is None:
            raise ConfigurationError(
                f"program {program.name!r} was declined by the translator; "
                "no per-block attribution is available"
            )
        block_counts = self.cpu.last_block_counts
        taken_counts = self.cpu.last_taken_counts
        cycles = translation.block_cycles(block_counts, taken_counts)
        profiles = tuple(
            BlockProfile(
                block_id=k,
                start=translation.block_spans[k][0],
                end=translation.block_spans[k][1],
                executions=block_counts[k],
                taken=taken_counts[k],
                cycles=cycles[k],
            )
            for k in range(translation.n_blocks)
        )
        return result, profiles
