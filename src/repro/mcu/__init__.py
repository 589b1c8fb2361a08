"""Cortex-M0 substrate: miniature ISA, cycle-exact interpreter, boards.

This package replaces the paper's physical STM32F072RB board.  See
DESIGN.md §1 for the substitution argument: latency comparisons in the
paper are driven by instruction counts and memory-access patterns, which a
deterministic cycle model preserves.
"""

from repro.mcu.board import (
    BOARD_PROFILES,
    CORTEX_M4_REFERENCE,
    CORTEX_M7_REFERENCE,
    MCU_CLASSES,
    RISCV_RV32IMC,
    STM32F072RB,
    BoardProfile,
    MCUClass,
    board_by_name,
    classify_board,
    format_board_profile_table,
    format_mcu_class_table,
)
from repro.mcu.cpu import CPU, CycleCosts, ExecutionResult
from repro.mcu.energy import (
    STM32F0_ENERGY,
    BatteryLifeReport,
    EnergyProfile,
    EnergyReport,
    battery_life,
    inference_energy,
)
from repro.mcu.interrupts import (
    EXCEPTION_ENTRY_CYCLES,
    EXCEPTION_EXIT_CYCLES,
    InterruptSource,
    PreemptedRun,
    run_with_interrupts,
    worst_case_latency_ms,
)
from repro.mcu.fastpath import (
    DEFAULT_ENGINE,
    ENGINES,
    FastCPU,
    TranslatedProgram,
    clear_translation_cache,
    make_cpu,
    translate,
    translate_v2,
    translation_cache_stats,
)
from repro.mcu.fastpath_v2 import SpecializedProgram
from repro.mcu.isa import Assembler, Instr, Op, Program, Reg
from repro.mcu.memory import Allocator, MemoryMap, Region
from repro.mcu.profiler import (
    BlockProfile,
    LatencyReport,
    Profiler,
)

__all__ = [
    "Assembler",
    "BatteryLifeReport",
    "EXCEPTION_ENTRY_CYCLES",
    "EXCEPTION_EXIT_CYCLES",
    "EnergyProfile",
    "EnergyReport",
    "InterruptSource",
    "PreemptedRun",
    "STM32F0_ENERGY",
    "battery_life",
    "inference_energy",
    "run_with_interrupts",
    "worst_case_latency_ms",
    "Allocator",
    "BlockProfile",
    "BOARD_PROFILES",
    "BoardProfile",
    "CORTEX_M4_REFERENCE",
    "CORTEX_M7_REFERENCE",
    "CPU",
    "CycleCosts",
    "DEFAULT_ENGINE",
    "ENGINES",
    "ExecutionResult",
    "FastCPU",
    "Instr",
    "LatencyReport",
    "MCU_CLASSES",
    "MCUClass",
    "MemoryMap",
    "Op",
    "Profiler",
    "Program",
    "Reg",
    "RISCV_RV32IMC",
    "Region",
    "STM32F072RB",
    "SpecializedProgram",
    "TranslatedProgram",
    "board_by_name",
    "classify_board",
    "clear_translation_cache",
    "format_board_profile_table",
    "format_mcu_class_table",
    "make_cpu",
    "translate",
    "translate_v2",
    "translation_cache_stats",
]
