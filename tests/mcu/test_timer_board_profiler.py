"""Board profiles (Table 1) and the measurement harness."""

import pytest

from repro.errors import ExecutionError
from repro.mcu.board import (
    CORTEX_M4_REFERENCE,
    MCU_CLASSES,
    STM32F072RB,
    classify_board,
    format_mcu_class_table,
)
from repro.mcu.isa import Assembler, Reg
from repro.mcu.memory import MemoryMap
from repro.mcu.profiler import Profiler


class TestBoardProfiles:
    def test_stm32f072rb_matches_paper_setup(self):
        assert STM32F072RB.clock_hz == 8_000_000
        assert STM32F072RB.flash_kb == 128
        assert STM32F072RB.ram_kb == 16
        assert STM32F072RB.core == "Cortex-M0"

    def test_cycles_ms_roundtrip(self):
        cycles = 123_456
        ms = STM32F072RB.cycles_to_ms(cycles)
        assert STM32F072RB.ms_to_cycles(ms) == cycles

    def test_make_memory_uses_budgets(self):
        memory = STM32F072RB.make_memory()
        assert memory.region("flash").size == 128 * 1024
        assert memory.region("ram").size == 16 * 1024

    def test_classification_follows_table1(self):
        assert classify_board(STM32F072RB).name == "Low"
        assert classify_board(CORTEX_M4_REFERENCE).name == "Medium"

    def test_table1_has_three_classes_with_paper_examples(self):
        assert [c.name for c in MCU_CLASSES] == ["Low", "Medium", "Advanced"]
        assert "Cortex-M0" in MCU_CLASSES[0].example
        assert "Cortex-M4" in MCU_CLASSES[1].example
        assert "Cortex-M85" in MCU_CLASSES[2].example

    def test_table_renders_all_rows(self):
        text = format_mcu_class_table()
        for mcu_class in MCU_CLASSES:
            assert mcu_class.name in text


class TestProfiler:
    def _count_program(self, n):
        asm = Assembler("count")
        asm.movi(Reg.R0, n)
        asm.label("loop")
        asm.subsi(Reg.R0, Reg.R0, 1)
        asm.bgt("loop")
        asm.halt()
        return asm.assemble()

    def test_measure_is_deterministic(self):
        profiler = Profiler(STM32F072RB, MemoryMap.stm32())
        report = profiler.measure(self._count_program(50), runs=5)
        assert report.deterministic
        assert report.cycles_min == report.cycles_max
        assert report.runs == 5

    def test_latency_matches_cycles(self):
        profiler = Profiler(STM32F072RB, MemoryMap.stm32())
        report = profiler.measure(self._count_program(10), runs=3)
        expected = STM32F072RB.cycles_to_ms(round(report.cycles_mean))
        assert report.latency_ms == pytest.approx(expected)

    def test_zero_runs_rejected(self):
        profiler = Profiler(STM32F072RB, MemoryMap.stm32())
        with pytest.raises(ExecutionError):
            profiler.measure(self._count_program(1), runs=0)
