"""Memory safety and static WCET over abstract execution."""

import numpy as np
import pytest

from repro.analysis import (
    abstract_execute,
    build_cfg,
    check_memory_safety,
    infer_wcet,
    verify_kernel_image,
)
from repro.errors import VerificationError
from repro.kernels.codegen_cnn import ConvKernelSpec, generate_conv
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.board import BOARD_PROFILES
from repro.mcu.isa import Assembler, Reg
from repro.mcu.memory import MemoryMap

RAM = 0x2000_0000
FLASH = 0x0800_0000


def _assemble(body):
    asm = Assembler()
    body(asm)
    return asm.assemble()


@pytest.fixture()
def ternary_spec(rng):
    adjacency = rng.integers(-1, 2, (16, 8)).astype(np.int8)
    adjacency[rng.random(adjacency.shape) < 0.6] = 0
    bias = rng.integers(-5, 5, 8).astype(np.int32)
    return make_neuroc_spec(
        adjacency, bias, mult=np.full(8, 3, np.int32), shift=6
    )


class TestMemorySafety:
    def test_store_outside_every_region_is_violation(self):
        def body(asm):
            asm.movi(Reg.R0, RAM - 64)     # below RAM, unmapped
            asm.movi(Reg.R1, 1)
            asm.strb(Reg.R1, Reg.R0, 0)
            asm.halt()

        trace = abstract_execute(_assemble(body), MemoryMap.stm32())
        result = check_memory_safety(trace)
        assert not result.ok
        assert result.violations[0].index == 2
        assert "outside every mapped region" in str(result.violations[0])
        with pytest.raises(VerificationError, match="memory-safety") as exc:
            result.require_clean()
        assert exc.value.instruction_index == 2

    def test_store_to_flash_is_violation(self):
        def body(asm):
            asm.movi(Reg.R0, FLASH)
            asm.movi(Reg.R1, 1)
            asm.str_(Reg.R1, Reg.R0, 0)
            asm.halt()

        trace = abstract_execute(_assemble(body), MemoryMap.stm32())
        result = check_memory_safety(trace)
        assert not result.ok
        assert "read-only" in str(result.violations[0])

    def test_load_past_end_of_ram_is_violation(self):
        ram_kb = 16

        def body(asm):
            asm.movi(Reg.R0, RAM + ram_kb * 1024 - 2)
            asm.ldr(Reg.R1, Reg.R0, 0)    # 4-byte read, 2 bytes left
            asm.halt()

        trace = abstract_execute(_assemble(body), MemoryMap.stm32())
        result = check_memory_safety(trace)
        assert not result.ok
        assert result.violations[0].index == 1

    def test_in_bounds_accesses_report_ranges(self):
        def body(asm):
            asm.movi(Reg.R0, RAM)
            asm.movi(Reg.R2, 4)
            asm.label("loop")
            asm.ldrsb(Reg.R1, Reg.R0, 0)
            asm.addi(Reg.R0, Reg.R0, 1)
            asm.subsi(Reg.R2, Reg.R2, 1)
            asm.bgt("loop")
            asm.halt()

        trace = abstract_execute(_assemble(body), MemoryMap.stm32())
        result = check_memory_safety(trace)
        assert result.ok
        (access,) = result.accesses
        assert (access.lo, access.hi) == (RAM, RAM + 3)
        assert access.count == 4
        assert access.region == "ram"
        assert result.loads_checked == 4

    def test_verification_does_not_touch_traffic_counters(self):
        memory = MemoryMap.stm32()

        def body(asm):
            asm.movi(Reg.R0, RAM)
            asm.ldrsb(Reg.R1, Reg.R0, 0)
            asm.strb(Reg.R1, Reg.R0, 4)
            asm.halt()

        abstract_execute(_assemble(body), memory)
        for region in memory.regions:
            assert region.loads == 0
            assert region.stores == 0


class TestWCETBounds:
    def test_data_dependent_branch_defeats_the_bound(self):
        def body(asm):
            asm.movi(Reg.R0, RAM)
            asm.ldrsb(Reg.R1, Reg.R0, 0)    # unknown data ...
            asm.cmpi(Reg.R1, 0)             # ... drives the flags
            asm.beq("skip")
            asm.movi(Reg.R2, 1)
            asm.label("skip")
            asm.halt()

        program = _assemble(body)
        trace = abstract_execute(program, MemoryMap.stm32())
        wcet = infer_wcet(build_cfg(program), trace)
        assert not wcet.ok
        assert "data-dependent" in wcet.failure
        with pytest.raises(VerificationError, match="no static cycle"):
            wcet.require_bound()

    def test_countdown_loop_bound_is_exact(self):
        def body(asm):
            asm.movi(Reg.R0, 10)
            asm.label("loop")
            asm.subsi(Reg.R0, Reg.R0, 1)
            asm.bgt("loop")
            asm.halt()

        program = _assemble(body)
        trace = abstract_execute(program, MemoryMap.stm32())
        wcet = infer_wcet(build_cfg(program), trace)
        (loop,) = wcet.loops
        assert loop.idiom == "countdown"
        assert loop.counter == Reg.R0
        assert loop.trip_bound == 10
        # 1 (movi) + 10*(1 subsi) + 9*3 + 1 (taken/not-taken bgt) + 1 halt
        assert wcet.cycle_bound == 1 + 10 * 1 + 9 * 3 + 1 + 1

    def test_countup_loop_is_classified(self):
        def body(asm):
            asm.movi(Reg.R0, 0)       # counter
            asm.movi(Reg.R1, 6)       # limit
            asm.label("loop")
            asm.addi(Reg.R0, Reg.R0, 1)
            asm.cmp(Reg.R0, Reg.R1)
            asm.blt("loop")
            asm.halt()

        program = _assemble(body)
        trace = abstract_execute(program, MemoryMap.stm32())
        wcet = infer_wcet(build_cfg(program), trace)
        (loop,) = wcet.loops
        assert loop.idiom == "countup"
        assert loop.counter == Reg.R0
        assert loop.trip_bound == 6


class TestKernelTightness:
    """Acceptance: measured <= bound <= 1.05 * measured, every backend."""

    def _assert_tight(self, image, x):
        report = verify_kernel_image(image)
        assert report.ok, report.format()
        bound = report.cycle_bound
        image.write_input(x)
        measured = image.run().cycles
        assert measured <= bound <= 1.05 * measured
        # The discipline makes the bound not merely tight but exact.
        assert bound == measured

    @pytest.mark.parametrize("fmt", SPARSE_FORMATS)
    def test_sparse_encodings(self, fmt, ternary_spec, rng):
        image = generate_sparse(ternary_spec, fmt)
        self._assert_tight(
            image, rng.integers(0, 2, 16).astype(np.int8)
        )

    def test_dense(self, rng):
        weights = rng.integers(-20, 20, (16, 8)).astype(np.int8)
        bias = rng.integers(-5, 5, 8).astype(np.int32)
        spec = make_dense_spec(
            weights, bias, mult=None, act_out_width=4, relu=True
        )
        self._assert_tight(
            generate_dense(spec),
            rng.integers(-100, 100, 16).astype(np.int8),
        )

    def test_unrolled(self, rng):
        weights = rng.integers(-20, 20, (16, 8)).astype(np.int8)
        bias = rng.integers(-5, 5, 8).astype(np.int32)
        spec = make_dense_spec(
            weights, bias, mult=None, act_out_width=4, relu=True
        )
        self._assert_tight(
            generate_dense(spec, unroll=4),
            rng.integers(-100, 100, 16).astype(np.int8),
        )

    def test_cnn(self, rng):
        spec = ConvKernelSpec(
            image_size=8, kernel_size=3, num_filters=2,
            weights=rng.integers(-10, 10, (2, 3, 3)).astype(np.int8),
            bias=rng.integers(-5, 5, 2).astype(np.int32),
        )
        image = generate_conv(spec)
        self._assert_tight(
            image,
            rng.integers(-50, 50, image.input_count).astype(np.int16),
        )

    def test_all_kernel_loops_classified(self, ternary_spec):
        image = generate_sparse(ternary_spec, "block")
        report = verify_kernel_image(image)
        assert report.wcet is not None
        for loop in report.wcet.loops:
            assert loop.idiom == "countdown"


class TestKernelTightnessPerBoard:
    """ISSUE-9: the static bound is exact on EVERY board profile.

    Each board brings its own memory map (the RISC-V part moves both
    the flash and RAM windows) and its own wait-state cost table; the
    WCET discipline must price the same program against the board's
    table and still land exactly on the measured cycle count.
    """

    @pytest.mark.parametrize(
        "board", list(BOARD_PROFILES.values()), ids=list(BOARD_PROFILES)
    )
    @pytest.mark.parametrize("fmt", SPARSE_FORMATS)
    def test_sparse_bound_is_exact_per_board(
        self, fmt, board, ternary_spec, rng
    ):
        image = generate_sparse(
            ternary_spec, fmt, memory=board.make_memory()
        )
        report = verify_kernel_image(image, board)
        assert report.ok, report.format()
        image.write_input(rng.integers(0, 2, 16).astype(np.int8))
        measured = image.run(board).cycles
        assert report.cycle_bound == measured

    def test_bounds_track_the_cost_table(self, ternary_spec, rng):
        """Distinct wait-state models produce distinct exact bounds."""
        x = rng.integers(0, 2, 16).astype(np.int8)
        bounds = {}
        for board in BOARD_PROFILES.values():
            image = generate_sparse(
                ternary_spec, "block", memory=board.make_memory()
            )
            report = verify_kernel_image(image, board)
            image.write_input(x)
            assert report.cycle_bound == image.run(board).cycles
            bounds[board.name] = report.cycle_bound
        assert len(set(bounds.values())) > 1, bounds
