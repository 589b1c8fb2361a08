"""The §4.1 static-control-flow verifier, on hand-built and real kernels."""

import numpy as np
import pytest

from repro.analysis.taint import verify_static_control_flow
from repro.errors import ExecutionError
from repro.kernels.codegen_cnn import ConvKernelSpec, generate_conv
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.isa import Assembler, Reg

RAM = 0x2000_0000


class TestHandBuiltPrograms:
    def test_clean_countdown_loop_passes(self):
        asm = Assembler("clean")
        asm.movi(Reg.R0, 10)
        asm.label("loop")
        asm.subsi(Reg.R0, Reg.R0, 1)
        asm.bgt("loop")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert result.control_flow_is_input_independent

    def test_branch_on_loaded_input_detected(self):
        asm = Assembler("dirty")
        asm.movi(Reg.R0, RAM)       # points into the input buffer
        asm.ldrsb(Reg.R1, Reg.R0, 0)
        asm.cmpi(Reg.R1, 0)         # flags now depend on the input
        asm.beq("skip")
        asm.movi(Reg.R2, 1)
        asm.label("skip")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert not result.control_flow_is_input_independent
        assert result.violations[0].index == 2
        with pytest.raises(ExecutionError, match="discipline"):
            result.require_clean()

    def test_taint_propagates_through_arithmetic(self):
        asm = Assembler("propagated")
        asm.movi(Reg.R0, RAM)
        asm.ldrsh(Reg.R1, Reg.R0, 0)
        asm.add(Reg.R2, Reg.R1, Reg.R1)   # still input-derived
        asm.subsi(Reg.R2, Reg.R2, 1)      # flag-setting on tainted data
        asm.bgt("end")
        asm.label("end")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert not result.control_flow_is_input_independent

    def test_pointer_bump_into_input_taints_loads(self):
        # Fig. 4's addressing: pointer = base + offset, then load.
        asm = Assembler("ptr")
        asm.movi(Reg.R0, RAM)             # base into input
        asm.movi(Reg.R1, 4)
        asm.add(Reg.R2, Reg.R0, Reg.R1)   # pointer arithmetic
        asm.ldrsh(Reg.R3, Reg.R2, 0)      # tainted load
        asm.cmpi(Reg.R3, 0)
        asm.beq("end")
        asm.label("end")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert not result.control_flow_is_input_independent

    def test_flash_driven_loop_bounds_are_allowed(self):
        # Counts loaded from flash drive loops: input-independent.
        flash = 0x0800_0000
        asm = Assembler("counts")
        asm.movi(Reg.R0, flash)
        asm.ldrb(Reg.R1, Reg.R0, 0)       # a count, not activation data
        asm.label("loop")
        asm.subsi(Reg.R1, Reg.R1, 1)
        asm.bgt("loop")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert result.control_flow_is_input_independent

    def test_tainted_store_base_detected(self):
        # Store address derived from input data: control flow is static,
        # but the memory-traffic pattern would depend on the input.
        asm = Assembler("scatter")
        asm.movi(Reg.R0, RAM)
        asm.ldrsb(Reg.R1, Reg.R0, 0)        # input byte
        asm.movi(Reg.R2, RAM + 64)
        asm.add(Reg.R2, Reg.R2, Reg.R1)     # base = table + input
        asm.movi(Reg.R3, 1)
        asm.strb(Reg.R3, Reg.R2, 0)
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert result.control_flow_is_input_independent
        assert not result.store_addresses_are_input_independent
        assert not result.ok
        assert result.violations[0].index == 5
        with pytest.raises(ExecutionError, match="discipline"):
            result.require_clean()

    def test_tainted_store_index_register_detected(self):
        # Regression: a tainted *index* register (reg-offset store) used
        # to slip through when only the base register was inspected.
        asm = Assembler("scatter-index")
        asm.movi(Reg.R0, RAM)
        asm.ldrsb(Reg.R1, Reg.R0, 0)        # input byte
        asm.movi(Reg.R2, RAM + 64)
        asm.movi(Reg.R3, 1)
        asm.strb(Reg.R3, Reg.R2, Reg.R1)    # offset register is tainted
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert not result.store_addresses_are_input_independent
        assert result.violations[0].index == 4

    def test_movi_clears_previous_taint(self):
        asm = Assembler("cleared")
        asm.movi(Reg.R0, RAM)
        asm.ldrsb(Reg.R1, Reg.R0, 0)
        asm.movi(Reg.R1, 5)               # overwritten with a constant
        asm.cmpi(Reg.R1, 0)
        asm.beq("end")
        asm.label("end")
        asm.halt()
        result = verify_static_control_flow(asm.assemble(), RAM, 64)
        assert result.control_flow_is_input_independent


def _neuroc_spec(rng):
    adjacency = rng.choice(
        [-1, 0, 1], (60, 8), p=[0.1, 0.8, 0.1]
    ).astype(np.int8)
    return make_neuroc_spec(
        adjacency, rng.integers(-40, 40, 8).astype(np.int32),
        rng.integers(30, 90, 8).astype(np.int16), shift=8,
        act_in_width=2, act_out_width=2, relu=True,
    )


class TestGeneratedKernels:
    """Every generated kernel must satisfy §4.1 — including the branchless
    ReLU and saturation paths, which is exactly what they exist for."""

    @pytest.mark.parametrize("fmt", SPARSE_FORMATS)
    def test_sparse_kernels_verified(self, fmt, rng):
        spec = _neuroc_spec(rng)
        image = generate_sparse(spec, fmt)
        ram = image.memory.region("ram")
        result = verify_static_control_flow(
            image.program,
            image.input_addr,
            spec.n_in * spec.act_in_width,
            # The block kernel's partial sums are input-derived too.
            tainted_regions=((ram.base, ram.end),),
        )
        result.require_clean()
        # The only input-derived stores are activations/partial sums.
        assert result.tainted_store_sites >= 1

    def test_dense_kernel_verified(self, rng):
        spec = make_dense_spec(
            rng.integers(-30, 30, (40, 6)).astype(np.int8),
            rng.integers(-50, 50, 6).astype(np.int32),
            40, shift=9, act_in_width=1, act_out_width=2, relu=True,
        )
        image = generate_dense(spec)
        verify_static_control_flow(
            image.program, image.input_addr, 40
        ).require_clean()

    def test_unrolled_kernel_verified(self, rng):
        spec = make_dense_spec(
            rng.integers(-30, 30, (40, 6)).astype(np.int8),
            rng.integers(-50, 50, 6).astype(np.int32),
            40, shift=9, act_in_width=1, act_out_width=2, relu=True,
        )
        image = generate_dense(spec, unroll=4)
        verify_static_control_flow(
            image.program, image.input_addr, 40
        ).require_clean()

    def test_conv_kernel_verified(self, rng):
        spec = ConvKernelSpec(
            image_size=8, kernel_size=3, num_filters=2,
            weights=rng.integers(-10, 10, (2, 3, 3)).astype(np.int8),
            bias=rng.integers(-20, 20, 2).astype(np.int32),
        )
        image = generate_conv(spec)
        ram = image.memory.region("ram")
        verify_static_control_flow(
            image.program, image.input_addr, 64 * 2,
            tainted_regions=((ram.base, ram.end),),  # im2col buffer
        ).require_clean()
