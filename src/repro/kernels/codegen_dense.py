"""Dense (MLP baseline) kernel: the software MACC loop of §2.

Every output neuron walks all ``n_in`` inputs with an explicit
load-load-multiply-add loop — exactly the computation the paper argues is
too expensive on a Cortex-M0, reproduced here as the comparison baseline.

``unroll`` applies §4.1's "sequence of shallow, possibly unrolled loops
over contiguous memory segments" to that loop: each unroll step removes
one ``SUBSI``/``BGT`` pair (4 cycles on a taken branch) per element at
the cost of duplicated loop-body code, and the ablation benchmark sweeps
the factor to quantify the trade-off.  The ``n_in % unroll`` remainder
runs straight-line after the loop, so both bounds stay compile-time
constants.

Register plan (``R5``–``R8`` are the frame's, see
:func:`~repro.kernels.codegen_common.emit_column_setup`)::

    r0  weight pointer (column-major, bumps across the whole matrix)
    r1  x value scratch, then the bias
    r4  input base          r5  output pointer     r6  bias pointer
    r7  requant multiplier (value or pointer)      r8  column counter
    r9  accumulator         r10 x pointer          r11 inner counter
    r12 weight scratch
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.codegen_common import (
    KernelImage,
    count_columns,
    emit_column_setup,
    emit_epilogue,
    layer_image,
    load_signed,
    place_layer,
)
from repro.kernels.opcount import OpCount, countdown_loop
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.isa import Assembler, Reg
from repro.mcu.memory import MemoryMap


def _unrolled_iterations(n_in: int, unroll: int) -> tuple[int, int]:
    """(loop iterations, remainder elements) of an ``unroll``-step loop."""
    if unroll < 1:
        raise ConfigurationError(f"unroll factor must be >= 1: {unroll}")
    return divmod(n_in, unroll)


def generate_dense(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    unroll: int = 1,
) -> KernelImage:
    """Build the dense kernel program and place its data.

    ``memory``/``input_addr``/``output_addr`` let a multi-layer deployer
    chain kernels through shared activation buffers; standalone use leaves
    them unset.  ``unroll`` repeats the MACC step that many times per
    inner-loop iteration.
    """
    if not spec.is_dense:
        raise ConfigurationError("generate_dense requires a dense spec")
    main_iters, remainder = _unrolled_iterations(spec.n_in, unroll)
    # Column-major so each output neuron's weights are contiguous.
    placement = place_layer(
        spec, memory, [np.ascontiguousarray(spec.weights.T)],
        input_addr, output_addr,
    )

    asm = Assembler(
        "dense_kernel" if unroll == 1 else f"dense_unrolled_x{unroll}"
    )
    asm.movi(Reg.R0, placement.arrays[0])
    asm.movi(Reg.R4, placement.input_addr)
    emit_column_setup(asm, spec, placement)

    def macc_step() -> None:
        asm.ldrsb(Reg.R12, Reg.R0, 0)        # weight
        asm.addi(Reg.R0, Reg.R0, 1)
        load_signed(asm, Reg.R1, Reg.R10, 0, spec.act_in_width)
        asm.addi(Reg.R10, Reg.R10, spec.act_in_width)
        asm.mul(Reg.R12, Reg.R12, Reg.R1)
        asm.add(Reg.R9, Reg.R9, Reg.R12)

    asm.label("col")
    asm.movi(Reg.R9, 0)                      # acc = 0 (bias joins post-scale)
    asm.mov(Reg.R10, Reg.R4)                 # x cursor
    if main_iters:
        asm.movi(Reg.R11, main_iters)
        asm.label("elem")
        for _ in range(unroll):
            macc_step()
        asm.subsi(Reg.R11, Reg.R11, 1)
        asm.bgt("elem")
    for _ in range(remainder):
        macc_step()
    emit_epilogue(asm, spec, Reg.R11, Reg.R12, bias_tmp=Reg.R1)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("col")
    asm.halt()
    return layer_image(asm, spec, placement)


def count_dense(spec: LayerKernelSpec, unroll: int = 1) -> OpCount:
    """Analytical operation counts of :func:`generate_dense` (exact)."""
    main_iters, remainder = _unrolled_iterations(spec.n_in, unroll)
    macc = OpCount.block(load=2, alu=3, mul=1)  # ldrsb+ldrsx, 2 addi + add
    inner = macc.scaled(remainder)
    if main_iters:
        inner += OpCount.block(alu=1)            # movi count
        inner += countdown_loop(macc.scaled(unroll), main_iters)
    setup = OpCount.block(alu=2)                 # movi weights, movi input
    per_column = OpCount.block(alu=2) + inner    # movi acc, mov x cursor
    return OpCount() + setup + count_columns(spec, per_column)
