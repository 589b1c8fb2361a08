"""Shared machinery for kernel code generation.

Every generator produces a :class:`KernelImage`: an assembled program plus
the memory map in which its constant arrays have been placed (flash) and
its activation buffers reserved (RAM).  The host writes inputs with
:meth:`KernelImage.write_input`, runs the program on a CPU, and reads
outputs with :meth:`KernelImage.read_output` — the same handshake firmware
would use via a serial link.

The layer kernels (dense and the four sparse encodings) share one frame;
each generator only adds its traversal:

- :func:`place_layer` places the kernel's own arrays, the int32 bias and
  the int16 per-neuron multipliers in flash, in that order, and reserves
  the activation buffers a deployer did not pass in,
- :func:`emit_column_setup` loads the column loop's registers (``R5``
  output cursor, ``R6`` bias cursor, ``R7`` multiplier, ``R8`` column
  count); ``R0``–``R4`` are the generator's own,
- :func:`emit_epilogue` finishes one output neuron from the accumulator
  ``R9`` in Eq. 1 order; :func:`count_columns` counts the setup and the
  column loop around it,
- :func:`layer_image` assembles the program, taint-verifies it and wraps
  it with its placement.

Code-generation idioms (shared by all kernels, mirrored by the analytical
cost model):

- count-down loops: ``SUBSI counter, 1`` + ``BGT`` (4 cycles per iteration,
  2 on the final fall-through),
- branchless ReLU on the 32-bit accumulator:
  ``ASRI t1, acc, 31; MOVI t2, -1; EOR t1, t1, t2; AND acc, acc, t1``
  (4 cycles, no data-dependent branch — §4.1's static-control-flow rule),
- requantization: ``MUL acc, mult`` + ``ASRI acc, shift``; the per-neuron
  multiplier is loaded from a walked pointer (Neuro-C's ``w_j``), the
  per-layer multiplier lives in a register (TNN / dense baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.analysis.taint import verify_static_control_flow
from repro.kernels.opcount import OpCount, countdown_loop
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.cpu import ExecutionResult
from repro.mcu.fastpath import DEFAULT_ENGINE, make_cpu
from repro.mcu.isa import Assembler, Program, Reg
from repro.mcu.memory import Allocator, MemoryMap


@dataclass
class KernelImage:
    """An assembled kernel plus its placed data."""

    program: Program
    memory: MemoryMap
    input_addr: int
    input_count: int
    input_width: int
    output_addr: int
    output_count: int
    output_width: int
    flash_data_bytes: int

    def write_input(self, x: np.ndarray) -> None:
        """Place one input vector into the RAM input buffer."""
        x = np.asarray(x)
        if x.shape != (self.input_count,):
            raise ConfigurationError(
                f"input shape {x.shape} != ({self.input_count},)"
            )
        dtype = {1: np.int8, 2: np.int16, 4: np.int32}[self.input_width]
        self.memory.write_array(self.input_addr, x.astype(dtype))

    def read_output(self) -> np.ndarray:
        """Read the kernel's output buffer as signed integers."""
        return self.memory.read_array(
            self.output_addr, self.output_count, self.output_width,
            signed=True,
        )

    def run(
        self,
        board: BoardProfile = STM32F072RB,
        engine: str = DEFAULT_ENGINE,
    ) -> ExecutionResult:
        """Execute once on a fresh engine bound to this image's memory.

        ``engine="fastpath"`` (default) runs the basic-block translating
        engine; ``engine="interpreter"`` forces the reference CPU (see
        :mod:`repro.mcu.fastpath` for the bit-exactness contract).
        """
        return make_cpu(
            self.memory, costs=board.costs, engine=engine
        ).run(self.program)


def load_signed(asm: Assembler, rd: Reg, base: Reg, offset, width: int):
    """Width-dispatched signed load (LDRSB / LDRSH / LDR)."""
    if width == 1:
        asm.ldrsb(rd, base, offset)
    elif width == 2:
        asm.ldrsh(rd, base, offset)
    elif width == 4:
        asm.ldr(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported load width {width}")


def load_unsigned(asm: Assembler, rd: Reg, base: Reg, offset, width: int):
    """Width-dispatched unsigned load (LDRB / LDRH)."""
    if width == 1:
        asm.ldrb(rd, base, offset)
    elif width == 2:
        asm.ldrh(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported load width {width}")


def store(asm: Assembler, rd: Reg, base: Reg, offset, width: int) -> None:
    """Width-dispatched store (STRB / STRH / STR)."""
    if width == 1:
        asm.strb(rd, base, offset)
    elif width == 2:
        asm.strh(rd, base, offset)
    elif width == 4:
        asm.str_(rd, base, offset)
    else:
        raise ConfigurationError(f"unsupported store width {width}")


def emit_relu(asm: Assembler, acc: Reg, t1: Reg, t2: Reg) -> None:
    """Branchless ``acc = max(acc, 0)``: 4 cycles, no branches.

    ``t1``/``t2`` are scratch registers whose values are clobbered.
    """
    asm.asri(t1, acc, 31)   # t1 = 0xFFFFFFFF if acc < 0 else 0
    asm.movi(t2, -1)
    asm.eor(t1, t1, t2)     # t1 = 0 if acc < 0 else 0xFFFFFFFF
    asm.and_(acc, acc, t1)  # clears acc when negative

#: Cycle cost of :func:`emit_relu` (all four are 1-cycle ALU ops).
RELU_CYCLES = 4


def emit_saturate_upper(asm: Assembler, acc: Reg, t1: Reg, t2: Reg,
                        hi: int) -> None:
    """Branchless ``acc = min(acc, hi)``: 4 cycles, no branches.

    Requantized ReLU activations can exceed the output width on inputs
    slightly outside the calibration range; the upper clamp makes the
    stored activation saturate instead of wrap, with no data-dependent
    branch (the lower bound is already guaranteed by ReLU).
    """
    asm.subi(t1, acc, hi)    # t1 = acc - hi
    asm.asri(t2, t1, 31)     # t2 = all-ones iff acc < hi
    asm.and_(t1, t1, t2)     # t1 = min(acc - hi, 0)
    asm.addi(acc, t1, hi)    # acc = hi + min(acc - hi, 0)

#: Cycle cost of :func:`emit_saturate_upper`.
SAT_CYCLES = 4


def needs_saturation(relu: bool, has_mult: bool, act_out_width: int) -> bool:
    """Whether the epilogue clamps: requantized ReLU outputs narrower than
    the accumulator."""
    return relu and has_mult and act_out_width in (1, 2)


def assert_static_discipline(program: Program, memory: MemoryMap) -> Program:
    """Taint-verify a freshly assembled kernel; return it unchanged.

    Every generator funnels its program through this check (layer
    kernels via :func:`layer_image`) with *all* writable regions
    tainted — the strongest form of the §4.1 discipline — so a kernel
    that could branch or address on input data never leaves code
    generation.  Raises
    :class:`~repro.errors.VerificationError` naming the offending
    instruction.
    """
    writable = [
        (region.base, region.end)
        for region in memory.regions if region.writable
    ]
    if writable:
        (base, end), *extra = writable
        verify_static_control_flow(
            program, base, end - base, tainted_regions=tuple(extra)
        ).require_clean()
    return program


def ram_allocator(memory: MemoryMap) -> Allocator:
    return Allocator(memory, "ram")


def flash_allocator(memory: MemoryMap) -> Allocator:
    return Allocator(memory, "flash")


# ---------------------------------------------------------------------------
# the layer-kernel frame
# ---------------------------------------------------------------------------


class LayerPlacement(NamedTuple):
    """Where :func:`place_layer` put one layer kernel's data."""

    memory: MemoryMap
    arrays: tuple[int, ...]       # flash address of each kernel array
    bias_addr: int
    mult_addr: int | None         # per-neuron multipliers only
    input_addr: int
    output_addr: int
    flash_bytes: int


def place_layer(
    spec: LayerKernelSpec,
    memory: MemoryMap | None,
    arrays: Iterable[np.ndarray],
    input_addr: int | None,
    output_addr: int | None,
) -> LayerPlacement:
    """Place a layer kernel's data in a fresh or a deployer's memory map.

    Flash gets the kernel's own ``arrays`` in order, then the int32 bias,
    then the int16 per-neuron multipliers; ``flash_bytes`` counts all of
    them.  The input and output buffers are reserved in RAM unless given:
    a multi-layer deployer chains kernels through shared buffers.
    """
    memory = memory or MemoryMap.stm32()
    flash = flash_allocator(memory)
    flash_start = flash.used_bytes
    addrs = tuple(flash.place(array) for array in arrays)
    bias_addr = flash.place(spec.bias.astype(np.int32))
    mult_addr = (
        flash.place(spec.mult.astype(np.int16))
        if spec.per_neuron_mult else None
    )
    flash_bytes = flash.used_bytes - flash_start
    ram = ram_allocator(memory)
    if input_addr is None:
        input_addr = ram.reserve(spec.n_in * spec.act_in_width,
                                 align=spec.act_in_width)
    if output_addr is None:
        output_addr = ram.reserve(spec.n_out * spec.act_out_width,
                                  align=spec.act_out_width)
    return LayerPlacement(memory, addrs, bias_addr, mult_addr, input_addr,
                          output_addr, flash_bytes)


def emit_column_setup(asm: Assembler, spec: LayerKernelSpec,
                      placement: LayerPlacement) -> None:
    """Load the column loop's registers.

    ``R5`` output cursor, ``R6`` bias cursor, ``R7`` the multiplier (a
    cursor over the per-neuron values, or the per-layer value) and ``R8``
    the column count.
    """
    asm.movi(Reg.R5, placement.output_addr)
    asm.movi(Reg.R6, placement.bias_addr)
    if spec.per_neuron_mult:
        asm.movi(Reg.R7, placement.mult_addr)
    elif spec.mult is not None:
        asm.movi(Reg.R7, int(spec.mult))
    asm.movi(Reg.R8, spec.n_out)


def emit_epilogue(asm: Assembler, spec: LayerKernelSpec, t1: Reg, t2: Reg,
                  bias_tmp: Reg | None = None) -> None:
    """Finish one output neuron from the accumulator ``R9``.

    Eq. 1 order: scale (``R7``), add the bias (``R6``, loaded into
    ``bias_tmp``, default ``t1``), ReLU, clamp to the output width, then
    store through ``R5`` and bump it.  ``t1``/``t2`` are clobbered.
    """
    acc = Reg.R9
    if spec.mult is not None:
        if spec.per_neuron_mult:
            asm.ldrsh(t1, Reg.R7, 0)
            asm.addi(Reg.R7, Reg.R7, 2)
            asm.mul(acc, acc, t1)
        else:
            asm.mul(acc, acc, Reg.R7)
        if spec.shift:
            asm.asri(acc, acc, spec.shift)
    if bias_tmp is None:
        bias_tmp = t1
    asm.ldr(bias_tmp, Reg.R6, 0)
    asm.addi(Reg.R6, Reg.R6, 4)
    asm.add(acc, acc, bias_tmp)
    if spec.relu:
        emit_relu(asm, acc, t1, t2)
    if needs_saturation(spec.relu, spec.mult is not None,
                        spec.act_out_width):
        emit_saturate_upper(asm, acc, t1, t2, spec.act_out_range()[1])
    store(asm, acc, Reg.R5, 0, spec.act_out_width)
    asm.addi(Reg.R5, Reg.R5, spec.act_out_width)


def count_epilogue(spec: LayerKernelSpec) -> OpCount:
    """Operation counts of one :func:`emit_epilogue` (exact)."""
    out = OpCount.block(store=1, alu=1)          # output store + bump
    out += OpCount.block(load=1, alu=2)          # bias load + bump + add
    if spec.relu:
        out += OpCount.block(alu=RELU_CYCLES)
    if needs_saturation(spec.relu, spec.mult is not None,
                        spec.act_out_width):
        out += OpCount.block(alu=SAT_CYCLES)
    if spec.mult is not None:
        if spec.per_neuron_mult:
            out += OpCount.block(load=1, alu=1, mul=1)
        else:
            out += OpCount.block(mul=1)
        if spec.shift:
            out += OpCount.block(alu=1)
    return out


def count_columns(spec: LayerKernelSpec, per_column: OpCount) -> OpCount:
    """Counts of :func:`emit_column_setup` and the column loop after it.

    Each of the ``n_out`` columns runs ``per_column``, the epilogue and
    the ``SUBSI``/``BGT`` on ``R8``.
    """
    setup = OpCount.block(alu=3 + (1 if spec.mult is not None else 0))
    return setup + countdown_loop(
        per_column + count_epilogue(spec), spec.n_out
    )


def layer_image(asm: Assembler, spec: LayerKernelSpec,
                placement: LayerPlacement) -> KernelImage:
    """Assemble a layer kernel, taint-verify it and wrap its placement."""
    memory = placement.memory
    return KernelImage(
        program=assert_static_discipline(asm.assemble(), memory),
        memory=memory,
        input_addr=placement.input_addr,
        input_count=spec.n_in,
        input_width=spec.act_in_width,
        output_addr=placement.output_addr,
        output_count=spec.n_out,
        output_width=spec.act_out_width,
        flash_data_bytes=placement.flash_bytes,
    )
