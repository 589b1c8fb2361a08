"""Neuro-C sparse kernels — one generator per §4.2 encoding.

All four kernels compute the same integer function (validated against
:func:`repro.kernels.ref.layer_forward`); they differ in traversal
structure, which is where the latency and storage differences of Figure 5
come from:

``csc``
    Position-indexed loop between ``pointers[j]`` and ``pointers[j+1]``;
    every element pays index-array address arithmetic plus a compare
    against the loaded bound.
``delta``
    Fig. 4's pointer-bump traversal: the first index is absolute, the rest
    are prescaled byte offsets added straight to a walking input pointer.
``mixed``
    Per-column counts with absolute indices; stateless element loads
    folded into register-offset addressing.
``block``
    One accumulation pass per input block with 8-bit block-local indices,
    partial sums parked in a 32-bit RAM buffer between passes.

Each generator has a ``count_*`` twin that reproduces its executed
instruction mix *exactly* (asserted by tests); Figure 5a prices those
counts instead of running the interpreter.
"""

from __future__ import annotations

import numpy as np

from repro.encodings import (
    BlockEncoding,
    CSCEncoding,
    DeltaEncoding,
    MixedEncoding,
    SparseEncoding,
)
from repro.errors import ConfigurationError
from repro.kernels.codegen_common import (
    KernelImage,
    assert_static_discipline,
    RELU_CYCLES,
    SAT_CYCLES,
    emit_relu,
    emit_saturate_upper,
    flash_allocator,
    load_signed,
    load_unsigned,
    needs_saturation,
    ram_allocator,
    store,
)
from repro.kernels.opcount import OpCount
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.isa import Assembler, Reg
from repro.mcu.memory import MemoryMap

SPARSE_FORMATS = ("csc", "delta", "mixed", "block")


def encode_for_kernel(
    spec: LayerKernelSpec, format_name: str, block_size: int = 256
) -> SparseEncoding:
    """Encode a spec's adjacency the way its kernel expects it.

    The encoding is memoized on ``spec`` per ``(format_name,
    block_size)``, so the size model, the operation count and the
    deployed kernel of one layer share one encoding.  The spec is frozen
    and ``act_in_width`` (the delta stride) is one of its fields; the
    memo is a private attribute outside the fields, so it is neither
    compared nor printed.  The shared arrays are read-only: a caller
    that writes one fails instead of corrupting every other user.
    """
    memo = spec.__dict__.setdefault("_encodings", {})
    key = (format_name, block_size)
    if key not in memo:
        memo[key] = _encode(spec, format_name, block_size)
        for array in memo[key].arrays().values():
            array.setflags(write=False)
    return memo[key]


def _encode(
    spec: LayerKernelSpec, format_name: str, block_size: int
) -> SparseEncoding:
    matrix = spec.ternary_matrix
    if format_name == "csc":
        return CSCEncoding.from_matrix(matrix)
    if format_name == "delta":
        # Offsets are prescaled to byte strides so the kernel adds them to
        # an address without shifting (Fig. 4's I_PTR += *P_PTR++).
        return DeltaEncoding.from_matrix(matrix, stride=spec.act_in_width)
    if format_name == "mixed":
        return MixedEncoding.from_matrix(matrix)
    if format_name == "block":
        return BlockEncoding.from_matrix(matrix, block_size=block_size)
    raise ConfigurationError(
        f"unknown sparse format {format_name!r}; known: {SPARSE_FORMATS}"
    )


# ---------------------------------------------------------------------------
# shared epilogue (ReLU + requantization + store)
# ---------------------------------------------------------------------------


def _emit_epilogue(asm: Assembler, spec: LayerKernelSpec, acc: Reg,
                   t1: Reg, t2: Reg, mult_reg: Reg, bias_reg: Reg,
                   out_ptr: Reg) -> None:
    """Eq. 1 order: scale the accumulator, add the bias, apply ReLU."""
    if spec.mult is not None:
        if spec.per_neuron_mult:
            asm.ldrsh(t1, mult_reg, 0)
            asm.addi(mult_reg, mult_reg, 2)
            asm.mul(acc, acc, t1)
        else:
            asm.mul(acc, acc, mult_reg)
        if spec.shift:
            asm.asri(acc, acc, spec.shift)
    asm.ldr(t1, bias_reg, 0)
    asm.addi(bias_reg, bias_reg, 4)
    asm.add(acc, acc, t1)
    if spec.relu:
        emit_relu(asm, acc, t1, t2)
    if needs_saturation(spec.relu, spec.mult is not None,
                        spec.act_out_width):
        emit_saturate_upper(asm, acc, t1, t2, spec.act_out_range()[1])
    store(asm, acc, out_ptr, 0, spec.act_out_width)
    asm.addi(out_ptr, out_ptr, spec.act_out_width)


def _count_epilogue(spec: LayerKernelSpec) -> OpCount:
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


def _count_per_column_sections(
    counts: np.ndarray, per_elem: OpCount, first_elem: OpCount | None,
    header: OpCount,
) -> OpCount:
    """Aggregate one polarity's per-column header + guarded element loop.

    ``header`` ends with the ``BEQ skip`` guard (priced here).  With
    ``first_elem`` set (delta), the first element runs outside the loop and
    is followed by its own ``BEQ skip`` guard.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_cols = len(counts)
    n_zero = int((counts == 0).sum())
    n_nonzero = n_cols - n_zero
    total = header.scaled(n_cols)
    total += OpCount.block(branch_taken=n_zero, branch_not_taken=n_nonzero)

    if first_elem is None:
        loop_elems = int(counts.sum())
        loop_entries = n_nonzero
    else:
        total += first_elem.scaled(n_nonzero)
        n_single = int((counts == 1).sum())
        # BEQ after the first element's SUBSI: taken when count was 1.
        total += OpCount.block(
            branch_taken=n_single, branch_not_taken=n_nonzero - n_single
        )
        loop_elems = int(counts[counts > 1].sum() - (counts > 1).sum())
        loop_entries = int((counts > 1).sum())

    if loop_elems:
        total += per_elem.scaled(loop_elems)
        total += OpCount.block(
            branch_taken=loop_elems - loop_entries,
            branch_not_taken=loop_entries,
        )
    return total


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------


def generate_mixed(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: MixedEncoding | None = None,
) -> KernelImage:
    enc = encoding or encode_for_kernel(spec, "mixed")
    memory = memory or MemoryMap.stm32()
    flash = flash_allocator(memory)
    flash_start = flash.used_bytes
    ram = ram_allocator(memory)

    pos_counts = flash.place(enc.pos.counts)
    pos_idx = flash.place(enc.pos.indices)
    neg_counts = flash.place(enc.neg.counts)
    neg_idx = flash.place(enc.neg.indices)
    bias_addr = flash.place(spec.bias.astype(np.int32))
    mult_addr = (
        flash.place(spec.mult.astype(np.int16))
        if spec.per_neuron_mult else None
    )
    flash_bytes = flash.used_bytes - flash_start
    if input_addr is None:
        input_addr = ram.reserve(spec.n_in * spec.act_in_width,
                                 align=spec.act_in_width)
    if output_addr is None:
        output_addr = ram.reserve(spec.n_out * spec.act_out_width,
                                  align=spec.act_out_width)

    aw = spec.act_in_width

    asm = Assembler("neuroc_mixed")
    asm.movi(Reg.R0, pos_counts)
    asm.movi(Reg.R1, neg_counts)
    asm.movi(Reg.R2, pos_idx)
    asm.movi(Reg.R3, neg_idx)
    asm.movi(Reg.R4, input_addr)
    asm.movi(Reg.R5, output_addr)
    asm.movi(Reg.R6, bias_addr)
    if spec.per_neuron_mult:
        asm.movi(Reg.R7, mult_addr)
    elif spec.mult is not None:
        asm.movi(Reg.R7, int(spec.mult))
    asm.movi(Reg.R8, spec.n_out)

    asm.label("col")
    asm.movi(Reg.R9, 0)

    for sign, counts_reg, idx_reg, polarity in (
        ("pos", Reg.R0, Reg.R2, enc.pos),
        ("neg", Reg.R1, Reg.R3, enc.neg),
    ):
        cw = polarity.counts.itemsize
        iw = polarity.indices.itemsize
        load_unsigned(asm, Reg.R10, counts_reg, 0, cw)
        asm.addi(counts_reg, counts_reg, cw)
        asm.cmpi(Reg.R10, 0)
        asm.beq(f"skip_{sign}")
        asm.label(f"loop_{sign}")
        load_unsigned(asm, Reg.R11, idx_reg, 0, iw)
        asm.addi(idx_reg, idx_reg, iw)
        if aw == 2:
            asm.lsli(Reg.R11, Reg.R11, 1)
        load_signed(asm, Reg.R12, Reg.R4, Reg.R11, aw)
        if sign == "pos":
            asm.add(Reg.R9, Reg.R9, Reg.R12)
        else:
            asm.sub(Reg.R9, Reg.R9, Reg.R12)
        asm.subsi(Reg.R10, Reg.R10, 1)
        asm.bgt(f"loop_{sign}")
        asm.label(f"skip_{sign}")

    _emit_epilogue(asm, spec, Reg.R9, Reg.R10, Reg.R11, Reg.R7, Reg.R6,
                   Reg.R5)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("col")
    asm.halt()

    return KernelImage(
        program=assert_static_discipline(asm.assemble(), memory), memory=memory,
        input_addr=input_addr, input_count=spec.n_in,
        input_width=spec.act_in_width,
        output_addr=output_addr, output_count=spec.n_out,
        output_width=spec.act_out_width,
        flash_data_bytes=flash_bytes,
    )


def count_mixed(
    spec: LayerKernelSpec, encoding: MixedEncoding | None = None
) -> OpCount:
    enc = encoding or encode_for_kernel(spec, "mixed")
    setup = OpCount.block(alu=8 + (1 if spec.mult is not None else 0))
    header = OpCount.block(load=1, alu=2)  # count load, bump, cmpi
    per_elem = OpCount.block(
        load=2, alu=3 + (1 if spec.act_in_width == 2 else 0)
    )
    total = OpCount() + setup
    total += OpCount.block(alu=1).scaled(spec.n_out)  # movi acc, 0
    for counts in (enc.pos.counts, enc.neg.counts):
        total += _count_per_column_sections(counts, per_elem, None, header)
    total += _count_epilogue(spec).scaled(spec.n_out)
    # column loop: SUBSI + BGT per column
    total += OpCount.block(
        alu=spec.n_out, branch_taken=spec.n_out - 1, branch_not_taken=1
    )
    return total


# ---------------------------------------------------------------------------
# delta (Fig. 4)
# ---------------------------------------------------------------------------


def generate_delta(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: DeltaEncoding | None = None,
) -> KernelImage:
    enc = encoding or encode_for_kernel(spec, "delta")
    if enc.stride != spec.act_in_width:
        raise ConfigurationError(
            "delta encoding stride must equal the activation width"
        )
    memory = memory or MemoryMap.stm32()
    flash = flash_allocator(memory)
    flash_start = flash.used_bytes
    ram = ram_allocator(memory)

    pos_counts = flash.place(enc.pos.counts)
    pos_stream = flash.place(enc.pos.stream)
    neg_counts = flash.place(enc.neg.counts)
    neg_stream = flash.place(enc.neg.stream)
    bias_addr = flash.place(spec.bias.astype(np.int32))
    mult_addr = (
        flash.place(spec.mult.astype(np.int16))
        if spec.per_neuron_mult else None
    )
    flash_bytes = flash.used_bytes - flash_start
    if input_addr is None:
        input_addr = ram.reserve(spec.n_in * spec.act_in_width,
                                 align=spec.act_in_width)
    if output_addr is None:
        output_addr = ram.reserve(spec.n_out * spec.act_out_width,
                                  align=spec.act_out_width)

    aw = spec.act_in_width

    asm = Assembler("neuroc_delta")
    asm.movi(Reg.R0, pos_counts)
    asm.movi(Reg.R1, neg_counts)
    asm.movi(Reg.R2, pos_stream)
    asm.movi(Reg.R3, neg_stream)
    asm.movi(Reg.R4, input_addr)
    asm.movi(Reg.R5, output_addr)
    asm.movi(Reg.R6, bias_addr)
    if spec.per_neuron_mult:
        asm.movi(Reg.R7, mult_addr)
    elif spec.mult is not None:
        asm.movi(Reg.R7, int(spec.mult))
    asm.movi(Reg.R8, spec.n_out)

    asm.label("col")
    asm.movi(Reg.R9, 0)

    for sign, counts_reg, stream_reg, polarity in (
        ("pos", Reg.R0, Reg.R2, enc.pos),
        ("neg", Reg.R1, Reg.R3, enc.neg),
    ):
        cw = polarity.counts.itemsize
        sw = polarity.stream.itemsize
        load_unsigned(asm, Reg.R10, counts_reg, 0, cw)
        asm.addi(counts_reg, counts_reg, cw)
        asm.cmpi(Reg.R10, 0)
        asm.beq(f"skip_{sign}")
        # First element: absolute (prescaled) offset from the input base.
        load_unsigned(asm, Reg.R11, stream_reg, 0, sw)
        asm.addi(stream_reg, stream_reg, sw)
        asm.add(Reg.R11, Reg.R4, Reg.R11)   # I_PTR = input + first
        load_signed(asm, Reg.R12, Reg.R11, 0, aw)
        if sign == "pos":
            asm.add(Reg.R9, Reg.R9, Reg.R12)
        else:
            asm.sub(Reg.R9, Reg.R9, Reg.R12)
        asm.subsi(Reg.R10, Reg.R10, 1)
        asm.beq(f"skip_{sign}")
        asm.label(f"loop_{sign}")
        load_unsigned(asm, Reg.R12, stream_reg, 0, sw)
        asm.addi(stream_reg, stream_reg, sw)
        asm.add(Reg.R11, Reg.R11, Reg.R12)  # I_PTR += delta
        load_signed(asm, Reg.R12, Reg.R11, 0, aw)
        if sign == "pos":
            asm.add(Reg.R9, Reg.R9, Reg.R12)
        else:
            asm.sub(Reg.R9, Reg.R9, Reg.R12)
        asm.subsi(Reg.R10, Reg.R10, 1)
        asm.bgt(f"loop_{sign}")
        asm.label(f"skip_{sign}")

    _emit_epilogue(asm, spec, Reg.R9, Reg.R10, Reg.R11, Reg.R7, Reg.R6,
                   Reg.R5)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("col")
    asm.halt()

    return KernelImage(
        program=assert_static_discipline(asm.assemble(), memory), memory=memory,
        input_addr=input_addr, input_count=spec.n_in,
        input_width=spec.act_in_width,
        output_addr=output_addr, output_count=spec.n_out,
        output_width=spec.act_out_width,
        flash_data_bytes=flash_bytes,
    )


def count_delta(
    spec: LayerKernelSpec, encoding: DeltaEncoding | None = None
) -> OpCount:
    enc = encoding or encode_for_kernel(spec, "delta")
    setup = OpCount.block(alu=8 + (1 if spec.mult is not None else 0))
    header = OpCount.block(load=1, alu=2)
    first_elem = OpCount.block(load=2, alu=4)  # bump, base add, acc, subsi
    per_elem = OpCount.block(load=2, alu=4)    # bump, iptr add, acc, subsi
    total = OpCount() + setup
    total += OpCount.block(alu=1).scaled(spec.n_out)  # movi acc, 0
    for counts in (enc.pos.counts, enc.neg.counts):
        total += _count_per_column_sections(
            counts, per_elem, first_elem, header
        )
    total += _count_epilogue(spec).scaled(spec.n_out)
    total += OpCount.block(
        alu=spec.n_out, branch_taken=spec.n_out - 1, branch_not_taken=1
    )
    return total


# ---------------------------------------------------------------------------
# csc (baseline)
# ---------------------------------------------------------------------------


def generate_csc(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: CSCEncoding | None = None,
) -> KernelImage:
    enc = encoding or encode_for_kernel(spec, "csc")
    memory = memory or MemoryMap.stm32()
    flash = flash_allocator(memory)
    flash_start = flash.used_bytes
    ram = ram_allocator(memory)

    pos_ptrs = flash.place(enc.pos.pointers)
    pos_idx = flash.place(enc.pos.indices)
    neg_ptrs = flash.place(enc.neg.pointers)
    neg_idx = flash.place(enc.neg.indices)
    bias_addr = flash.place(spec.bias.astype(np.int32))
    mult_addr = (
        flash.place(spec.mult.astype(np.int16))
        if spec.per_neuron_mult else None
    )
    flash_bytes = flash.used_bytes - flash_start
    if input_addr is None:
        input_addr = ram.reserve(spec.n_in * spec.act_in_width,
                                 align=spec.act_in_width)
    if output_addr is None:
        output_addr = ram.reserve(spec.n_out * spec.act_out_width,
                                  align=spec.act_out_width)

    aw = spec.act_in_width

    asm = Assembler("neuroc_csc")
    asm.movi(Reg.R0, pos_ptrs)
    asm.movi(Reg.R1, neg_ptrs)
    asm.movi(Reg.R2, pos_idx)
    asm.movi(Reg.R3, neg_idx)
    asm.movi(Reg.R4, input_addr)
    asm.movi(Reg.R5, output_addr)
    asm.movi(Reg.R6, bias_addr)
    if spec.per_neuron_mult:
        asm.movi(Reg.R7, mult_addr)
    elif spec.mult is not None:
        asm.movi(Reg.R7, int(spec.mult))
    asm.movi(Reg.R8, spec.n_out)

    asm.label("col")
    asm.movi(Reg.R9, 0)

    for sign, ptr_reg, idx_reg, polarity in (
        ("pos", Reg.R0, Reg.R2, enc.pos),
        ("neg", Reg.R1, Reg.R3, enc.neg),
    ):
        pw = polarity.pointers.itemsize
        iw = polarity.indices.itemsize
        load_unsigned(asm, Reg.R10, ptr_reg, 0, pw)   # lo position
        load_unsigned(asm, Reg.R11, ptr_reg, pw, pw)  # hi position
        asm.addi(ptr_reg, ptr_reg, pw)
        asm.cmp(Reg.R10, Reg.R11)
        asm.bge(f"skip_{sign}")
        asm.label(f"loop_{sign}")
        if iw == 2:
            asm.lsli(Reg.R12, Reg.R10, 1)
            load_unsigned(asm, Reg.R12, idx_reg, Reg.R12, iw)
        else:
            load_unsigned(asm, Reg.R12, idx_reg, Reg.R10, iw)
        if aw == 2:
            asm.lsli(Reg.R12, Reg.R12, 1)
        load_signed(asm, Reg.R12, Reg.R4, Reg.R12, aw)
        if sign == "pos":
            asm.add(Reg.R9, Reg.R9, Reg.R12)
        else:
            asm.sub(Reg.R9, Reg.R9, Reg.R12)
        asm.addi(Reg.R10, Reg.R10, 1)
        asm.cmp(Reg.R10, Reg.R11)
        asm.blt(f"loop_{sign}")
        asm.label(f"skip_{sign}")

    _emit_epilogue(asm, spec, Reg.R9, Reg.R10, Reg.R11, Reg.R7, Reg.R6,
                   Reg.R5)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("col")
    asm.halt()

    return KernelImage(
        program=assert_static_discipline(asm.assemble(), memory), memory=memory,
        input_addr=input_addr, input_count=spec.n_in,
        input_width=spec.act_in_width,
        output_addr=output_addr, output_count=spec.n_out,
        output_width=spec.act_out_width,
        flash_data_bytes=flash_bytes,
    )


def count_csc(
    spec: LayerKernelSpec, encoding: CSCEncoding | None = None
) -> OpCount:
    enc = encoding or encode_for_kernel(spec, "csc")
    setup = OpCount.block(alu=8 + (1 if spec.mult is not None else 0))
    header = OpCount.block(load=2, alu=2)  # lo, hi, bump, cmp
    total = OpCount() + setup
    total += OpCount.block(alu=1).scaled(spec.n_out)  # movi acc, 0
    for polarity in (enc.pos, enc.neg):
        per_elem = OpCount.block(
            load=2,
            alu=3  # acc add, position addi, cmp
            + (1 if polarity.indices.itemsize == 2 else 0)
            + (1 if spec.act_in_width == 2 else 0),
        )
        counts = np.diff(polarity.pointers.astype(np.int64))
        # CSC's loop uses ADDI/CMP/BLT rather than SUBSI/BGT; both mixes
        # tally as 2 alu + branch per element, so the shared accounting in
        # _count_per_column_sections applies unchanged.
        total += _count_per_column_sections(counts, per_elem, None, header)
    total += _count_epilogue(spec).scaled(spec.n_out)
    total += OpCount.block(
        alu=spec.n_out, branch_taken=spec.n_out - 1, branch_not_taken=1
    )
    return total


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def generate_block(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: BlockEncoding | None = None,
    block_size: int = 256,
) -> KernelImage:
    enc = encoding or encode_for_kernel(spec, "block", block_size=block_size)
    memory = memory or MemoryMap.stm32()
    flash = flash_allocator(memory)
    flash_start = flash.used_bytes
    ram = ram_allocator(memory)

    pos_counts = flash.place(
        np.concatenate([b.counts for b in enc.pos_blocks])
    )
    pos_idx = flash.place(
        np.concatenate([b.indices for b in enc.pos_blocks])
    )
    neg_counts = flash.place(
        np.concatenate([b.counts for b in enc.neg_blocks])
    )
    neg_idx = flash.place(
        np.concatenate([b.indices for b in enc.neg_blocks])
    )
    bias_addr = flash.place(spec.bias.astype(np.int32))
    mult_addr = (
        flash.place(spec.mult.astype(np.int16))
        if spec.per_neuron_mult else None
    )
    flash_bytes = flash.used_bytes - flash_start
    if input_addr is None:
        input_addr = ram.reserve(spec.n_in * spec.act_in_width,
                                 align=spec.act_in_width)
    if output_addr is None:
        output_addr = ram.reserve(spec.n_out * spec.act_out_width,
                                  align=spec.act_out_width)
    acc_addr = ram.reserve(spec.n_out * 4, align=4)

    cw = enc.pos_blocks[0].counts.itemsize
    aw = spec.act_in_width

    asm = Assembler("neuroc_block")

    # Phase 1: clear the partial-sum buffer (bias joins in phase 3).
    asm.movi(Reg.R1, acc_addr)
    asm.movi(Reg.R9, 0)
    asm.movi(Reg.R8, spec.n_out)
    asm.label("init")
    asm.str_(Reg.R9, Reg.R1, 0)
    asm.addi(Reg.R1, Reg.R1, 4)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("init")

    # Phase 2: one accumulation pass per block.
    asm.movi(Reg.R0, pos_counts)
    asm.movi(Reg.R1, neg_counts)
    asm.movi(Reg.R2, pos_idx)
    asm.movi(Reg.R3, neg_idx)
    asm.movi(Reg.R4, input_addr)
    asm.movi(Reg.R6, enc.n_blocks)
    asm.label("block")
    asm.movi(Reg.R5, acc_addr)
    asm.movi(Reg.R8, spec.n_out)
    asm.label("bcol")
    asm.ldr(Reg.R9, Reg.R5, 0)
    for sign, counts_reg, idx_reg in (
        ("pos", Reg.R0, Reg.R2),
        ("neg", Reg.R1, Reg.R3),
    ):
        load_unsigned(asm, Reg.R10, counts_reg, 0, cw)
        asm.addi(counts_reg, counts_reg, cw)
        asm.cmpi(Reg.R10, 0)
        asm.beq(f"skip_{sign}")
        asm.label(f"loop_{sign}")
        asm.ldrb(Reg.R11, idx_reg, 0)       # 8-bit block-local index
        asm.addi(idx_reg, idx_reg, 1)
        if aw == 2:
            asm.lsli(Reg.R11, Reg.R11, 1)
        load_signed(asm, Reg.R12, Reg.R4, Reg.R11, aw)
        if sign == "pos":
            asm.add(Reg.R9, Reg.R9, Reg.R12)
        else:
            asm.sub(Reg.R9, Reg.R9, Reg.R12)
        asm.subsi(Reg.R10, Reg.R10, 1)
        asm.bgt(f"loop_{sign}")
        asm.label(f"skip_{sign}")
    asm.str_(Reg.R9, Reg.R5, 0)
    asm.addi(Reg.R5, Reg.R5, 4)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("bcol")
    asm.addi(Reg.R4, Reg.R4, enc.block_size * aw)
    asm.subsi(Reg.R6, Reg.R6, 1)
    asm.bgt("block")

    # Phase 3: requantize + bias + ReLU + store.
    asm.movi(Reg.R0, acc_addr)
    asm.movi(Reg.R5, output_addr)
    asm.movi(Reg.R6, bias_addr)
    if spec.per_neuron_mult:
        asm.movi(Reg.R7, mult_addr)
    elif spec.mult is not None:
        asm.movi(Reg.R7, int(spec.mult))
    asm.movi(Reg.R8, spec.n_out)
    asm.label("finish")
    asm.ldr(Reg.R9, Reg.R0, 0)
    asm.addi(Reg.R0, Reg.R0, 4)
    _emit_epilogue(asm, spec, Reg.R9, Reg.R10, Reg.R11, Reg.R7, Reg.R6,
                   Reg.R5)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("finish")
    asm.halt()

    return KernelImage(
        program=assert_static_discipline(asm.assemble(), memory), memory=memory,
        input_addr=input_addr, input_count=spec.n_in,
        input_width=spec.act_in_width,
        output_addr=output_addr, output_count=spec.n_out,
        output_width=spec.act_out_width,
        flash_data_bytes=flash_bytes,
    )


def count_block(
    spec: LayerKernelSpec, encoding: BlockEncoding | None = None,
    block_size: int = 256,
) -> OpCount:
    enc = encoding or encode_for_kernel(spec, "block", block_size=block_size)
    total = OpCount()
    # Phase 1: three movis, then a clear loop (str + bump + subsi).
    total += OpCount.block(alu=3)
    init = OpCount.block(store=1, alu=2)
    total += init.scaled(spec.n_out)
    total += OpCount.block(
        branch_taken=spec.n_out - 1, branch_not_taken=1
    )
    # Phase 2
    total += OpCount.block(alu=6)  # six movis
    header = OpCount.block(load=1, alu=2)
    per_elem = OpCount.block(
        load=2, alu=3 + (1 if spec.act_in_width == 2 else 0)
    )
    n_bcols = enc.n_blocks * spec.n_out
    total += OpCount.block(alu=2).scaled(enc.n_blocks)    # movi r5, movi r8
    total += OpCount.block(load=1).scaled(n_bcols)        # acc ldr
    for blocks in (enc.pos_blocks, enc.neg_blocks):
        counts = np.concatenate([b.counts.astype(np.int64) for b in blocks])
        total += _count_per_column_sections(counts, per_elem, None, header)
    total += OpCount.block(store=1, alu=2).scaled(n_bcols)  # str, bump, subsi
    total += OpCount.block(
        branch_taken=n_bcols - enc.n_blocks, branch_not_taken=enc.n_blocks
    )
    total += OpCount.block(alu=2).scaled(enc.n_blocks)    # x bump, subsi
    total += OpCount.block(
        branch_taken=enc.n_blocks - 1, branch_not_taken=1
    )
    # Phase 3
    total += OpCount.block(alu=4 + (1 if spec.mult is not None else 0))
    finish = (
        OpCount.block(load=1, alu=2)  # acc ldr + bump + subsi
        + _count_epilogue(spec)
    )
    total += finish.scaled(spec.n_out)
    total += OpCount.block(
        branch_taken=spec.n_out - 1, branch_not_taken=1
    )
    return total


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_GENERATORS = {
    "csc": generate_csc,
    "delta": generate_delta,
    "mixed": generate_mixed,
    "block": generate_block,
}
_COUNTERS = {
    "csc": count_csc,
    "delta": count_delta,
    "mixed": count_mixed,
    "block": count_block,
}


def generate_sparse(
    spec: LayerKernelSpec, format_name: str, **kwargs
) -> KernelImage:
    """Generate the Neuro-C kernel for ``format_name``."""
    try:
        generator = _GENERATORS[format_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sparse format {format_name!r}; "
            f"known: {SPARSE_FORMATS}"
        ) from None
    return generator(spec, **kwargs)


def count_sparse(
    spec: LayerKernelSpec, format_name: str, **kwargs
) -> OpCount:
    """Analytical operation counts for ``format_name``'s kernel."""
    try:
        counter = _COUNTERS[format_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sparse format {format_name!r}; "
            f"known: {SPARSE_FORMATS}"
        ) from None
    return counter(spec, **kwargs)
