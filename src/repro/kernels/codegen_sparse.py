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

``csc``, ``delta`` and ``mixed`` share one column-wise skeleton: per
output neuron, each polarity's traversal, then the frame's Eq. 1
epilogue (:mod:`repro.kernels.codegen_common`).  Only the traversal of
one polarity (and its count) differs between them, and ``block`` reuses
mixed's inside its per-block passes.

Each generator has a ``count_*`` twin that reproduces its executed
instruction mix *exactly* (asserted by tests); Figure 5a prices those
counts instead of running the interpreter.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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
    LayerPlacement,
    count_columns,
    emit_column_setup,
    emit_epilogue,
    layer_image,
    load_signed,
    load_unsigned,
    place_layer,
    ram_allocator,
)
from repro.kernels.opcount import OpCount, countdown_loop
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.isa import Assembler, Reg
from repro.mcu.memory import MemoryMap

#: ``traverse(asm, sign, header_reg, elements_reg, header_width,
#: elements_width, act_width)`` emits one polarity's walk of a column.
Traverse = Callable[[Assembler, str, Reg, Reg, int, int, int], None]
#: ``count(spec, header, elements)`` counts one polarity's walks.
CountPolarity = Callable[[LayerKernelSpec, np.ndarray, np.ndarray], OpCount]


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
        memo[key] = _format(format_name).encode(spec, block_size)
        for array in memo[key].arrays().values():
            array.setflags(write=False)
    return memo[key]


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
# column-wise skeleton (csc, delta, mixed; block's passes)
# ---------------------------------------------------------------------------


def _emit_bases(asm: Assembler, placement: LayerPlacement) -> None:
    """R0/R1: the positive/negative headers, R2/R3: their elements,
    R4: the input base."""
    pos_header, pos_elements, neg_header, neg_elements = placement.arrays
    asm.movi(Reg.R0, pos_header)
    asm.movi(Reg.R1, neg_header)
    asm.movi(Reg.R2, pos_elements)
    asm.movi(Reg.R3, neg_elements)
    asm.movi(Reg.R4, placement.input_addr)


def _emit_polarities(asm: Assembler, spec: LayerKernelSpec,
                     arrays: tuple[np.ndarray, ...],
                     traverse: Traverse) -> None:
    """Both polarities' walks of one column into the accumulator R9."""
    pos_header, pos_elements, neg_header, neg_elements = arrays
    for sign, header_reg, elements_reg, header, elements in (
        ("pos", Reg.R0, Reg.R2, pos_header, pos_elements),
        ("neg", Reg.R1, Reg.R3, neg_header, neg_elements),
    ):
        traverse(asm, sign, header_reg, elements_reg, header.itemsize,
                 elements.itemsize, spec.act_in_width)


def _count_polarities(spec: LayerKernelSpec, arrays: tuple[np.ndarray, ...],
                      count_polarity: CountPolarity) -> OpCount:
    """Counts of :func:`_emit_polarities` over every column."""
    pos_header, pos_elements, neg_header, neg_elements = arrays
    return (
        count_polarity(spec, pos_header, pos_elements)
        + count_polarity(spec, neg_header, neg_elements)
    )


def _accumulate(asm: Assembler, sign: str) -> None:
    """R9 += R12 for the positive polarity, R9 -= R12 for the negative."""
    if sign == "pos":
        asm.add(Reg.R9, Reg.R9, Reg.R12)
    else:
        asm.sub(Reg.R9, Reg.R9, Reg.R12)


def _generate_columnwise(
    spec: LayerKernelSpec, name: str, enc: SparseEncoding,
    traverse: Traverse, memory: MemoryMap | None,
    input_addr: int | None, output_addr: int | None,
) -> KernelImage:
    """Per output neuron: both polarities' walks, then the epilogue.

    The encoding's arrays go to flash in their placement order: positive
    header, positive elements, negative header, negative elements.
    """
    arrays = tuple(enc.arrays().values())
    placement = place_layer(spec, memory, arrays, input_addr, output_addr)
    asm = Assembler(name)
    _emit_bases(asm, placement)
    emit_column_setup(asm, spec, placement)
    asm.label("col")
    asm.movi(Reg.R9, 0)
    _emit_polarities(asm, spec, arrays, traverse)
    emit_epilogue(asm, spec, Reg.R10, Reg.R11)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("col")
    asm.halt()
    return layer_image(asm, spec, placement)


def _count_columnwise(spec: LayerKernelSpec, enc: SparseEncoding,
                      count_polarity: CountPolarity) -> OpCount:
    """Exact operation counts of :func:`_generate_columnwise`."""
    arrays = tuple(enc.arrays().values())
    return (
        OpCount() + OpCount.block(alu=5)                # R0-R4
        + _count_polarities(spec, arrays, count_polarity)
        + count_columns(spec, OpCount.block(alu=1))     # movi acc, 0
    )


#: A count-prefixed walk's guard: count load, bump, ``CMPI``.
_COUNT_GUARD = OpCount.block(load=1, alu=2)


def _emit_count_guard(asm: Assembler, sign: str, header_reg: Reg,
                      width: int) -> None:
    """Load the column's element count into R10; skip an empty column."""
    load_unsigned(asm, Reg.R10, header_reg, 0, width)
    asm.addi(header_reg, header_reg, width)
    asm.cmpi(Reg.R10, 0)
    asm.beq(f"skip_{sign}")


# ---------------------------------------------------------------------------
# mixed
# ---------------------------------------------------------------------------


def _traverse_mixed(asm: Assembler, sign: str, counts_reg: Reg,
                    idx_reg: Reg, cw: int, iw: int, aw: int) -> None:
    """Absolute indices folded into register-offset input loads."""
    _emit_count_guard(asm, sign, counts_reg, cw)
    asm.label(f"loop_{sign}")
    load_unsigned(asm, Reg.R11, idx_reg, 0, iw)
    asm.addi(idx_reg, idx_reg, iw)
    if aw == 2:
        asm.lsli(Reg.R11, Reg.R11, 1)
    load_signed(asm, Reg.R12, Reg.R4, Reg.R11, aw)
    _accumulate(asm, sign)
    asm.subsi(Reg.R10, Reg.R10, 1)
    asm.bgt(f"loop_{sign}")
    asm.label(f"skip_{sign}")


def _count_mixed_polarity(spec: LayerKernelSpec, counts: np.ndarray,
                          indices: np.ndarray) -> OpCount:
    per_elem = OpCount.block(
        load=2, alu=3 + (1 if spec.act_in_width == 2 else 0)
    )
    return _count_per_column_sections(counts, per_elem, None, _COUNT_GUARD)


def generate_mixed(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: MixedEncoding | None = None,
) -> KernelImage:
    return _generate_columnwise(
        spec, "neuroc_mixed", encoding or encode_for_kernel(spec, "mixed"),
        _traverse_mixed, memory, input_addr, output_addr,
    )


def count_mixed(
    spec: LayerKernelSpec, encoding: MixedEncoding | None = None
) -> OpCount:
    return _count_columnwise(
        spec, encoding or encode_for_kernel(spec, "mixed"),
        _count_mixed_polarity,
    )


# ---------------------------------------------------------------------------
# delta (Fig. 4)
# ---------------------------------------------------------------------------


def _traverse_delta(asm: Assembler, sign: str, counts_reg: Reg,
                    stream_reg: Reg, cw: int, sw: int, aw: int) -> None:
    """Fig. 4's pointer bump: an absolute first offset, then deltas."""
    _emit_count_guard(asm, sign, counts_reg, cw)
    # First element: absolute (prescaled) offset from the input base.
    load_unsigned(asm, Reg.R11, stream_reg, 0, sw)
    asm.addi(stream_reg, stream_reg, sw)
    asm.add(Reg.R11, Reg.R4, Reg.R11)   # I_PTR = input + first
    load_signed(asm, Reg.R12, Reg.R11, 0, aw)
    _accumulate(asm, sign)
    asm.subsi(Reg.R10, Reg.R10, 1)
    asm.beq(f"skip_{sign}")
    asm.label(f"loop_{sign}")
    load_unsigned(asm, Reg.R12, stream_reg, 0, sw)
    asm.addi(stream_reg, stream_reg, sw)
    asm.add(Reg.R11, Reg.R11, Reg.R12)  # I_PTR += delta
    load_signed(asm, Reg.R12, Reg.R11, 0, aw)
    _accumulate(asm, sign)
    asm.subsi(Reg.R10, Reg.R10, 1)
    asm.bgt(f"loop_{sign}")
    asm.label(f"skip_{sign}")


def _count_delta_polarity(spec: LayerKernelSpec, counts: np.ndarray,
                          stream: np.ndarray) -> OpCount:
    # Either element: stream bump, pointer add, acc, subsi.
    step = OpCount.block(load=2, alu=4)
    return _count_per_column_sections(counts, step, step, _COUNT_GUARD)


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
    return _generate_columnwise(
        spec, "neuroc_delta", enc, _traverse_delta, memory, input_addr,
        output_addr,
    )


def count_delta(
    spec: LayerKernelSpec, encoding: DeltaEncoding | None = None
) -> OpCount:
    return _count_columnwise(
        spec, encoding or encode_for_kernel(spec, "delta"),
        _count_delta_polarity,
    )


# ---------------------------------------------------------------------------
# csc (baseline)
# ---------------------------------------------------------------------------


def _traverse_csc(asm: Assembler, sign: str, ptr_reg: Reg, idx_reg: Reg,
                  pw: int, iw: int, aw: int) -> None:
    """Positions from ``pointers[j]`` to ``pointers[j+1]``, each one an
    index-array lookup and a compare against the loaded bound."""
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
    _accumulate(asm, sign)
    asm.addi(Reg.R10, Reg.R10, 1)
    asm.cmp(Reg.R10, Reg.R11)
    asm.blt(f"loop_{sign}")
    asm.label(f"skip_{sign}")


def _count_csc_polarity(spec: LayerKernelSpec, pointers: np.ndarray,
                        indices: np.ndarray) -> OpCount:
    per_elem = OpCount.block(
        load=2,
        alu=3  # acc add, position addi, cmp
        + (1 if indices.itemsize == 2 else 0)
        + (1 if spec.act_in_width == 2 else 0),
    )
    header = OpCount.block(load=2, alu=2)  # lo, hi, bump, cmp
    # CSC's loop uses ADDI/CMP/BLT rather than SUBSI/BGT; both mixes
    # tally as 2 alu + branch per element, so the shared accounting in
    # _count_per_column_sections applies unchanged.
    return _count_per_column_sections(
        np.diff(pointers.astype(np.int64)), per_elem, None, header
    )


def generate_csc(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: CSCEncoding | None = None,
) -> KernelImage:
    return _generate_columnwise(
        spec, "neuroc_csc", encoding or encode_for_kernel(spec, "csc"),
        _traverse_csc, memory, input_addr, output_addr,
    )


def count_csc(
    spec: LayerKernelSpec, encoding: CSCEncoding | None = None
) -> OpCount:
    return _count_columnwise(
        spec, encoding or encode_for_kernel(spec, "csc"),
        _count_csc_polarity,
    )


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def _block_arrays(enc: BlockEncoding) -> tuple[np.ndarray, ...]:
    """Every block's arrays joined per polarity, in column-wise order."""
    return tuple(
        np.concatenate([getattr(block, field) for block in blocks])
        for blocks in (enc.pos_blocks, enc.neg_blocks)
        for field in ("counts", "indices")
    )


def generate_block(
    spec: LayerKernelSpec,
    memory: MemoryMap | None = None,
    input_addr: int | None = None,
    output_addr: int | None = None,
    encoding: BlockEncoding | None = None,
    block_size: int = 256,
) -> KernelImage:
    enc = encoding or encode_for_kernel(spec, "block", block_size=block_size)
    arrays = _block_arrays(enc)
    placement = place_layer(spec, memory, arrays, input_addr, output_addr)
    acc_addr = ram_allocator(placement.memory).reserve(
        spec.n_out * 4, align=4
    )

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

    # Phase 2: one accumulation pass per block; mixed's walk over the
    # 8-bit block-local indices.
    _emit_bases(asm, placement)
    asm.movi(Reg.R6, enc.n_blocks)
    asm.label("block")
    asm.movi(Reg.R5, acc_addr)
    asm.movi(Reg.R8, spec.n_out)
    asm.label("bcol")
    asm.ldr(Reg.R9, Reg.R5, 0)
    _emit_polarities(asm, spec, arrays, _traverse_mixed)
    asm.str_(Reg.R9, Reg.R5, 0)
    asm.addi(Reg.R5, Reg.R5, 4)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("bcol")
    asm.addi(Reg.R4, Reg.R4, enc.block_size * spec.act_in_width)
    asm.subsi(Reg.R6, Reg.R6, 1)
    asm.bgt("block")

    # Phase 3: requantize + bias + ReLU + store.
    asm.movi(Reg.R0, acc_addr)
    emit_column_setup(asm, spec, placement)
    asm.label("finish")
    asm.ldr(Reg.R9, Reg.R0, 0)
    asm.addi(Reg.R0, Reg.R0, 4)
    emit_epilogue(asm, spec, Reg.R10, Reg.R11)
    asm.subsi(Reg.R8, Reg.R8, 1)
    asm.bgt("finish")
    asm.halt()
    return layer_image(asm, spec, placement)


def count_block(
    spec: LayerKernelSpec, encoding: BlockEncoding | None = None,
    block_size: int = 256,
) -> OpCount:
    enc = encoding or encode_for_kernel(spec, "block", block_size=block_size)
    # Phase 1: three movis, then a clear loop (str + bump).
    clear = OpCount.block(alu=3) + countdown_loop(
        OpCount.block(store=1, alu=1), spec.n_out
    )
    # Phase 2: six movis, then per block two movis, per column an acc
    # ldr, str and bump, and the input bump.
    bcols = countdown_loop(OpCount.block(load=1, store=1, alu=1), spec.n_out)
    passes = OpCount.block(alu=6) + countdown_loop(
        OpCount.block(alu=3) + bcols, enc.n_blocks
    )
    passes += _count_polarities(spec, _block_arrays(enc),
                                _count_mixed_polarity)
    # Phase 3: the acc cursor, then per column its ldr and bump.
    finish = OpCount.block(alu=1) + count_columns(
        spec, OpCount.block(load=1, alu=1)
    )
    return OpCount() + clear + passes + finish


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class _Format(NamedTuple):
    encode: Callable[[LayerKernelSpec, int], SparseEncoding]
    generate: Callable[..., KernelImage]
    count: Callable[..., OpCount]


#: Each format's encoder (of a spec and a block size), kernel and count.
_FORMATS = {
    "csc": _Format(
        lambda spec, _: CSCEncoding.from_matrix(spec.ternary_matrix),
        generate_csc, count_csc,
    ),
    # Offsets are prescaled to byte strides so the kernel adds them to an
    # address without shifting (Fig. 4's I_PTR += *P_PTR++).
    "delta": _Format(
        lambda spec, _: DeltaEncoding.from_matrix(
            spec.ternary_matrix, stride=spec.act_in_width
        ),
        generate_delta, count_delta,
    ),
    "mixed": _Format(
        lambda spec, _: MixedEncoding.from_matrix(spec.ternary_matrix),
        generate_mixed, count_mixed,
    ),
    "block": _Format(
        lambda spec, block_size: BlockEncoding.from_matrix(
            spec.ternary_matrix, block_size=block_size
        ),
        generate_block, count_block,
    ),
}
SPARSE_FORMATS = tuple(_FORMATS)


def _format(format_name: str) -> _Format:
    try:
        return _FORMATS[format_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sparse format {format_name!r}; "
            f"known: {SPARSE_FORMATS}"
        ) from None


def generate_sparse(
    spec: LayerKernelSpec, format_name: str, **kwargs
) -> KernelImage:
    """Generate the Neuro-C kernel for ``format_name``."""
    return _format(format_name).generate(spec, **kwargs)


def count_sparse(
    spec: LayerKernelSpec, format_name: str, **kwargs
) -> OpCount:
    """Analytical operation counts for ``format_name``'s kernel."""
    return _format(format_name).count(spec, **kwargs)
