"""The bitmask taint pass against the frozenset reference it replaced.

``reference_verify`` is the §4.1 taint pass as it ran on frozensets of
registers, recording each finding from inside the transfer at every
worklist step.  ``verify_static_control_flow`` computes the same lattice
on register bitmasks and reads its findings off the fixpoint in-states;
the two must return equal ``AnalysisResult``s (violations, their order
and text, store counts) on every generated kernel and on kernels whose
register operands were rewritten at random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.dataflow import ALU_DST_SRC, FLAG_SOURCES, run_forward
from repro.analysis.taint import (
    TAINTED_FLAGS,
    TAINTED_STORE_ADDRESS,
    AnalysisResult,
    TaintViolation,
    verify_static_control_flow,
)
from repro.kernels.codegen_cnn import ConvKernelSpec, generate_conv
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.codegen_unrolled import generate_dense_unrolled
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.isa import (
    BRANCH_OPS,
    LOAD_OPS,
    Instr,
    Op,
    Program,
    Reg,
    STORE_OPS,
)


@dataclass(frozen=True)
class _State:
    data: frozenset[int]      # registers holding input-derived values
    pointer: frozenset[int]   # registers addressing a tainted region

    def join(self, other: "_State") -> "_State":
        return _State(self.data | other.data, self.pointer | other.pointer)


def reference_verify(
    program: Program,
    input_addr: int,
    input_bytes: int,
    tainted_regions: tuple[tuple[int, int], ...] = (),
) -> AnalysisResult:
    """The frozenset taint pass with per-step recording."""
    regions = ((input_addr, input_addr + input_bytes),) + tuple(
        tainted_regions
    )

    def constant_points_into_taint(value: int) -> bool:
        return any(lo <= value < hi for lo, hi in regions)

    violations: dict[tuple[int, str], TaintViolation] = {}
    tainted_store_sites: set[int] = set()

    def record(index: int, instr, kind: str) -> None:
        violations.setdefault(
            (index, kind), TaintViolation(index, repr(instr), kind)
        )

    def transfer(index: int, instr, state: _State) -> _State:
        op = instr.op
        ops = instr.operands
        data = set(state.data)
        pointer = set(state.pointer)

        if op is Op.HALT or op in BRANCH_OPS:
            return state
        if op is Op.MOVI:
            dst, value = ops[0], int(ops[1])
            data.discard(dst)
            if constant_points_into_taint(value):
                pointer.add(dst)
            else:
                pointer.discard(dst)
        elif op in ALU_DST_SRC:
            sources = ALU_DST_SRC[op]
            dst = ops[0]
            if op in FLAG_SOURCES and any(
                ops[i] in data for i in FLAG_SOURCES[op]
            ):
                record(index, instr, TAINTED_FLAGS)
            if any(ops[i] in data for i in sources):
                data.add(dst)
            else:
                data.discard(dst)
            if any(ops[i] in pointer for i in sources):
                pointer.add(dst)
            else:
                pointer.discard(dst)
        elif op in (Op.CMP, Op.CMPI):
            if any(ops[i] in data for i in FLAG_SOURCES[op]):
                record(index, instr, TAINTED_FLAGS)
        elif op in LOAD_OPS:
            dst, base = ops[0], ops[1]
            loads_tainted = (
                base in pointer
                or base in data
                or (instr.offset_is_reg and ops[2] in pointer)
            )
            if loads_tainted:
                data.add(dst)
            else:
                data.discard(dst)
            pointer.discard(dst)
        elif op in STORE_OPS:
            address_regs = [ops[1]]
            if instr.offset_is_reg:
                address_regs.append(ops[2])
            if any(r in data for r in address_regs):
                record(index, instr, TAINTED_STORE_ADDRESS)
            if ops[0] in data:
                tainted_store_sites.add(index)
        return _State(frozenset(data), frozenset(pointer))

    run_forward(
        program,
        _State(frozenset(), frozenset()),
        transfer,
        lambda a, b: a.join(b),
    )

    ordered = tuple(violations[key] for key in sorted(violations))
    return AnalysisResult(
        control_flow_is_input_independent=not any(
            v.kind == TAINTED_FLAGS for v in ordered
        ),
        violations=ordered,
        tainted_store_sites=len(tainted_store_sites),
        store_addresses_are_input_independent=not any(
            v.kind == TAINTED_STORE_ADDRESS for v in ordered
        ),
    )


def _ternary_spec(rng, act_width: int, relu: bool):
    n_in, n_out = int(rng.integers(20, 300)), int(rng.integers(3, 20))
    return make_neuroc_spec(
        rng.choice([-1, 0, 1], (n_in, n_out), p=[0.2, 0.6, 0.2]),
        rng.integers(-40, 40, n_out),
        rng.integers(20, 90, n_out).astype(np.int16), shift=7,
        act_in_width=act_width, act_out_width=act_width, relu=relu,
    )


def _dense_spec(rng, act_width: int, relu: bool):
    n_in, n_out = int(rng.integers(5, 40)), int(rng.integers(2, 8))
    return make_dense_spec(
        rng.integers(-30, 30, (n_in, n_out)),
        rng.integers(-50, 50, n_out), 40, shift=9,
        act_in_width=act_width, act_out_width=act_width, relu=relu,
    )


def generated_kernels():
    """Every generator, both activation widths, ReLU on and off."""
    rng = np.random.default_rng(2024)
    images = []
    for act_width in (1, 2):
        for relu in (True, False):
            spec = _ternary_spec(rng, act_width, relu)
            for fmt in SPARSE_FORMATS:
                images.append(generate_sparse(spec, fmt))
            images.append(generate_sparse(spec, "block", block_size=16))
            dense = _dense_spec(rng, act_width, relu)
            images.append(generate_dense(dense))
            images.append(generate_dense_unrolled(dense, unroll=4))
    images.append(generate_conv(ConvKernelSpec(
        image_size=8, kernel_size=3, num_filters=2,
        weights=rng.integers(-10, 10, (2, 3, 3)).astype(np.int8),
        bias=rng.integers(-20, 20, 2).astype(np.int32),
    )))
    return images


def taint_choices(image):
    """(input_addr, input_bytes, extra regions) the pass is run with:
    every writable region (as code generation runs it), every region,
    flash included (which taints the loop counts, so their compares are
    violations), and the input buffer alone."""
    writable = [
        (r.base, r.end) for r in image.memory.regions if r.writable
    ]
    every = [(r.base, r.end) for r in image.memory.regions]
    choices = []
    for spans in (writable, every):
        (lo, hi), *extra = spans
        choices.append((lo, hi - lo, tuple(extra)))
    choices.append((
        image.input_addr, image.input_count * image.input_width, (),
    ))
    return choices


def register_positions(instr: Instr) -> tuple[int, ...]:
    """Operand positions that name a register."""
    op = instr.op
    if op is Op.MOVI:
        return (0,)
    if op in ALU_DST_SRC:
        return (0,) + ALU_DST_SRC[op]
    if op in (Op.CMP, Op.CMPI):
        return FLAG_SOURCES[op]
    if op in LOAD_OPS or op in STORE_OPS:
        return (0, 1, 2) if instr.offset_is_reg else (0, 1)
    return ()


def rewrite_registers(program: Program, rng, n_rewrites: int) -> Program:
    """``program`` with ``n_rewrites`` register operands redrawn."""
    instructions = list(program.instructions)
    sites = [
        (i, pos) for i, instr in enumerate(instructions)
        for pos in register_positions(instr)
    ]
    for k in rng.choice(len(sites), size=n_rewrites, replace=False):
        i, pos = sites[k]
        instr = instructions[i]
        operands = list(instr.operands)
        operands[pos] = Reg(int(rng.integers(0, len(Reg))))
        instructions[i] = Instr(instr.op, tuple(operands),
                                instr.offset_is_reg)
    return Program(tuple(instructions), dict(program.labels), program.name)


GENERATED = generated_kernels()


@pytest.mark.parametrize("n", range(len(GENERATED)),
                         ids=[f"{n}-{image.program.name}"
                              for n, image in enumerate(GENERATED)])
def test_generated_kernels_agree_with_the_reference(n):
    image = GENERATED[n]
    for input_addr, input_bytes, extra in taint_choices(image):
        assert verify_static_control_flow(
            image.program, input_addr, input_bytes, extra
        ) == reference_verify(image.program, input_addr, input_bytes, extra)


def test_rewritten_registers_agree_with_the_reference():
    rng = np.random.default_rng(7)
    kinds: set[str] = set()
    clean = 0
    for _ in range(240):
        image = GENERATED[int(rng.integers(len(GENERATED)))]
        program = rewrite_registers(
            image.program, rng, int(rng.integers(1, 4))
        )
        writable = taint_choices(image)[0]
        result = verify_static_control_flow(program, *writable)
        assert result == reference_verify(program, *writable)
        kinds.update(v.kind for v in result.violations)
        clean += result.ok
    # The draw must exercise both verdicts and both violation kinds.
    assert kinds == {TAINTED_FLAGS, TAINTED_STORE_ADDRESS}
    assert 0 < clean < 240
