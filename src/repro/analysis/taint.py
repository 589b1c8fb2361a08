"""The §4.1 execution-discipline verifier (taint pass).

The paper requires inference routines with "static control flow, with
fixed loop bounds and no data-dependent branching".  Our cost model's
input-independence rests on that property, so this pass *proves* it per
program instead of assuming it: a taint analysis over register dataflow,
run on the shared fixpoint engine (:mod:`repro.analysis.dataflow`).

Two taint lattices propagate:

- **data taint** — the register may hold a value derived from activation
  data (the input buffer or other caller-declared tainted regions),
- **pointer taint** — the register may hold an *address within* a tainted
  region (so a load through it yields tainted data; Fig. 4's pointer-bump
  traversal makes this the common addressing mode).

Loads from flash (weights, indices, counts) are untainted: they are
compile-time constants of the deployed model, so loop bounds driven by
them are still input-independent.  Two behaviours are rejected:

1. a flag-setting instruction (``CMP``/``CMPI``/``SUBSI``) observing a
   data-tainted register — a subsequent branch would be data-dependent;
2. a store whose *address* (base or index register) is data-tainted —
   the store's target would vary with the input, breaking the
   input-independent memory-traffic guarantee even though control flow
   stays static.

Storing tainted *values* through untainted addresses is, of course, fine:
that is what writing activations is.  The analysis is a conservative
fixpoint over all paths, so a pass is a proof; a failure pinpoints the
offending instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VerificationError
from repro.analysis.dataflow import (
    ALU_DST_SRC,
    FLAG_SOURCES,
    run_forward,
)
from repro.mcu.isa import (
    LOAD_OPS,
    Op,
    Program,
    STORE_OPS,
)

#: Violation kinds.
TAINTED_FLAGS = "tainted-flags"
TAINTED_STORE_ADDRESS = "tainted-store-address"


@dataclass(frozen=True)
class TaintViolation:
    """An instruction that broke the §4.1 discipline."""

    index: int
    instruction: str
    kind: str = TAINTED_FLAGS

    def __str__(self) -> str:
        if self.kind == TAINTED_STORE_ADDRESS:
            return (
                f"data-dependent store address at instruction "
                f"{self.index}: {self.instruction}"
            )
        return (
            f"tainted flags at instruction {self.index}: {self.instruction}"
        )


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of the §4.1 discipline check."""

    control_flow_is_input_independent: bool
    violations: tuple[TaintViolation, ...]
    tainted_store_sites: int   # stores of input-derived data (the outputs)
    store_addresses_are_input_independent: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.control_flow_is_input_independent
            and self.store_addresses_are_input_independent
        )

    def require_clean(self) -> None:
        if not self.ok:
            first = self.violations[0]
            raise VerificationError(
                "program violates the static-control-flow discipline: "
                + "; ".join(str(v) for v in self.violations),
                instruction_index=first.index,
                pass_name="taint",
            )


#: Transfer kinds: how an instruction moves the (data, pointer) masks.
_KEEP, _MOVI, _ALU, _LOAD, _STORE = range(5)

#: Per opcode: transfer kind, source and flag-source operand positions.
_SHAPES = {
    op: (
        _MOVI if op is Op.MOVI
        else _ALU if op in ALU_DST_SRC
        else _LOAD if op in LOAD_OPS
        else _STORE if op in STORE_OPS
        else _KEEP,
        ALU_DST_SRC.get(op, ()),
        FLAG_SOURCES.get(op, ()),
    )
    for op in Op
}


def _compile(instr, points_into_taint) -> tuple[tuple, tuple]:
    """One instruction as ``(move, check)`` register bitmasks.

    ``move`` is ``(kind, dst, src, extra)``.  For ``_ALU``, ``src``
    holds the source registers; for ``_LOAD``, ``src`` is the base
    (tainting the load through data or a pointer) and ``extra`` the
    index register (tainting it only as a pointer); for ``_MOVI``,
    ``extra`` is ``dst`` when the constant points into a tainted region.
    ``check`` is ``(flags, address, value)``: the registers whose data
    taint taints the flags, the store's address registers and its value
    register.
    """
    kind, sources, flag_sources = _SHAPES[instr.op]
    ops = instr.operands
    flags = 0
    for i in flag_sources:
        flags |= 1 << ops[i]
    if kind == _ALU:
        src = 0
        for i in sources:
            src |= 1 << ops[i]
        return (_ALU, 1 << ops[0], src, 0), (flags, 0, 0)
    if kind == _MOVI:
        dst = 1 << ops[0]
        pointer = dst if points_into_taint(int(ops[1])) else 0
        return (_MOVI, dst, 0, pointer), (0, 0, 0)
    index = 1 << ops[2] if instr.offset_is_reg else 0
    if kind == _LOAD:
        return (_LOAD, 1 << ops[0], 1 << ops[1], index), (0, 0, 0)
    if kind == _STORE:
        return (_KEEP, 0, 0, 0), (0, 1 << ops[1] | index, 1 << ops[0])
    return (_KEEP, 0, 0, 0), (flags, 0, 0)   # CMP/CMPI, branches, HALT


def _join(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] | b[0], a[1] | b[1]


def verify_static_control_flow(
    program: Program,
    input_addr: int,
    input_bytes: int,
    tainted_regions: tuple[tuple[int, int], ...] = (),
) -> AnalysisResult:
    """Prove that neither branches nor store addresses depend on input.

    ``tainted_regions`` adds address ranges whose contents are also
    input-derived (e.g. the block kernel's partial-sum buffer, or a
    chained layer's intermediate activation buffers).

    The lattice state is a ``(data, pointer)`` pair of register
    bitmasks joined with ``|``.  Every check is a test of the data mask
    against a fixed register mask, and the transfer is monotone, so a
    check that holds at any state the fixpoint passes through holds at
    its final in-state: the findings are read off those in-states once
    the fixpoint is reached.
    """
    regions = ((input_addr, input_addr + input_bytes),) + tuple(
        tainted_regions
    )

    def constant_points_into_taint(value: int) -> bool:
        return any(lo <= value < hi for lo, hi in regions)

    compiled = [
        _compile(instr, constant_points_into_taint)
        for instr in program.instructions
    ]

    def transfer(index: int, instr, state: tuple[int, int]):
        kind, dst, src, extra = compiled[index][0]
        if kind == _KEEP:
            return state
        data, pointer = state
        if kind == _MOVI:
            return data & ~dst, (pointer & ~dst) | extra
        if kind == _ALU:   # pointer arithmetic keeps pointing into a region
            return (
                data | dst if data & src else data & ~dst,
                pointer | dst if pointer & src else pointer & ~dst,
            )
        tainted = (data | pointer) & src or pointer & extra
        return data | dst if tainted else data & ~dst, pointer & ~dst

    states = run_forward(program, (0, 0), transfer, _join)

    violations: list[TaintViolation] = []
    tainted_store_sites = 0
    for index, state in enumerate(states):
        if state is None:
            continue
        flags, address, value = compiled[index][1]
        data = state[0]
        if data & flags:
            violations.append(
                TaintViolation(index, repr(program.instructions[index]))
            )
        if data & address:
            violations.append(TaintViolation(
                index, repr(program.instructions[index]),
                TAINTED_STORE_ADDRESS,
            ))
        if data & value:
            tainted_store_sites += 1
    return AnalysisResult(
        control_flow_is_input_independent=not any(
            v.kind == TAINTED_FLAGS for v in violations
        ),
        violations=tuple(violations),
        tainted_store_sites=tainted_store_sites,
        store_addresses_are_input_independent=not any(
            v.kind == TAINTED_STORE_ADDRESS for v in violations
        ),
    )
