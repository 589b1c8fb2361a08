"""Generic forward fixpoint-dataflow engine over ISA programs.

Passes describe themselves with three ingredients — an entry state, a
``transfer`` function mapping (index, instruction, in-state) to the
out-state, and a ``join`` merging states where control flow meets — and
the engine runs the classic worklist algorithm to a fixpoint at
instruction granularity.  ``join`` decides the analysis flavour: union
joins give *may* analyses (taint), intersection joins give *must*
analyses (definite initialization).

States must be immutable and support ``==``; the engine converges because
every client lattice here has finite height (subsets of 13 registers) and
monotone transfer functions, but a step bound guards against buggy
clients all the same.

The module also centralizes the ISA's register read/write sets
(:func:`instr_reads` / :func:`instr_writes`), which several passes need
and which must never drift from the interpreter's semantics.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import VerificationError
from repro.mcu.isa import (
    LOAD_OPS,
    Op,
    Program,
    Reg,
    STORE_OPS,
)
from repro.analysis.cfg import instr_successors

#: ALU-style ops writing operand 0, reading operands at these positions.
ALU_DST_SRC: dict[Op, tuple[int, ...]] = {
    Op.MOV: (1,),
    Op.ADD: (1, 2),
    Op.ADDI: (1,),
    Op.SUB: (1, 2),
    Op.SUBI: (1,),
    Op.SUBSI: (1,),
    Op.MUL: (1, 2),
    Op.LSLI: (1,),
    Op.LSRI: (1,),
    Op.ASRI: (1,),
    Op.AND: (1, 2),
    Op.ORR: (1, 2),
    Op.EOR: (1, 2),
}

#: Flag-setting ops and the operand positions whose values they observe.
FLAG_SOURCES: dict[Op, tuple[int, ...]] = {
    Op.CMP: (0, 1),
    Op.CMPI: (0,),
    Op.SUBSI: (1,),
}


def instr_reads(instr) -> tuple[Reg, ...]:
    """Registers whose values the instruction consumes."""
    op, ops = instr.op, instr.operands
    if op in ALU_DST_SRC:
        return tuple(ops[i] for i in ALU_DST_SRC[op])
    if op is Op.CMP:
        return (ops[0], ops[1])
    if op is Op.CMPI:
        return (ops[0],)
    if op in LOAD_OPS:
        base = (ops[1],)
        return base + ((ops[2],) if instr.offset_is_reg else ())
    if op in STORE_OPS:
        regs = (ops[0], ops[1])
        return regs + ((ops[2],) if instr.offset_is_reg else ())
    return ()   # MOVI, branches, HALT


def instr_writes(instr) -> tuple[Reg, ...]:
    """Registers the instruction defines."""
    op = instr.op
    if op in ALU_DST_SRC or op is Op.MOVI or op in LOAD_OPS:
        return (instr.operands[0],)
    return ()


def run_forward(
    program: Program,
    entry_state,
    transfer: Callable,
    join: Callable,
) -> list:
    """Iterate ``transfer`` to a fixpoint; return per-instruction in-states.

    ``transfer(index, instr, state) -> state`` may record findings as a
    side effect (it can run several times per instruction as states grow;
    keyed accumulators make that idempotent).  Instructions never reached
    from the entry keep ``None``.
    """
    instructions = program.instructions
    n = len(instructions)
    successors = [instr_successors(program, i) for i in range(n)]
    states: list = [None] * n
    worklist: list[int] = []

    def push(index: int, state) -> None:
        if index >= n:
            return
        current = states[index]
        merged = state if current is None else join(current, state)
        if merged != current:
            states[index] = merged
            worklist.append(index)

    push(0, entry_state)
    limit = 64 * n * n + 1000
    steps = 0
    while worklist:
        steps += 1
        if steps > limit:
            raise VerificationError(
                f"dataflow fixpoint over {program.name!r} failed to "
                f"converge within {limit} steps",
                pass_name="dataflow",
            )
        index = worklist.pop()
        out_state = transfer(index, instructions[index], states[index])
        for successor in successors[index]:
            push(successor, out_state)
    return states
