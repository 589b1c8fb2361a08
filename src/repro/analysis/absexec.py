"""Abstract execution: exact single-trace interpretation with unknown data.

The paper's §4.1 discipline — static control flow, no data-dependent
branching or addressing — has a powerful consequence: once the taint pass
has proven it, **one** abstract execution that treats activation data as
unknown covers *every* possible input.  Control decisions and addresses
only ever depend on immediates and flash constants (which are fixed at
deploy time), so the abstract trace visits exactly the instructions, the
branches, and the memory addresses every concrete run visits.  That turns
two classically-hard static analyses into exhaustive checks:

- **memory safety** — every address the program can ever issue appears on
  the trace and is checked against the board memory map;
- **WCET** — the trace's cycle total *is* the worst (and only) case, so
  the static bound is exact rather than padded.

The executor's value domain is ``int`` (a known 32-bit value) or ``None``
(unknown).  Flash reads resolve to the bytes actually placed at deploy
time — without touching the regions' load/store accounting, which belongs
to real executions only.  RAM reads are unknown unless this very trace
wrote a known value there first (tracked in a byte-granular overlay), so
the input buffer and stale activation memory are never trusted.

If a conditional branch's flags are unknown, the single-trace premise is
broken (the program is data-dependent after all) and the execution stops
with a failure — the same programs the taint pass rejects, caught by an
independent mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mcu.cpu import (
    CycleCosts,
    _to_signed,
    branch_taken,
    subtract_flags,
)
from repro.mcu.isa import (
    ACCESS_WIDTH,
    BRANCH_OPS,
    LOAD_OPS,
    NUM_REGS,
    SIGNED_LOADS,
    STORE_OPS,
    Op,
    Program,
)
from repro.mcu.memory import MemoryMap

_MASK32 = 0xFFFF_FFFF

#: Abstract steps before a trace is declared a runaway loop.
MAX_STEPS = 50_000_000


@dataclass
class AccessRange:
    """Observed address range of one load/store instruction over the trace.

    Because the trace is input-independent, these are the *true* ranges
    over all inputs — the value-range analysis the memory-safety pass
    reports per pointer-using instruction.
    """

    index: int
    kind: str                  # "load" | "store"
    width: int
    lo: int
    hi: int
    count: int = 0
    region: str | None = None  # containing region; None if any access missed

    def widen(self, addr: int) -> None:
        self.lo = min(self.lo, addr)
        self.hi = max(self.hi, addr)
        self.count += 1


@dataclass
class BranchStats:
    """Per-branch trace statistics (drives loop-bound reporting)."""

    index: int
    taken: int = 0
    not_taken: int = 0
    max_consecutive_taken: int = 0
    _streak: int = 0

    def record(self, taken: bool) -> None:
        if taken:
            self.taken += 1
            self._streak += 1
            if self._streak > self.max_consecutive_taken:
                self.max_consecutive_taken = self._streak
        else:
            self.not_taken += 1
            self._streak = 0


@dataclass(frozen=True)
class AccessViolation:
    """A memory access outside the map or against region permissions."""

    index: int
    instruction: str
    addr: int | None           # None: the address itself was unresolvable
    width: int
    reason: str

    def __str__(self) -> str:
        where = f"0x{self.addr:08x}" if self.addr is not None else "unknown"
        return (
            f"instruction {self.index} ({self.instruction}): {self.reason} "
            f"({self.width}-byte access at {where})"
        )


@dataclass(frozen=True)
class ExecFailure:
    """Why abstract execution could not complete."""

    index: int | None
    reason: str

    def __str__(self) -> str:
        at = f" at instruction {self.index}" if self.index is not None \
            else ""
        return f"abstract execution failed{at}: {self.reason}"


@dataclass
class AbstractTrace:
    """Everything one abstract execution learned about a program."""

    cycles: int = 0
    steps: int = 0
    halted: bool = False
    failure: ExecFailure | None = None
    accesses: dict[int, AccessRange] = field(default_factory=dict)
    branches: dict[int, BranchStats] = field(default_factory=dict)
    memory_violations: tuple[AccessViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.halted
            and self.failure is None
            and not self.memory_violations
        )


def _peek(memory: MemoryMap, addr: int, width: int, signed: bool):
    """Read placed bytes without touching the traffic counters.

    Returns (value, region_name) or (None, None) if unmapped.
    """
    for region in memory.regions:
        if region.contains(addr, width):
            raw = bytes(region.data[addr - region.base:
                                    addr - region.base + width])
            return int.from_bytes(raw, "little", signed=signed), region.name
    return None, None


def _region_of(memory: MemoryMap, addr: int, width: int):
    for region in memory.regions:
        if region.contains(addr, width):
            return region
    return None


def abstract_execute(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts | None = None,
) -> AbstractTrace:
    """Execute ``program`` abstractly; see the module docstring."""
    costs = costs or CycleCosts()
    regs: list[int | None] = [None] * NUM_REGS
    flags: tuple[bool, bool, bool] | None = None   # (n, z, v)
    overlay: dict[int, int | None] = {}   # RAM bytes written on this trace
    trace = AbstractTrace()
    violations: list[AccessViolation] = []
    pc = 0
    instructions = program.instructions
    n = len(instructions)

    def fail(index: int | None, reason: str) -> AbstractTrace:
        trace.failure = ExecFailure(index, reason)
        trace.memory_violations = tuple(violations)
        return trace

    while True:
        if trace.steps >= MAX_STEPS:
            return fail(
                pc, f"exceeded {MAX_STEPS} abstract steps (runaway loop?)"
            )
        if not 0 <= pc < n:
            return fail(pc, "pc left the program")
        instr = instructions[pc]
        op = instr.op
        ops = instr.operands
        trace.steps += 1
        taken = False
        next_pc = pc + 1

        if op is Op.MOVI:
            regs[ops[0]] = ops[1] & _MASK32
        elif op is Op.MOV:
            regs[ops[0]] = regs[ops[1]]
        elif op is Op.ADD:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None \
                else (a + b) & _MASK32
        elif op is Op.ADDI:
            a = regs[ops[1]]
            regs[ops[0]] = None if a is None else (a + ops[2]) & _MASK32
        elif op is Op.SUB:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None \
                else (a - b) & _MASK32
        elif op is Op.SUBI:
            a = regs[ops[1]]
            regs[ops[0]] = None if a is None else (a - ops[2]) & _MASK32
        elif op is Op.MUL:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None \
                else (_to_signed(a) * _to_signed(b)) & _MASK32
        elif op is Op.LSLI:
            a = regs[ops[1]]
            regs[ops[0]] = None if a is None else (a << ops[2]) & _MASK32
        elif op is Op.LSRI:
            a = regs[ops[1]]
            regs[ops[0]] = None if a is None \
                else (a & _MASK32) >> ops[2]
        elif op is Op.ASRI:
            a = regs[ops[1]]
            regs[ops[0]] = None if a is None \
                else (_to_signed(a) >> ops[2]) & _MASK32
        elif op is Op.AND:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None else a & b
        elif op is Op.ORR:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None else a | b
        elif op is Op.EOR:
            a, b = regs[ops[1]], regs[ops[2]]
            regs[ops[0]] = None if a is None or b is None else a ^ b
        elif op is Op.SUBSI:
            a = regs[ops[1]]
            if a is None:
                regs[ops[0]] = None
                flags = None
            else:
                lhs, rhs = _to_signed(a), int(ops[2])
                regs[ops[0]] = (lhs - rhs) & _MASK32
                flags = subtract_flags(lhs, rhs)
        elif op is Op.CMP or op is Op.CMPI:
            a = regs[ops[0]]
            b = regs[ops[1]] if op is Op.CMP else int(ops[1])
            if a is None or b is None:
                flags = None
            else:
                rhs = _to_signed(b) if op is Op.CMP else int(b)
                flags = subtract_flags(_to_signed(a), rhs)
        elif op in LOAD_OPS or op in STORE_OPS:
            width = ACCESS_WIDTH[op]
            kind = "load" if op in LOAD_OPS else "store"
            base = regs[ops[1]]
            offset = regs[ops[2]] if instr.offset_is_reg else ops[2]
            if base is None or offset is None:
                violations.append(AccessViolation(
                    pc, repr(instr), None, width,
                    f"{kind} address cannot be resolved statically",
                ))
                return fail(pc, f"unresolvable {kind} address")
            addr = (base + offset) & _MASK32
            summary = trace.accesses.get(pc)
            if summary is None:
                summary = AccessRange(pc, kind, width, addr, addr)
                trace.accesses[pc] = summary
            summary.widen(addr)
            region = _region_of(memory, addr, width)
            if region is None:
                violations.append(AccessViolation(
                    pc, repr(instr), addr, width,
                    f"{kind} outside every mapped region",
                ))
                return fail(pc, f"unmapped {kind}")
            if summary.count == 1:
                summary.region = region.name
            elif summary.region != region.name:
                summary.region = None   # straddles regions across the trace
            if kind == "load":
                if region.writable:
                    raw = [
                        overlay.get(addr + i, None) for i in range(width)
                    ]
                    if any(b is None for b in raw):
                        regs[ops[0]] = None
                    else:
                        value = int.from_bytes(
                            bytes(raw), "little", signed=op in SIGNED_LOADS
                        )
                        regs[ops[0]] = value & _MASK32
                else:
                    value, _ = _peek(
                        memory, addr, width, op in SIGNED_LOADS
                    )
                    regs[ops[0]] = value & _MASK32
            else:
                if not region.writable:
                    violations.append(AccessViolation(
                        pc, repr(instr), addr, width,
                        f"store to read-only region {region.name!r}",
                    ))
                    return fail(pc, "store to read-only region")
                value = regs[ops[0]]
                if value is None:
                    for i in range(width):
                        overlay[addr + i] = None
                else:
                    masked = value & ((1 << (8 * width)) - 1)
                    for i, byte in enumerate(
                        masked.to_bytes(width, "little")
                    ):
                        overlay[addr + i] = byte
        elif op in BRANCH_OPS:
            stats = trace.branches.get(pc)
            if stats is None:
                stats = BranchStats(pc)
                trace.branches[pc] = stats
            if op is Op.B:
                taken = True
            else:
                if flags is None:
                    return fail(
                        pc,
                        "conditional branch depends on values the "
                        "analysis cannot resolve (data-dependent "
                        "control flow)",
                    )
                taken = branch_taken(op, *flags)
            stats.record(taken)
            if taken:
                next_pc = ops[0]
        elif op is Op.HALT:
            trace.cycles += costs.cost_of(op)
            trace.halted = True
            trace.memory_violations = tuple(violations)
            return trace
        else:   # pragma: no cover - all opcodes handled above
            return fail(pc, f"unhandled opcode {op!r}")

        trace.cycles += costs.cost_of(op, taken)
        pc = next_pc
