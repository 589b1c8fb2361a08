"""Ahead-of-time basic-block translation of miniature-ISA programs.

The interpreter in :mod:`repro.mcu.cpu` dispatches every instruction
through a Python ``elif`` chain and prices it with a ``cost_of`` call —
exact, but host wall-clock bound for every figure benchmark and the
whole ``repro.serve`` fleet.  The kernels this repository generates are
*statically structured* (fixed control flow, no indirect branches, §4.1
discipline), which makes them ideal for ahead-of-time translation: the
control-flow graph is known before the first instruction runs.

:func:`translate` reuses the verifier's CFG (:mod:`repro.analysis.cfg`)
to carve a :class:`~repro.mcu.isa.Program` into basic blocks and emits
one Python function per program:

- each block body becomes straight-line Python operating on register
  *locals* (``r0`` .. ``r12``, always masked to 32 bits) and directly on
  the ``bytearray`` behind each :class:`~repro.mcu.memory.MemoryMap`
  region (region bases/bounds are baked in as literals),
- each block's cycle total is precomputed, so cycle accounting is one
  integer add per *block* instead of a ``cost_of`` call per instruction
  (conditional blocks carry a taken/not-taken pair),
- per-block execution counters make instruction counts, per-op counts,
  and per-block cycle attribution exact reconstructions after the run.

The function is ``compile()``d once and cached globally, keyed by the
program content, cycle-cost table, and memory layout, so fleet replicas
flashed from one artifact share a single translation.

Exactness contract (enforced by the differential tests in
``tests/mcu/test_fastpath.py``): for any program the translator accepts,
:meth:`FastCPU.run` returns the same registers, cycles, instruction
count, and op counts as :meth:`~repro.mcu.cpu.CPU.run`, leaves memory
byte-identical, and advances the per-region load/store counters
identically — including on the error paths (unmapped access, read-only
store).  The one documented divergence: when a block would cross
``max_instructions``, the fastpath raises the interpreter's "exceeded"
error *before* executing the partial block, so the last few
instructions' side effects are not applied (the interpreter stops
mid-block).  Programs the translator declines — structurally invalid
CFGs (bad branch targets, fallthrough past the end) or oversized
programs — fall back to the interpreter transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, ExecutionError, VerificationError
from repro.mcu.cpu import CPU, CycleCosts, ExecutionResult
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

#: Recognised execution engines.  ``"fastpath-v2"`` prefers the
#: content-specialized tier (:mod:`repro.mcu.fastpath_v2`) and falls
#: back to tier 1 and then the interpreter; ``"fastpath"`` is tier 1
#: with interpreter fallback.
ENGINES = ("fastpath", "fastpath-v2", "interpreter")
#: Engine used when callers do not choose one explicitly.
DEFAULT_ENGINE = "fastpath"

#: Programs above this size are declined (compiling megabyte source
#: strings costs more than it saves); the interpreter handles them.
MAX_TRANSLATED_INSTRUCTIONS = 60_000
MAX_TRANSLATED_BLOCKS = 4_000

#: Branch condition over the NZV flag locals, per opcode (must mirror
#: :func:`repro.mcu.cpu._branch_taken`).
_BRANCH_COND = {
    Op.BEQ: "fz",
    Op.BNE: "not fz",
    Op.BLT: "fn != fv",
    Op.BGE: "fn == fv",
    Op.BGT: "not fz and fn == fv",
    Op.BLE: "fz or fn != fv",
}


@dataclass(frozen=True)
class TranslatedProgram:
    """One compiled program plus the metadata that keeps it exact."""

    program: Program
    fn: Callable
    source: str
    n_blocks: int
    #: Inclusive (start, end) instruction indices per block.
    block_spans: tuple[tuple[int, int], ...]
    block_lens: tuple[int, ...]
    #: Per-block (op, count) pairs for op_counts reconstruction.
    block_ops: tuple[tuple[tuple[Op, int], ...], ...]
    #: Cycle total of one block execution when its branch is not taken
    #: (== the only total for non-branch blocks).
    block_cost_not: tuple[int, ...]
    #: Cycle total when the terminating branch is taken.
    block_cost_taken: tuple[int, ...]

    def __deepcopy__(self, memo: dict) -> "TranslatedProgram":
        # Translations are immutable and content-addressed; fleet
        # replicas deep-copied from one artifact share one translation
        # (the compiled function touches only its call arguments).
        return self

    def fold_op_counts(self, block_counts: list[int]) -> dict[Op, int]:
        """Reconstruct the interpreter's op_counts dict from block hits."""
        counts: dict[Op, int] = {}
        for ops, hits in zip(self.block_ops, block_counts):
            if hits:
                for op, n in ops:
                    counts[op] = counts.get(op, 0) + n * hits
        return counts

    def block_cycles(
        self, block_counts: list[int], taken_counts: list[int]
    ) -> list[int]:
        """Per-block cycle totals implied by recorded execution counts.

        Sums to the run's total ``cycles`` exactly (asserted by the
        profiler tests): unconditional ``B`` terminators always pay the
        taken cost, conditional blocks split per the taken counter.
        """
        totals: list[int] = []
        for k in range(self.n_blocks):
            hits = block_counts[k]
            terminator = self.program.instructions[self.block_spans[k][1]].op
            if terminator is Op.B:
                totals.append(hits * self.block_cost_taken[k])
            else:
                taken = taken_counts[k]
                totals.append(
                    (hits - taken) * self.block_cost_not[k]
                    + taken * self.block_cost_taken[k]
                )
        return totals


# -- code generation ------------------------------------------------------


def _signed_expr(name: str) -> str:
    """Source for the signed 32-bit view of an always-masked local."""
    return f"({name} - 4294967296 if {name} >= 2147483648 else {name})"


class _Emitter:
    """Accumulates generated source with explicit indentation."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_flags(out: _Emitter, ind: int, lhs_reg: str, rhs_src: str) -> None:
    """NZV flag update for ``lhs - rhs`` (mirrors ``subtract_flags``)."""
    out.emit(ind, f"_l = {_signed_expr(lhs_reg)}")
    out.emit(ind, f"_df = _l - {rhs_src}")
    out.emit(ind, "fz = _df == 0")
    out.emit(ind, "fv = _df < -2147483648 or _df > 2147483647")
    out.emit(ind, "fn = (_df & 2147483648) != 0")


def _emit_load_into(out: _Emitter, ind: int, rd: str, j: int,
                    width: int, signed: bool) -> None:
    data = f"_d{j}"
    if width == 1:
        out.emit(ind, f"{rd} = {data}[_o]")
        if signed:
            out.emit(ind, f"if {rd} >= 128:")
            out.emit(ind + 1, f"{rd} += 4294967040")
    elif width == 2:
        out.emit(ind, f"{rd} = {data}[_o] | ({data}[_o + 1] << 8)")
        if signed:
            out.emit(ind, f"if {rd} >= 32768:")
            out.emit(ind + 1, f"{rd} += 4294901760")
    else:
        out.emit(ind, f"{rd} = int.from_bytes({data}[_o:_o + 4], 'little')")


def _emit_store_from(out: _Emitter, ind: int, rv: str, j: int,
                     width: int) -> None:
    data = f"_d{j}"
    if width == 1:
        out.emit(ind, f"{data}[_o] = {rv} & 255")
    elif width == 2:
        out.emit(ind, f"{data}[_o] = {rv} & 255")
        out.emit(ind, f"{data}[_o + 1] = ({rv} >> 8) & 255")
    else:
        out.emit(ind, f"{data}[_o:_o + 4] = {rv}.to_bytes(4, 'little')")


def _emit_memory_access(out: _Emitter, ind: int, instr,
                        regions: list[tuple[int, int, int, bool]]) -> None:
    """Inline region dispatch replicating ``MemoryMap._find`` order."""
    op = instr.op
    ops = instr.operands
    width = ACCESS_WIDTH[op]
    is_load = op in LOAD_OPS
    signed = op in SIGNED_LOADS
    rd = f"r{int(ops[0])}"
    base = f"r{int(ops[1])}"
    offset = f"r{int(ops[2])}" if instr.offset_is_reg else str(int(ops[2]))
    out.emit(ind, f"_a = ({base} + {offset}) & 4294967295")
    first = True
    for j, reg_base, reg_end, writable in regions:
        if not is_load and not writable:
            continue  # stores fall back so the read-only error is exact
        kw = "if" if first else "elif"
        first = False
        out.emit(
            ind, f"{kw} {reg_base} <= _a <= {reg_end - width}:"
        )
        out.emit(ind + 1, f"_o = _a - {reg_base}")
        if is_load:
            _emit_load_into(out, ind + 1, rd, j, width, signed)
            out.emit(ind + 1, f"_ld{j} += 1")
            out.emit(ind + 1, f"_lb{j} += {width}")
        else:
            _emit_store_from(out, ind + 1, rd, j, width)
            out.emit(ind + 1, f"_st{j} += 1")
            out.emit(ind + 1, f"_sb{j} += {width}")
    if first:
        # No eligible region at all: every access takes the exact
        # slow path (raises or, for a store map with no writable
        # region, replicates MemoryMap semantics).
        if is_load:
            out.emit(ind, f"memory.load(_a, {width}, {signed})")
        else:
            out.emit(ind, f"memory.store(_a, {width}, {rd})")
        return
    out.emit(ind, "else:")
    if is_load:
        # Unmapped: raises MemoryMapError with the interpreter's message.
        out.emit(ind + 1, f"memory.load(_a, {width}, {signed})")
    else:
        # Read-only or unmapped: exact error either way.
        out.emit(ind + 1, f"memory.store(_a, {width}, {rd})")


def _emit_instr(out: _Emitter, ind: int, instr,
                regions: list[tuple[int, int, int, bool]]) -> None:
    op = instr.op
    ops = instr.operands
    if op is Op.MOVI:
        out.emit(ind, f"r{int(ops[0])} = {int(ops[1]) & _MASK32}")
    elif op is Op.MOV:
        out.emit(ind, f"r{int(ops[0])} = r{int(ops[1])}")
    elif op is Op.ADD:
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} + "
                      f"r{int(ops[2])}) & 4294967295")
    elif op is Op.ADDI:
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} + "
                      f"{int(ops[2])}) & 4294967295")
    elif op is Op.SUB:
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} - "
                      f"r{int(ops[2])}) & 4294967295")
    elif op is Op.SUBI:
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} - "
                      f"{int(ops[2])}) & 4294967295")
    elif op is Op.MUL:
        # Low 32 bits are congruent mod 2**32 whether operands are read
        # signed or unsigned, so the unsigned residues multiply exactly.
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} * "
                      f"r{int(ops[2])}) & 4294967295")
    elif op is Op.LSLI:
        out.emit(ind, f"r{int(ops[0])} = (r{int(ops[1])} << "
                      f"{int(ops[2])}) & 4294967295")
    elif op is Op.LSRI:
        out.emit(ind, f"r{int(ops[0])} = r{int(ops[1])} >> {int(ops[2])}")
    elif op is Op.ASRI:
        out.emit(ind, f"r{int(ops[0])} = ({_signed_expr(f'r{int(ops[1])}')}"
                      f" >> {int(ops[2])}) & 4294967295")
    elif op is Op.AND:
        out.emit(ind, f"r{int(ops[0])} = r{int(ops[1])} & r{int(ops[2])}")
    elif op is Op.ORR:
        out.emit(ind, f"r{int(ops[0])} = r{int(ops[1])} | r{int(ops[2])}")
    elif op is Op.EOR:
        out.emit(ind, f"r{int(ops[0])} = r{int(ops[1])} ^ r{int(ops[2])}")
    elif op is Op.SUBSI:
        _emit_flags(out, ind, f"r{int(ops[1])}", str(int(ops[2])))
        out.emit(ind, f"r{int(ops[0])} = _df & 4294967295")
    elif op is Op.CMP:
        out.emit(ind, f"_r = {_signed_expr(f'r{int(ops[1])}')}")
        _emit_flags(out, ind, f"r{int(ops[0])}", "_r")
    elif op is Op.CMPI:
        _emit_flags(out, ind, f"r{int(ops[0])}", str(int(ops[1])))
    elif op in LOAD_OPS or op in STORE_OPS:
        _emit_memory_access(out, ind, instr, regions)
    else:  # pragma: no cover - branches/HALT are block terminators
        raise ConfigurationError(f"cannot translate {op!r} inline")


def _block_costs(program: Program, span: tuple[int, int],
                 costs: CycleCosts) -> tuple[int, int]:
    """(not-taken, taken) cycle totals of one block execution."""
    start, end = span
    not_taken = taken = 0
    for i in range(start, end + 1):
        op = program.instructions[i].op
        if op in BRANCH_OPS:
            not_taken += costs.cost_of(op, taken=False)
            taken += costs.cost_of(op, taken=True)
        else:
            c = costs.cost_of(op)
            not_taken += c
            taken += c
    return not_taken, taken


def _build_translation(
    program: Program,
    costs: CycleCosts,
    layout: tuple[tuple[int, int, bool], ...],
) -> TranslatedProgram | str:
    """Generate, compile, and wrap one program; or a decline reason."""
    if len(program.instructions) > MAX_TRANSLATED_INSTRUCTIONS:
        return (
            f"program has {len(program.instructions)} instructions "
            f"(translation cap {MAX_TRANSLATED_INSTRUCTIONS})"
        )
    from repro.analysis.cfg import build_cfg

    try:
        cfg = build_cfg(program)
    except VerificationError as exc:
        return f"cfg: {exc}"
    blocks = cfg.blocks
    if len(blocks) > MAX_TRANSLATED_BLOCKS:
        return (
            f"program has {len(blocks)} basic blocks "
            f"(translation cap {MAX_TRANSLATED_BLOCKS})"
        )

    regions = [
        (j, base, base + size, writable)
        for j, (base, size, writable) in enumerate(layout)
    ]
    # Dispatch-chain order: deepest-nested (hottest) blocks first.
    depth = {b.id: 0 for b in blocks}
    for loop in cfg.loops:
        for member in loop.body:
            depth[member] += 1
    chain = sorted(blocks, key=lambda b: (-depth[b.id], b.id))

    instrs = program.instructions
    spans = tuple((b.start, b.end) for b in blocks)
    lens = tuple(b.end - b.start + 1 for b in blocks)
    cost_pairs = [_block_costs(program, span, costs) for span in spans]
    block_ops = []
    for b in blocks:
        ops_count: dict[Op, int] = {}
        for i in range(b.start, b.end + 1):
            op = instrs[i].op
            ops_count[op] = ops_count.get(op, 0) + 1
        block_ops.append(tuple(ops_count.items()))

    exceeded_fmt = (
        f"program {program.name!r} exceeded %d instructions"
    )

    out = _Emitter()
    out.emit(0, "def _fastpath(memory, regs, _max, _bc, _tk):")
    out.emit(1, "_rgn = memory.regions")
    for j, _, _, _ in regions:
        out.emit(1, f"_d{j} = _rgn[{j}].data")
        out.emit(1, f"_ld{j} = _lb{j} = _st{j} = _sb{j} = 0")
    for r in range(NUM_REGS):
        out.emit(1, f"r{r} = regs[{r}]")
    out.emit(1, "fn = fz = fv = False")
    out.emit(1, "cy = 0")
    out.emit(1, "ex = 0")
    for b in blocks:
        out.emit(1, f"bc{b.id} = 0")
        if instrs[b.end].op in _BRANCH_COND:
            out.emit(1, f"tk{b.id} = 0")
    out.emit(1, "try:")

    single = len(blocks) == 1 and instrs[blocks[0].end].op is Op.HALT
    if single:
        body_ind = 2
    else:
        out.emit(2, "_b = 0")
        out.emit(2, "while True:")
        body_ind = 4

    ret = "return cy, ex, [" + ", ".join(
        f"r{r}" for r in range(NUM_REGS)
    ) + "]"

    for position, block in enumerate(chain):
        k = block.id
        if not single:
            if position == 0:
                out.emit(3, f"if _b == {k}:")
            elif position == len(chain) - 1:
                out.emit(3, "else:")
            else:
                out.emit(3, f"elif _b == {k}:")
        ind = body_ind
        out.emit(ind, f"bc{k} += 1")
        out.emit(ind, f"ex += {lens[k]}")
        out.emit(ind, "if ex > _max:")
        out.emit(ind + 1, f"raise ExecutionError({exceeded_fmt!r} % _max)")
        last = instrs[block.end]
        for i in range(block.start, block.end):
            _emit_instr(out, ind, instrs[i], regions)
        cost_not, cost_taken = cost_pairs[k]
        if last.op is Op.HALT:
            out.emit(ind, f"cy += {cost_not}")
            out.emit(ind, ret)
        elif last.op is Op.B:
            target = cfg.block_of[int(last.operands[0])]
            out.emit(ind, f"cy += {cost_taken}")
            out.emit(ind, f"_b = {target}")
        elif last.op in _BRANCH_COND:
            taken_block = cfg.block_of[int(last.operands[0])]
            fall_block = cfg.block_of[block.end + 1]
            out.emit(ind, f"if {_BRANCH_COND[last.op]}:")
            out.emit(ind + 1, f"cy += {cost_taken}")
            out.emit(ind + 1, f"tk{k} += 1")
            out.emit(ind + 1, f"_b = {taken_block}")
            out.emit(ind, "else:")
            out.emit(ind + 1, f"cy += {cost_not}")
            out.emit(ind + 1, f"_b = {fall_block}")
        else:
            # Plain fallthrough into the next leader.
            _emit_instr(out, ind, last, regions)
            out.emit(ind, f"cy += {cost_not}")
            out.emit(ind, f"_b = {cfg.block_of[block.end + 1]}")

    out.emit(1, "finally:")
    for j, _, _, _ in regions:
        out.emit(2, f"_rg = _rgn[{j}]")
        out.emit(2, f"_rg.loads += _ld{j}")
        out.emit(2, f"_rg.bytes_loaded += _lb{j}")
        out.emit(2, f"_rg.stores += _st{j}")
        out.emit(2, f"_rg.bytes_stored += _sb{j}")
    for b in blocks:
        out.emit(2, f"_bc[{b.id}] = bc{b.id}")
        if instrs[b.end].op in _BRANCH_COND:
            out.emit(2, f"_tk[{b.id}] = tk{b.id}")

    source = out.source()
    namespace: dict = {"ExecutionError": ExecutionError}
    code = compile(source, f"<fastpath:{program.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    return TranslatedProgram(
        program=program,
        fn=namespace["_fastpath"],
        source=source,
        n_blocks=len(blocks),
        block_spans=spans,
        block_lens=lens,
        block_ops=tuple(block_ops),
        block_cost_not=tuple(p[0] for p in cost_pairs),
        block_cost_taken=tuple(p[1] for p in cost_pairs),
    )


# -- translation cache ----------------------------------------------------
#
# One process-wide map holds both tiers; keys are tier-tagged.  Tier-2
# keys additionally carry a SHA-256 of the read-only region content,
# because a specialization folds those bytes into its code: same
# program + layout with different flash words must never share an
# entry.

_CACHE: dict = {}
_STATS = {
    "v1": {"hits": 0, "misses": 0, "declined": 0},
    "v2": {"hits": 0, "misses": 0, "declined": 0},
}


def _layout_of(memory: MemoryMap) -> tuple[tuple[int, int, bool], ...]:
    return tuple((r.base, r.size, r.writable) for r in memory.regions)


def _cache_key(program: Program, costs: CycleCosts, layout) -> tuple:
    return ("v1", program.name, program.instructions, costs, layout)


def _cache_key_v2(
    program: Program, costs: CycleCosts, layout, content_hash: str
) -> tuple:
    return (
        "v2", program.name, program.instructions, costs, layout,
        content_hash,
    )


def translate(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts | None = None,
) -> TranslatedProgram | None:
    """Translation for ``program`` (cached), or ``None`` when declined.

    Translations are shared process-wide: two byte-identical programs
    (e.g. fleet replicas deep-copied from one registered artifact) with
    the same cost table and memory layout compile exactly once.
    """
    costs = costs or CycleCosts()
    layout = _layout_of(memory)
    key = _cache_key(program, costs, layout)
    entry = _CACHE.get(key)
    if entry is not None:
        _STATS["v1"]["hits"] += 1
        return entry if isinstance(entry, TranslatedProgram) else None
    entry = _build_translation(program, costs, layout)
    _CACHE[key] = entry
    _STATS["v1"]["misses"] += 1
    if not isinstance(entry, TranslatedProgram):
        _STATS["v1"]["declined"] += 1
        return None
    return entry


def translate_v2(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts | None = None,
):
    """Tier-2 specialization for ``program`` (cached), or ``None``.

    Requires a tier-1 translation first (whose per-block static cycle
    totals the specialization reuses), then symbolically executes the
    program against ``memory``'s frozen read-only content.  Declines —
    returning ``None`` so callers stay on tier 1 — when any branch or
    address depends on writable-memory data.
    """
    from repro.mcu import fastpath_v2

    costs = costs or CycleCosts()
    layout = _layout_of(memory)
    content_hash = fastpath_v2.specialization_hash(memory)
    key = _cache_key_v2(program, costs, layout, content_hash)
    entry = _CACHE.get(key)
    if entry is not None:
        _STATS["v2"]["hits"] += 1
        if isinstance(entry, fastpath_v2.SpecializedProgram):
            return entry
        return None
    base = translate(program, memory, costs)
    if base is None:
        entry = "tier 1 declined: " + (
            why_declined(program, memory, costs) or "unknown"
        )
    else:
        entry = fastpath_v2.build_specialization(
            program, memory, costs, base
        )
    _CACHE[key] = entry
    _STATS["v2"]["misses"] += 1
    if not isinstance(entry, fastpath_v2.SpecializedProgram):
        _STATS["v2"]["declined"] += 1
        return None
    return entry


def why_declined(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts | None = None,
) -> str | None:
    """The decline reason for ``program``, or ``None`` if it translates."""
    if translate(program, memory, costs) is not None:
        return None
    key = _cache_key(program, costs or CycleCosts(), _layout_of(memory))
    entry = _CACHE.get(key)
    return entry if isinstance(entry, str) else None


def why_declined_v2(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts | None = None,
) -> str | None:
    """Tier-2 decline reason, or ``None`` if it specializes."""
    if translate_v2(program, memory, costs) is not None:
        return None
    from repro.mcu import fastpath_v2

    key = _cache_key_v2(
        program,
        costs or CycleCosts(),
        _layout_of(memory),
        fastpath_v2.specialization_hash(memory),
    )
    entry = _CACHE.get(key)
    return entry if isinstance(entry, str) else None


def translation_cache_stats() -> dict:
    """Process-wide cache stats, aggregate and per tier.

    The top-level ``entries``/``hits``/``misses``/``declined`` keys
    aggregate both tiers (stable for callers that predate tiering);
    ``"v1"`` and ``"v2"`` carry the same four keys per tier.
    """
    v1_entries = sum(1 for key in _CACHE if key[0] == "v1")
    tiers = {
        "v1": {"entries": v1_entries, **_STATS["v1"]},
        "v2": {"entries": len(_CACHE) - v1_entries, **_STATS["v2"]},
    }
    return {
        "entries": len(_CACHE),
        "hits": _STATS["v1"]["hits"] + _STATS["v2"]["hits"],
        "misses": _STATS["v1"]["misses"] + _STATS["v2"]["misses"],
        "declined": (
            _STATS["v1"]["declined"] + _STATS["v2"]["declined"]
        ),
        **tiers,
    }


def clear_translation_cache() -> None:
    _CACHE.clear()
    for tier in _STATS.values():
        for k in tier:
            tier[k] = 0


# -- the engine -----------------------------------------------------------


class FastCPU:
    """Drop-in :class:`~repro.mcu.cpu.CPU` running translated programs.

    Programs the translator declines run on an embedded interpreter
    fallback; ``last_engine`` records which engine served the last
    ``run()`` so tests can prove the fast path was actually exercised.

    With ``prefer_v2`` the tier chain becomes specialized -> tier 1 ->
    interpreter: tier 2 serves a run only when the program specialized
    (input-independent control flow and addressing), entry registers
    are all zero (the specialization's precondition), and the run
    cannot hit the instruction limit mid-flight.
    """

    def __init__(
        self,
        memory: MemoryMap,
        costs: CycleCosts | None = None,
        max_instructions: int = 200_000_000,
        prefer_v2: bool = False,
    ) -> None:
        self.memory = memory
        self.costs = costs or CycleCosts()
        self.max_instructions = max_instructions
        self.prefer_v2 = prefer_v2
        self._interpreter = CPU(memory, self.costs, max_instructions)
        #: id(program) -> (program, translation); the strong program
        #: reference keeps the id stable for the cache's lifetime.
        self._translations: dict[int, tuple] = {}
        self._specializations: dict[int, tuple] = {}
        self.last_engine: str | None = None
        self.last_translation: TranslatedProgram | None = None
        self.last_specialization = None
        self.last_block_counts: list[int] | None = None
        self.last_taken_counts: list[int] | None = None

    def translation(self, program: Program) -> TranslatedProgram | None:
        entry = self._translations.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        tp = translate(program, self.memory, self.costs)
        self._translations[id(program)] = (program, tp)
        return tp

    def specialization(self, program: Program):
        """Tier-2 specialization for ``program``, or ``None``.

        Memoized per program identity like :meth:`translation`; the
        shared cache keeps fleet replicas from re-specializing.
        """
        entry = self._specializations.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        sp = translate_v2(program, self.memory, self.costs)
        self._specializations[id(program)] = (program, sp)
        return sp

    @staticmethod
    def _zero_entry(registers: dict | None) -> bool:
        return not registers or all(
            (int(value) & _MASK32) == 0 for value in registers.values()
        )

    def run(
        self, program: Program, registers: dict | None = None
    ) -> ExecutionResult:
        """Execute ``program`` until ``HALT``; bit-exact with ``CPU.run``."""
        if self.prefer_v2 and self._zero_entry(registers):
            sp = self.specialization(program)
            if sp is not None and sp.instructions <= self.max_instructions:
                return self._run_v2(sp)
        tp = self.translation(program)
        self.last_specialization = None
        if tp is None:
            self.last_engine = "interpreter"
            self.last_translation = None
            self.last_block_counts = None
            self.last_taken_counts = None
            return self._interpreter.run(program, registers)
        regs = [0] * NUM_REGS
        for r, value in (registers or {}).items():
            regs[r] = int(value) & _MASK32
        bc = [0] * tp.n_blocks
        tk = [0] * tp.n_blocks
        self.last_engine = "fastpath"
        self.last_translation = tp
        self.last_block_counts = bc
        self.last_taken_counts = tk
        cycles, executed, out_regs = tp.fn(
            self.memory, regs, self.max_instructions, bc, tk
        )
        return ExecutionResult(
            cycles, executed, out_regs, tp.fold_op_counts(bc)
        )

    def _run_v2(self, sp) -> ExecutionResult:
        from repro.mcu import fastpath_v2

        mats = fastpath_v2.make_batch_state(self.memory, 1)
        out_regs = sp.fn(mats)
        fastpath_v2.commit_batch_row(self.memory, mats, 0)
        fastpath_v2.charge_batch_traffic(self.memory, sp, 1)
        self.last_engine = "fastpath-v2"
        self.last_translation = sp.base
        self.last_specialization = sp
        self.last_block_counts = list(sp.block_counts)
        self.last_taken_counts = list(sp.taken_counts)
        registers = [
            value if isinstance(value, int) else int(value[0])
            for value in out_regs
        ]
        return ExecutionResult(
            sp.cycles, sp.instructions, registers, sp.op_counts()
        )


def make_cpu(
    memory: MemoryMap,
    costs: CycleCosts | None = None,
    max_instructions: int = 200_000_000,
    engine: str = DEFAULT_ENGINE,
) -> CPU | FastCPU:
    """The single engine switch: ``"fastpath-v2"``, ``"fastpath"``, or
    ``"interpreter"``."""
    if engine == "fastpath":
        return FastCPU(memory, costs, max_instructions)
    if engine == "fastpath-v2":
        return FastCPU(memory, costs, max_instructions, prefer_v2=True)
    if engine == "interpreter":
        return CPU(memory, costs, max_instructions)
    raise ConfigurationError(
        f"unknown engine {engine!r}; known: {ENGINES}"
    )
