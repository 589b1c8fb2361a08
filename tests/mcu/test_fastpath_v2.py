"""Differential harness for the tier-2 specialized engine.

The fastpath-v2 contract extends tier 1's bit-exactness to the
content-specialized engine: on every program the specializer accepts,
single-input runs and batch-fused runs must leave *exactly* the state
the reference interpreter would — registers, memory bytes, cycles,
instruction counts, op counts, and per-region traffic counters.  This
file enforces it on every kernel encoding (dense, unrolled dense, all
four sparse formats) and re-runs the 220-seed random-program fuzzer
from ``test_fastpath`` with tier-2 preconditions (zero entry
registers), covering both the accept path (single + fused) and the
decline machinery.  It also pins the tiered cache-stats contract.
"""

import numpy as np
import pytest

from repro.core.adjacency import clustered_adjacency
from repro.errors import ExecutionError
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.codegen_unrolled import generate_dense_unrolled
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.board import STM32F072RB
from repro.mcu.fastpath import (
    FastCPU,
    clear_translation_cache,
    make_cpu,
    translate,
    translate_v2,
    translation_cache_stats,
    why_declined_v2,
)
from repro.mcu.fastpath_v2 import (
    SpecializedProgram,
    charge_batch_traffic,
    commit_batch_row,
    make_batch_state,
)
from repro.mcu.isa import Assembler, Instr, Op, Program, Reg
from repro.mcu.memory import MemoryMap
from tests.mcu.test_fastpath import (
    RAM,
    SCRATCH,
    _random_program,
    _random_state,
)

COSTS = STM32F072RB.costs

_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32}


# -- kernel-image helpers --------------------------------------------------


def _sparse_spec(n_in=96, n_out=16, density=0.15, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _dense_spec(n_in=96, n_out=16, seed=0):
    rng = np.random.default_rng(seed)
    return make_dense_spec(
        weights=rng.integers(-8, 9, (n_in, n_out)).astype(np.int8),
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


_BUILDERS = {
    "dense": lambda: generate_dense(_dense_spec()),
    "dense-unroll4": lambda: generate_dense_unrolled(
        _dense_spec(), unroll=4
    ),
    **{
        f"sparse-{fmt}": (
            lambda fmt=fmt: generate_sparse(_sparse_spec(), fmt)
        )
        for fmt in SPARSE_FORMATS
    },
}

ENCODINGS = tuple(_BUILDERS)


def _locate_writable(memory, addr, span):
    """(mats position, byte offset) of ``[addr, addr+span)``."""
    position = 0
    for region in memory.regions:
        if not region.writable:
            continue
        if region.contains(addr, span):
            return position, addr - region.base
        position += 1
    raise AssertionError(f"0x{addr:08x} not in a writable region")


def _region_state(memory):
    return [
        (
            bytes(region.data),
            region.loads,
            region.stores,
            region.bytes_loaded,
            region.bytes_stored,
        )
        for region in memory.regions
    ]


def _assert_results_equal(got, ref, context=""):
    assert got.cycles == ref.cycles, context
    assert got.instructions == ref.instructions, context
    assert got.registers == ref.registers, context
    assert got.op_counts == ref.op_counts, context


def _row_registers(out_regs, row):
    """One batch row's final register file from ``sp.fn``'s output."""
    return [
        value if isinstance(value, int)
        else int(np.asarray(value).ravel()[row])
        for value in out_regs
    ]


# -- kernel differentials --------------------------------------------------


class TestKernelDifferentialV2:
    """Every encoding, specialized engine vs interpreter, bit-exact."""

    @pytest.mark.parametrize("name", ENCODINGS)
    def test_single_input_bit_exact(self, name):
        ref_image = _BUILDERS[name]()
        v2_image = _BUILDERS[name]()
        rng = np.random.default_rng(7)
        x = rng.integers(-2, 2, ref_image.input_count)
        ref_image.write_input(x)
        v2_image.write_input(x)

        ref = make_cpu(
            ref_image.memory, costs=COSTS, engine="interpreter"
        ).run(ref_image.program)
        cpu = make_cpu(v2_image.memory, costs=COSTS, engine="fastpath-v2")
        got = cpu.run(v2_image.program)

        assert cpu.last_engine == "fastpath-v2", (
            f"specializer declined {name}: "
            f"{why_declined_v2(v2_image.program, v2_image.memory, COSTS)}"
        )
        _assert_results_equal(got, ref, name)
        assert _region_state(v2_image.memory) == _region_state(
            ref_image.memory
        ), name
        assert np.array_equal(
            v2_image.read_output(), ref_image.read_output()
        ), name

    @pytest.mark.parametrize("name", ENCODINGS)
    def test_batch_fused_matches_sequential_interpreter(self, name):
        batch = 5
        ref_image = _BUILDERS[name]()
        fused_image = _BUILDERS[name]()
        rng = np.random.default_rng(11)
        xs = rng.integers(-2, 2, (batch, ref_image.input_count))

        interp = make_cpu(
            ref_image.memory, costs=COSTS, engine="interpreter"
        )
        refs, ref_outputs = [], []
        for row in range(batch):
            ref_image.write_input(xs[row])
            refs.append(interp.run(ref_image.program))
            ref_outputs.append(ref_image.read_output().copy())

        sp = translate_v2(fused_image.program, fused_image.memory, COSTS)
        assert sp is not None, (
            f"specializer declined {name}: "
            f"{why_declined_v2(fused_image.program, fused_image.memory, COSTS)}"
        )
        memory = fused_image.memory
        mats = make_batch_state(memory, batch)
        in_dtype = np.dtype(
            _DTYPES[fused_image.input_width]
        ).newbyteorder("<")
        raw = np.ascontiguousarray(
            xs.astype(in_dtype)
        ).view(np.uint8).reshape(batch, -1)
        pos, off = _locate_writable(
            memory, fused_image.input_addr, raw.shape[1]
        )
        mats[pos][:, off:off + raw.shape[1]] = raw

        out_regs = sp.fn(mats)
        charge_batch_traffic(memory, sp, batch)
        commit_batch_row(memory, mats, batch - 1)

        # Per-request charges are input-independent constants.
        for row, ref in enumerate(refs):
            assert sp.cycles == ref.cycles, (name, row)
            assert sp.instructions == ref.instructions, (name, row)
            assert sp.op_counts() == ref.op_counts, (name, row)
            assert _row_registers(out_regs, row) == ref.registers, (
                name, row,
            )

        # Per-row outputs match the sequential interpreter runs.
        out_dtype = np.dtype(
            _DTYPES[fused_image.output_width]
        ).newbyteorder("<")
        ospan = fused_image.output_count * fused_image.output_width
        opos, ooff = _locate_writable(
            memory, fused_image.output_addr, ospan
        )
        logits = np.ascontiguousarray(
            mats[opos][:, ooff:ooff + ospan]
        ).view(out_dtype)
        assert np.array_equal(logits, np.stack(ref_outputs)), name

        # Final memory + traffic equal `batch` sequential runs.
        assert _region_state(memory) == _region_state(
            ref_image.memory
        ), name


# -- the fuzzer, tier-2 edition --------------------------------------------


def _interp_run(program, ram_image, costs):
    memory = MemoryMap.stm32()
    memory.region("ram").data[: len(ram_image)] = ram_image
    result = make_cpu(memory, costs=costs, engine="interpreter").run(
        program
    )
    return result, memory


class TestFuzzDifferentialV2:
    """The 220 fuzz seeds under tier-2 preconditions (zero registers).

    201 of the 220 generated programs specialize (input-independent
    control flow and addressing); the other 19 exercise the decline
    machinery and must still be served bit-exactly by a lower tier.
    Accepted programs are additionally run batch-fused over rows with
    *different* RAM images and compared row-by-row.
    """

    @pytest.mark.parametrize("seed", range(220))
    def test_zero_entry_bit_exact(self, seed):
        program = _random_program(seed)
        _, ram_image, costs = _random_state(seed)
        ref, ref_memory = _interp_run(program, ram_image, costs)

        memory = MemoryMap.stm32()
        memory.region("ram").data[: len(ram_image)] = ram_image
        cpu = make_cpu(memory, costs=costs, engine="fastpath-v2")
        got = cpu.run(program)

        _assert_results_equal(got, ref, f"seed {seed}")
        assert _region_state(memory) == _region_state(ref_memory), seed
        if cpu.last_specialization is not None:
            assert cpu.last_engine == "fastpath-v2"
            self._check_batch_fused(
                program, cpu.last_specialization, seed, costs
            )
        else:
            assert cpu.last_engine in ("fastpath", "interpreter")

    def _check_batch_fused(self, program, sp, seed, costs):
        batch = 3
        rng = np.random.default_rng(seed + 77_000)
        images = [
            bytes(rng.integers(0, 256, SCRATCH, dtype=np.uint8))
            for _ in range(batch)
        ]
        refs = [_interp_run(program, image, costs) for image in images]

        memory = MemoryMap.stm32()
        mats = make_batch_state(memory, batch)
        pos, off = _locate_writable(memory, RAM, SCRATCH)
        for row, image in enumerate(images):
            mats[pos][row, off:off + SCRATCH] = np.frombuffer(
                image, dtype=np.uint8
            )
        out_regs = sp.fn(mats)
        for row, (ref, ref_memory) in enumerate(refs):
            assert sp.cycles == ref.cycles, (seed, row)
            assert sp.instructions == ref.instructions, (seed, row)
            assert _row_registers(out_regs, row) == ref.registers, (
                seed, row,
            )
            assert (
                mats[pos][row].tobytes()
                == bytes(ref_memory.region("ram").data)
            ), (seed, row)

    def test_fuzzer_exercises_both_tier2_paths(self):
        accepted = declined = 0
        for seed in range(220):
            program = _random_program(seed)
            _, ram_image, costs = _random_state(seed)
            memory = MemoryMap.stm32()
            memory.region("ram").data[: len(ram_image)] = ram_image
            if translate_v2(program, memory, costs) is None:
                declined += 1
            else:
                accepted += 1
        assert accepted >= 150, accepted
        assert declined >= 10, declined


# -- tier selection and decline rules --------------------------------------


def _trivial_program(name="tiny"):
    asm = Assembler(name)
    asm.movi(Reg.R0, 41)
    asm.addi(Reg.R0, Reg.R0, 1)
    asm.halt()
    return asm.assemble()


class TestTierSelection:
    def test_nonzero_entry_registers_stay_on_tier1(self):
        program = _trivial_program()
        memory = MemoryMap.stm32()
        cpu = make_cpu(memory, engine="fastpath-v2")
        assert isinstance(cpu, FastCPU) and cpu.prefer_v2
        result = cpu.run(program, {Reg.R5: 9})
        assert cpu.last_engine == "fastpath"
        assert cpu.last_specialization is None
        assert result.registers[Reg.R0] == 42

        # All-zero explicit registers satisfy the precondition.
        cpu.run(program, {Reg.R5: 0})
        assert cpu.last_engine == "fastpath-v2"
        assert cpu.last_specialization is not None

    def test_data_dependent_branch_declines_to_tier1(self):
        asm = Assembler("sym-branch")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.cmpi(Reg.R0, 3)
        asm.beq("skip")
        asm.addi(Reg.R1, Reg.R1, 1)
        asm.label("skip")
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        reason = why_declined_v2(program, memory)
        assert reason is not None and "symbolic flags" in reason
        cpu = make_cpu(memory, engine="fastpath-v2")
        ref, ref_memory = _interp_run(program, b"", None)
        got = cpu.run(program)
        assert cpu.last_engine == "fastpath"
        _assert_results_equal(got, ref)

    def test_data_dependent_address_declines_to_tier1(self):
        asm = Assembler("sym-addr")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R1, Reg.R7, 0)
        asm.ldrb(Reg.R0, Reg.R7, Reg.R1)
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        reason = why_declined_v2(program, memory)
        assert reason is not None and "depends on input data" in reason
        cpu = make_cpu(memory, engine="fastpath-v2")
        cpu.run(program)
        assert cpu.last_engine == "fastpath"

    def test_tier1_decline_propagates(self):
        # Structurally invalid: ends in a non-branch, tier 1 declines,
        # so tier 2 records the tier-1 reason and the interpreter
        # fallback serves the (failing) run.
        program = Program(
            (
                Instr(Op.MOVI, (Reg.R0, 1)),
                Instr(Op.ADDI, (Reg.R1, Reg.R0, 2)),
            ),
            {}, "falls-off-v2",
        )
        memory = MemoryMap.stm32()
        assert translate_v2(program, memory) is None
        reason = why_declined_v2(program, memory)
        assert reason is not None and reason.startswith("tier 1 declined")
        cpu = make_cpu(memory, engine="fastpath-v2")
        with pytest.raises(ExecutionError, match="out of range"):
            cpu.run(program)
        assert cpu.last_engine == "interpreter"

    def test_instruction_cap_respected(self):
        # The fused body cannot stop mid-flight, so tier 2 only serves
        # runs that provably fit under max_instructions; over the cap
        # the chain falls to tier 1, which raises like the interpreter.
        program = _trivial_program("capped")     # executes 3
        memory = MemoryMap.stm32()
        cpu = FastCPU(memory, prefer_v2=True, max_instructions=3)
        result = cpu.run(program)
        assert cpu.last_engine == "fastpath-v2"
        assert result.instructions == 3
        tight = FastCPU(memory, prefer_v2=True, max_instructions=2)
        with pytest.raises(ExecutionError, match="exceeded 2 instructions"):
            tight.run(program)
        assert tight.last_engine != "fastpath-v2"

    def test_specialization_is_shared_across_replicas(self):
        # Two byte-identical programs against identical frozen content
        # share one SpecializedProgram (the fleet-replica contract).
        clear_translation_cache()
        memory_a, memory_b = MemoryMap.stm32(), MemoryMap.stm32()
        first = translate_v2(_trivial_program("twin"), memory_a)
        second = translate_v2(_trivial_program("twin"), memory_b)
        assert isinstance(first, SpecializedProgram)
        assert first is second

    def test_flash_content_is_part_of_the_key(self):
        # Same program, different read-only bytes: distinct
        # specializations (the content hash extends the cache key).
        clear_translation_cache()
        asm = Assembler("flashy")
        asm.movi(Reg.R7, 0x0800_0000)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.halt()
        program = asm.assemble()
        plain = MemoryMap.stm32()
        patched = MemoryMap.stm32()
        patched.region("flash").data[0] = 0x5A
        first = translate_v2(program, plain)
        second = translate_v2(program, patched)
        assert first is not second
        assert translation_cache_stats()["v2"]["entries"] == 2


# -- tiered cache stats ----------------------------------------------------


class TestTieredCacheStats:
    def test_stats_report_each_tier(self):
        clear_translation_cache()
        program = _trivial_program("stats")
        memory = MemoryMap.stm32()

        translate(program, memory)
        stats = translation_cache_stats()
        assert stats["v1"] == {
            "entries": 1, "hits": 0, "misses": 1, "declined": 0,
        }
        assert stats["v2"]["entries"] == 0

        # translate_v2 records a v2 miss and *hits* the v1 entry it
        # builds on.
        translate_v2(program, memory)
        stats = translation_cache_stats()
        assert stats["v1"]["hits"] == 1
        assert stats["v2"] == {
            "entries": 1, "hits": 0, "misses": 1, "declined": 0,
        }

        translate_v2(program, memory)
        stats = translation_cache_stats()
        assert stats["v2"]["hits"] == 1
        # Aggregate keys stay the cross-tier sums.
        assert stats["entries"] == 2
        assert stats["hits"] == stats["v1"]["hits"] + stats["v2"]["hits"]
        assert (
            stats["misses"]
            == stats["v1"]["misses"] + stats["v2"]["misses"]
        )

    def test_declines_counted_per_tier(self):
        clear_translation_cache()
        asm = Assembler("declines")
        asm.movi(Reg.R7, RAM)
        asm.ldrb(Reg.R0, Reg.R7, 0)
        asm.cmpi(Reg.R0, 0)
        asm.beq("out")
        asm.label("out")
        asm.halt()
        program = asm.assemble()
        memory = MemoryMap.stm32()
        assert translate_v2(program, memory) is None
        stats = translation_cache_stats()
        assert stats["v1"]["declined"] == 0      # tier 1 accepts it
        assert stats["v2"]["declined"] == 1
        assert stats["declined"] == 1
