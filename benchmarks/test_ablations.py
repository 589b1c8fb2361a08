"""Ablations beyond the paper's own figures (DESIGN.md §4).

- block size: what the 256-input block buys against 64/128 variants,
- sparsity: latency/memory vs adjacency density at fixed architecture,
- index width: what forcing 16-bit indices everywhere would cost.

All three run on the analytical cost model over synthetic clustered
adjacencies (no training), so they are fast and deterministic.
"""

import numpy as np
from _output import emit

from repro.core.adjacency import clustered_adjacency
from repro.experiments.tables import format_table
from repro.kernels.codegen_sparse import count_sparse, encode_for_kernel
from repro.kernels.spec import make_neuroc_spec
from repro.mcu.board import STM32F072RB


def _spec(density=0.1, n_in=784, n_out=128, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-500, 500, n_out).astype(np.int32),
        mult=rng.integers(100, 400, n_out).astype(np.int16),
        shift=12, act_in_width=2, act_out_width=2, relu=True,
    )


def test_ablation_block_size(benchmark):
    spec = _spec()

    def sweep():
        rows = []
        for block_size in (32, 64, 128, 256):
            encoding = encode_for_kernel(spec, "block",
                                         block_size=block_size)
            cycles = count_sparse(
                spec, "block", block_size=block_size
            ).cycles(STM32F072RB.costs)
            rows.append(
                (block_size, encoding.n_blocks, cycles,
                 f"{STM32F072RB.cycles_to_ms(cycles):.2f}",
                 encoding.size_bytes())
            )
        return rows

    rows = benchmark(sweep)
    emit(
        "ablation_block_size",
        format_table(
            ("block size", "blocks", "cycles", "latency ms", "bytes"),
            rows,
            title="Ablation: block-based encoding block size "
                  "(784 inputs, density 0.1)",
        ),
    )
    by_size = {r[0]: r for r in rows}
    # Smaller blocks mean more passes: latency decreases monotonically
    # with block size (the paper's 256 choice is the fastest).
    cycles = [by_size[s][2] for s in (32, 64, 128, 256)]
    assert cycles == sorted(cycles, reverse=True)
    # Index storage is 8-bit for every size; byte cost only varies via
    # per-block count tables, so 256 is also the most compact.
    sizes = [by_size[s][4] for s in (32, 64, 128, 256)]
    assert sizes == sorted(sizes, reverse=True)


def test_ablation_sparsity(benchmark):
    def sweep():
        rows = []
        for density in (0.02, 0.05, 0.1, 0.2, 0.4):
            spec = _spec(density=density)
            cycles = count_sparse(spec, "block").cycles(STM32F072RB.costs)
            encoding = encode_for_kernel(spec, "block")
            rows.append(
                (density, encoding.nnz, cycles,
                 f"{STM32F072RB.cycles_to_ms(cycles):.2f}",
                 encoding.size_bytes())
            )
        return rows

    rows = benchmark(sweep)
    emit(
        "ablation_sparsity",
        format_table(
            ("density", "nnz", "cycles", "latency ms", "bytes"),
            rows,
            title="Ablation: latency/memory vs adjacency density "
                  "(block encoding)",
        ),
    )
    cycles = [r[2] for r in rows]
    sizes = [r[4] for r in rows]
    assert cycles == sorted(cycles)   # denser -> slower
    assert sizes == sorted(sizes)     # denser -> bigger
    # Latency is dominated by per-connection work: 20x density should
    # cost at least 8x the cycles.
    assert cycles[-1] / cycles[0] > 8


def test_ablation_index_width(benchmark):
    """Force 16-bit indices (CSC/mixed on wide inputs) vs the block
    format's guaranteed 8-bit: quantifies Figure 5b's mechanism."""
    spec = _spec()

    def measure():
        mixed = encode_for_kernel(spec, "mixed")     # 16-bit (784 inputs)
        block = encode_for_kernel(spec, "block")     # 8-bit by design
        return {
            "mixed_bytes": mixed.size_bytes(),
            "block_bytes": block.size_bytes(),
            "mixed_index_width": mixed.index_width,
        }

    result = benchmark(measure)
    emit(
        "ablation_index_width",
        format_table(
            ("layout", "connectivity bytes"),
            [
                ("mixed (16-bit indices)", result["mixed_bytes"]),
                ("block (8-bit indices)", result["block_bytes"]),
            ],
            title="Ablation: index width (784-input layer, density 0.1)",
        ),
    )
    assert result["mixed_index_width"] == 2
    # Halving the index width should cut connectivity storage by ~40-50 %.
    ratio = result["block_bytes"] / result["mixed_bytes"]
    assert 0.45 < ratio < 0.65


def test_ablation_loop_unrolling(benchmark):
    """§4.1 names unrolled loops as the preferred execution shape; this
    ablation quantifies the cycles-vs-code-size trade-off of unrolling the
    dense MACC loop."""
    rng = np.random.default_rng(3)
    from repro.kernels.codegen_dense import count_dense, generate_dense
    from repro.kernels.spec import make_dense_spec

    spec = make_dense_spec(
        rng.integers(-40, 40, (256, 32)).astype(np.int8),
        rng.integers(-100, 100, 32).astype(np.int32),
        60, shift=10, act_in_width=1, act_out_width=2, relu=True,
    )

    def sweep():
        rows = []
        for unroll in (1, 2, 4, 8, 16):
            cycles = count_dense(spec, unroll).cycles(
                STM32F072RB.costs
            )
            text = generate_dense(
                spec, unroll=unroll
            ).program.code_size_bytes()
            rows.append(
                (unroll, cycles,
                 f"{STM32F072RB.cycles_to_ms(cycles):.2f}", text)
            )
        return rows

    rows = benchmark(sweep)
    emit(
        "ablation_loop_unrolling",
        format_table(
            ("unroll", "cycles", "latency ms", "text bytes"),
            rows,
            title="Ablation: dense-kernel loop unrolling "
                  "(256x32 layer, Cortex-M0)",
        ),
    )
    cycles = [r[1] for r in rows]
    text = [r[3] for r in rows]
    assert cycles == sorted(cycles, reverse=True)
    assert text == sorted(text)
    # Unrolling by 8 should recover most of the loop overhead (4 of ~12
    # cycles per MACC).
    assert cycles[0] / cycles[3] > 1.25
