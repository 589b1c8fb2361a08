"""Figure 2: FC vs convolutional layer latency at equal MACC counts.

Protocol (§3.3): input 16×16 (C=1).  The paper pairs each conv layer with
an FC layer "under equal MACC conditions, according to Eq. 10"; Eq. 10
approximates M ≈ N.  To honour the experiment's stated intent — "isolate
and observe the effects of implementation choices independently of MACC
count" — we equalize the *exact* MACC counts (Eq. 7 vs Eq. 8):
``N_out = K·S²·M²/N_in``.  The FC side then does the same multiply-adds
without the im2col materialization and the short conv inner loops.

Claim reproduced: FC latency < CNN latency for both size points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import runner
from repro.experiments.tables import format_table
from repro.kernels.codegen_cnn import ConvKernelSpec, count_conv
from repro.kernels.codegen_dense import count_dense
from repro.kernels.ref import conv_macc_count, fc_macc_count
from repro.kernels.spec import make_dense_spec
from repro.mcu.board import STM32F072RB

SCHEMA = "fig2-v1"

IMAGE_SIZE = 16  # 16×16 = 256 inputs, C = 1 (paper's setup)

#: The two paired size points: (K, S) for CNN1/CNN2.
PAIRS = ((4, 3), (8, 5))


@dataclass(frozen=True)
class Fig2Row:
    pair: str
    kind: str          # "cnn" or "fc"
    k: int | None
    s: int | None
    n_out: int
    maccs: int
    cycles: int
    latency_ms: float


def make_conv_spec(k: int, s: int) -> ConvKernelSpec:
    rng = np.random.default_rng(0)
    return ConvKernelSpec(
        image_size=IMAGE_SIZE,
        kernel_size=s,
        num_filters=k,
        weights=rng.integers(-60, 60, (k, s, s)).astype(np.int8),
        bias=rng.integers(-100, 100, k).astype(np.int32),
        relu=True,
        act_in_width=2,
    )


def matched_fc_n_out(k: int, s: int) -> int:
    """FC width with the same exact MACC count as the (k, s) conv layer."""
    m = IMAGE_SIZE - s + 1
    maccs = conv_macc_count(k, 1, s, m)
    return max(1, round(maccs / (IMAGE_SIZE * IMAGE_SIZE)))


def make_fc_spec(n_out: int):
    rng = np.random.default_rng(0)
    n_in = IMAGE_SIZE * IMAGE_SIZE
    return make_dense_spec(
        weights=rng.integers(-60, 60, (n_in, n_out)).astype(np.int8),
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=None,
        act_in_width=2,
        act_out_width=4,
        relu=True,
    )


def _pair_unit(index: int, k: int, s: int) -> list[dict]:
    """Both rows of one (CNN, FC) size pair on the paper's board — an
    independent work unit.

    Analytic only (no training), so the unit stays cache-free; it rides
    the runner for uniform parallel dispatch and timing.
    """
    board = STM32F072RB
    conv = make_conv_spec(k, s)
    conv_cycles = count_conv(conv).cycles(board.costs)
    m = conv.output_size
    n_out = matched_fc_n_out(k, s)
    fc = make_fc_spec(n_out)
    fc_cycles = count_dense(fc).cycles(board.costs)
    return [
        {
            "pair": f"pair{index}", "kind": "cnn", "k": k, "s": s,
            "n_out": k * m * m,
            "maccs": conv.macc_count,
            "cycles": conv_cycles,
            "latency_ms": board.cycles_to_ms(conv_cycles),
        },
        {
            "pair": f"pair{index}", "kind": "fc", "k": None, "s": None,
            "n_out": n_out,
            "maccs": fc_macc_count(fc.n_in, fc.n_out),
            "cycles": fc_cycles,
            "latency_ms": board.cycles_to_ms(fc_cycles),
        },
    ]


def run_fig2() -> list[Fig2Row]:
    units = [
        runner.WorkUnit(
            key=f"{SCHEMA}-pair{index}-k{k}-s{s}",
            fn=_pair_unit, args=(index, k, s), cache=False,
        )
        for index, (k, s) in enumerate(PAIRS, start=1)
    ]
    results = runner.map_units("fig2", units)
    return [Fig2Row(**raw) for pair in results for raw in pair]


def fc_always_faster(rows: list[Fig2Row]) -> bool:
    """The figure's claim, checked per pair."""
    by_pair: dict[str, dict[str, float]] = {}
    for row in rows:
        by_pair.setdefault(row.pair, {})[row.kind] = row.latency_ms
    return all(
        pair["fc"] < pair["cnn"] for pair in by_pair.values()
    )


def format_fig2(rows: list[Fig2Row]) -> str:
    table_rows = [
        (
            r.pair, r.kind.upper(),
            f"K={r.k},S={r.s}" if r.kind == "cnn" else f"N_out={r.n_out}",
            r.maccs, r.cycles, f"{r.latency_ms:.2f}",
        )
        for r in rows
    ]
    return format_table(
        ("pair", "layer", "shape", "MACCs", "cycles", "latency ms"),
        table_rows,
        title="Figure 2: FC vs CNN latency at equal MACCs "
              "(Cortex-M0 @ 8 MHz)",
    )
