"""The three evaluation fidelities of the staged search.

Cheap to expensive, each stage prices a :class:`CandidateSpec`:

1. :func:`analytic_screen` — no training at all.  An *untrained* model's
   ternary adjacency already determines program memory and (to first
   order) cycle count, so SLO-infeasible candidates are rejected from
   operation counts alone.  It prices a candidate once and admits it on
   every board of the sweep.
2. :func:`stage2_unit` — short-budget *float* training
   (:func:`repro.core.mlp.fit_mlp`, with no int8 export of the dense
   MLP) followed by post-training ternarization + int8 export
   (:func:`repro.quantize.ptq.ternarize_float_model`), priced by
   :func:`measure_on_board`.  A low-fidelity accuracy proxy: wrong in
   absolute terms, cheap, and rank-correlated with full QAT (pinned by
   ``tests/search/test_proxy_fidelity.py``).
3. :func:`stage3_unit` — the figures' full QAT pipeline
   (:func:`repro.core.neuroc.train_neuroc`), spent only on candidates
   the promotion rule selects.

Training never reads the board, so a stage-2/3 unit trains a candidate
once and returns one row for each board that admitted or promoted it.
Stage-2/3 functions are module-level and JSON-in/JSON-out: they are the
``fn`` of a :class:`~repro.experiments.runner.WorkUnit` and must be
importable by pool workers and round-trippable through the disk cache.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.mlp import MLPConfig, fit_mlp
from repro.core.neuroc import build_neuroc, train_neuroc
from repro.datasets import load
from repro.deploy.artifact import model_opcount
from repro.deploy.deployer import deploy
from repro.deploy.planner import DeploySLO, rejection_reason
from repro.deploy.size import model_program_memory
from repro.errors import ReproError
from repro.kernels.spec import make_neuroc_spec
from repro.mcu.board import BoardProfile, board_by_name
from repro.quantize.ptq import (
    QuantizedModel,
    quantize_model,
    ternarize_float_model,
)
from repro.search.space import CandidateSpec

#: Stage-1 latency slack: an untrained adjacency only approximates the
#: trained nnz (QAT prunes further; the dead-neuron guard adds back), so
#: the analytic screen admits candidates up to this factor over the SLO
#: cycle budget and lets the later measured stages make the exact call.
STAGE1_LATENCY_SLACK = 1.25

#: Calibration rows for the stage-2 PTQ export (small on purpose — the
#: proxy is about ranking, not absolute accuracy).
STAGE2_CALIBRATION_ROWS = 256


def _dataset_from_key(dataset_key: dict):
    return load(
        dataset_key["name"],
        n_train=dataset_key.get("n_train"),
        n_test=dataset_key.get("n_test"),
        seed=dataset_key.get("seed", 0),
    )


def measure_on_board(
    quantized: QuantizedModel, encoding: str, board: BoardProfile
) -> dict:
    """Deployment metrics of an exported model on one board.

    Cycles are the deployer's static count, priced from the kernels'
    operation counts and nothing is run: inference cost is
    input-independent, and ``tests/search/test_stages.py`` holds this
    count equal to the tier-1 CPU's measured cycles on every board and
    encoding.  ``fits`` is whether the deployer places the program and
    its activation buffers on the board.
    """
    deployment = deploy(
        quantized, format_name=encoding, board=board, verify=False
    )
    return {
        "cycles": deployment.cycles,
        "latency_ms": deployment.latency_ms,
        "flash_kb": deployment.program_memory.total_kb,
        "fits": deployment.deployable,
    }


def _board_rows(
    template: dict,
    boards: Sequence[BoardProfile],
    encoding: str,
    export: Callable[[], tuple[QuantizedModel, Callable[[], dict]]],
) -> list[dict]:
    """One row per board of a candidate trained and exported once.

    ``export()`` returns the quantized model and a function giving the
    board-independent fields of a measured row, run once.  Each row is
    the one a unit for that board alone would give, errors included: an
    error in ``export`` marks every row, and one in measuring or scoring
    marks only that board's row, which keeps the fields set before it.
    """
    rows = [dict(template, board=board.name) for board in boards]
    try:
        quantized, score = export()
    except ReproError as exc:
        for row in rows:
            row["error"] = _describe(exc)
        return rows
    try:
        fields: dict | ReproError = score()
    except ReproError as exc:
        fields = exc
    for board, row in zip(boards, rows):
        try:
            row.update(measure_on_board(quantized, encoding, board))
        except ReproError as exc:
            row["error"] = _describe(exc)
        else:
            if isinstance(fields, ReproError):
                row["error"] = _describe(fields)
            else:
                row.update(fields)
    return rows


def _describe(exc: ReproError) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- stage 1: analytic screen (no training) ---------------------------------

def _pseudo_specs(spec: CandidateSpec, config) -> list:
    """Kernel specs of the *untrained* model (structure only).

    Multipliers are unit, biases zero: flash size and cycle count depend
    on the adjacency structure and widths, not on the trained values.
    """
    model = build_neuroc(config)
    layers = model.neuroc_layers()
    specs = []
    for i, layer in enumerate(layers):
        is_last = i == len(layers) - 1
        specs.append(make_neuroc_spec(
            adjacency=layer.ternary_adjacency(),
            bias=np.zeros(layer.n_out, dtype=np.int32),
            mult=np.ones(layer.n_out, dtype=np.int16),
            shift=0,
            act_in_width=spec.act_width,
            act_out_width=2 if is_last else spec.act_width,
            relu=not is_last,
        ))
    return specs


def analytic_screen(
    spec: CandidateSpec,
    config,
    boards: Sequence[BoardProfile],
    slo: DeploySLO,
) -> list[dict]:
    """Price a candidate without training, then admit it on each board.

    Program memory and operation counts do not depend on the board, so
    the candidate is sized and counted once and every board prices the
    counts with its own cycle table.  Admission is the planner's
    :func:`~repro.deploy.planner.rejection_reason` with
    :data:`STAGE1_LATENCY_SLACK`.  Returns one row per board, in
    ``boards`` order.  Runs inline in the parent (no work unit):
    milliseconds per candidate.
    """
    specs = _pseudo_specs(spec, config)
    flash_kb = model_program_memory(
        specs, format_name=spec.encoding
    ).total_kb
    ops = model_opcount(specs, spec.encoding)
    rows = []
    for board in boards:
        cycles = int(ops.cycles(board.costs))
        reason = rejection_reason(
            board, cycles, flash_kb, slo, STAGE1_LATENCY_SLACK
        )
        rows.append({
            "key": spec.key,
            "board": board.name,
            "cycles": cycles,
            "latency_ms": board.cycles_to_ms(cycles),
            "flash_kb": flash_kb,
            "admitted": reason == "",
            "reason": reason,
        })
    return rows


# -- stage 2: PTQ proxy (short float training, no QAT) ----------------------

def _fixed_supports(config) -> list[np.ndarray] | None:
    """The design-time support masks of a fixed-strategy config.

    The float proxy must price the same topology QAT would train, so
    the ternarization is restricted to the config's own (deterministic,
    seed-derived) supports.  Learned-strategy configs return ``None``
    (the proxy picks the support from weight magnitudes, as QAT picks
    it from latents).
    """
    if config.strategy == "quantization":
        return None
    model = build_neuroc(config)
    return [
        layer.support.copy() for layer in model.neuroc_layers()
    ]


def stage2_unit(
    spec_dict: dict,
    dataset_key: dict,
    board_names: Sequence[str],
    epochs: int,
    lr: float,
    cand_seed: int,
) -> list[dict]:
    """One stage-2 evaluation: float train -> PTQ ternarize, once, then
    measure on each board.  One row per board, in ``board_names``
    order."""
    spec = CandidateSpec.from_dict(spec_dict)
    dataset = _dataset_from_key(dataset_key)
    boards = [board_by_name(name) for name in board_names]
    config = spec.to_config(
        dataset.num_features, dataset.num_classes, seed=cand_seed,
        image_shape=_plane(dataset),
    )
    template = {
        "key": spec.key,
        "spec": spec.to_dict(),
        "board": "",
        "stage": 2,
        "proxy_accuracy": 0.0,
        "float_accuracy": 0.0,
        "cycles": 0,
        "latency_ms": 0.0,
        "flash_kb": 0.0,
        "nnz": 0,
        "fits": False,
        "error": "",
    }

    def export():
        float_config = MLPConfig(
            n_in=config.n_in, n_out=config.n_out, hidden=config.hidden,
            dropout=0.0, batch_norm=False, seed=cand_seed,
            name=f"{spec.key}-float",
        )
        model, _, float_accuracy = fit_mlp(
            float_config, dataset, epochs=epochs, lr=lr
        )
        ternary = ternarize_float_model(
            model, threshold=spec.threshold,
            supports=_fixed_supports(config),
        )
        quantized = quantize_model(
            ternary,
            dataset.x_train[:STAGE2_CALIBRATION_ROWS],
            act_width=spec.act_width,
        )
        return quantized, lambda: {
            "proxy_accuracy": quantized.accuracy(
                dataset.x_test, dataset.y_test
            ),
            "float_accuracy": float_accuracy,
            "nnz": sum(layer.nnz for layer in ternary.neuroc_layers()),
        }

    return _board_rows(template, boards, spec.encoding, export)


# -- stage 3: full QAT ------------------------------------------------------

def stage3_unit(
    spec_dict: dict,
    dataset_key: dict,
    board_names: Sequence[str],
    epochs: int,
    lr: float,
    cand_seed: int,
) -> list[dict]:
    """One stage-3 evaluation: the full train_neuroc pipeline, once, then
    measure on each board.  One row per board, in ``board_names``
    order."""
    spec = CandidateSpec.from_dict(spec_dict)
    dataset = _dataset_from_key(dataset_key)
    boards = [board_by_name(name) for name in board_names]
    config = spec.to_config(
        dataset.num_features, dataset.num_classes, seed=cand_seed,
        image_shape=_plane(dataset),
    )
    template = {
        "key": spec.key,
        "spec": spec.to_dict(),
        "board": "",
        "stage": 3,
        "accuracy": 0.0,
        "float_accuracy": 0.0,
        "cycles": 0,
        "latency_ms": 0.0,
        "flash_kb": 0.0,
        "nnz": 0,
        "fits": False,
        "error": "",
    }

    def export():
        trained = train_neuroc(
            config, dataset, epochs=epochs, lr=lr,
            act_width=spec.act_width,
        )
        return trained.quantized, lambda: {
            "accuracy": trained.quantized_accuracy,
            "float_accuracy": trained.float_accuracy,
            "nnz": sum(
                layer.nnz for layer in trained.model.neuroc_layers()
            ),
        }

    return _board_rows(template, boards, spec.encoding, export)


def _plane(dataset) -> tuple[int, int] | None:
    """2-D image geometry for the locality strategy, when the dataset
    has one."""
    shape = tuple(dataset.image_shape or ())
    return shape if len(shape) == 2 else None
