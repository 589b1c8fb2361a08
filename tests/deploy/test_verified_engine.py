"""The ``verified`` engine: reference forward + per-layer WCET cycles.

It executes no instruction, yet must stay device-exact: per row, the
label, logits, cycles and ``latency_ms`` equal the interpreter's on
every encoding and board profile, single and batched.  A row whose
reference range audits fail falls back to the tier-1 CPU.  The WCET
bounds come from the verdict ``deploy()`` computes; a model without one
verifies itself once, and replicas copy the bounds.

The same per-row equality pins ``fastpath-v2``, whose ``infer_batch``
runs the whole batch fused through the layer chain and must also leave
the interpreter's final RAM.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.analysis.report as report_module
from repro.deploy import DeployedModel, deploy
from repro.errors import (
    ConfigurationError,
    InvalidInputError,
    QuantizationError,
)
from repro.kernels.codegen_sparse import SPARSE_FORMATS
from repro.mcu.board import BOARD_PROFILES
from repro.serve import (
    ModelRegistry,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
)
from tests.conftest import overflowing

ROWS = 6


def _row(result):
    return (result.label, result.logits.tolist(), result.logits.dtype,
            result.cycles, result.latency_ms)


def _writable_ram(model):
    return [bytes(r.data) for r in model.memory.regions if r.writable]


def _assert_matches_interpreter(model, rows, engine):
    """``model`` on ``engine`` vs a copy of it on the interpreter."""
    interpreter = copy.deepcopy(model)
    interpreter.set_engine("interpreter")
    model.set_engine(engine)
    expected = [interpreter.infer(x) for x in rows]
    assert [_row(model.infer(x)) for x in rows] == [
        _row(r) for r in expected
    ]
    batch = model.infer_batch(rows)
    assert [_row(batch.row(i)) for i in range(len(rows))] == [
        _row(r) for r in expected
    ]
    if engine == "fastpath-v2":
        assert batch.fused is True
        assert _writable_ram(model) == _writable_ram(interpreter)


@pytest.fixture(scope="module")
def rows(digits_small):
    return digits_small.x_test[:ROWS]


ENGINES = ("verified", "fastpath-v2")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("board_name", sorted(BOARD_PROFILES))
@pytest.mark.parametrize("format_name", SPARSE_FORMATS)
def test_equals_interpreter_per_row(trained_neuroc, rows, format_name,
                                    board_name, engine):
    deployment = deploy(trained_neuroc.quantized, format_name=format_name,
                        board=BOARD_PROFILES[board_name])
    _assert_matches_interpreter(deployment.model, rows, engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("board_name", sorted(BOARD_PROFILES))
def test_equals_interpreter_on_dense_layers(trained_mlp, rows, board_name,
                                            engine):
    deployment = deploy(trained_mlp.quantized,
                        board=BOARD_PROFILES[board_name])
    _assert_matches_interpreter(deployment.model, rows, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_rows_the_reference_rejects_run_on_the_cpu(trained_neuroc, rows,
                                                   engine):
    quantized = overflowing(trained_neuroc.quantized, rows)
    rejected = []
    for x in rows:
        try:
            quantized.forward(x)
        except QuantizationError:
            rejected.append(x)
    assert 0 < len(rejected) < len(rows)
    model = DeployedModel(quantized)
    _assert_matches_interpreter(model, rows, engine)
    # The fallback ran the device: its wrapped int16 logit, not a
    # saturated or raised one.
    assert model.infer(rejected[0]).logits[0] < 0


def _infer_or_error(model, x):
    try:
        result = model.infer(x)
    except InvalidInputError as exc:
        return ("error", str(exc))
    return (result.label, result.cycles)


@pytest.mark.parametrize("engine", ["verified", "fastpath"])
def test_infer_rows_answers_each_row_as_infer(trained_neuroc, rows,
                                              engine):
    """Stacked when the rows allow it, row by row when not: each row
    gets ``infer``'s label and cycles, or the error ``infer`` raises."""
    model = DeployedModel(overflowing(trained_neuroc.quantized, rows),
                          engine=engine)
    bad = [
        np.full(64, np.nan),
        rows[0][:7],
        rows[1] > 0.5,                   # bool: a float once stacked
        np.array(["x"] * 64),
        [0.0] * 63,
    ]
    mixed = [rows[0], *bad, rows[1].reshape(8, 8), list(rows[2]), *rows]

    def expected(xs):
        return [_infer_or_error(model, x) for x in xs]

    def answered(xs):
        return [
            ("error", str(row)) if isinstance(row, InvalidInputError)
            else row
            for row in model.infer_rows(xs)
        ]

    assert answered(mixed) == expected(mixed)
    assert answered(list(rows)) == expected(rows)
    same_shape = [rows[0], bad[2], rows[2]]
    assert answered(same_shape) == expected(same_shape)
    assert answered([bad[0]]) == expected([bad[0]])
    assert model.infer_rows([]) == []


def test_predict_matches_the_reference(trained_neuroc, digits_small):
    model = DeployedModel(trained_neuroc.quantized, engine="verified")
    x = digits_small.x_test[:40]
    assert np.array_equal(model.predict(x),
                          trained_neuroc.quantized.predict(x))


def test_unknown_engine_is_typed(trained_neuroc):
    with pytest.raises(ConfigurationError, match="unknown engine"):
        DeployedModel(trained_neuroc.quantized, engine="proof")


class TestBounds:
    def test_deploy_records_its_verdict(self, trained_neuroc, monkeypatch):
        deployment = deploy(trained_neuroc.quantized)
        calls = _count_verifications(monkeypatch)
        bounds = deployment.model.layer_cycle_bounds()
        assert bounds == tuple(
            layer.report.cycle_bound
            for layer in deployment.verification.layers
        )
        assert calls == []

    def test_unverified_artifact_verifies_once_not_per_replica(
        self, trained_neuroc, digits_small, monkeypatch
    ):
        artifact = ModelRegistry().register(trained_neuroc.quantized,
                                            verify=False)
        calls = _count_verifications(monkeypatch)
        runtime = ServeRuntime(artifact, ServeConfig(n_devices=4))
        assert len(calls) == 1
        report = runtime.replay(synthetic_trace(
            12, 100.0, 64, seed=0, inputs=digits_small.x_test
        ))
        assert report.completed == 12 and len(calls) == 1
        cycles = {o.cycles for o in report.outcomes}
        assert cycles == {sum(artifact.deployed.layer_cycle_bounds())}


def _count_verifications(monkeypatch) -> list:
    calls: list = []
    original = report_module.verify_deployed_model

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(report_module, "verify_deployed_model", counting)
    return calls
