"""Where a device's labels and cycles come from.

On the ``verified`` engine one batched reference forward answers every
request of a replay's trace before any of them executes: one call per
(artifact, engine), with ``infer`` (the tier-1 fallback) only for the
rows the reference's range audits reject.  CPU engines still answer
with one ``infer`` per executed attempt.  Answers are keyed by request
id, so a trace that repeats an id is refused before anything runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    COMPLETED,
    Answers,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
)
from tests.serve.conftest import audit_rejects, spoil_inputs


def _mixed_trace(digits_small, n=60, rate=4000.0):
    return spoil_inputs(synthetic_trace(
        n, rate, 64, seed=3, inputs=digits_small.x_test
    ))


def _valid(x) -> bool:
    return x.shape == (64,) and bool(np.isfinite(x).all())


class TestVerifiedReplay:
    def test_one_batched_forward_and_infer_only_for_rejected_rows(
        self, overflowing_artifact, digits_small, infer_calls
    ):
        trace = _mixed_trace(digits_small)
        rejected = sum(
            audit_rejects(overflowing_artifact, r.x)
            for r in trace if _valid(r.x)
        )
        assert rejected > 0
        report = ServeRuntime(
            overflowing_artifact, ServeConfig(max_queue_wait_ms=None)
        ).replay(trace)
        assert infer_calls == {"infer_batch": 1, "infer": rejected}
        failed = [o for o in report.outcomes if o.status != COMPLETED]
        assert len(failed) == sum(not _valid(r.x) for r in trace)
        assert all(o.reason.startswith("invalid_input: ") for o in failed)

    def test_a_request_with_no_row_is_a_batch_of_one(
        self, small_artifact, digits_small, infer_calls
    ):
        """Direct ``admit`` callers (``Fleet.submit``) bring requests no
        trace announced."""
        runtime = ServeRuntime(small_artifact)
        rows = digits_small.x_test[:3]
        for i, x in enumerate(rows):
            runtime.admit(InferenceRequest(request_id=i, x=x,
                                           arrival_ms=0.0))
        runtime.loop.run()
        assert [o.label for o in runtime.outcomes] == list(
            small_artifact.deployed.quantized.predict(rows)
        )
        assert infer_calls == {"infer_batch": 3, "infer": 0}


class TestCpuEngineReplay:
    @pytest.mark.parametrize("engine", ["fastpath", "interpreter"])
    def test_one_infer_per_executed_attempt(
        self, small_artifact, digits_small, infer_calls, engine
    ):
        trace = _mixed_trace(digits_small, n=40, rate=20_000.0)
        report = ServeRuntime(small_artifact, ServeConfig(
            engine=engine, n_devices=2, max_queue_depth=8,
            fault_plan=FaultPlan(brownout_rate=0.3, seed=2),
        )).replay(trace)
        executed = [
            o for o in report.outcomes
            if o.status == COMPLETED
            or (o.reason or "").startswith("invalid_input")
        ]
        assert report.rejected > 0 and len(executed) < len(trace)
        assert infer_calls == {"infer_batch": 0, "infer": len(executed)}


class TestRepeatedRequestIds:
    """A repeated id would share one answer, and its report would fail
    its own trace invariants; both entry points refuse it up front."""

    def _trace(self, digits_small):
        trace = synthetic_trace(6, 100.0, 64, seed=0,
                                inputs=digits_small.x_test)
        trace[3].request_id = trace[1].request_id
        return trace

    def test_serve_replay_refuses(self, small_artifact, digits_small):
        trace = self._trace(digits_small)
        runtime = ServeRuntime(small_artifact)
        with pytest.raises(ConfigurationError,
                           match=f"request id {trace[1].request_id}$"):
            runtime.replay(trace)
        assert runtime.loop.pending == 0 and runtime.offered == 0


class TestReplicas:
    """One replica per (artifact, engine) per ``Answers``: requests run
    one at a time on the event loop, so runtimes can share it as a
    pool's devices do."""

    def test_runtimes_sharing_answers_share_one_replica(
        self, small_artifact, flashed
    ):
        answers = Answers()
        for engine in ("verified", "fastpath", "verified", "fastpath"):
            ServeRuntime(small_artifact, ServeConfig(engine=engine),
                         answers=answers)
        model_id = small_artifact.model_id
        assert flashed == [(model_id, "verified"), (model_id, "fastpath")]

    def test_each_runtime_of_its_own_flashes_one(
        self, small_artifact, flashed
    ):
        for _ in range(2):
            ServeRuntime(small_artifact)
        assert len(flashed) == 2
