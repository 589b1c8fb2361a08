"""Invariant soak benchmark: hostile replay with a full trace export.

The ISSUE-4 acceptance run: a faulty, overloaded EDF fleet — 2x
capacity, tight deadlines, probabilistic brown-outs, retries, both shed
bounds — replayed from one trace, with every span traced.  After the
replay every trace-derived invariant must hold:

- conservation: ``completed + rejected + failed == offered``;
- exactly one terminal span per offered request;
- per-device spans non-overlapping and monotone;
- no negative queue waits;
- ``busy_ms`` equals the summed execute/overhead/retry span durations;
- utilization within [0, 1].

The Chrome trace-event JSON is persisted as
``benchmarks/results/serve_trace.json`` (CI uploads it as an artifact;
open it at https://ui.perfetto.dev), alongside a text summary and a
sample per-request timeline.

Reduced configuration: set ``REPRO_SERVE_SOAK_REQUESTS`` (for example
to 150, as the CI job does) to shrink the trace; the default soaks 600
requests over 4 devices.
"""

import os

from _output import RESULTS_DIR, emit

from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.datasets import load
from repro.serve import (
    FaultPlan,
    ModelRegistry,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
    verify_trace_invariants,
)

N_REQUESTS = int(os.environ.get("REPRO_SERVE_SOAK_REQUESTS", "600"))
N_DEVICES = 4


def _artifact():
    dataset = load("digits_like", n_train=600, n_test=200, seed=3)
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="serve-soak", seed=0,
    )
    trained = train_neuroc(config, dataset, epochs=10, lr=0.01)
    return ModelRegistry().register(trained.quantized), dataset


def test_soak_invariants_and_trace_export():
    artifact, dataset = _artifact()
    capacity_rps = N_DEVICES * 1000.0 / artifact.deployment.latency_ms
    trace = synthetic_trace(
        N_REQUESTS, 2.0 * capacity_rps, 64, seed=47,
        deadline_ms=12.0, inputs=dataset.x_test,
    )
    runtime = ServeRuntime(
        artifact,
        ServeConfig(
            n_devices=N_DEVICES, policy="edf",
            max_queue_depth=max(32, N_REQUESTS // 8),
            max_queue_wait_ms=20.0, max_retries=2,
            fault_plan=FaultPlan(brownout_rate=0.25, seed=7),
        ),
    )
    report = runtime.replay(trace)

    assert report.offered == N_REQUESTS
    violations = verify_trace_invariants(report)
    assert not violations, "\n".join(violations)
    # The scenario must actually exercise every code path it soaks.
    counters = report.metrics["counters"]
    assert report.rejected > 0, "overload should shed"
    assert counters["device.brownouts"] > 0, "faults should fire"
    assert counters.get("requests.retries", 0) > 0, "retries should run"

    tracer = report.trace
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write_chrome_trace(
        RESULTS_DIR / "serve_trace.json",
        labels={
            "model_id": artifact.model_id,
            "engine": report.engine,
            "scenario": "2.0x EDF + deadlines + brownouts + retries",
        },
    )

    spans = tracer.spans()
    kinds = sorted({span.kind for span in spans})
    completed_ids = [
        o.request_id for o in report.outcomes if o.attempts > 1
    ]
    sample = tracer.timeline(
        completed_ids[0] if completed_ids
        else report.outcomes[0].request_id
    )
    lines = [
        f"devices={N_DEVICES}  "
        f"requests={N_REQUESTS}  capacity~{capacity_rps:.0f} req/sim-s",
        f"offered={report.offered}  completed={report.completed}  "
        f"rejected={report.rejected}  failed={report.failed}",
        f"spans={len(spans)}  kinds={','.join(kinds)}",
        "invariants: all hold "
        "(conservation, terminal-uniqueness, device monotonicity, "
        "queue waits, busy==spans, utilization)",
        "",
        "sample timeline (first retried request):",
        sample,
    ]
    emit("serve_soak", "\n".join(lines))
