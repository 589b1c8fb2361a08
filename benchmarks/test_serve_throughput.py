"""Fleet serving benchmark: open-loop trace over simulated devices.

Replays a synthetic Poisson arrival trace through ``repro.serve`` at
three load points (0.5x, 1x, 2x of analytic fleet capacity) and reports
throughput, latency percentiles (simulated ms), rejections, and
per-device utilization.  A fourth run enables fault injection and
asserts the acceptance invariant from ISSUE 2: with brown-outs active,

    completed + rejected + failed == offered load

i.e. no request is ever lost.  The full metrics snapshot is persisted
as JSON under ``benchmarks/results/`` (CI uploads it as an artifact).

Reduced configuration: set ``REPRO_SERVE_BENCH_REQUESTS`` (for example
to 200, as the CI smoke job does) to shrink the trace; the default is
the ISSUE-2 acceptance configuration of 1000 requests over 4 devices.
"""

import json
import os
import time

from _output import RESULTS_DIR, emit
from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.datasets import load
from repro.serve import (
    FaultPlan,
    ModelRegistry,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
)

N_REQUESTS = int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", "1000"))
N_DEVICES = 4


def _artifact():
    dataset = load("digits_like", n_train=600, n_test=200, seed=3)
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="serve-bench", seed=0,
    )
    trained = train_neuroc(config, dataset, epochs=10, lr=0.01)
    registry = ModelRegistry()
    return registry.register(trained.quantized), dataset


def _run(artifact, dataset, *, rate_rps, seed, fault_plan=None,
         max_retries=2, engine=None):
    trace = synthetic_trace(
        N_REQUESTS, rate_rps, 64, seed=seed, inputs=dataset.x_test
    )
    config = dict(
        n_devices=N_DEVICES,
        max_queue_depth=max(64, N_REQUESTS // 4),
        max_queue_wait_ms=25.0,
        max_retries=max_retries,
        fault_plan=fault_plan,
    )
    if engine is not None:
        config["engine"] = engine
    runtime = ServeRuntime(artifact, ServeConfig(**config))
    return runtime.replay(trace)


def test_serve_throughput_and_conservation():
    artifact, dataset = _artifact()
    capacity_rps = N_DEVICES * 1000.0 / artifact.deployment.latency_ms

    rows = []
    for label, factor, plan in (
        ("0.5x", 0.5, None),
        ("1.0x", 1.0, None),
        ("2.0x", 2.0, None),
        ("1.0x+faults", 1.0,
         FaultPlan(brownout_rate=0.15, seed=5)),
    ):
        report = _run(
            artifact, dataset,
            rate_rps=factor * capacity_rps,
            seed=17,
            fault_plan=plan,
        )
        # The acceptance invariant: no lost requests, under any plan.
        assert report.conserved, (
            f"{label}: {report.completed} + {report.rejected} + "
            f"{report.failed} != {report.offered}"
        )
        assert report.offered == N_REQUESTS
        assert report.latency_ms["p50"] <= report.latency_ms["p95"] \
            <= report.latency_ms["p99"]
        for value in report.device_utilization.values():
            assert 0.0 <= value <= 1.0
        rows.append((label, report))

    # Under heavy overload the runtime must shed rather than queue
    # without bound; with faults it must retry (or fail) every brown-out.
    overload = dict(rows)["2.0x"]
    assert overload.rejected > 0
    faulty = dict(rows)["1.0x+faults"]
    assert faulty.metrics["counters"]["device.brownouts"] > 0

    lines = [
        f"devices={N_DEVICES}  requests={N_REQUESTS}  "
        f"capacity~{capacity_rps:.0f} req/sim-s",
        f"{'load':12s} {'done':>5s} {'rej':>5s} {'fail':>5s} "
        f"{'thru r/s':>9s} {'p50ms':>7s} {'p95ms':>7s} {'p99ms':>7s} "
        f"{'util%':>6s}",
    ]
    payload = {}
    for label, report in rows:
        mean_util = sum(report.device_utilization.values()) / N_DEVICES
        lines.append(
            f"{label:12s} {report.completed:5d} {report.rejected:5d} "
            f"{report.failed:5d} {report.throughput_rps:9.0f} "
            f"{report.latency_ms['p50']:7.2f} "
            f"{report.latency_ms['p95']:7.2f} "
            f"{report.latency_ms['p99']:7.2f} {mean_util * 100:6.1f}"
        )
        payload[label] = {
            "offered": report.offered,
            "completed": report.completed,
            "rejected": report.rejected,
            "failed": report.failed,
            "throughput_rps": report.throughput_rps,
            "makespan_ms": report.makespan_ms,
            "latency_ms": report.latency_ms,
            "queue_ms": report.queue_ms,
            "device_utilization": report.device_utilization,
            "counters": report.metrics["counters"],
        }
    emit("serve_throughput", "\n".join(lines))
    _merge_results(payload)


def _merge_results(update: dict) -> None:
    """Read-modify-write so both benchmark tests share one artifact."""
    path = RESULTS_DIR / "serve_throughput.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload.update(update)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def test_serve_engine_goodput_verified():
    """The verified engine beats the tier-1 CPU on *host* goodput at
    the same scenario.

    The scenario is a burst at 50x fleet capacity with no shedding
    bounds: the queue fills, every dispatch takes a full batch, every
    request completes on both engines, and the host wall-clock is
    purely execute-path-bound.  The verified engine runs the reference
    forward where fastpath runs the translated kernels.  Simulated
    results are engine-identical (the serve determinism suite pins
    that), so only host time differs.
    """
    artifact, dataset = _artifact()
    capacity_rps = N_DEVICES * 1000.0 / artifact.deployment.latency_ms

    rows = {}
    for engine in ("fastpath", "verified"):
        config = ServeConfig(
            n_devices=N_DEVICES,
            max_queue_depth=N_REQUESTS,
            max_batch=32,
            engine=engine,
        )
        # Warm the process-wide translation cache so the timed replay
        # measures steady-state serving, matching how the registry
        # amortizes compilation.
        ServeRuntime(artifact, config).replay(
            synthetic_trace(32, capacity_rps, 64, seed=7,
                            inputs=dataset.x_test),
        )
        trace = synthetic_trace(
            N_REQUESTS, 50.0 * capacity_rps, 64, seed=23,
            inputs=dataset.x_test,
        )
        runtime = ServeRuntime(artifact, config)
        began = time.perf_counter()
        report = runtime.replay(trace)
        host_seconds = time.perf_counter() - began
        assert report.conserved, engine
        rows[engine] = {
            "completed": report.completed,
            "rejected": report.rejected,
            "failed": report.failed,
            "throughput_rps": report.throughput_rps,
            "host_seconds": host_seconds,
            "host_goodput_rps": report.completed / host_seconds,
        }

    fast, verified = rows["fastpath"], rows["verified"]
    # Same scenario, same completions: nothing is shed on either side.
    for engine, r in rows.items():
        assert r["completed"] == N_REQUESTS, engine

    emit("serve_engine_goodput", "\n".join([
        f"scenario: 50x capacity burst ({capacity_rps:.0f} req/sim-s), "
        f"{N_REQUESTS} requests, {N_DEVICES} devices",
        f"{'engine':12s} {'done':>5s} {'host s':>8s} {'goodput r/s':>12s}",
        *(
            f"{engine:12s} {r['completed']:5d} {r['host_seconds']:8.2f} "
            f"{r['host_goodput_rps']:12.0f}"
            for engine, r in rows.items()
        ),
        "host speedup: "
        f"{verified['host_goodput_rps'] / fast['host_goodput_rps']:.1f}x",
    ]))
    _merge_results({"engines": rows})

    assert verified["host_goodput_rps"] > fast["host_goodput_rps"], (
        f"verified host goodput {verified['host_goodput_rps']:.0f} r/s "
        f"is not above fastpath's {fast['host_goodput_rps']:.0f} r/s"
    )
