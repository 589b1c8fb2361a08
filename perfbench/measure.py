"""One benchmark measurement, in a fresh interpreter.

``run.py`` starts this script once per measurement, so the disk cache
(``REPRO_CACHE_DIR``, a directory of the run's own), the process-wide
translation cache and the dataset memo never carry over from one
measurement to the next.  Usage::

    python3 perfbench/measure.py WORKLOAD --seed N --rep I --trace 0|1 \
        --workdir DIR --out RESULT.json [--phase cold|warm] [--spans F]

The result file holds the set-up time (from the moment ``run.py``
spawned the process, so interpreter start-up and imports count), the
host seconds of each measured call, peak RSS from ``getrusage``, the
attempted and failed operation counts, the correctness-gate errors and,
with ``--trace 1``, the per-layer figures.  Any gate error makes the
measurement failed; ``run.py`` then reports no number for it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder, layer_totals

# -- workload definitions ----------------------------------------------------
# Every value below is part of the benchmark's definition; the seed given
# on the command line only varies the generated inputs.

DATASET = "digits_like"

#: Reduced staged search: two boards, a fixed candidate pool (sampler
#: seed 0, so every run prices the same architectures), short budgets.
SEARCH_BOARDS = ("STM32F072RB", "Kinetis-K64F")
SEARCH_COUNT = 8
SEARCH_STAGE2_EPOCHS = 3
SEARCH_QAT_EPOCHS = 6
SEARCH_SAMPLER_SEED = 0
#: Measurements cycle over this many dataset seeds derived from --seed,
#: so a run's median does not hang on one dataset's early-stopping luck
#: and every derived seed is swept at least twice (the determinism gate).
SEARCH_DATASET_SEEDS = 4
#: Warm reruns per warm measurement.  The in-process memo is cleared
#: before each, so every rerun reads the disk cache, as a new
#: ``repro search`` invocation does.
SEARCH_WARM_RERUNS = 5

#: The fixed-seed models that serve and cluster_rollout replay.
MODEL_DATA = {"n_train": 600, "n_test": 200, "seed": 3}
MODEL_HIDDEN = (16,)
MODEL_EPOCHS = 10
INPUT_ROWS = 512

#: Replays (serve) or rollouts (cluster_rollout) per measurement
#: process: the first is the cold call, the rest are warm calls.  Host
#: speed on a shared machine drifts by tens of percent for seconds at a
#: time, so many short calls with medians beat a few long ones.
CALLS_PER_PROCESS = 4

#: ``repro serve-bench`` at its CLI defaults, with a longer trace.
SERVE_REQUESTS = 2500
SERVE_RATE_RPS = 2000.0

#: Two fleets of four devices; a rolling deploy a third of the way in.
CLUSTER_REQUESTS = 2000
CLUSTER_FLEETS = 2
CLUSTER_DEVICES = 4
CLUSTER_POLICY = "least-queue-wait"
CLUSTER_LOAD = 0.4

#: Kernel probes: the minimum timed calls and seconds per probe.
PROBE_MIN_CALLS = 5
PROBE_MIN_S = 0.05


class GateError(Exception):
    """A correctness gate failed: the measurement yields no number."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# -- tracing -----------------------------------------------------------------

def instrument(recorder: Recorder) -> None:
    """Wrap each layer's public functions (all modules imported first)."""
    import repro.analysis.report as report
    import repro.cluster.cluster as cluster
    import repro.cluster.router as router
    import repro.deploy.artifact as artifact
    import repro.deploy.deployer as deployer
    import repro.deploy.size as size
    import repro.kernels.codegen_dense as codegen_dense
    import repro.kernels.codegen_sparse as codegen_sparse
    import repro.mcu.fastpath as fastpath
    import repro.nn.trainer as trainer
    import repro.quantize.ptq as ptq
    import repro.search.stages as stages
    import repro.serve.pool as pool
    import repro.serve.scheduler as scheduler

    recorder.wrap(trainer.Trainer, "fit", "nn.train")
    recorder.wrap(ptq, "ternarize_float_model", "quantize.ptq")
    recorder.wrap(ptq, "quantize_model", "quantize.ptq")
    recorder.wrap(codegen_sparse, "generate_sparse", "kernels.codegen")
    recorder.wrap(codegen_dense, "generate_dense", "kernels.codegen")
    recorder.wrap(size, "model_program_memory", "deploy.size")
    recorder.wrap(deployer, "deploy", "deploy.deploy")
    recorder.wrap(
        artifact.DeployedModel, "__init__", "deploy.flash",
        count=lambda args, kwargs, _: len(
            (args[1] if len(args) > 1 else kwargs["quantized"]).specs
        ),
    )
    recorder.wrap(report, "verify_deployed_model", "analysis.verify")
    recorder.wrap(stages, "analytic_screen", "search.screen")
    recorder.wrap(stages, "stage2_unit", "search.stage2")
    recorder.wrap(stages, "stage3_unit", "search.stage3")
    recorder.wrap(fastpath, "translate", "mcu.translate")
    recorder.wrap(fastpath, "translate_v2", "mcu.translate")
    recorder.wrap(scheduler.BoundedRequestQueue, "take_batch",
                  "serve.take_batch")
    recorder.wrap(
        pool.SimulatedDevice, "execute", "serve.execute",
        request_id=lambda args, kwargs: args[1].request_id,
    )
    recorder.wrap(router.Router, "route", "cluster.route")
    recorder.wrap(cluster.Cluster, "tick", "cluster.tick")


#: Span name -> per-layer figures reported as (seconds key, calls key).
LAYER_SPANS = {
    "nn.train": ("nn.train_s", "nn.train_calls"),
    "quantize.ptq": ("quantize.ptq_s", None),
    "kernels.codegen": ("kernels.codegen_s", "kernels.codegen_calls"),
    "deploy.size": ("deploy.size_s", None),
    "deploy.deploy": ("deploy.deploy_s", None),
    "analysis.verify": ("analysis.verify_s", None),
    "search.screen": ("search.screen_s", None),
    "search.stage2": (None, "search.stage2_units"),
    "search.stage3": (None, "search.stage3_units"),
    "mcu.translate": ("mcu.translate_s", None),
    "serve.take_batch": ("serve.worker_wait_s", None),
    "cluster.route": ("cluster.route_s", "cluster.route_calls"),
    "cluster.tick": ("cluster.tick_s", "cluster.tick_calls"),
}


def layer_figures(recorder: Recorder) -> dict[str, float]:
    """Additive per-layer figures: self seconds and call counts."""
    totals = layer_totals(recorder.spans())
    figures: dict[str, float] = {}
    for name, (seconds_key, calls_key) in LAYER_SPANS.items():
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        if seconds_key:
            figures[seconds_key] = row["self_s"]
        if calls_key:
            figures[calls_key] = row["calls"]
    figures["deploy.layers_flashed"] = totals.get(
        "deploy.flash", {"count": 0}
    )["count"]
    return figures


def maybe_span(recorder, name: str):
    """``recorder.span(name)`` when tracing, else nothing."""
    return recorder.span(name) if recorder else contextlib.nullcontext()


def translation_counts() -> tuple[int, int]:
    from repro.mcu.fastpath import translation_cache_stats

    stats = translation_cache_stats()
    return stats["hits"], stats["misses"]


# -- shared pieces -----------------------------------------------------------

def model_dataset():
    from repro.datasets import load

    return load(DATASET, **MODEL_DATA)


def train_model(dataset, seed: int):
    from repro.core.neuroc import NeuroCConfig, train_neuroc

    config = NeuroCConfig(
        n_in=dataset.num_features, n_out=dataset.num_classes,
        hidden=MODEL_HIDDEN, threshold=0.85, name="perfbench", seed=seed,
    )
    return train_neuroc(config, dataset, epochs=MODEL_EPOCHS, lr=0.01)


def generated_inputs(dataset, seed: int):
    """Request inputs: test rows drawn with replacement, by seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(dataset.x_test), size=INPUT_ROWS)
    return dataset.x_test[rows]


def check_outcomes(report, quantized, inputs, cycles, where: str) -> int:
    """Gate every completed request against the reference backend.

    Labels must equal ``QuantizedModel.predict`` on the same input and
    charged cycles must equal the analytic cycle count.  Returns the
    number of requests that did not complete.
    """
    from repro.serve.request import COMPLETED

    expected = quantized.predict(inputs)
    check(report.conserved, f"{where}: conservation violated")
    for outcome in report.outcomes:
        if outcome.status != COMPLETED:
            continue
        want = int(expected[outcome.request_id % len(inputs)])
        check(outcome.label == want,
              f"{where}: request {outcome.request_id} label "
              f"{outcome.label} != reference {want}")
        check(outcome.cycles == cycles,
              f"{where}: request {outcome.request_id} charged "
              f"{outcome.cycles} cycles, analytic {cycles}")
    return report.rejected + report.failed


def probe_us_per_row(call, rows: int) -> float:
    """Median single-thread host microseconds per row of ``call()``."""
    call()                                   # first use: lazy builds
    times = []
    start = time.perf_counter()
    while (
        len(times) < PROBE_MIN_CALLS
        or time.perf_counter() - start < PROBE_MIN_S
    ):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / rows * 1e6


def kernel_probes(artifact, inputs) -> dict[str, float]:
    """Kernel cost outside any replay, one thread, per engine and batch.

    Summed ``DeployedModel.infer`` spans from the replay overcount (the
    four device threads overlap on the interpreter lock), so the serve
    overhead per request subtracts this isolated cost instead.
    """
    quantized = artifact.deployed.quantized
    probes = {}
    for engine in ("interpreter", "fastpath", "fastpath-v2"):
        replica = artifact.replica(engine)
        probes[f"mcu.exec_us_per_row.{engine}.b1"] = probe_us_per_row(
            lambda: replica.infer(inputs[0]), 1
        )
    v2 = artifact.replica("fastpath-v2")
    for batch in (4, 256):
        probes[f"mcu.exec_us_per_row.fastpath-v2.b{batch}"] = (
            probe_us_per_row(lambda: v2.infer_batch(inputs[:batch]), batch)
        )
    for batch in (1, 4, 256):
        probes[f"kernels.ref_us_per_row.b{batch}"] = probe_us_per_row(
            lambda: quantized.predict(inputs[:batch]), batch
        )
    return probes


# -- workloads ---------------------------------------------------------------

def search_settings(seed: int, rep: int):
    from repro.search import SearchSettings

    return SearchSettings(
        dataset=DATASET,
        dataset_seed=seed * SEARCH_DATASET_SEEDS
        + rep % SEARCH_DATASET_SEEDS,
        boards=SEARCH_BOARDS,
        count=SEARCH_COUNT,
        seed=SEARCH_SAMPLER_SEED,
        stage2_epochs=SEARCH_STAGE2_EPOCHS,
        qat_epochs=SEARCH_QAT_EPOCHS,
    )


def run_search_phase(args, recorder, result, spawned) -> None:
    """Cold: one sweep over an empty cache directory.  Warm: reruns over
    the cache the cold process filled, each reading it from disk."""
    from repro.datasets import load
    from repro.experiments import cache, runner
    from repro.search import run_search

    settings = search_settings(args.seed, args.rep)
    with maybe_span(recorder, "setup"):
        load(DATASET, seed=settings.dataset_seed)
    result["setup_s"] = time.time() - spawned
    cold_file = Path(args.workdir) / "cold-search-report.json"
    times = []
    for _ in range(1 if args.phase == "cold" else SEARCH_WARM_RERUNS):
        cache.clear_memory_cache()
        runner.reset_timings()
        start = time.perf_counter()
        with maybe_span(recorder, args.phase):
            report = run_search(settings, jobs=1)
        times.append(time.perf_counter() - start)
        runs = runner.runs()
        total = sum(run.units for run in runs)
        computed = sum(run.cold_units for run in runs)
        body = report.to_json()
        if args.phase == "cold":
            check(computed == total, "cold sweep found a warm cache")
            cold_file.write_text(body)
        else:
            check(computed == 0,
                  f"warm rerun computed {computed} of {total} units")
            check(body == cold_file.read_text(),
                  "warm rerun output differs from the cold sweep")
    result["calls_s"] = {args.phase: times}
    units = [
        row for funnel in report.funnels.values()
        for row in funnel.stage2 + funnel.stage3
    ]
    result["attempted"] = len(units)
    result["failed"] = sum(1 for row in units if row["error"])
    result["gauges"] = {
        f"experiments.cache_hit_ratio.{args.phase}":
            (total - computed) / total,
    }
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    result["digest"] = f"{settings.dataset_seed}:{digest}"


def run_serve(args, recorder, result, spawned) -> None:
    from repro.deploy.artifact import analytic_model_cycles
    from repro.serve import (
        ModelRegistry,
        ServeConfig,
        ServeRuntime,
        synthetic_trace,
        verify_trace_invariants,
    )

    with maybe_span(recorder, "setup"):
        dataset = model_dataset()
        quantized = train_model(dataset, seed=0).quantized
        artifact = ModelRegistry().register(quantized)
    result["setup_s"] = time.time() - spawned
    inputs = generated_inputs(dataset, args.seed)
    cycles = analytic_model_cycles(quantized, artifact.format_name,
                                   artifact.board, artifact.block_size)
    config = ServeConfig(
        n_devices=4, policy="fifo", max_queue_depth=256, max_batch=4,
        max_queue_wait_ms=50.0,
    )
    result["calls_s"] = {"cold": [], "warm": []}
    failed = 0
    for call in range(CALLS_PER_PROCESS):
        phase = "warm" if call else "cold"
        trace = synthetic_trace(
            SERVE_REQUESTS, SERVE_RATE_RPS, quantized.n_in,
            seed=args.seed, inputs=inputs,
        )
        start = time.perf_counter()
        with maybe_span(recorder, phase):
            report = ServeRuntime(artifact, config).replay(trace)
        result["calls_s"][phase].append(time.perf_counter() - start)
        check(report.offered == SERVE_REQUESTS,
              f"serve {phase}: offered {report.offered}")
        violations = verify_trace_invariants(report)
        check(not violations,
              f"serve {phase}: trace invariants: {violations[:3]}")
        failed += check_outcomes(report, quantized, inputs, cycles,
                                 f"serve {phase}")
    result["attempted"] = CALLS_PER_PROCESS * SERVE_REQUESTS
    result["failed"] = failed
    snapshot = report.metrics
    result["gauges"] = {
        "serve.batch_size_mean":
            snapshot["histograms"]["batch_size"]["mean"],
        "serve.batches": snapshot["counters"]["batches.dispatched"],
        "serve.sim_p50_ms": report.latency_ms["p50"],
        "serve.sim_p99_ms": report.latency_ms["p99"],
        "serve.sim_queue_p99_ms": report.queue_ms["p99"],
        "serve.sim_goodput_rps": report.throughput_rps,
        "served_per_call": report.completed,
    }
    result["artifact"] = artifact
    result["inputs"] = inputs


def run_cluster(args, recorder, result, spawned) -> None:
    import repro.cluster.bench as bench
    from repro.cluster import fleet_capacity_rps, run_cluster_once
    from repro.deploy.artifact import analytic_model_cycles
    from repro.errors import VerificationError
    from repro.serve import ModelRegistry

    with maybe_span(recorder, "setup"):
        dataset = model_dataset()
        registry = ModelRegistry()
        base = registry.register(train_model(dataset, seed=0).quantized)
        target = registry.register(train_model(dataset, seed=1).quantized)
    result["setup_s"] = time.time() - spawned
    inputs = generated_inputs(dataset, args.seed)
    by_id = {a.model_id: a for a in (base, target)}
    cycles = {
        a.model_id: analytic_model_cycles(
            a.deployed.quantized, a.format_name, a.board, a.block_size
        )
        for a in (base, target)
    }
    rate = CLUSTER_LOAD * fleet_capacity_rps(base, CLUSTER_DEVICES)
    deploy_at_ms = CLUSTER_REQUESTS / rate * 1e3 / 3

    result["calls_s"] = {"cold": [], "warm": []}
    failed = 0
    for call in range(CALLS_PER_PROCESS):
        phase = "warm" if call else "cold"
        with capture_cluster(bench) as captured:
            start = time.perf_counter()
            try:
                with maybe_span(recorder, phase):
                    row = run_cluster_once(
                        base, n_fleets=CLUSTER_FLEETS,
                        policy=CLUSTER_POLICY,
                        requests=CLUSTER_REQUESTS, rate_rps=rate,
                        devices_per_fleet=CLUSTER_DEVICES, seed=args.seed,
                        inputs=inputs, deploy_artifact=target,
                        deploy_at_ms=deploy_at_ms,
                    )
            except VerificationError as exc:   # cluster invariants
                raise GateError(f"cluster {phase}: {exc}") from exc
            result["calls_s"][phase].append(time.perf_counter() - start)
        (report,) = captured
        check(report.offered == CLUSTER_REQUESTS,
              f"cluster {phase}: offered {report.offered}")
        events = [event.kind for event in report.deploy_events]
        check(events[-1:] == ["complete"],
              f"cluster {phase}: rollout ended {events}")
        check(report.conserved, f"cluster {phase}: conservation violated")
        for generation in report.generations:
            model = by_id[generation.model_id]
            failed += check_outcomes(
                generation.report, model.deployed.quantized, inputs,
                cycles[generation.model_id],
                f"cluster {phase} {generation.fleet}.g"
                f"{generation.generation}",
            )
    result["attempted"] = CALLS_PER_PROCESS * CLUSTER_REQUESTS
    result["failed"] = failed
    result["gauges"] = {
        "cluster.deploy_events": len(row["deploy_events"]),
        "cluster.sim_p50_ms": row["latency_p50_ms"],
        "cluster.sim_p99_ms": row["latency_p99_ms"],
        "cluster.sim_goodput_rps": row["goodput_rps"],
        "served_per_call": row["completed"],
    }
    result["artifact"] = base
    result["inputs"] = inputs


@contextlib.contextmanager
def capture_cluster(bench):
    """Keep the report of every cluster ``run_cluster_once`` builds.

    ``run_cluster_once`` returns a summary without per-request
    outcomes; the gates need them, so the ``Cluster`` name it calls is
    swapped for a subclass that records each replay's report.
    """
    original = bench.Cluster
    reports: list = []

    class RecordingCluster(original):
        def replay(self, trace, pace=True):
            report = super().replay(trace, pace)
            reports.append(report)
            return report

    bench.Cluster = RecordingCluster
    try:
        yield reports
    finally:
        bench.Cluster = original


WORKLOADS = {
    "search": run_search_phase,
    "serve": run_serve,
    "cluster_rollout": run_cluster,
}


# -- entry point -------------------------------------------------------------

def measure(args) -> dict:
    spawned = float(os.environ["PERFBENCH_SPAWN_T"])
    result: dict = {"ok": False, "errors": []}
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        instrument(recorder)
        hits0, misses0 = translation_counts()
    try:
        WORKLOADS[args.workload](args, recorder, result, spawned)
    except GateError as exc:
        result["errors"].append(str(exc))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    artifact = result.pop("artifact", None)
    inputs = result.pop("inputs", None)
    if recorder is not None:
        recorder.restore()
        hits, misses = translation_counts()
        figures = layer_figures(recorder)
        figures["mcu.translation_hits"] = hits - hits0
        figures["mcu.translation_misses"] = misses - misses0
        result["layers"] = figures
        if artifact is not None and not result["errors"]:
            result["gauges"].update(kernel_probes(artifact, inputs))
        if args.spans:
            recorder.write(args.spans)
    result["ok"] = not result["errors"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("cold", "warm"), default="cold")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except Exception:
        result = {"ok": False, "errors": [traceback.format_exc()]}
    Path(args.out).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
