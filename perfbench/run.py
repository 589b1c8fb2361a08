"""Outside-in benchmark of the three host paths users run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search|serve|cluster_rollout|all \
        --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after the other.

Workloads (the rationale of each is in ``BENCHMARK.json``):

* ``search`` -- a reduced staged ``repro.search.run_search`` on an empty
  cache directory (``cold_s``), then the same sweep again in a new
  interpreter over the cache the first one filled (``warm_s``).
* ``serve`` -- ``ServeRuntime.replay`` of an open-loop trace at the
  ``repro serve-bench`` defaults; ``cold_s`` is the first replay after
  set-up, ``warm_s`` the second one in the same interpreter.
* ``cluster_rollout`` -- ``repro.cluster.bench.run_cluster_once`` over
  two fleets with a rolling deploy a third of the way through the
  trace; ``cold_s``/``warm_s`` as for ``serve``.

Every measurement runs in a fresh interpreter (``measure.py``) with its
own ``REPRO_CACHE_DIR`` under ``.perfbench_tmp/``; measurements repeat
until ``--seconds`` have passed and each reported figure is the median
over them.  ``setup_s`` is the median set-up time of every measurement
process, counted from its spawn.  Every measurement passes correctness
gates (reference labels, analytic cycles, conservation, trace and
cluster invariants, rollout completion, byte-identical search output);
a measurement that fails one counts as failed and gives no number, and
the run then exits with status 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced measurements with traced ones, whose layer functions are
wrapped by ``spans.Recorder``, and prints the per-layer metrics and
``trace.overhead_share``; the spans of one traced measurement are
written to ``.perfbench_out/<workload>.spans.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MEASURE = HERE / "measure.py"

#: Repetitions a run makes even when ``--seconds`` runs out first (per
#: kind in a traced run: untraced and traced).
MIN_REPS = 3
#: No repetition starts after this many seconds and no measurement
#: process may take longer than the timeout, so a run ends inside three
#: minutes even when every process hangs (one loop pass starts at most
#: two repetitions of at most two processes each).
LAST_START_S = 50.0
CHILD_TIMEOUT_S = 30.0


def spawn(args, rep: int, traced: bool, phase: str, workdir: Path,
          spans: Path | None) -> dict:
    """One measurement in a fresh interpreter; returns its result."""
    out = workdir / f"{phase}.json"
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    # A fixed hash seed: string-hash randomization otherwise changes set
    # and dict orders, and with them host time, from process to process.
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(workdir / "cache"),
        TMPDIR=str(workdir),
        PERFBENCH_SPAWN_T=repr(time.time()),
    )
    command = [
        sys.executable, str(MEASURE), args.workload,
        "--seed", str(args.seed), "--rep", str(rep),
        "--trace", str(int(traced)), "--phase", phase,
        "--workdir", str(workdir), "--out", str(out),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"{phase}: timed out"]}
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = {"ok": False, "errors": [proc.stderr[-2000:]]}
    if not result["ok"]:
        print(f"[{args.workload} rep {rep} {phase}] gate failed: "
              + "; ".join(result["errors"]), file=sys.stderr)
    return result


def run_rep(args, rep: int, traced: bool, tmp: Path) -> list[dict]:
    """One repetition: a cold+warm child pair for search, else one."""
    workdir = tmp / f"{'t' if traced else 'u'}{rep}"
    workdir.mkdir(parents=True)
    spans = None
    if traced and rep == 0:
        spans = ROOT / ".perfbench_out" / f"{args.workload}.spans.jsonl"
    phases = ("cold", "warm") if args.workload == "search" else ("cold",)
    children = []
    for phase in phases:
        child = spawn(args, rep, traced, phase, workdir, spans)
        children.append(child)
        if not child["ok"]:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    return children


def merge(children: list[dict]) -> dict:
    """Fold a repetition's children into one record."""
    rep = {"calls_s": {"cold": [], "warm": []}, "layers": {},
           "gauges": {}, "setup_s": [], "peak_rss_mb": 0.0}
    for child in children:
        for phase, times in child["calls_s"].items():
            rep["calls_s"][phase] += times
        rep["setup_s"].append(child["setup_s"])
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], child["peak_rss_mb"])
        rep["gauges"].update(child.get("gauges", {}))
        for key, value in child.get("layers", {}).items():
            rep["layers"][key] = rep["layers"].get(key, 0) + value
    rep["attempted"] = children[0]["attempted"]
    rep["failed"] = children[0]["failed"]
    rep["digest"] = children[0].get("digest")
    return rep


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [s for rep in reps for s in rep["setup_s"]],
        "cold_s": [t for rep in reps for t in rep["calls_s"]["cold"]],
        "warm_s": [t for rep in reps for t in rep["calls_s"]["warm"]],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }


def per_layer(
    workload: str, untraced: list[dict], traced: list[dict]
) -> dict:
    """Per-layer figures: medians over the traced repetitions, plus the
    figures that combine traced kernel probes with untraced host time."""
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for rep in traced:
        layers, gauges = rep["layers"], rep["gauges"]
        for key, value in list(layers.items()) + list(gauges.items()):
            add(key, value)
        add("kernels.codegen_per_layer_deployed", ratio(
            layers["kernels.codegen_calls"],
            layers["deploy.layers_flashed"]))
        add("mcu.translation_hit_ratio", ratio(
            layers["mcu.translation_hits"],
            layers["mcu.translation_hits"]
            + layers["mcu.translation_misses"]))
        add("cluster.route_us",
            ratio(layers["cluster.route_s"], layers["cluster.route_calls"])
            * 1e6)
        add("cluster.route_calls_per_req",
            ratio(layers["cluster.route_calls"], rep["attempted"]))
        add("cluster.tick_us",
            ratio(layers["cluster.tick_s"], layers["cluster.tick_calls"])
            * 1e6)
        add("failed_share", ratio(rep["failed"], rep["attempted"]))
    figures = {name: median(values) for name, values in samples.items()}

    def host_s(reps):
        return median([
            sum(map(sum, rep["calls_s"].values())) for rep in reps
        ])

    figures["trace.overhead_share"] = ratio(
        host_s(traced) - host_s(untraced), host_s(untraced)
    )
    served = figures.get("served_per_call", 0.0)
    if served:
        warm_us = median([
            t for rep in untraced for t in rep["calls_s"]["warm"]
        ]) / served * 1e6
        prefix = "serve" if workload == "serve" else "cluster"
        figures[f"{prefix}.host_rps"] = 1e6 / warm_us
        figures[f"{prefix}.overhead_us_per_req"] = (
            warm_us - figures["mcu.exec_us_per_row.fastpath.b1"]
        )
    return figures


def host_facts() -> str:
    import numpy

    git = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() \
                else ref
        git = ref[:12]
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={numpy.__version__} git={git}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"],
                        required=True,
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2

    print(host_facts())
    status = 0
    for workload in workloads if args.workload == "all" else [args.workload]:
        args.workload = workload
        status = max(status, run_workload(spec, args))
    return status


def run_workload(spec: dict, args) -> int:
    """Measure one workload and print its metrics; 1 if a gate failed."""
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.monotonic()
    reps: dict[bool, list[list[dict]]] = {False: [], True: []}
    kinds = (False, True) if args.trace else (False,)
    try:
        while True:
            elapsed = time.monotonic() - start
            short = any(len(reps[kind]) < MIN_REPS for kind in kinds)
            if elapsed >= LAST_START_S or (
                elapsed >= args.seconds and not short
            ):
                break
            for traced in kinds:
                reps[traced].append(
                    run_rep(args, len(reps[traced]), traced, tmp)
                )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passed = {
        kind: [merge(rep) for rep in reps[kind]
               if all(child["ok"] for child in rep)]
        for kind in kinds
    }
    n_failed_reps = sum(
        len(reps[kind]) - len(passed[kind]) for kind in kinds
    )
    failed_ops = sum(rep["failed"] for kind in kinds for rep in passed[kind])
    # A failed repetition counts every operation it would have run.
    nominal = max(
        (rep["attempted"] for kind in kinds for rep in passed[kind]),
        default=1,
    )
    attempted = sum(rep["attempted"] for kind in kinds
                    for rep in passed[kind]) + n_failed_reps * nominal
    failed = failed_ops + n_failed_reps * nominal

    correct = n_failed_reps == 0
    if args.workload == "search":
        by_seed: dict[str, set] = {}
        for kind in kinds:
            for rep in passed[kind]:
                seed, digest = rep["digest"].split(":")
                by_seed.setdefault(seed, set()).add(digest)
        for seed, digests in by_seed.items():
            if len(digests) > 1:
                print(f"[search] dataset seed {seed}: {len(digests)} "
                      "different frontier outputs", file=sys.stderr)
                correct = False

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    metrics = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        if passed[True] and passed[False]:
            figures = per_layer(args.workload, passed[False], passed[True])
            for name in names:
                metrics[name] = figures.get(name, 0.0)
        counts = {name: len(passed[True]) for name in names}
    else:
        samples = end_to_end(passed[False]) if passed[False] else {}
        for name, values in samples.items():
            metrics[name] = median(values)
        counts = {name: len(values) for name, values in samples.items()}
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]:6s} "
              f"n={counts[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
