"""Process-pool fan-out: cold-cache wall-clock speedup on the Fig. 6 search.

Runs the same cold MLP-search workload twice — sequentially and across
four workers — in two fresh cache directories, then asserts the results
are identical (the runner's determinism contract) and, on machines with
at least four cores, that the parallel run is at least 2x faster.
Single-core runners still execute both passes and record their timings;
only the speedup floor is skipped there.

Both runs land in the shared timing registry, so the session's
``benchmarks/results/experiment_timings.json`` carries the measured
cold-cache speedup (per-figure ``wall_seconds`` at jobs=1 vs jobs=4).
"""

from __future__ import annotations

import os

from _output import emit

from repro.experiments import fig6, runner
from repro.experiments.cache import clear_memory_cache

#: Enough units that pool startup amortizes, small enough for CI smoke.
SEARCH_UNITS = 8
EPOCH_CAP = 3
PARALLEL_JOBS = 4
SPEEDUP_FLOOR = 2.0


def _cold_search(tmp_path, monkeypatch, jobs: int, tag: str):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{tag}"))
    monkeypatch.setenv("REPRO_FIG6_SEARCH_COUNT", str(SEARCH_UNITS))
    monkeypatch.setenv("REPRO_MAX_EPOCHS", str(EPOCH_CAP))
    monkeypatch.setenv("REPRO_JOBS", str(jobs))   # what `--jobs` sets
    clear_memory_cache()
    points = fig6.mlp_search_points()
    run = runner.runs()[-1]
    assert run.figure == "fig6-search" and run.jobs == jobs
    assert run.cold_units == SEARCH_UNITS  # fresh dir: nothing warm
    return points, run


def test_parallel_speedup_cold_fig6(tmp_path, monkeypatch):
    sequential, seq_run = _cold_search(tmp_path, monkeypatch, 1, "seq")
    parallel, par_run = _cold_search(
        tmp_path, monkeypatch, PARALLEL_JOBS, "par"
    )

    # The tentpole contract: identical results at any --jobs value.
    assert parallel == sequential

    cores = os.cpu_count() or 1
    speedup = seq_run.wall_seconds / max(par_run.wall_seconds, 1e-9)
    emit(
        "parallel_speedup",
        "\n".join(
            [
                "Cold-cache Fig. 6 search: sequential vs "
                f"{PARALLEL_JOBS} workers ({SEARCH_UNITS} units, "
                f"epochs capped at {EPOCH_CAP}, {cores} cores)",
                f"  jobs=1: {seq_run.wall_seconds:.2f} s wall",
                f"  jobs={PARALLEL_JOBS}: "
                f"{par_run.wall_seconds:.2f} s wall",
                f"  speedup: x{speedup:.2f}"
                + ("" if cores >= PARALLEL_JOBS else
                   f"  (floor not enforced on {cores} core(s))"),
            ]
        ),
    )
    if cores >= PARALLEL_JOBS:
        assert speedup >= SPEEDUP_FLOOR
