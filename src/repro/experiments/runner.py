"""Work-unit execution engine for the figure-regeneration harness.

Every training-backed figure is a *sequential assembly* over many
independent training/eval units — one ``(dataset, config, seed)`` tuple
each, one :func:`~repro.experiments.cache.cached_json` key each.  This
module executes those units across a :class:`ProcessPoolExecutor` before
the figure's assembly code runs:

- ``jobs=1`` (the default) runs units inline, byte-identical to the
  pre-runner sequential loops;
- ``jobs>1`` fans cold units out to worker processes.  Each worker
  publishes its result into the shared disk cache (the cache layer's
  atomic write-then-rename exists exactly for this), so the parent —
  and any later pytest run — only reads JSON.

Determinism: a unit's result may depend only on its arguments; every
random stream inside a unit must be seeded from those arguments (use
:func:`unit_seed` on the unit key when a dedicated seed is needed).
Under that contract the executed work is identical at any ``--jobs``
value, and figure tables are byte-identical.

Job count resolution: an explicit ``jobs=`` argument wins, else the
``REPRO_JOBS`` environment variable, else 1.  ``jobs=0``/``jobs=-1``
mean "all cores".  ``REPRO_MAX_EPOCHS`` caps every figure's training
epochs (CI smoke runs shrink the workload with it); the effective value
is embedded in each unit key so differently-capped runs never share
cache entries.

Every ``REPRO_*`` integer knob parses through :func:`env_int` — one
error message, one empty-value rule — and any knob that changes the
work a unit performs must be embedded in that unit's cache key.  The
full knob table lives in ``docs/search.md`` ("Environment knobs"):
``REPRO_JOBS``, ``REPRO_MAX_EPOCHS``, ``REPRO_FIG6_SEARCH_COUNT``.

Timing: every :func:`map_units` call records per-unit and per-figure
wall times plus cold/warm flags into a process-global registry —
``repro report`` prints it and the benchmark harness persists it as
``benchmarks/results/experiment_timings.json`` — so parallel speedups
are measured, not asserted.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.experiments.cache import cache_dir, cached_json


@dataclass(frozen=True)
class WorkUnit:
    """One independent computation of a figure.

    ``fn`` must be a module-level callable (worker processes import it
    by reference) returning a JSON-serializable value built from lists,
    dicts, strings, numbers, bools — never tuples or numpy scalars —
    so cached and freshly-computed results are indistinguishable.
    ``cache=False`` skips the disk cache (for cheap analytic units that
    should stay recompute-always).
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict | None = None
    cache: bool = True


@dataclass(frozen=True)
class UnitTiming:
    """Wall time of one executed unit."""

    figure: str
    key: str
    seconds: float
    cold: bool               # True: computed; False: served from cache
    worker: str              # "parent" or "pool"


@dataclass(frozen=True)
class FigureRun:
    """One map_units invocation, aggregated."""

    figure: str
    jobs: int
    units: int
    cold_units: int
    wall_seconds: float
    unit_seconds: float      # summed unit time (> wall when parallel)
    unit_timings: list[UnitTiming] = field(repr=False, default_factory=list)


_RUNS: list[FigureRun] = []


def unit_seed(key: str) -> int:
    """Deterministic 63-bit seed derived from a unit's cache key.

    Workers must never share a random stream — seeding from the unit
    key makes every unit's stream a pure function of its identity, so
    results are byte-identical at any ``jobs`` value.
    """
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def env_int(name: str, default: int | None = None) -> int | None:
    """Parse one integer ``REPRO_*`` environment knob.

    The single parsing rule every knob shares (no per-knob sprawl):
    unset or blank means ``default``; anything else must parse as an
    integer or a :class:`~repro.errors.ConfigurationError` names the
    offending variable.  Callers embedding a knob's value in work they
    cache must put the *returned* value in the cache key.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{name} must be an integer: {raw!r}"
        ) from exc


def resolve_jobs(jobs: int | None = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` env > 1; 0/-1 mean all cores."""
    if jobs is None:
        jobs = env_int("REPRO_JOBS", 1)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def effective_epochs(requested: int) -> int:
    """Apply the ``REPRO_MAX_EPOCHS`` cap (0/unset: no cap).

    Figures embed the returned value in their unit keys, so capped and
    uncapped runs never collide in the cache.
    """
    cap = env_int("REPRO_MAX_EPOCHS", 0)
    if cap <= 0:
        return requested
    return min(requested, cap)


def _is_warm(unit: WorkUnit) -> bool:
    """True when the unit's result is already published on disk."""
    if not unit.cache:
        return False
    return (cache_dir() / f"{unit.key}.json").exists()


def _run_one(unit: WorkUnit) -> tuple[Any, float, bool]:
    """Execute one unit (current process), via the cache when enabled.

    Returns ``(value, seconds, cold)`` where ``cold`` is True when the
    unit's ``fn`` actually ran (vs a cache read).
    """
    kwargs = unit.kwargs or {}
    computed = []

    def compute() -> Any:
        computed.append(True)
        return unit.fn(*unit.args, **kwargs)

    start = time.perf_counter()
    if unit.cache:
        value = cached_json(unit.key, compute)
    else:
        value = compute()
    return value, time.perf_counter() - start, bool(computed)


def _pool_worker(
    unit: WorkUnit, cache_root: str
) -> tuple[str, Any, float, bool]:
    """Worker-side execution: publish into the shared disk cache.

    ``cache_root`` pins the cache directory even under a spawn start
    method (fork children inherit the environment anyway).
    """
    os.environ["REPRO_CACHE_DIR"] = cache_root
    value, seconds, cold = _run_one(unit)
    return unit.key, value, seconds, cold


def map_units(
    figure: str,
    units: list[WorkUnit],
    jobs: int | None = None,
    setup: Callable[[], Any] | None = None,
) -> list[Any]:
    """Execute ``units`` and return their values in input order.

    ``setup`` (optional) runs in the parent before any worker starts —
    use it to populate in-process caches (e.g. procedural dataset
    generation) that forked workers then inherit for free instead of
    rebuilding per process.

    With ``jobs=1`` every unit runs inline through ``cached_json`` —
    exactly the pre-runner sequential behaviour.  With ``jobs>1`` the
    cold cached units run on a process pool and land in the shared disk
    cache; the parent then reads the published JSON (recomputing
    inline only if a worker died without publishing).  Uncached units'
    values travel back through the pool directly.
    """
    keys = [unit.key for unit in units]
    if len(set(keys)) != len(keys):
        raise ConfigurationError(
            f"duplicate unit keys in figure {figure!r}"
        )
    jobs = resolve_jobs(jobs)
    wall_start = time.perf_counter()
    timings: list[UnitTiming] = []
    values: dict[str, Any] = {}

    cold_units = [u for u in units if not _is_warm(u)]
    use_pool = jobs > 1 and len(cold_units) > 1
    if use_pool and setup is not None:
        setup()
    if use_pool:
        cache_root = str(cache_dir())
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cold_units)),
            mp_context=_mp_context(),
        ) as pool:
            futures = [
                pool.submit(_pool_worker, unit, cache_root)
                for unit in cold_units
            ]
            for future in futures:
                key, value, seconds, cold = future.result()
                timings.append(UnitTiming(
                    figure=figure, key=key, seconds=seconds,
                    cold=cold, worker="pool",
                ))
                values[key] = value

    for unit in units:
        if unit.key in values and not unit.cache:
            continue                      # pool already returned it
        if unit.key in values and unit.cache:
            # The worker published to disk; re-read through the cache
            # so the parent's memo holds the JSON-round-tripped value —
            # the same object every later (warm) run observes.
            values.pop(unit.key)
        value, seconds, cold = _run_one(unit)
        values[unit.key] = value
        timings.append(UnitTiming(
            figure=figure, key=unit.key, seconds=seconds,
            cold=cold, worker="parent",
        ))

    _RUNS.append(FigureRun(
        figure=figure,
        jobs=jobs,
        units=len(units),
        cold_units=sum(t.cold for t in timings),
        wall_seconds=time.perf_counter() - wall_start,
        unit_seconds=sum(t.seconds for t in timings),
        unit_timings=timings,
    ))
    return [values[key] for key in keys]


def _mp_context():
    """Fork where available: workers inherit warmed in-process caches
    (datasets, memo) instead of regenerating them per process."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


# -- timing registry ---------------------------------------------------------

def runs() -> list[FigureRun]:
    return list(_RUNS)


def reset_timings() -> None:
    _RUNS.clear()


def timing_summary() -> list[dict]:
    """Per-figure rows: wall time, jobs, unit counts, cold/warm flag."""
    rows = []
    for run in runs():
        rows.append(
            {
                "figure": run.figure,
                "jobs": run.jobs,
                "units": run.units,
                "cold_units": run.cold_units,
                "cold": run.cold_units > 0,
                "wall_seconds": round(run.wall_seconds, 4),
                "unit_seconds": round(run.unit_seconds, 4),
                "speedup_vs_serial": round(
                    run.unit_seconds / run.wall_seconds, 2
                ) if run.wall_seconds > 0 else None,
            }
        )
    return rows


def write_timings(path: str | Path, extra: dict | None = None) -> Path:
    """Persist the registry (summary + per-unit detail) as JSON."""
    path = Path(path)
    payload = {
        "jobs_env": os.environ.get("REPRO_JOBS"),
        "cpu_count": os.cpu_count(),
        "figures": timing_summary(),
        "units": [asdict(t) for run in runs() for t in run.unit_timings],
    }
    if extra:
        payload.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def format_timing_summary() -> str:
    """The per-figure timing table (printed by ``repro report``)."""
    from repro.experiments.tables import format_timing_table

    return format_timing_table(timing_summary())
