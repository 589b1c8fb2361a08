"""Experiment modules, one per table/figure of the paper's evaluation.

Each module exposes ``run_*`` (compute, with caching where training is
involved), ``format_*`` (the printable table), and claim predicates the
benchmark suite asserts on.  See DESIGN.md §3 for the experiment index
and EXPERIMENTS.md for recorded paper-vs-measured results.
"""

from repro.experiments import runner
from repro.experiments import fig1, fig2, fig5, fig6, fig7, fig8
from repro.experiments.cache import (
    cache_dir,
    cached_json,
    clear_memory_cache,
)
from repro.experiments.runner import WorkUnit, map_units, unit_seed
from repro.experiments.tables import (
    format_table,
    format_timing_table,
    ratio_str,
)

__all__ = [
    "WorkUnit",
    "cache_dir",
    "cached_json",
    "clear_memory_cache",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "format_table",
    "format_timing_table",
    "map_units",
    "ratio_str",
    "runner",
    "unit_seed",
]
