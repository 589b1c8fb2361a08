"""Random search over MLP configurations (the §5.2 baseline protocol).

The paper: "we perform an extensive random search over more than 50 MLP
configurations by varying the numbers of layers, dropout rates, and
whether batch normalization is employed."  :func:`random_mlp_configs`
samples that space deterministically from a seed, and
:func:`paper_board_metrics` prices a trained model of either family on
the paper's board.  Figure 6 (:mod:`repro.experiments.fig6`) trains the
sample, yielding the point cloud of Figures 6a/6b and the pairing pool
for Figures 6c/6d.
"""

from __future__ import annotations

import numpy as np

from repro.core.mlp import MLPConfig
from repro.deploy.artifact import analytic_model_latency_ms
from repro.deploy.size import model_program_memory
from repro.errors import ConfigurationError
from repro.mcu.board import STM32F072RB
from repro.quantize.ptq import QuantizedModel

#: The random-search space of §5.2.
WIDTH_CHOICES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
DEPTH_CHOICES = (1, 1, 2, 2, 3)        # shallow nets more likely
DROPOUT_CHOICES = (0.0, 0.0, 0.1, 0.2, 0.3)
BATCH_NORM_CHOICES = (False, True)


def random_mlp_configs(
    n_in: int,
    n_out: int,
    count: int = 50,
    seed: int = 0,
) -> list[MLPConfig]:
    """Sample ``count`` distinct configurations from the search space."""
    if count < 1:
        raise ConfigurationError("need at least one configuration")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E]))
    configs: list[MLPConfig] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(configs) < count:
        attempts += 1
        if attempts > 100 * count:
            break  # space exhausted; return what we have
        depth = int(rng.choice(DEPTH_CHOICES))
        widths = tuple(
            int(rng.choice(WIDTH_CHOICES)) for _ in range(depth)
        )
        dropout = float(rng.choice(DROPOUT_CHOICES))
        batch_norm = bool(rng.choice(BATCH_NORM_CHOICES))
        key = (widths, dropout, batch_norm)
        if key in seen:
            continue
        seen.add(key)
        configs.append(
            MLPConfig(
                n_in=n_in, n_out=n_out, hidden=widths,
                dropout=dropout, batch_norm=batch_norm,
                seed=seed + len(configs),
                name=f"mlp-{len(configs)}",
            )
        )
    return configs


def paper_board_metrics(
    quantized: QuantizedModel,
) -> tuple[float, float, bool]:
    """``(program memory KB, latency ms, fits)`` of an exported model in
    the block encoding on the paper's STM32F072RB."""
    memory = model_program_memory(quantized.specs, format_name="block")
    return (
        memory.total_kb,
        analytic_model_latency_ms(quantized, "block", STM32F072RB),
        memory.fits(STM32F072RB),
    )
