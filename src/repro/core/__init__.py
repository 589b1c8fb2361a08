"""The paper's contribution layer: Neuro-C models, baselines, selection.

- :mod:`repro.core.adjacency` — the four §3.2 connectivity strategies,
- :mod:`repro.core.neuroc` — Neuro-C construction, and the one §5.2
  training protocol both families share (:func:`fit_model`, then the
  int8 :func:`export_model` into a :class:`TrainedModel`),
- :mod:`repro.core.tnn` — the §5.2 TNN ablation (``w_j`` removed),
- :mod:`repro.core.mlp` — the conventional MLP baseline, trained through
  that protocol,
- :mod:`repro.core.search` — the §5.2 MLP random-search sampler and the
  one pricing on the paper's board (:func:`paper_board_metrics`);
  Figure 6 (:mod:`repro.experiments.fig6`) runs the search and pairs,
- :mod:`repro.core.zoo` — pinned configurations and paper reference values.
"""

from repro.core.adjacency import (
    ALL_STRATEGIES,
    FIXED_STRATEGIES,
    clustered_adjacency,
    constrained_random_adjacency,
    locality_adjacency,
    make_fixed_adjacency,
    random_adjacency,
)
from repro.core.mlp import MLPConfig, build_mlp, train_mlp
from repro.core.neuroc import (
    NeuroCConfig,
    TrainedModel,
    build_neuroc,
    export_model,
    fit_model,
    train_neuroc,
)
from repro.core.search import paper_board_metrics, random_mlp_configs
from repro.core.tnn import tnn_config_from, train_tnn
from repro.core.zoo import (
    BEST_DEPLOYABLE,
    NEUROC_ZOO,
    PAPER_REFERENCE,
    ZooEntry,
    zoo_entry,
)

__all__ = [
    "ALL_STRATEGIES",
    "BEST_DEPLOYABLE",
    "FIXED_STRATEGIES",
    "MLPConfig",
    "NEUROC_ZOO",
    "NeuroCConfig",
    "PAPER_REFERENCE",
    "TrainedModel",
    "ZooEntry",
    "build_mlp",
    "build_neuroc",
    "clustered_adjacency",
    "constrained_random_adjacency",
    "export_model",
    "fit_model",
    "locality_adjacency",
    "make_fixed_adjacency",
    "paper_board_metrics",
    "random_adjacency",
    "random_mlp_configs",
    "tnn_config_from",
    "train_mlp",
    "train_neuroc",
    "train_tnn",
    "zoo_entry",
]
