"""Byte identity of training.

Every figure and every search row starts from trained weights.  This
table pins them: per training path, a sha256 over every
``Parameter.value`` after ``fit`` (name, dtype, shape and bytes, in
``model.params()`` order) plus the ``History`` lists, so a change to the
layers, the optimizers or the trainer cannot move a weight unnoticed.

The grid covers the MLP baseline with and without batch norm and
dropout, Neuro-C over its four adjacency strategies and two fixed
thresholds, the TNN, the trainer with Adam under both learning-rate
schedules, and one stage-2 float fit and one stage-3 QAT run at
perfbench's search settings.  Datasets
are small and epochs few, so the table runs in a few seconds.

``PYTHONPATH=src python -m tests.nn.test_training_digests`` prints the
table from the current code.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.mlp import MLPConfig, fit_mlp, train_mlp
from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.datasets import load
from repro.nn.layers import DenseLayer, NeuroCLayer, ReLULayer
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import TernaryQuantizer
from repro.nn.trainer import TrainConfig, Trainer
from repro.search import SearchSettings
from repro.search.space import sample_space

#: perfbench's search workload: dataset seed 4 is its first (seed 1,
#: repetition 0), with the sweep's budgets, learning rate and pool.
SEARCH = SearchSettings(
    dataset="digits_like", dataset_seed=4,
    boards=("STM32F072RB", "Kinetis-K64F"), count=8, seed=0,
    stage2_epochs=3, qat_epochs=6,
)
STAGE2_KEY = "random-256x256-t0.88-block-w1"
STAGE3_KEY = "quantization-64-t0.80-mixed-w1"


def small_data():
    return load("digits_like", n_train=400, n_test=100, seed=3)


def mlp(hidden, dropout=0.0, batch_norm=False):
    data = small_data()
    trained = train_mlp(
        MLPConfig(
            n_in=data.num_features, n_out=data.num_classes, hidden=hidden,
            dropout=dropout, batch_norm=batch_norm, seed=5,
        ),
        data, epochs=3, lr=0.004,
    )
    return trained.model, trained.history


def neuroc(strategy="quantization", threshold=0.82, use_scale=True):
    data = small_data()
    trained = train_neuroc(
        NeuroCConfig(
            n_in=data.num_features, n_out=data.num_classes, hidden=(32,),
            threshold=threshold, strategy=strategy, use_scale=use_scale,
            seed=6, image_shape=tuple(data.image_shape),
        ),
        data, epochs=3, lr=0.004,
    )
    return trained.model, trained.history


def trainer(optimizer, schedule="constant"):
    """A hand-built Neuro-C -> ReLU -> dense stack through ``Trainer``."""
    data = small_data()
    rng = np.random.default_rng(7)
    model = Sequential([
        NeuroCLayer(
            data.num_features, 24, rng,
            quantizer=TernaryQuantizer(threshold=0.7),
        ),
        ReLULayer(),
        DenseLayer(24, data.num_classes, rng),
    ])
    history = Trainer(model, optimizer, rng=np.random.default_rng(8)).fit(
        data.x_train[:320], data.y_train[:320],
        data.x_train[320:], data.y_train[320:],
        TrainConfig(epochs=3, lr_schedule=schedule),
    )
    return model, history


def search_candidate(key):
    data = load(SEARCH.dataset, seed=SEARCH.dataset_seed)
    spec = next(s for s in sample_space(SEARCH.count, SEARCH.seed)
                if s.key == key)
    config = spec.to_config(
        data.num_features, data.num_classes,
        seed=SEARCH.candidate_seed(spec),
        image_shape=tuple(data.image_shape),
    )
    return data, spec, config


def stage2_float_fit():
    """What ``stage2_unit`` trains: the candidate's float MLP."""
    data, _, config = search_candidate(STAGE2_KEY)
    model, history, _ = fit_mlp(
        MLPConfig(
            n_in=config.n_in, n_out=config.n_out, hidden=config.hidden,
            seed=config.seed, name=f"{STAGE2_KEY}-float",
        ),
        data, epochs=SEARCH.stage2_epochs, lr=SEARCH.lr,
    )
    return model, history


def stage3_qat():
    """What ``stage3_unit`` trains: the candidate's full QAT run."""
    data, spec, config = search_candidate(STAGE3_KEY)
    trained = train_neuroc(
        config, data, epochs=SEARCH.qat_epochs, lr=SEARCH.lr,
        act_width=spec.act_width,
    )
    return trained.model, trained.history


CASES = {
    "mlp": lambda: mlp((24,)),
    "mlp-batchnorm-dropout": lambda: mlp((24, 16), 0.2, True),
    "neuroc-quantization": lambda: neuroc("quantization"),
    "neuroc-random": lambda: neuroc("random"),
    "neuroc-constrained_random": lambda: neuroc("constrained_random"),
    "neuroc-locality": lambda: neuroc("locality"),
    "neuroc-threshold-0.6": lambda: neuroc(threshold=0.6),
    "tnn": lambda: neuroc(use_scale=False),
    "trainer-adam-constant": lambda: trainer(Adam(0.01)),
    "trainer-adam-cosine": lambda: trainer(Adam(0.01), "cosine"),
    "search-stage2-float-fit": stage2_float_fit,
    "search-stage3-qat": stage3_qat,
}


def digest(case: str) -> str:
    model, history = CASES[case]()
    h = hashlib.sha256()
    for p in model.params():
        h.update(f"{p.name} {p.value.dtype} {p.value.shape}\n".encode())
        h.update(p.value.tobytes())
    for values in (history.train_loss, history.train_accuracy,
                   history.val_accuracy):
        h.update(" ".join(float(v).hex() for v in values).encode())
        h.update(b"\n")
    h.update(f"{history.epochs_run} {history.stopped_early}".encode())
    return h.hexdigest()


#: Recorded before Adam's fused step and the skipped input gradient of
#: the first layer.  Regenerate with ``__main__`` only for a change that
#: is meant to move a trained weight.
DIGESTS: dict[str, str] = {
    "mlp":
        "ee4ca9d077b6f03f4a72f4c1c86ad69c8c72c88909442163394bff7de6f0f320",
    "mlp-batchnorm-dropout":
        "6f49135d6bf064204a27c6b5b637f4ef4da3986baee2632fe9ee2448b012ea47",
    "neuroc-quantization":
        "8fadbeebfbc2325f98427275f0e046446a0f7f6f79fe6ae357db907b1361b7f6",
    "neuroc-random":
        "670d37bf8c52529d151766b3afa9294b93e6f503b7ba10bf17a87230e39d3b0b",
    "neuroc-constrained_random":
        "0dde638e7e24476fc613c61b06b88dbabb0aeff4b1a36387d8cc051c4dd4c352",
    "neuroc-locality":
        "cbb56302e80887321c4e9d0c5b1344c8b51470edf8171983356ea0b86a5185e4",
    "neuroc-threshold-0.6":
        "7934b9d4e0902dfefc8e4ac2bb96d1c08d5e51c76ac903baeb1a81282d526fe8",
    "tnn":
        "4916e293dfd0e1c0a8a163cf93d47458300421eef932da2ae9113abfce099ef2",
    "trainer-adam-constant":
        "6504e0f40b415309c79541b9a399d0f0b3ad8c802048129eb296dedf609960a1",
    "trainer-adam-cosine":
        "f54e375650bca29563c32f07f2b9c1d659c75b8153ff68fb80a58516c31815e1",
    "search-stage2-float-fit":
        "58be732e850cb84e6493bb8841ccede4bc7dcad231c03a45e660934c4dc90b9e",
    "search-stage3-qat":
        "8d4e0df7ef809f5313cccf6118c8b66e8e78075e79c233237762c1d60d9544dc",
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_is_byte_identical(case):
    assert digest(case) == DIGESTS[case]


if __name__ == "__main__":
    print("DIGESTS: dict[str, str] = {")
    for case in CASES:
        print(f'    "{case}":\n        "{digest(case)}",')
    print("}")
