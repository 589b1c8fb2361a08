"""PTQ-proxy fidelity regression (the ISSUE-10 ranking contract).

The staged search only works if stage-2 PTQ accuracy *ranks* candidates
the way stage-3 QAT accuracy does — the promotion rule reads ranks, not
absolute values.  This test pins that contract: over a deliberate grid
spanning the width and threshold axes, the Spearman rank correlation
between the two fidelities must stay high.  If a change to the
ternarization quantile, the quantizer, or the trainer breaks the
ranking, the staged search silently starts promoting the wrong
candidates — this is the regression that catches it.
"""

import numpy as np

from repro.experiments.runner import unit_seed
from repro.search import enumerate_space
from repro.search.stages import stage2_unit, stage3_unit

DATASET_KEY = {"name": "digits_like", "n_train": 600, "n_test": 200,
               "seed": 0}
BOARD = "STM32F072RB"
STAGE2_EPOCHS = 6
QAT_EPOCHS = 12
#: Seeds averaged per grid point: single-seed accuracies are noisy on
#: the threshold axis, and the contract is about the *expected* ranking
#: the promotion rule sees over a pool, not one draw.
SEED_REPS = 2
#: Floor for the rank correlation.  Measured ~0.98 on this grid; the
#: margin absorbs accumulation-order float drift, not real regressions.
SPEARMAN_FLOOR = 0.7


def _ranks(values: list[float]) -> np.ndarray:
    """Average-tie ranks (what ``scipy.stats.rankdata`` would give)."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    ra, rb = _ranks(a), _ranks(b)
    return float(np.corrcoef(ra, rb)[0, 1])


def test_spearman_helper_matches_known_values():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0
    # Ties get average ranks.
    assert _ranks([1.0, 1.0, 2.0]).tolist() == [1.5, 1.5, 3.0]


def test_ptq_proxy_rank_correlates_with_qat():
    # The grid deliberately spans the axes the proxy must order:
    # capacity (hidden width) dominates accuracy, threshold modulates
    # it within a width.
    specs = enumerate_space(
        strategies=("quantization",),
        hiddens=((32,), (64,), (96,), (128,), (192,), (256,)),
        thresholds=(0.80, 0.88),
        encodings=("block",),
        act_widths=(1,),
    )
    proxy, qat = [], []
    for spec in specs:
        proxies, qats = [], []
        for rep in range(SEED_REPS):
            seed = unit_seed(f"fidelity-{spec.key}-r{rep}") % (2 ** 31)
            (row2,) = stage2_unit(
                spec.to_dict(), DATASET_KEY, [BOARD],
                epochs=STAGE2_EPOCHS, lr=0.01, cand_seed=seed,
            )
            (row3,) = stage3_unit(
                spec.to_dict(), DATASET_KEY, [BOARD],
                epochs=QAT_EPOCHS, lr=0.01, cand_seed=seed,
            )
            assert row2["error"] == "" and row3["error"] == ""
            proxies.append(row2["proxy_accuracy"])
            qats.append(row3["accuracy"])
        proxy.append(float(np.mean(proxies)))
        qat.append(float(np.mean(qats)))

    rho = spearman(proxy, qat)
    assert rho >= SPEARMAN_FLOOR, (
        f"stage-2 PTQ proxy no longer ranks like stage-3 QAT: "
        f"spearman={rho:.3f} < {SPEARMAN_FLOOR} "
        f"(proxy={proxy}, qat={qat})"
    )
    # The proxy is a *lower* fidelity, not a different task: full QAT
    # should beat the proxy nearly everywhere.
    assert sum(q > p for p, q in zip(proxy, qat)) >= len(specs) - 1
