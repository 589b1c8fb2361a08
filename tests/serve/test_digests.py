"""Byte identity of serve and cluster outputs.

``serve-bench --json-out --trace`` writes ``ServeReport.to_dict()`` and
the replay's Chrome trace, and ``cluster-bench --json-out`` writes the
``run_cluster_once`` rows, so their bytes are pinned here by digest,
scenario by scenario.  The models are ternary layers drawn from a seeded
integer generator and the traces draw their own uniform inputs, so no
digest depends on float training or dataset rendering.

``PYTHONPATH=src python -m tests.serve.test_digests`` prints the table
from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import json

import numpy as np
import pytest

import repro.cluster.bench as bench
from repro.cluster import fleet_capacity_rps, run_cluster_once
from repro.kernels.spec import make_neuroc_spec
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.quantize.ptq import QuantizedModel
from repro.serve import (
    FaultPlan,
    ModelRegistry,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
)
from repro.serve.tracing import merged_chrome_trace
from tests.conftest import overflowing
from tests.serve.conftest import spoil_inputs

N_IN = 64
REQUESTS = 96


def random_model(seed: int, hidden: int = 16) -> QuantizedModel:
    """Two ternary layers, 64 -> ``hidden`` -> 10, int16 logits."""
    rng = np.random.default_rng(seed)

    def layer(n_in, n_out, last):
        return make_neuroc_spec(
            rng.choice([-1, 0, 1], (n_in, n_out), p=[0.15, 0.7, 0.15]),
            rng.integers(-20, 21, n_out),
            rng.integers(20, 90, n_out).astype(np.int16),
            shift=4 if last else 8,
            act_out_width=2 if last else 1,
            relu=not last,
        )

    specs = [layer(N_IN, hidden, False), layer(hidden, 10, True)]
    return QuantizedModel(specs, input_scale=1 / 127, act_width=1)


_ARTIFACTS: dict[str, object] = {}


def artifact(name: str):
    """The registered artifact of one of the digest models, built once."""
    if name not in _ARTIFACTS:
        registry = ModelRegistry()
        base = random_model(11)
        _ARTIFACTS.update(
            base=registry.register(base),
            target=registry.register(random_model(12)),
            slow=registry.register(random_model(13, hidden=48)),
            overflowing=registry.register(overflowing(
                base, np.random.default_rng(14).uniform(0.0, 1.0, (64, N_IN))
            )),
        )
    return _ARTIFACTS[name]


def minimum_charge(model) -> int:
    return IntermittentDeployment(model.replica()).minimum_charge_cycles()


def sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# -- serve ---------------------------------------------------------------

def faulty(rate, devices=None, seed=5):
    return FaultPlan(brownout_rate=rate, seed=seed,
                     faulty_devices=devices and frozenset(devices))


#: name -> (model, ServeConfig keywords, load as a multiple of the
#: pool's capacity, relative deadline in service times, spoil inputs).
SERVE_CASES = {
    "fifo-b4": ("base", dict(max_batch=4), 0.8, None, False),
    "fifo-b1": ("base", dict(max_batch=1), 0.8, None, False),
    "edf-b3-wait2": (
        "base", dict(policy="edf", max_batch=3, max_queue_wait_ms=2.0),
        2.0, 3.0, False,
    ),
    "shed-depth": (
        "base", dict(max_queue_depth=4, max_queue_wait_ms=None),
        4.0, None, False,
    ),
    "shed-queue-wait": ("base", dict(max_queue_wait_ms=1.0), 3.0, None,
                        False),
    "shed-deadline": ("base", dict(max_queue_wait_ms=None), 3.0, 2.0,
                      False),
    "brownout-subset-retry-cap": (
        "base", dict(n_devices=3, max_retries=1,
                     fault_plan=faulty(0.6, {0, 1})),
        1.0, None, False,
    ),
    "brownout-edf-deadline": (
        "base", dict(policy="edf", fault_plan=faulty(0.3, {2})),
        1.5, 4.0, False,
    ),
    "budget-above-minimum": ("base", dict(budget=1.5), 0.5, None, False),
    "budget-below-minimum": (
        "base", dict(budget=0.5, max_retries=1), 0.5, None, False,
    ),
    "audit-rejected-and-invalid": (
        "overflowing", dict(max_queue_wait_ms=None), 0.8, None, True,
    ),
}
ENGINES = ("verified", "fastpath", "interpreter")
#: Cases replayed on every engine; the rest run on ``verified`` only.
ALL_ENGINE_CASES = ("brownout-subset-retry-cap", "budget-below-minimum",
                    "audit-rejected-and-invalid")


def serve_report(case: str, engine: str):
    name, config, load, deadline, spoil = SERVE_CASES[case]
    model = artifact(name)
    config = dict(config, engine=engine)
    budget = config.pop("budget", None)
    if budget is not None:
        config["power_budget"] = PowerBudget(
            int(minimum_charge(model) * budget)
        )
    service_ms = model.deployment.latency_ms
    n_devices = config.get("n_devices", 4)
    trace = synthetic_trace(
        REQUESTS, load * n_devices * 1e3 / service_ms, N_IN, seed=7,
        deadline_ms=None if deadline is None else deadline * service_ms,
    )
    if spoil:
        spoil_inputs(trace)
    return ServeRuntime(model, ServeConfig(**config)).replay(trace)


def serve_digest(report) -> str:
    return sha(
        json.dumps(report.to_dict(), indent=1),
        json.dumps(report.trace.chrome_trace(), indent=1),
        report.format(),
    )


# -- cluster -------------------------------------------------------------

@contextlib.contextmanager
def recorded_replays():
    """The report of every cluster ``run_cluster_once`` replays."""
    original = bench.Cluster
    reports: list = []

    class Recording(original):
        def replay(self, trace, pace=True):
            report = super().replay(trace, pace)
            reports.append(report)
            return report

    bench.Cluster = Recording
    try:
        yield reports
    finally:
        bench.Cluster = original


#: name -> (router policy, load as a multiple of one fleet's capacity,
#: engine, deploy target or ``None`` for a replay without a deploy).
CLUSTER_CASES = {
    f"{policy}-{load}x-{engine}-{target or 'no-deploy'}": (
        policy, load, engine, target,
    )
    for policy in ("hash", "least-queue-wait", "deadline-p2c")
    for load, engine, target in (
        (0.4, "verified", "target"),
        (8.0, "verified", "target"),
        (8.0, "fastpath", "target"),
        (1.0, "verified", "slow"),
        (8.0, "verified", None),
    )
}


def cluster_digest(case: str) -> str:
    policy, load, engine, target = CLUSTER_CASES[case]
    base = artifact("base")
    rate = load * fleet_capacity_rps(base, 2)
    with recorded_replays() as reports:
        row = run_cluster_once(
            base, n_fleets=2, policy=policy, requests=REQUESTS,
            rate_rps=rate, devices_per_fleet=2, queue_depth=16, seed=9,
            deploy_artifact=None if target is None else artifact(target),
            deploy_at_ms=REQUESTS / rate * 1e3 / 4, tick_ms=1.0,
            engine=engine,
        )
    (report,) = reports
    return sha(
        json.dumps(row, indent=1),
        *(json.dumps(g.report.to_dict(), indent=1)
          for g in report.generations),
        json.dumps(merged_chrome_trace(
            [g.report.trace for g in report.generations]
        ), indent=1),
        report.format(),
    )


SERVE_KEYS = [
    (case, engine) for case in SERVE_CASES
    for engine in (ENGINES if case in ALL_ENGINE_CASES else ENGINES[:1])
]

#: Recorded with the dataclass records, before the named-tuple records
#: and the per-event fast paths.  Regenerate with this module's
#: ``__main__`` only for a change that is meant to move an output.
SERVE_DIGESTS: dict[tuple[str, str], str] = {
    ("fifo-b4", "verified"):
        "fe451b1b52a9052c6c19278b37300c373d08a3f8e7e0083533c08c89210e2f41",
    ("fifo-b1", "verified"):
        "e6d8d237c45eb081579293b65efebceb18389eae30a4a08044d180a226eec1db",
    ("edf-b3-wait2", "verified"):
        "61bdc5818a9e0d81baca8e0ab44208b5117bbe9ba17ad2dab304a20ecbdb0801",
    ("shed-depth", "verified"):
        "b4358ef39ed077610b0da5eccb7d8dfe0b39d5cc71eabb5414988c8810368b04",
    ("shed-queue-wait", "verified"):
        "2efc9fc1ae82b590f6e4fdd75e3896dfd84c392d884fdcf7a41b50132c8977b4",
    ("shed-deadline", "verified"):
        "06b4bcfc7195b2a735c3fc5c59637d24e76a997e72450916557a3f31944a93e6",
    ("brownout-subset-retry-cap", "verified"):
        "e74a13e26ec2949b5dfc9020d7e3b9f5df03199cb789b26fc1ab86635fd01a1d",
    ("brownout-subset-retry-cap", "fastpath"):
        "ad1ed2acd40166a98416479223a9c9ca5e5c9dadd70910a0d5559b5cbb7876cb",
    ("brownout-subset-retry-cap", "interpreter"):
        "0bc451aa2f51a433fd4a390850c042c2a0a99e027e535ec8c4adcf8c160c2220",
    ("brownout-edf-deadline", "verified"):
        "c522f7b13787f531995b2595ccb22a32023ea2aece9b93b7f0aaa25f135237f8",
    ("budget-above-minimum", "verified"):
        "3c9511fe3843eb47b7a7f150683b3e7522d9462c32d3a19c5a5882df7684e403",
    ("budget-below-minimum", "verified"):
        "8668d97e4e6ac6c3cddb5d4fa3cc8c06088e18a6cf045bb0e16a9384c12e3261",
    ("budget-below-minimum", "fastpath"):
        "f2d39ae5a558a56b4174423583627606545b119c49600ddf6f1125584335ff54",
    ("budget-below-minimum", "interpreter"):
        "b6d1ab1f27107e8cf64dc99eb019bba580d10a2375caaaa4363b0a6ea34c68c8",
    ("audit-rejected-and-invalid", "verified"):
        "22362c6f23f0465797356a6274fea2032f934f56a73d0ff10dd043f079923767",
    ("audit-rejected-and-invalid", "fastpath"):
        "a323ad3276fafc0879c819fb2f9e4e14434f8beba4615b3bfa727bb7f8e0c4ef",
    ("audit-rejected-and-invalid", "interpreter"):
        "156def47b52176701e0831052789574de525e871cc1892df8d56fd0441794b45",
}
CLUSTER_DIGESTS: dict[str, str] = {
    "hash-0.4x-verified-target":
        "3f63189be434ff1503eb9bc5ef0fb05364f308dabfd630c63eb3884c23f90596",
    "hash-8.0x-verified-target":
        "8ef31c06b8ffe0b57e6bdaa0e48f2cbf20d0d68f1a1a54c280594d079f27c111",
    "hash-8.0x-fastpath-target":
        "210a5ee8a9e54298cf2ed11bf7f58b301fc54ba008f97489f60064015a3832f8",
    "hash-1.0x-verified-slow":
        "c7e9e7742027a96c574d06f79fa8562e49efdd4c729e2623cadebd6419b0f4de",
    "least-queue-wait-0.4x-verified-target":
        "bbba663824c5192bdbc9709e294e24da6900272b6829942b94b5fb4d427f191f",
    "least-queue-wait-8.0x-verified-target":
        "31d56a7377b566ddb68f4dfc5875891f9a6446d9d80338b50380d38816337b2a",
    "least-queue-wait-8.0x-fastpath-target":
        "10a5b1ab989fe51de9af4788783a7f2d3b86975f1702d1098e8e6376ae7bf164",
    "least-queue-wait-1.0x-verified-slow":
        "5dac52c5fd5884b09ffa5f9a52153297fd583b24a0dd9815d87df3a3aa7dfbbc",
    "deadline-p2c-0.4x-verified-target":
        "e3436ec64d8eb0885451e489caac6e68ea303dd6cd48f1e79054121cdc6d2fa7",
    "deadline-p2c-8.0x-verified-target":
        "8253b7ec057ec9a57c39dff5c189586f62e09f980b76bdf9eeb5492f73064314",
    "deadline-p2c-8.0x-fastpath-target":
        "9ce41c9ce83326637aa9036336604ee53f57b580a3af1cd03c0bd48d200412a6",
    "deadline-p2c-1.0x-verified-slow":
        "eafa4f05e03bdf6d3f3559fc014d3333bb4c63698ee00643b9aed5b8718d7c52",
    "hash-8.0x-verified-no-deploy":
        "d681db9b167ff2e3b0c478842060726562deedc47f39576f248a14bbda32a622",
    "least-queue-wait-8.0x-verified-no-deploy":
        "4a3039b7cd9f7e7f5586d5b0f3cbb70b21be526f56b9f3d5490b1b7f8251044a",
    "deadline-p2c-8.0x-verified-no-deploy":
        "ce4a191100d2d1c0bc1a689667dbfa1c3c930e1400619c770ba786f2acb2bc51",
}


def test_tables_cover_every_case():
    assert sorted(SERVE_DIGESTS) == sorted(SERVE_KEYS)
    assert sorted(CLUSTER_DIGESTS) == sorted(CLUSTER_CASES)


@pytest.mark.parametrize("case, engine", SERVE_KEYS,
                         ids=[f"{c}-{e}" for c, e in SERVE_KEYS])
def test_serve_bytes_match_the_recorded_digest(case, engine):
    assert serve_digest(serve_report(case, engine)) == SERVE_DIGESTS[
        case, engine
    ]


@pytest.mark.parametrize("case", list(CLUSTER_CASES))
def test_cluster_bytes_match_the_recorded_digest(case):
    assert cluster_digest(case) == CLUSTER_DIGESTS[case]


if __name__ == "__main__":
    print("SERVE_DIGESTS = {")
    for case, engine in SERVE_KEYS:
        print(f'    ("{case}", "{engine}"):\n'
              f'        "{serve_digest(serve_report(case, engine))}",')
    print("}\nCLUSTER_DIGESTS = {")
    for case in CLUSTER_CASES:
        print(f'    "{case}":\n        "{cluster_digest(case)}",')
    print("}")
