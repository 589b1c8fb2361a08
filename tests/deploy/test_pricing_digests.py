"""Byte identity of the pricing path.

Every deployment, SLO plan, search screen and figure prices a model
with the same pair: ``model_program_memory`` (flash: ``.text`` and
``.rodata`` of the generated, taint-verified kernels) and
``model_opcount`` (executed operations, which each board's cost table
turns into cycles).  This table pins both, per model, encoding, block
size and activation width, together with the type and message of any
error, so a change to codegen, the size model or the encoders cannot
move a price unnoticed.  The models are drawn from seeded integers, so
no digest depends on float training or dataset rendering.

``PYTHONPATH=src python -m tests.deploy.test_pricing_digests`` prints
the table from the current code.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.deploy.artifact import model_opcount
from repro.deploy.size import model_program_memory
from repro.kernels.spec import (
    LayerKernelSpec,
    make_dense_spec,
    make_neuroc_spec,
)
from repro.mcu.board import BOARD_PROFILES

#: (format, block size) pairs; the block size reaches ``block`` only.
OPTIONS = (
    ("csc", 256), ("delta", 256), ("mixed", 256),
    ("block", 256), ("block", 32),
)
ACT_WIDTHS = (1, 2)


def ternary_model(seed: int, act_width: int) -> list[LayerKernelSpec]:
    """1-3 seeded ternary layers; the last one is raw or requantized."""
    rng = np.random.default_rng(seed)
    n_layers = 1 + seed % 3
    dims = [int(rng.integers(8, 600))] + [
        int(rng.integers(4, 90)) for _ in range(n_layers - 1)
    ] + [10]
    raw_out = seed % 2 == 1
    specs = []
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        last = i == n_layers - 1
        density = float(rng.uniform(0.03, 0.45))
        adjacency = rng.choice(
            [-1, 0, 1], (n_in, n_out),
            p=[density / 2, 1 - density, density / 2],
        )
        bias = rng.integers(-300, 300, n_out)
        if last and raw_out:
            specs.append(make_neuroc_spec(
                adjacency, bias, None, act_in_width=act_width,
                act_out_width=4, relu=False,
            ))
            continue
        mult = (
            int(rng.integers(1, 200)) if seed % 4 == 0
            else rng.integers(20, 120, n_out).astype(np.int16)
        )
        specs.append(make_neuroc_spec(
            adjacency, bias, mult, shift=int(rng.integers(0, 12)),
            act_in_width=act_width, act_out_width=act_width,
            relu=not last,
        ))
    return specs


def dense_model(act_width: int, hidden: int = 24,
                n_in: int = 64) -> list[LayerKernelSpec]:
    rng = np.random.default_rng(40)
    return [
        make_dense_spec(
            rng.integers(-127, 128, (n_in, hidden)),
            rng.integers(-500, 500, hidden), 37, shift=9,
            act_in_width=act_width, act_out_width=act_width,
        ),
        make_dense_spec(
            rng.integers(-127, 128, (hidden, 10)),
            rng.integers(-500, 500, 10), None,
            act_in_width=act_width, act_out_width=4, relu=False,
        ),
    ]


def csc_overflow_model(act_width: int) -> list[LayerKernelSpec]:
    """One ternary layer whose CSC pointers overflow 16 bits."""
    rng = np.random.default_rng(41)
    adjacency = rng.choice([-1, 0, 1], (512, 512), p=[0.3, 0.4, 0.3])
    return [make_neuroc_spec(
        adjacency, rng.integers(-50, 50, 512),
        rng.integers(20, 90, 512).astype(np.int16), shift=8,
        act_in_width=act_width, act_out_width=act_width,
    )]


MODELS = {
    **{
        f"ternary-{seed}": (
            lambda width, seed=seed: ternary_model(seed, width)
        )
        for seed in range(6)
    },
    "dense": dense_model,
    # 1024 x 2100 int8 weights: more flash than any board has.
    "mlp-too-large": (
        lambda width: dense_model(width, hidden=2100, n_in=1024)
    ),
    "csc-overflow": csc_overflow_model,
}


def price(specs: list[LayerKernelSpec], format_name: str,
          block_size: int) -> str:
    """One line: sizes, every op count and cycles on every board."""
    try:
        memory = model_program_memory(specs, format_name, block_size)
        ops = model_opcount(specs, format_name, block_size)
    except Exception as exc:  # the error is part of the price
        return f"error {type(exc).__name__}: {exc}"
    cycles = " ".join(
        f"{board.name}={ops.cycles(board.costs)}"
        for board in BOARD_PROFILES.values()
    )
    return (
        f"text={memory.text_bytes} rodata={memory.rodata_bytes} "
        f"ops={dataclasses.astuple(ops)} {cycles}"
    )


def digest(case: str, format_name: str, block_size: int) -> str:
    lines = [
        f"w{width} " + price(MODELS[case](width), format_name, block_size)
        for width in ACT_WIDTHS
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


KEYS = [
    (case, format_name, block_size)
    for case in MODELS
    for format_name, block_size in OPTIONS
]

#: Recorded before the size model moved to lazily zeroed scratch pages,
#: the encoder memo and the bitmask taint pass.  Regenerate with
#: ``__main__`` only for a change that is meant to move a price.
DIGESTS: dict[tuple[str, str, int], str] = {
    ("ternary-0", "csc", 256):
        "caee2ebe2c5afc56c1cd1236f03fb80307b0b5b7a578108c8c240fea90785818",
    ("ternary-0", "delta", 256):
        "4d941e42b5236839e5d9fe24fc387e70fd904b8788fd32074808512e4efa0ae0",
    ("ternary-0", "mixed", 256):
        "13663783c24368090a7eb139161d37897ba0be438bda0497542be22ac36a8578",
    ("ternary-0", "block", 256):
        "54c16ee9bc531d19bfe138bc83ba1d25306e8c0aee55b25f683e81933dc63af1",
    ("ternary-0", "block", 32):
        "50e2963385b04ceb712dea2eea94e19427af09458ad083c860083ed12ad30b1a",
    ("ternary-1", "csc", 256):
        "fe71d947ac101b06bbf0ba338640eb71d46f1bdbb7885134361cc70f083f0940",
    ("ternary-1", "delta", 256):
        "5d80d27970788afc8c974d4e4e14e782649dfe97035242a58717e28d83603a93",
    ("ternary-1", "mixed", 256):
        "156449f6201e8f16f5bda36fa2fd376e20c5f9a3a7648ed49fd40e80054270d3",
    ("ternary-1", "block", 256):
        "6e0b01c13620c25b7f8c3ae7a7a50ab1a983c36fc2f003b2eb14103a8844924a",
    ("ternary-1", "block", 32):
        "1565083180afd56a403805e127af17693dbdf4b4f7430035562d237a7407d534",
    ("ternary-2", "csc", 256):
        "d5df04b668ffda7cad8818cc09bc641453418a119785794daa6279e35b47b303",
    ("ternary-2", "delta", 256):
        "185061238262ef5d5b2ed4662ff3b230236841a8d5f7659e140951441e03caf0",
    ("ternary-2", "mixed", 256):
        "7f117f116c51606807146a8c59be9db73c994f11fdc9d8c9beca9c05a16b33eb",
    ("ternary-2", "block", 256):
        "4abb80362c491881a8a1c1a505b208a43fccbaae6ef47f8f869575d6842d66fb",
    ("ternary-2", "block", 32):
        "d545997a2f3f07a6ad5aab04718c86405d8209b725033fb6ad8951ed44bc8051",
    ("ternary-3", "csc", 256):
        "99fcc799aed00af46b5599ae51d71a3cfa6e77e4a5eeb17689b34526f1772d7c",
    ("ternary-3", "delta", 256):
        "65ee63b52015a24169fbd24294baf18454bf61ca4c8b02dc6e80c1ab75d927f1",
    ("ternary-3", "mixed", 256):
        "3a2027ca1abbd64c580dce206da6e63379e549c74dcf204c2792ad1d9f4dacad",
    ("ternary-3", "block", 256):
        "ea174a70d809016f8aa579067848695d71e06d092e67abb3112333ff01f6f801",
    ("ternary-3", "block", 32):
        "b020b8ba85284122c2e113cb5005cabae91a19602710e041cdc199dc098144af",
    ("ternary-4", "csc", 256):
        "0d7164257e9e3975000318bdfe7a6f9656c75eea5e6eafada2d47159ddc522c3",
    ("ternary-4", "delta", 256):
        "d934486c9b20243095c8ae17cfa4ab7a047adca78b037cbacf814e0791531650",
    ("ternary-4", "mixed", 256):
        "d02a3fa1a8088ac4bc7c99dd12c0cb44778d950d4106d8c8c79314f854037426",
    ("ternary-4", "block", 256):
        "a89226bd0dab125c95bd788ed31a105db4054949235f0d6ef82ddbdba21f3908",
    ("ternary-4", "block", 32):
        "aaa99bbf5cec15c8dca407749324dc642cf3aa2810ed0be4c9dba93360961c3a",
    ("ternary-5", "csc", 256):
        "d9b444d7d5af5ab47752f126bf26e864cdbea508e279915437b0dec710bbdeef",
    ("ternary-5", "delta", 256):
        "91798734ae8623e8a5f552e2b4448c0b39bbe58a51d7289cd9c556c00e51e7e5",
    ("ternary-5", "mixed", 256):
        "08c5baf7c34719e1a572e232abad56f7170380e8094e7e413d3987fdb3429128",
    ("ternary-5", "block", 256):
        "33950b27c1af03f42fa9d2f2b7e4a214c09c401fae3a0e8b1750e0c8b4decc72",
    ("ternary-5", "block", 32):
        "679eff5eb3f1178620fc0b3050ceb62be8e3e97e818b0016541ddceba719bbfd",
    ("dense", "csc", 256):
        "d429c5090f1e05515ca802d24ec58273dd8f4d08c3903e3b3c81fc32e881d132",
    ("dense", "delta", 256):
        "d429c5090f1e05515ca802d24ec58273dd8f4d08c3903e3b3c81fc32e881d132",
    ("dense", "mixed", 256):
        "d429c5090f1e05515ca802d24ec58273dd8f4d08c3903e3b3c81fc32e881d132",
    ("dense", "block", 256):
        "d429c5090f1e05515ca802d24ec58273dd8f4d08c3903e3b3c81fc32e881d132",
    ("dense", "block", 32):
        "d429c5090f1e05515ca802d24ec58273dd8f4d08c3903e3b3c81fc32e881d132",
    ("mlp-too-large", "csc", 256):
        "ae9e8c0fc388b3c2a7594404b5d7dd6d7d972e6813631533022f9a16d1fc3e01",
    ("mlp-too-large", "delta", 256):
        "ae9e8c0fc388b3c2a7594404b5d7dd6d7d972e6813631533022f9a16d1fc3e01",
    ("mlp-too-large", "mixed", 256):
        "ae9e8c0fc388b3c2a7594404b5d7dd6d7d972e6813631533022f9a16d1fc3e01",
    ("mlp-too-large", "block", 256):
        "ae9e8c0fc388b3c2a7594404b5d7dd6d7d972e6813631533022f9a16d1fc3e01",
    ("mlp-too-large", "block", 32):
        "ae9e8c0fc388b3c2a7594404b5d7dd6d7d972e6813631533022f9a16d1fc3e01",
    ("csc-overflow", "csc", 256):
        "d2ea7ad4dc0a246b1cf8722164e69883fbf7fd65acebe9e36a5a921a68b7467f",
    ("csc-overflow", "delta", 256):
        "186f62544c1c1dfb7868b78ea832c7d16484fbebfe6720f45ce250578c1f17c8",
    ("csc-overflow", "mixed", 256):
        "ab1edd42ba53105cc9a8625eb4e4302083bf7d190fff18d3772eb2a20664c320",
    ("csc-overflow", "block", 256):
        "57a59e776b36179020b033cca53726fb28455f76ce5136b430755a81bf42f018",
    ("csc-overflow", "block", 32):
        "8bf885e5c01090bf3ef1a1a2b5aa980c6dba5411f5f99f55042567cd38372d79",
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(KEYS)


@pytest.mark.parametrize(
    "case, format_name, block_size", KEYS,
    ids=[f"{c}-{f}-{b}" for c, f, b in KEYS],
)
def test_prices_match_the_recorded_digest(case, format_name, block_size):
    assert digest(case, format_name, block_size) == DIGESTS[
        case, format_name, block_size
    ]


if __name__ == "__main__":
    print("DIGESTS: dict[tuple[str, str, int], str] = {")
    for case, format_name, block_size in KEYS:
        print(f'    ("{case}", "{format_name}", {block_size}):\n'
              f'        "{digest(case, format_name, block_size)}",')
    print("}")
