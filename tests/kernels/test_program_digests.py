"""Byte identity of every generated layer program.

A layer kernel's program and placement decide its flash size, its
cycles on every board, its C and firmware export and its verifier
report.  This table pins them per generator option, shape and
activation widths: the program's name, labels and instructions, the
image's addresses, counts and widths, every memory region's bytes and
allocation cursor, and the ``count_*`` twin's :class:`OpCount`.  Each
digest covers every epilogue the widths allow (ReLU on and off; no, a
scalar or a per-neuron multiplier, with and without a shift) in both
placements: a fresh memory map, and one chained behind earlier data
into given activation buffers.  ``tests/deploy/test_pricing_digests.py``
pins prices; this pins the operands, addresses and bytes behind them.

``PYTHONPATH=src python -m tests.kernels.test_program_digests`` prints
the table from the current code.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.kernels.codegen_dense import count_dense, generate_dense
from repro.kernels.codegen_sparse import count_sparse, generate_sparse
from repro.kernels.spec import (
    LayerKernelSpec,
    make_dense_spec,
    make_neuroc_spec,
)
from repro.mcu.memory import Allocator, MemoryMap


def _sparse(format_name, **options):
    return (
        lambda spec, **placement: generate_sparse(
            spec, format_name, **placement, **options
        ),
        lambda spec: count_sparse(spec, format_name, **options),
    )


def _dense(unroll):
    return (
        lambda spec, **placement: generate_dense(
            spec, **placement, unroll=unroll
        ),
        lambda spec: count_dense(spec, unroll),
    )


#: Generator option -> (generate, count); ternary specs for the first
#: five, dense specs for the rest.
OPTIONS = {
    "csc": _sparse("csc"),
    "delta": _sparse("delta"),
    "mixed": _sparse("mixed"),
    "block-256": _sparse("block", block_size=256),
    "block-16": _sparse("block", block_size=16),
    "dense-x1": _dense(1),
    "dense-x2": _dense(2),
    "dense-x4": _dense(4),
    "dense-x8": _dense(8),
}
SHAPES = tuple((n_in, n_out) for n_in in (5, 37, 300) for n_out in (3, 17))
#: (act_in_width, act_out_width); width 4 is the raw accumulator.
WIDTHS = tuple((a_in, a_out) for a_in in (1, 2) for a_out in (1, 2, 4))


def epilogues(act_out_width: int) -> list[tuple[bool, str | None, int]]:
    """(relu, multiplier kind, shift) for every epilogue of one width."""
    if act_out_width == 4:
        return [(True, None, 0), (False, None, 0)]
    return [
        (True, "scalar", 6), (False, "scalar", 0),
        (True, "neuron", 9), (False, "neuron", 0),
    ]


def make_spec(option: str, n_in: int, n_out: int, a_in: int, a_out: int,
              relu: bool, mult_kind: str | None,
              shift: int) -> LayerKernelSpec:
    rng = np.random.default_rng(n_in * 1000 + n_out)
    bias = rng.integers(-300, 300, n_out)
    mult = {
        None: None,
        "scalar": 37,
        "neuron": rng.integers(20, 120, n_out).astype(np.int16),
    }[mult_kind]
    if option.startswith("dense"):
        return make_dense_spec(
            rng.integers(-127, 128, (n_in, n_out)), bias, mult,
            shift=shift, act_in_width=a_in, act_out_width=a_out,
            relu=relu,
        )
    adjacency = rng.choice([-1, 0, 1], (n_in, n_out), p=[0.15, 0.7, 0.15])
    adjacency[:, 0] = 0                        # an empty column
    adjacency[:, -1] = 0
    adjacency[n_in - 1, -1] = -1               # a single-element column
    return make_neuroc_spec(
        adjacency, bias, mult, shift=shift, act_in_width=a_in,
        act_out_width=a_out, relu=relu,
    )


def chained_placement(spec: LayerKernelSpec) -> dict:
    """A map that already holds data, with the buffers given."""
    memory = MemoryMap.stm32()
    Allocator(memory, "flash").place(np.arange(3, dtype=np.int8))
    ram = Allocator(memory, "ram")
    ram.reserve(6, align=2)
    return {
        "memory": memory,
        "input_addr": ram.reserve(spec.n_in * spec.act_in_width),
        "output_addr": ram.reserve(spec.n_out * spec.act_out_width),
    }


def hash_kernel(sha, option: str, spec: LayerKernelSpec,
                placement: dict) -> None:
    generate, count = OPTIONS[option]
    image = generate(spec, **placement)
    program = image.program
    lines = [f"{program.name} {sorted(program.labels.items())}"]
    lines += [
        f"{instr.op.name} {instr.operands} {instr.offset_is_reg}"
        for instr in program.instructions
    ]
    lines.append(
        f"in={image.input_addr}x{image.input_count}w{image.input_width} "
        f"out={image.output_addr}x{image.output_count}"
        f"w{image.output_width} flash={image.flash_data_bytes} "
        f"ops={dataclasses.astuple(count(spec))}"
    )
    for region in image.memory.regions:
        lines.append(f"{region.name} reserved={region.reserved}")
        sha.update(bytes(region.data))
    sha.update("\n".join(lines).encode())


def digest(option: str, shape: tuple[int, int],
           widths: tuple[int, int]) -> str:
    sha = hashlib.sha256()
    for relu, mult_kind, shift in epilogues(widths[1]):
        spec = make_spec(option, *shape, *widths, relu, mult_kind, shift)
        hash_kernel(sha, option, spec, {})
        hash_kernel(sha, option, spec, chained_placement(spec))
    return sha.hexdigest()


def key(option: str, shape: tuple[int, int],
        widths: tuple[int, int]) -> str:
    return f"{option}/{shape[0]}x{shape[1]}/a{widths[0]}-{widths[1]}"


KEYS = [
    (option, shape, widths)
    for option in OPTIONS for shape in SHAPES for widths in WIDTHS
]

#: Recorded before the layer generators moved onto one kernel frame,
#: with ``generate_dense_unrolled``/``count_dense_unrolled`` at unroll
#: 2, 4 and 8.  Regenerate with ``__main__`` only for a change that is
#: meant to move a program.
DIGESTS: dict[str, str] = {
    "csc/5x3/a1-1":
        "c6f8d7778f077ba366edef016845316809b76c088a15793880eb3a3bb02439c3",
    "csc/5x3/a1-2":
        "28ebcde1063e0d34de4c2954b3738f81581da4911c294229f8a76b7391774f2a",
    "csc/5x3/a1-4":
        "d3c1609ea4673fd30e58d6c118b07162effbaee6b51a01bd9be5b2b97ef1fc52",
    "csc/5x3/a2-1":
        "c946ff9f6213762bca82748b569f4232269f01fd27f4c565a703c30fe620ac61",
    "csc/5x3/a2-2":
        "b58ee62197fd2e7437a0a16832958136c54446c5d6be669c70541469faaf78b4",
    "csc/5x3/a2-4":
        "9e3cb0162e111367eb1e3c7771864c71f88595671e0f7f5ef52d04d5f829288f",
    "csc/5x17/a1-1":
        "f0fc9ef93aae99c042f0ef0bda5f3a64ff0387baf0f9504129a672a229624a41",
    "csc/5x17/a1-2":
        "b04d4214021f1b561d9ed83ea76ecc057ab3c560410fbc84e6af97d777fa6db0",
    "csc/5x17/a1-4":
        "59040f591182b84d9302fd5e84a9c47a4ad96077fec4d15e47c62a83f4831c77",
    "csc/5x17/a2-1":
        "371f14d7c69f1c1bfc86e09098a0d49fbf0b11b198096a04a40fd6e50d866cc7",
    "csc/5x17/a2-2":
        "2dab41ed8fe8b36047de35707e795fa0ea05b966e4869d2a27bac80441832cd3",
    "csc/5x17/a2-4":
        "d5a0936076b491947cd1a24c2a71be2f3c5629cfc937e12bffc2d485935fbdde",
    "csc/37x3/a1-1":
        "e472999eaf17bfe9c8a323908b4a2f0b3ce27c57b6d7293c0a7899cf1c9b10d0",
    "csc/37x3/a1-2":
        "6d9c08681cdc1e5ae0ab2c3eceadad3a914b4f357dfcbe53970d9ae2638158a8",
    "csc/37x3/a1-4":
        "0d21b84c1739927f046aaa359be4da867eb2c4eda03ac232a9c21606c42c7110",
    "csc/37x3/a2-1":
        "5c6f949986b3b30c51edee2ce9f6c6418f55c6738f27be60c18b864dfc548d07",
    "csc/37x3/a2-2":
        "79ef859d06bf8034a24fc9bd428aaed1267eac3c2922f126b649c8f1bb58cc21",
    "csc/37x3/a2-4":
        "ac1cbca9fe6f2e18af98459b7ee7cd6d9df304d1f968f55d3026e04134171a4c",
    "csc/37x17/a1-1":
        "8023841a9e0d564521427a46ee509798bf7127e83106647d4374f9be4b3552d4",
    "csc/37x17/a1-2":
        "fe47942f9dd8790670d98c32bdb415e4c23fcec5a2fc6b1d4aa29d35701194ed",
    "csc/37x17/a1-4":
        "be1a90c56fd6b36da9b2a3fc55f40432184ef508bdb7ef1bc06ff3f4944b9ffb",
    "csc/37x17/a2-1":
        "f02487479466d114b894149bd4492c7ab0691d033f5aee04ff6738560a0f30d7",
    "csc/37x17/a2-2":
        "4b057c66b9092cb12b7482aedef383b21c268ae19035d18fd7050a38a6e76c76",
    "csc/37x17/a2-4":
        "f31856aacb7e06b039e5787f40b1baf41a2f4d87bbbaa2be3a929587151e9a42",
    "csc/300x3/a1-1":
        "b0171252e5ba6b3ea573ffb7cad7e9e66b7b10d74d91ad83e5a17dadc46849cf",
    "csc/300x3/a1-2":
        "dccd18df338ecddd386fd019f3d10dce5e98a7d103d62d02f367e449e852baa8",
    "csc/300x3/a1-4":
        "2535ac1df3dccd4314944e16c11e96ec6008cd83e7602a935fd5cc70fa4a5e46",
    "csc/300x3/a2-1":
        "52c38093dd03c6ce6d28c1bb5f7969a06101fd499f32f83ffd3a94a1ee21a42c",
    "csc/300x3/a2-2":
        "a5081b5c2f6c3e572a93113d468452fab21d07e98e36c3b928125d8a84771c59",
    "csc/300x3/a2-4":
        "3801c76edcfb9f31ccb3b6ed20db95b58afcfab5a352369f755ce1a835438e08",
    "csc/300x17/a1-1":
        "ddb8b8543aa72efb83d859e1f6ca76dca51a25df5ddf6b9b6e8620262ed1564d",
    "csc/300x17/a1-2":
        "a070a4ac8a8f70f732d344cee61845aa78f936518cd8d88e3b6c349552aca9cd",
    "csc/300x17/a1-4":
        "62e1c964eaaef1ad36865fb6a4cb7998ba3e5ef55c5b6bcef36e4be883630e34",
    "csc/300x17/a2-1":
        "29496bdafb841cc3baea82048ebea9942144332b72ab9534bed1b5d5605a227c",
    "csc/300x17/a2-2":
        "a2944188dbc371549915878f32db397b61004b729b33d54a1405299a11eb80a8",
    "csc/300x17/a2-4":
        "206ae1e695fda983b3d8cf8417bed455fc6616a3624255d5f8174684d121820f",
    "delta/5x3/a1-1":
        "822bd8fcdf5f9ae86be3dbcbea435fda78ef5140c2e6af4fb79c1f3c0aa7e79c",
    "delta/5x3/a1-2":
        "638ad9f92483b8d1b78f0bbda656925495a45d45865a8ede0dd4707074969372",
    "delta/5x3/a1-4":
        "9762075cafa901e8a5685d7be9792bc212da1d2ec3b8b951684d5f5b00dcd362",
    "delta/5x3/a2-1":
        "4dbd580edf069ba8de680f0b2f37b161d436a692db45c25114b113283688fd78",
    "delta/5x3/a2-2":
        "20fdbbd7f999222e25434fee0d059a29a6e1f7607fcb37d845a13ddb78aea69c",
    "delta/5x3/a2-4":
        "fa9af28227bf205239be77b713ef2450d7adbc90b0e65b847bb7651aaf0b1410",
    "delta/5x17/a1-1":
        "ccf323ccd457a88aece37390e16016dabff1184bd982b6b16db5a5c85b86c5e7",
    "delta/5x17/a1-2":
        "ab32937e923e2736543de6c5ead8be83a2443724f7292ce64a7dd12b350af153",
    "delta/5x17/a1-4":
        "1d4320124f1242f3f30d542e24d1563c8da73581e9ad910ffd87a01c6470ea05",
    "delta/5x17/a2-1":
        "6960774d2f705d12a8ea8f897aaf7c7771ab96cacaa668c2c2b4d4ab1a75c6f1",
    "delta/5x17/a2-2":
        "9890ba9ebe29493f4e62b4248bba5b5f800cd3fc572586a8ff596ded32e48d97",
    "delta/5x17/a2-4":
        "eab120dead85e96b778bbd30e634108b7ba0021d89f170c3d9ab51315da096d5",
    "delta/37x3/a1-1":
        "5a84e36d1d5981f7cbcf9a67067b24e9eedcb10c270b3a77d560ccd7a5af29d2",
    "delta/37x3/a1-2":
        "2ad4f826700e4ad16e4c33bd9394bb9b5cbbba5b510607d1533ff2483c674783",
    "delta/37x3/a1-4":
        "2d8e4c3167253d91bcdfd374bfdb4d569f705dda05dd25d32564d86762497a79",
    "delta/37x3/a2-1":
        "3957218944328112bc80caf9aef74723cd4b05a6a402c4e4af6b3924de806dbf",
    "delta/37x3/a2-2":
        "ffff2effea9d7a01c8725c223dac4972d4f814526634e0ed66f17d52e5110ae8",
    "delta/37x3/a2-4":
        "85e10968d336688afaa70af31d12cd1d84228e4eeec11ba620c94604cc857d79",
    "delta/37x17/a1-1":
        "e768cec3543fcfe4992c1496729623c1ae5c947ff07d087a7ed9f73b8bd69e22",
    "delta/37x17/a1-2":
        "2a5caf5d6b4bf0e3292de1dfb3931cdc2a4507aa37d0343544908cfd3fe07716",
    "delta/37x17/a1-4":
        "4fb00bb52a5705b33d0b40f630aebfe705b76ae9a555dc23fb47949cd4d02b48",
    "delta/37x17/a2-1":
        "46683d09c084d59ed93959f433e9aa3d4e879a04dfc57a582f6eefd8bbce8714",
    "delta/37x17/a2-2":
        "d0d2c8dcf46c479d61908bc0c178ce46dd4d58eb67c19f7870d9895b72fe9b0a",
    "delta/37x17/a2-4":
        "f85278b85a14a6bdd1185dad08d2722bb0e0343120cdc673c040d2682395ad13",
    "delta/300x3/a1-1":
        "867d9c864379c8421d522d0e5a9a98631e0446395167705b74e0da13376cc9e8",
    "delta/300x3/a1-2":
        "0acdeab40dd1a4d7fbd82d30e58ae83ff3eb74ddeb61f7185349ad579f7bd892",
    "delta/300x3/a1-4":
        "0a8a9de319d8cc1b67a927225120ed8542024d85a689f0923d45a337528bf9cc",
    "delta/300x3/a2-1":
        "3fc1032c3b486493efd4b5eeb7f33fd2f5102829cd043edaa762b45f66edb63a",
    "delta/300x3/a2-2":
        "099fcbf3d36af4776e1ed021ad8e7988794db5b2f4378615304f1f7c2ce8f6eb",
    "delta/300x3/a2-4":
        "2f9576cd1a5265eb5a9c0a8d62c9230d069c1c67280688e0ed67de1b51934a49",
    "delta/300x17/a1-1":
        "887d7becd57a1b448ca46c936f8ece74bc90659f643a4821246a9b8773c87baf",
    "delta/300x17/a1-2":
        "3ee3bf5d14c79a87f0189ca3c325909b1d91aa9b56cf85ad47941c595410e9c1",
    "delta/300x17/a1-4":
        "7614cfcd07fb9ba3a0ea6cc99ffd3d982b1051d53bd682a7d52a3f9f30e92995",
    "delta/300x17/a2-1":
        "67cf32750151d0ba97589ab4b32eace1a6c1d7cf2e40a6a29afa04279ceff486",
    "delta/300x17/a2-2":
        "d8dacdba1f7b2c17934ec08bb5de96163dacbaee5596650004d02f3b1791706a",
    "delta/300x17/a2-4":
        "6ed6469863370b4554e1848b88a1ae10264c055d76ebca462db6f865efc2f798",
    "mixed/5x3/a1-1":
        "01b9938476cb0b17f5977e3d5d71aab1182fd2bca536e37fbe5b58975b5cc8a8",
    "mixed/5x3/a1-2":
        "fb3e40641f2b56176b2d73fed1823104cb9e3f1a88080e45c4e78ac724ea301d",
    "mixed/5x3/a1-4":
        "d11a46c93611d0140a7b663100bae00bfaf3cd094af47bd01793c1e2e57e32ef",
    "mixed/5x3/a2-1":
        "ebcb69f3c8cdfdb29e758162d9b5ddbf0b7fb97939ed7a463b91450e2a46c8ef",
    "mixed/5x3/a2-2":
        "51659685ab032ba9e60c0d8ad9861fa0e04e55be8176abbf0f842fc6000d6cc2",
    "mixed/5x3/a2-4":
        "90316922208bf18b023484b8000f564447a1cfcf6d6dde156ac6bccc93e16932",
    "mixed/5x17/a1-1":
        "dd3f14a9508b2e5a472f523d1d113aac4ab838559742fd4855f409f504ee438c",
    "mixed/5x17/a1-2":
        "5c90692165f7d77ed35d61f7208d26be2d448c9c8734029488c47940b7901db5",
    "mixed/5x17/a1-4":
        "1c848751b66cf99f4a8661412306c7aa9805ab20e7f25c3f62f33e4ac283db50",
    "mixed/5x17/a2-1":
        "677ba94d2b07e0253ab148c1f174f2b45d6c38021c9154860d3467d9f48c3e31",
    "mixed/5x17/a2-2":
        "b9b00fd16e318eb4c8a048656610aee37f3dbf39a0305c7f80b8cab22de1ce75",
    "mixed/5x17/a2-4":
        "2ab19a10eff4e52edce9da67556f1d68a1fa6afd854469ebab6e89171c83ddb4",
    "mixed/37x3/a1-1":
        "72f881ae90d85cb4723dfe0f49c73ab7c5f193e56b5ded1019ce9d8343dc53ee",
    "mixed/37x3/a1-2":
        "6df2b3911dd8e6b53e73e906c805c61fcf52be2d3836cd968d586e3a8c7c7880",
    "mixed/37x3/a1-4":
        "da0602f9e405e74a0828ab58493872dc257ab5bad8b7c68245eae5881dc4a4dd",
    "mixed/37x3/a2-1":
        "7580ea9e0f00db358e56613796013d13223bb93eab0a8a2167a3387e322a97e9",
    "mixed/37x3/a2-2":
        "d336580ad8aaac12cdd27d4ff8272aa02db0b63fc200aa79bd024d5d33a85106",
    "mixed/37x3/a2-4":
        "fe15698cda90459edd6f1d565d29e2ce917e05869ca052a7aa1c71181664e845",
    "mixed/37x17/a1-1":
        "e7579bce58f6fd4d4515b266ceceb18217419d91d4b32c5bdc575134dad92e9b",
    "mixed/37x17/a1-2":
        "b3b6dbab0e07777ad67d7f5a1e5d49ef25253d86f4f5cecaf029d6fcbab45473",
    "mixed/37x17/a1-4":
        "3741769a71d3a49979b1553acf5342ade1167d3ff6ca85a710e17010d7c42cb0",
    "mixed/37x17/a2-1":
        "6a93dadcb5bb709c4ab4541d31134216707f0a7e3d44ed7d27617c1ca2945d58",
    "mixed/37x17/a2-2":
        "dcf470b8c93c0f3bb92b99a0264b4110b411360f7a6bf9aac75dd2b804e94420",
    "mixed/37x17/a2-4":
        "b2b372b12d3f109336f46e52c85499a52aeb548f66323adc555bd8bdd7631ff7",
    "mixed/300x3/a1-1":
        "d42057800b5e0f0ca2c844e72ea0891bdf69ce691d9d2aa9bd48938eebd485ed",
    "mixed/300x3/a1-2":
        "6476df780d6902cd480b787634f1c184f8072578eea7ca65e6b3bf29455927cd",
    "mixed/300x3/a1-4":
        "e79e03f71c29dd7c947b410da478bc7bb77ca4c98caa47b374263d3f7b434897",
    "mixed/300x3/a2-1":
        "a9d296b06fc55a98e5bbee85373173f3165b69dd028f0f45a0dda71888213de8",
    "mixed/300x3/a2-2":
        "89495d0f44894b0e363c207a6ff9194f88577d2bc915bf6e75a8c53004f8d92a",
    "mixed/300x3/a2-4":
        "0703bb1308b72f26ce85eb575899ca629e2a9dca85caad2188b96b38e2ab7a3b",
    "mixed/300x17/a1-1":
        "89d1b4557d9d53e036c1e1f8ce138bd606dcbcd7c9e13a7e37eda71e1e3265bd",
    "mixed/300x17/a1-2":
        "f524e6868d200a94811cd97cb4bb86db3aed0f03926da028a640bfdba5f3b8d1",
    "mixed/300x17/a1-4":
        "16ecce5bbccb4ad4dc5f3871e9d214f887be3d65ea6e01c8f388a020b1bf9b46",
    "mixed/300x17/a2-1":
        "1cc620501e1ee016ae41e41afbf2e3767cb0f6312b424165f9e3318c6fb6195b",
    "mixed/300x17/a2-2":
        "f3c51e1e9ff1a07852db42e5f7b3a285c2fb78f8d802bdbd6b4dc71add708ed4",
    "mixed/300x17/a2-4":
        "66992d22d4c6315ee6d2dbff1bfebff4bd565fefc14599e077240a632e05a908",
    "block-256/5x3/a1-1":
        "d6b5e80cd283b1e15238bc1dd41f9d2734aac728928b166f8c491545cf7279fa",
    "block-256/5x3/a1-2":
        "3cebac7246c9d7123608450d966f935dea12ba71779b11585f6c0afa3d57197f",
    "block-256/5x3/a1-4":
        "350c818b46a6fa3d1754d5acd20baa00fed5d6c11e3e0707c8922545d150e0c9",
    "block-256/5x3/a2-1":
        "fa80b0d18e379ea8206283caa35e71a323c348e72f2f27ff5fd925f200bbe14f",
    "block-256/5x3/a2-2":
        "63ce878f3d2b2d94126d54077a5723418541d8413ff4b816f00a129be32ffa9d",
    "block-256/5x3/a2-4":
        "da83538be204d3440abb5e920eaf70f36293049d627fa9d5710f781c29e35fe2",
    "block-256/5x17/a1-1":
        "90c665109a6358271f769df611f4577c51e6ade35838cea466b6a014e4181c0c",
    "block-256/5x17/a1-2":
        "80339270db7d7d1186c6254a424cb276d7db2e290defae5bf99fd698f88e229a",
    "block-256/5x17/a1-4":
        "c98f821269a2e1f0beebf6723b89fa6b27ebcc885554b2c5815f377b4c480348",
    "block-256/5x17/a2-1":
        "95aced73125714d6318015f04e91ebb1c9eb2b15d1f28d3a3a61aa629da24c33",
    "block-256/5x17/a2-2":
        "16887a26327666704924a85da60fcd3ee842cf2923455c89b9f374fe6a8741c9",
    "block-256/5x17/a2-4":
        "56e88d15dfdcc7f12627d5041bdce48bb22befbb8bafd1ca206522bdc680d4f6",
    "block-256/37x3/a1-1":
        "49f2c5f3ccf0f4cf3d788248ac308e030eeba06b063a2279e1f39c48da49c461",
    "block-256/37x3/a1-2":
        "2ae1de86ef9beb15c3544149addcfa68d6cf3e143f5cb1794d53524ad5cd0434",
    "block-256/37x3/a1-4":
        "cfd3a5a407dd68a05525fcfc9f8d91e4b3d034513d62c4b604dd577ea28527d4",
    "block-256/37x3/a2-1":
        "4e586b7dace094e9fd69115cb777fc5263a0922c0b4ab78305528c24c1954874",
    "block-256/37x3/a2-2":
        "7c8744fc03464187ba39d91ff4d0de9befae31d0548e495d221ec21e0a7483c4",
    "block-256/37x3/a2-4":
        "3a92aa5054dd747d35e1aa5eb5d152ec6d85779b89525186affd053c480b44c4",
    "block-256/37x17/a1-1":
        "f324a66856e4d329385fd4a115f6bf79835d569c0aad1f5d5d4ffa2a23ba0bf1",
    "block-256/37x17/a1-2":
        "69b84850b776297f498ad39c8f841702958d3afd376260be4f73d629abd22914",
    "block-256/37x17/a1-4":
        "82ce4bbbbc1dce285a9632e3de036eacb59b2decbe1f46c978e6daceefbc6540",
    "block-256/37x17/a2-1":
        "33cde76996b7ed8222008a6f140bc060cb36843a970aa0ba9d9115bebc523d8a",
    "block-256/37x17/a2-2":
        "3a7f7d0b1dbe4f3de5ab6e3a6a512dcffdb792d3fab2b378a9d3f81d0d944f3f",
    "block-256/37x17/a2-4":
        "f5d699f31c008b748ee4fd5c39ef790eaa5f7b0fda02d96e3d718957f39c09a4",
    "block-256/300x3/a1-1":
        "28f5c48a1585f727850bd507be90ecfeb5fbe9f34a78b00f5c6ca678775026c9",
    "block-256/300x3/a1-2":
        "07455ec9ff38a0cbe602acd2dc99c0cbea9b54a78df2d75978cafcff9e8b40e6",
    "block-256/300x3/a1-4":
        "5d5efb6c8f333cc04235086582116d0810ae79d8c7a65bdc437176af8abbf15d",
    "block-256/300x3/a2-1":
        "50ff1c316f3b6e36bf2e3a30d8e0ca533198cdab6b68dc462cc8de3a8486c43f",
    "block-256/300x3/a2-2":
        "5d24420067645f428b0e8e86fe56deae7c111ec81fc9ce2a7436c28b8b38947f",
    "block-256/300x3/a2-4":
        "650eb3c3e6dbdee7d2f3e6550b3f45f48f3825bd336a135801ab71afc49af0a0",
    "block-256/300x17/a1-1":
        "cde9ab0cb2b5ae146cfe2accb2a94b7c6440aafe1429174876f70cd9b2a095e6",
    "block-256/300x17/a1-2":
        "fd9d9a3b90082dd03c830d2935dca1597bd850f10efd0ace230375e7565eacd8",
    "block-256/300x17/a1-4":
        "fc914880801ba9427c701b604b355a68821158f9f7dba84e95c2f9ae010cb61e",
    "block-256/300x17/a2-1":
        "27e37166f9f6706c708a0a511e56f513c1f67454a93217c3f2e0004d842b08c3",
    "block-256/300x17/a2-2":
        "4a9ab43cdd04f2b20043a1105f0ab9024ccf6646e08bdb7c8b70a30cc0de16ad",
    "block-256/300x17/a2-4":
        "ec8859dfcc5df298aea502b32c0d204ec3a4feaba96aad7c67c5c861c80683d5",
    "block-16/5x3/a1-1":
        "acf181f0e88fe6fc0d81774db52de2a6b584280b75fdfabe88d56afe896c1b9b",
    "block-16/5x3/a1-2":
        "bbb0cd4135d327531fa3bc28f600230d63bcc8e28c99dd44ace429a6b7333381",
    "block-16/5x3/a1-4":
        "204b6f937869ba1211f157d16f3b7cab25043a8563ec55196242ed89687cb3a6",
    "block-16/5x3/a2-1":
        "0f29987b413bcddcbe5b81fbb61d24ee6871bcf60c16030ccee8708dc8564b2c",
    "block-16/5x3/a2-2":
        "5c22a473b8aed74dfb90024217ea35f7c0de3b1f66d1ca679fcae27460bf9ff5",
    "block-16/5x3/a2-4":
        "fb918f4ad8a918553cada0e61170cb626713f26f8052d11f83ddd3803ed87cb3",
    "block-16/5x17/a1-1":
        "940609a82ce2bf985cdbd8d39714eaa3bb3c09fe63df31ab0e1c01487adb1789",
    "block-16/5x17/a1-2":
        "13234dc1ae3bae748bf86f29638e091ce00f13e020550648315e80eea59d3017",
    "block-16/5x17/a1-4":
        "ac5f14bbef14f7d088473d5f310a0c60b8aabe76e9348f97cf112e2cfff60d4e",
    "block-16/5x17/a2-1":
        "0d5fe2e09ca7be8bff69232c290ba126b86525075554c8d10e58aa7a26dce287",
    "block-16/5x17/a2-2":
        "581b20d481abec128f7a9e004d32b3e525d8be9dc923d0b950a320a1b77b36f7",
    "block-16/5x17/a2-4":
        "316d7213ca9b8568e26c5a021e78ad15c09e150ea55baaf7a5888616c453d25f",
    "block-16/37x3/a1-1":
        "eb11e8fd467f77af1e12840be61283ef236bcde7e9b68d0b985c42a2c6c790b2",
    "block-16/37x3/a1-2":
        "fae0a6ce2fedffa34186a43aefb8b345ec9ae68c89a73d24e953b9386b63e748",
    "block-16/37x3/a1-4":
        "82049718dc463a4b0bda72fcc371773d33c7bc5ea5b1d654bfcbc6ccc00f01c6",
    "block-16/37x3/a2-1":
        "b3d2fd1fd390e7aa5a609b77103493efea46436d49182a83548db6e8cd3e303b",
    "block-16/37x3/a2-2":
        "9a5e3338fc76d3c69289174bf471a0233ea7b07dee87abc9c5b93a80bb11174c",
    "block-16/37x3/a2-4":
        "0e5ad363ce18ea993cf91b6da8236d12f8090bb7e33883f7965098af8b68dd69",
    "block-16/37x17/a1-1":
        "eb18c2b4492e5beab76d8b1a390d870193cb9696f7d3d8ae7ec81d407db9e3d7",
    "block-16/37x17/a1-2":
        "8cb57d5c665cd81e35efece49ca4c50f2da3c9cb1175995fc91e8e86bdeb43e4",
    "block-16/37x17/a1-4":
        "9adf35e4f1d0d1986d3f604cc4fde53438472e7a04a17c887c5d46f009d4ab23",
    "block-16/37x17/a2-1":
        "b597493b994b159d7b72d9583cd45f169c9f713271fd445b0999454ec1328140",
    "block-16/37x17/a2-2":
        "8a2aafb154007d0d6e313abbe00a00b9b11cd85828ad81a0df38fecaca69406d",
    "block-16/37x17/a2-4":
        "408ffa874085a5dbae407313fb9266e89ae9884d5b5ae37ef045bc177478fcc1",
    "block-16/300x3/a1-1":
        "30dff2c0f1d52a50bed76c7370cb2cff4be946745c17cd3578256ecf44bb52c5",
    "block-16/300x3/a1-2":
        "4610cffcffbfa6ab95e9d51489620f26cd7e0ff40cd3558092a9767e5ee7043a",
    "block-16/300x3/a1-4":
        "45272a0989afd821d175242321a3dba76eba65f8e9254334ddad649e2d36dbb8",
    "block-16/300x3/a2-1":
        "f46705673d17e6a9a1874f625dd8f3d69f6c080a23d7620ebe3b8ed62905c3db",
    "block-16/300x3/a2-2":
        "e3a29148939e199ce2152c14872fbefde40f60bc0de698ca0a8d007febb6de8c",
    "block-16/300x3/a2-4":
        "2b0520b4b03e8da8dae2a6da641932ccc22a584c4e1a4a5264d64eef381e34eb",
    "block-16/300x17/a1-1":
        "f3080d15542c28720c3999a93eb152e20694086e2c65755d85d6adfd3a30de55",
    "block-16/300x17/a1-2":
        "2c23d050bbab844ce45a704a33f726b25c17aa90f45220e3059d6a8545696f01",
    "block-16/300x17/a1-4":
        "83d5126e0f9cd9ced51afa387075904158c6105551630b5b9f3e64a9b1f34ea0",
    "block-16/300x17/a2-1":
        "6859de67ddbf266822a8789d0658443ac40f3b3c6b6f6753fc9a29cceacf0a88",
    "block-16/300x17/a2-2":
        "cec3253b580ecbc88bc45581bef90b6acbdb1153eabb3226941ef85d4d13396c",
    "block-16/300x17/a2-4":
        "b6131471f927e09223b27f963c777dcd3becf6209e6107afbf8b02c26bf04450",
    "dense-x1/5x3/a1-1":
        "2bb7f1a545117c9cb07032554c7d96eed925d96a496a869e4bffe79572910cdb",
    "dense-x1/5x3/a1-2":
        "a21d4e767a061179f83cd6639ea2038b9b84c0e13a53cc67ab34b953f9ccdfb7",
    "dense-x1/5x3/a1-4":
        "d9c163a7cb5eeb3386d11b6464bdddad53b51d9579e9e630a23e0f9ba501b692",
    "dense-x1/5x3/a2-1":
        "6bdaefb8429f29b2b2d50e13e73066e8e6621339f61107b048b9e2ad743483e3",
    "dense-x1/5x3/a2-2":
        "8568d0dad748be85e2b96bcbd42b52f2ae87f3769e53da4c73b88fe4f82402cf",
    "dense-x1/5x3/a2-4":
        "b9ef87fd8e5c1fb7e126aa36571c491a469ee5f64ca8cd97a53ccd0771ee638e",
    "dense-x1/5x17/a1-1":
        "5a7e5676c703b71fca41cec68acfd0ed05aef72a138a88401f8895b1dae4cec8",
    "dense-x1/5x17/a1-2":
        "0076427c4a4815842768036374c8c728950419111932f497c34cc0d79f483ac9",
    "dense-x1/5x17/a1-4":
        "0e7318ba4f1a34740eebb5c8c32ac56065b938b1e36154e0b319ec152e04840d",
    "dense-x1/5x17/a2-1":
        "25c4a15439e1b9d06654ba3c9acae66d3b46a199542678d95a1b05e648dc929e",
    "dense-x1/5x17/a2-2":
        "d87e1fd76a78706c93ccd4262b182be620d1e1bf9f412032b7921ce27cac4f99",
    "dense-x1/5x17/a2-4":
        "f014031389ac426ed3d4c4f77eee1ea7399e662f653c3abd3f008ccf0ac466bf",
    "dense-x1/37x3/a1-1":
        "6dce864bfcb23c59c1f170f39825bf3d894b03804e3d91998d9e0acf5d0bb2c9",
    "dense-x1/37x3/a1-2":
        "f0422e2b7ab5422fda97fc928deda94a32e22329b84b8c5d613e10ca07055ac1",
    "dense-x1/37x3/a1-4":
        "1fdb91de97514b24ced9fa7588e07e5e89ab57918803eb92e2048d7ac1be06d8",
    "dense-x1/37x3/a2-1":
        "6238d26a889548b8cea12046fd8df76884007ffbddfd0f0f72593fe28a0ce016",
    "dense-x1/37x3/a2-2":
        "95ae913afc16b3dda0664f072d5f19254a15b140e98e881d1bdc950929fa78e9",
    "dense-x1/37x3/a2-4":
        "c24ccc9140b8c6468fb7660efcf19b503a2a8f81e1a3de137a69b233a798297e",
    "dense-x1/37x17/a1-1":
        "9eedceb9b16c42a84a76ca61f16da910a41ba035fda1a3cea546f2c8e0fba35b",
    "dense-x1/37x17/a1-2":
        "5d2a4079f63e30c721bd3db1406d1299a6630e824db4ce95226fbd9cec798b90",
    "dense-x1/37x17/a1-4":
        "3c22c2c723b59cd687e079ea72f14674090c6102548b14c34231075aaac253f2",
    "dense-x1/37x17/a2-1":
        "ad83cf76f22b276bd8fb919127f2a00b6c35fd2c2b1b0560235ccd6b0be5ab54",
    "dense-x1/37x17/a2-2":
        "ae424604d48526b9bc371d373e9fbd620ce21e09f1349592320e74c7b9895fc7",
    "dense-x1/37x17/a2-4":
        "531236ccfe755f1ff1d694a6de2e86e7193635c910c79dc6d3bdf364bcf091d6",
    "dense-x1/300x3/a1-1":
        "491f236e8103255e012b7088dd5d557eb178092d95223b3bd622e9f623b80d73",
    "dense-x1/300x3/a1-2":
        "0809f204f5078aefced52c17e6753971f9147f4d48d203e4548469b1cdf28370",
    "dense-x1/300x3/a1-4":
        "95ce0a1912ec2ec53c325a77e4c29bf62ad3a8d5cdd8f0898120e8f1280059bf",
    "dense-x1/300x3/a2-1":
        "e06371f5e0c4acbc40462e53aac4c462037b3f6590316686e044f452e8ac89e1",
    "dense-x1/300x3/a2-2":
        "e7f549cda24548ea6bd05d5add5433d4ce2e5218a24e5cccc052e670ac97f05f",
    "dense-x1/300x3/a2-4":
        "0345af7f05afcadf7e1e459863285027bbe742c0fcc45541d12d7dae0d24ce92",
    "dense-x1/300x17/a1-1":
        "d8a0eff0b76d6e574371d1e9ac127e4616e6a021c34ec1efcdbcb082a934c82e",
    "dense-x1/300x17/a1-2":
        "a4c6a3f2884a06fa0107e2f81a9949d021203b824436d798ff195c0d81625553",
    "dense-x1/300x17/a1-4":
        "9f4283c8bea4b4a92d2e61baa1bd4b1767f8a9dc7161964a54fea24f8993f98b",
    "dense-x1/300x17/a2-1":
        "52f184bcf5ea4f996ba336ef25a3484099b3776da932c8341cbcb0621fabbfd5",
    "dense-x1/300x17/a2-2":
        "db98c6889262e29e5be98823ae7bf51808d9bc76d5ace7c6f124ecf15fce76e8",
    "dense-x1/300x17/a2-4":
        "217d91c9df540760b7164d09b968ae524bbf748d6bf72039309f9eacc66c10f6",
    "dense-x2/5x3/a1-1":
        "984d7898ba502fcde047961dcb42910889810b310d8a11aa285fd64594688041",
    "dense-x2/5x3/a1-2":
        "9be078a3a1a33f8d0f20f1cd75df7cb7330a7f969005edfdbf0b64742eec4251",
    "dense-x2/5x3/a1-4":
        "8f88e0d1c37bba3b2a553ab645cf1ce1a6324301e987b5f8e6ca6c805cea7bab",
    "dense-x2/5x3/a2-1":
        "64bc4faf4f64fda2d3bc02b3bc2764b9b04a2c78a70cebbb05a1aabab8dff645",
    "dense-x2/5x3/a2-2":
        "c7df575f065557b94dcc28fd2698c0680c6d183975e403c1b1d171f5eb4ce4e3",
    "dense-x2/5x3/a2-4":
        "f11324616eedb15c0bef7bdda4b4c7e28e544927afb7c5fb7fcfad9a61135e2e",
    "dense-x2/5x17/a1-1":
        "41d741d35d1d710eb004f460034306237398b46e41693acfd599f0620156c426",
    "dense-x2/5x17/a1-2":
        "8e7b8af0590a68581034c7851f98c5b5fdf7f4d76f11871a82e6bb246cce1364",
    "dense-x2/5x17/a1-4":
        "779bb6eb0e15c4cbca1e8444bac5aec7df7c0f445c11d68441aea91e993f4d41",
    "dense-x2/5x17/a2-1":
        "d9c999b310eaddff228f56cdb953ee0ecbd811dd3d14b00e3f454e251a3bb5a8",
    "dense-x2/5x17/a2-2":
        "841198214737bdc19822e8c44db79396d2ede7a6bb87aca9d767b0e8505c2cd1",
    "dense-x2/5x17/a2-4":
        "41b52357c3e3c22530dae0a658051428abe35fcd636d8a499b892d1091b5f90b",
    "dense-x2/37x3/a1-1":
        "2bf15f4bd8c543de80cb4c00a14b83866a4166c7243d42450bf97172a23d5015",
    "dense-x2/37x3/a1-2":
        "a8a5b3676fffce17d9c183e078c4b285ff56b5fe50b480bb2373c6236633f3f7",
    "dense-x2/37x3/a1-4":
        "681b58d67ed7e99f021b0ea98d14e291d33e53a340abc009f9f9d734c8c8d97f",
    "dense-x2/37x3/a2-1":
        "245194b9965cb81bc4d7068bcb4677ea016dcc4a261cc0a2bbf300d354e1eafb",
    "dense-x2/37x3/a2-2":
        "7eb7bd05588894abde7e004471b2591c97724842ae69791aa0d7c9f7fa27ad39",
    "dense-x2/37x3/a2-4":
        "47fb490f5abe1abd547ec083964ef7edf95657f7018d56580517ff918eb779a2",
    "dense-x2/37x17/a1-1":
        "7d0991ce5ef60adfa460fc7230f803b2875b0cafbda99896caff9b9f0a3c9077",
    "dense-x2/37x17/a1-2":
        "225ce28c1cd7802c50acaa448fe9b036a25e7c29d98dc85d7c10492c4cd93968",
    "dense-x2/37x17/a1-4":
        "87aa2197ddecc447808dfd95299db993a807e2e53e25ff7082273e5b4035fd40",
    "dense-x2/37x17/a2-1":
        "047ebc3e57f39aa843a4124e3721d728f7ae83b5d25e104406b8ff0bfec6e226",
    "dense-x2/37x17/a2-2":
        "814d371447f1763224666814d3bfdc86bf64c597b2a9acfcd847746b706e130a",
    "dense-x2/37x17/a2-4":
        "340f2a2383768ed32aab2d8d10de7342d5780ba6c457828e0b5ae96ed0b62d97",
    "dense-x2/300x3/a1-1":
        "8e7f0d738808b0c8e1f4f28dabfcd016c5c91417d26e9fae575c9a089c0796fb",
    "dense-x2/300x3/a1-2":
        "021da0ae913cbde6313b5e3dc87a58cf9b19670248ed647406077f090a3a9a7e",
    "dense-x2/300x3/a1-4":
        "d14e4fafe0cec178eb5dcae72f73c65d98208117395ae0c369d366dbdbb40e8f",
    "dense-x2/300x3/a2-1":
        "ae135e27f986d6d3fef09ebf0f64f27bc0324babcb7553a6ef18f60f7b1a7bb2",
    "dense-x2/300x3/a2-2":
        "308b1ddc114a7b96c28fd90b7bd1d925d29beb1fa879802158692b3667339fb3",
    "dense-x2/300x3/a2-4":
        "3959547c9291a9952a5ec157e72fd1e83791689c9737b6ac8dee96e155623371",
    "dense-x2/300x17/a1-1":
        "ac7f6cff754b4e7ba1f0caa63be0771596cd2b89bc50901a99a7a306ecd4f2d7",
    "dense-x2/300x17/a1-2":
        "2b4a01540a23fbd460790779baec80740c50d2b7d2136a1ba966141162bbd00a",
    "dense-x2/300x17/a1-4":
        "bc2b5bdf8d902cf8bae89515b3f36014c8adb019d67366f2b59cd0c6a0cc7d91",
    "dense-x2/300x17/a2-1":
        "7a2cc693bbf643ac65d00e26bccf518ddf35f9dd14ce4c40951fb431d00ab5c9",
    "dense-x2/300x17/a2-2":
        "85e2b1ff3ad42745c3bff5d3e386aeaebb7b6aa89d1124723f69b893ad0e4fcc",
    "dense-x2/300x17/a2-4":
        "d12b272f6f869c564b73087b1c0e0af1773fa497017efb06530e53a075d71e1a",
    "dense-x4/5x3/a1-1":
        "f49e598e9600719172bddc7f1bda7c12a9223126f816d11b710cfcb180ff0db6",
    "dense-x4/5x3/a1-2":
        "1c04ce2f5ba0dde60f72ee232c08c65179f55766508458dcccbc047f23d31b22",
    "dense-x4/5x3/a1-4":
        "dde41922badc0dde449816a681fe9a4795666555d0630aed5d3bd73e2bc44100",
    "dense-x4/5x3/a2-1":
        "1085638bdd9bfb9dbf1ea84bb6608521390b0e7fbbf72857da9cf586c50ed18a",
    "dense-x4/5x3/a2-2":
        "9b664f798c88619976e1af68cc8c163facade0eb8bc26d768cf35d4c8567c41e",
    "dense-x4/5x3/a2-4":
        "4fa634916a364fdc9d91a94fb9d974c308b7ea36a17801c42f9054566a3c9b76",
    "dense-x4/5x17/a1-1":
        "3360a9847fbeb4824f69b081dc2dff81f303cff593df355e97b300bf98b0e8cc",
    "dense-x4/5x17/a1-2":
        "c3428ffa43dbc1e4e8f7c3066415cbf37569aff2c48977688b52ad703f9eb639",
    "dense-x4/5x17/a1-4":
        "7ca301b7d674fdd74031811b6164e3f5542a1b62a5db9e59c50c5d7c56a6511e",
    "dense-x4/5x17/a2-1":
        "8fa2373ba179b4441abc26e7dfac628d95b2fc667c4d123a359f61bd280f6963",
    "dense-x4/5x17/a2-2":
        "68936043a8cd715c26fdc216a9e01ea180929ab13c02d158af118aeb7067191d",
    "dense-x4/5x17/a2-4":
        "5c613bae66459d9a4aed9a61bc784e06b05875f4125ace31907ce4c83a18e936",
    "dense-x4/37x3/a1-1":
        "912845825d98674a53dc985e595020162f0b881c1fa4f6a5b9933178ed85e2b3",
    "dense-x4/37x3/a1-2":
        "87098da1e8306c8f8306ad1f734032d11a8dcfe7cca33bd740cd3eb02ba5060f",
    "dense-x4/37x3/a1-4":
        "c3831a72c6aee9c2e9c2632041be7e501c3ca03409f596e433b3fdcffcd0f963",
    "dense-x4/37x3/a2-1":
        "fd0c342aeb0b2daab82dd8fe2117ff9b6d65fd9def5e209a8a649ed2f7f5c46a",
    "dense-x4/37x3/a2-2":
        "b467b3c9f8a1ff1d55aa11db46995e066f6195e39b37bccb1f3a7bc7dd275d4c",
    "dense-x4/37x3/a2-4":
        "2cbe0b8ac45ae64795ba39407dd9858d58da1ae1f41596192bd641d4e245c25f",
    "dense-x4/37x17/a1-1":
        "2533dbdf43ef9243492f216d5a92ceca783712920f52c8545426a300adafd521",
    "dense-x4/37x17/a1-2":
        "b76bd5a2ea637ea9a0e8b1e49cf4555171a153f1819a6b52b035234af41d83ad",
    "dense-x4/37x17/a1-4":
        "10f26be6e997de6309830366af57d260b554c5626b942c4d28289daf47965191",
    "dense-x4/37x17/a2-1":
        "bc4ad0e6f41323210e795c637f9707bd5f71173cf88af21cb67ac581745a2a02",
    "dense-x4/37x17/a2-2":
        "6700a7ebb3aaaa42c8bfeb977cfe4340c6a166f52814d913a52ae18a977d1865",
    "dense-x4/37x17/a2-4":
        "99a4b0f909083e84c997117ec4e5dfee5beac8554eec9305641b604f96e66a38",
    "dense-x4/300x3/a1-1":
        "166ff0b2f287e3cd327edce40d0bef59f5d6f01e714f54b7ce9310866fd041df",
    "dense-x4/300x3/a1-2":
        "a13313ca1833929becf0845c5cb4fc6f4d46d31eedf8bde1bc162b7e6df3b822",
    "dense-x4/300x3/a1-4":
        "d01e6393569982a5316cb3ea7431287e90d1409ffb091c03cbefcbd7682f48f8",
    "dense-x4/300x3/a2-1":
        "24707c14607f1eff4cdab50f2ead5d54d9eb1fd31d916a7bf1e475995da39be3",
    "dense-x4/300x3/a2-2":
        "cf20e751487ce525752d4afb9ce4e746c12534052bb1a67b1eab96476d2bfa4e",
    "dense-x4/300x3/a2-4":
        "10257e0172a05dedbc8e6fd65fa919b515813eaf9a51c30f114189addbd498cb",
    "dense-x4/300x17/a1-1":
        "04d68692c975a59af717f557a73a47adf1a6ece98f4bdd87c210696c16c1cf0f",
    "dense-x4/300x17/a1-2":
        "666703545169ac5fd574faf0251a4367ba0870ebf8fc1fdf6a6961c0e4d33c55",
    "dense-x4/300x17/a1-4":
        "cd68abe4155eabfa9a95b6ab6114abc9f88256d4a4e4ccd146982b54b71e2470",
    "dense-x4/300x17/a2-1":
        "020c9b68c6c632c39f522f26d307448476866244997ae932b57e07643a92c348",
    "dense-x4/300x17/a2-2":
        "a35a48521e5817440259d21d86d54c354c4531dc338e54c743d8cb09b5bc53ca",
    "dense-x4/300x17/a2-4":
        "d53e3d4dafa199469320e6712b25b9632cfed686b4200a45dad5be5286e2603e",
    "dense-x8/5x3/a1-1":
        "087abee2a8bae36e814313f4f7758ce05bdba90f3ed51d8174961c63d5ab09df",
    "dense-x8/5x3/a1-2":
        "f765faf218233e40661157d66649055af8a2568ece44da56febea00d03c4b531",
    "dense-x8/5x3/a1-4":
        "920e25230802a372237236844271beed9454835360e8ac5dab579bf580aa546b",
    "dense-x8/5x3/a2-1":
        "41fdef3bbcff34b4f59ae91bf622988284b90daf72bb1a29e81a3cfa807eaaa4",
    "dense-x8/5x3/a2-2":
        "c9ad8dc54ce87f6b4709b366f857ba3b57e7c972b65f1f9d497055646b8ed0a9",
    "dense-x8/5x3/a2-4":
        "1dca242d6c018e610d9efbfd09dbd6277e047a1fe975a3c4c4fb60f24a01af92",
    "dense-x8/5x17/a1-1":
        "2081e2280222d892b73fc43fe2d2a34bff735a4e1c26f81d3ef2c7f5eacacef0",
    "dense-x8/5x17/a1-2":
        "277e7900b46678a65e1c63d9258ba7e97aa59bc59369aa70bd89b02cf74c0f00",
    "dense-x8/5x17/a1-4":
        "d4465c8a37e956249073fedb3cbebdd43b2955cddc830b37bb757aaaf7f90d18",
    "dense-x8/5x17/a2-1":
        "60032e7ab09e2156b73bba34ae048f54c0e8fb4a781136e9f08cdc7ea1587280",
    "dense-x8/5x17/a2-2":
        "d54462e19faa4617b319fb4fd9c5973ca43952c8fc04d6f818c4502f68c984a2",
    "dense-x8/5x17/a2-4":
        "088ebfc28aafc2f0873c7f6371d8fbf6a24c3d6a77bbc01a4d0287d4aa1a1560",
    "dense-x8/37x3/a1-1":
        "b8db29c939232764fa9f90680c628c7ae4fb8b952a5892a5e407ff2025ec5aae",
    "dense-x8/37x3/a1-2":
        "79c0d0b8795edc31dcf3c8ca55052f11cb0ed68a8b212b6ff29d93561ac131bd",
    "dense-x8/37x3/a1-4":
        "bddf4664e57abc54ffd87c86d7b7180a2013d855aeda9b430ffb216f6034b58a",
    "dense-x8/37x3/a2-1":
        "7bda371c45297bebce847f009685529d082a906b218a0b247287a271938118dc",
    "dense-x8/37x3/a2-2":
        "2b7b59148b30feab53727fde62eb3cba5239a421103f418d2cc52c157827d66b",
    "dense-x8/37x3/a2-4":
        "8a90d4d60e3ae91d6e4f091dc7b2bb3b2d4148eed13897c16e77660923805544",
    "dense-x8/37x17/a1-1":
        "4dc73803189ebe527e26754e4f003174ceb8d13ff189a99816c0bad5fa866bb2",
    "dense-x8/37x17/a1-2":
        "2581e0d629a01e1135f0132723eccb67b94f68c1c15bca9e6ff9238d7db1ea76",
    "dense-x8/37x17/a1-4":
        "2ea0f3ffd2b870e53f4af7e8cbb72bdaf67dc8d94e975fd6666784b1d3e461dd",
    "dense-x8/37x17/a2-1":
        "98719e554016d804e588944c5ff2ecc57b6281f58675311a16ce38f23b917e39",
    "dense-x8/37x17/a2-2":
        "633d5db8e0ba32279fe61dafe6a8a0daa537fac44323136415ad6af7a0f679f2",
    "dense-x8/37x17/a2-4":
        "3a1be7296da02ae040011b71b1679ccdbdbe57a18aba0866a52900a6be21f6da",
    "dense-x8/300x3/a1-1":
        "2f0bab17994a54ae4586d91904dc6a994e7ecea278230647bda61ff8c1f64f2d",
    "dense-x8/300x3/a1-2":
        "c215e787b2bef039460041cba4c49b9413db4f0b3d8392abeeff4d87ef4afd5b",
    "dense-x8/300x3/a1-4":
        "5148277494344a633af2027a91685082748655b86fbe75f95e6917b6562df4fc",
    "dense-x8/300x3/a2-1":
        "f98587b7fbdad6124055851e0303e68eab273f7a29100c8562b74b061654dfe4",
    "dense-x8/300x3/a2-2":
        "736d57537ef7221a2d43dc6eb90a04a6366297d87df512c6377d1a90688f040b",
    "dense-x8/300x3/a2-4":
        "8b74254cee1548c0abe9061f67b9950849513d53a996dcd852f5ec9c60b19956",
    "dense-x8/300x17/a1-1":
        "4558751f42af0360c1e5f726e1e5a8aa278481996e627a06d3200cdd32cc1125",
    "dense-x8/300x17/a1-2":
        "55e717ee67713a1c8a4bb98367c08112d66ecce900fcaa0cb59d9f07d072e066",
    "dense-x8/300x17/a1-4":
        "e10e812e4df77ca237e53b928e02e5a92c1a7e7c790519a1462d8ac8516483b4",
    "dense-x8/300x17/a2-1":
        "119dda2b4aec1e1eb39064a90be3fc524fdfb89bd8ddb4f3b107f5044a0bc37f",
    "dense-x8/300x17/a2-2":
        "2fc48d7c386e87c792a0ae4a0b60635c44a80340501c4a22f4b5deeb223a47f7",
    "dense-x8/300x17/a2-4":
        "f97323fd11e2e75178ec25eb5ceb15e7a3169dc688671222301aad230eba3ef9",
}


def test_table_covers_every_case():
    assert sorted(DIGESTS) == sorted(key(*k) for k in KEYS)


@pytest.mark.parametrize("option", list(OPTIONS))
def test_programs_match_the_recorded_digests(option):
    for shape in SHAPES:
        for widths in WIDTHS:
            name = key(option, shape, widths)
            assert digest(option, shape, widths) == DIGESTS[name], name


if __name__ == "__main__":
    print("DIGESTS: dict[str, str] = {")
    for case in KEYS:
        print(f'    "{key(*case)}":\n        "{digest(*case)}",')
    print("}")
