"""Byte identity of the four encodings.

Every flash size, EXPERIMENTS.md figure, exported C file, firmware image
and cached search payload is built from the arrays the encoders return,
so their bytes (and the errors they raise) are pinned here by digest.
"""

import hashlib

import numpy as np
import pytest

from repro.encodings import (
    BlockEncoding,
    CSCEncoding,
    DeltaEncoding,
    MixedEncoding,
    toy_matrix,
)

#: The four encoding classes by format name, in the paper's order.
ENCODINGS = {
    cls.format_name: cls
    for cls in (CSCEncoding, DeltaEncoding, MixedEncoding, BlockEncoding)
}

#: (format, options) pairs every case is encoded with.
FORMATS = (
    ("csc", {}),
    ("delta", {"stride": 1}),
    ("delta", {"stride": 2}),
    ("mixed", {}),
    ("block", {"block_size": 1}),
    ("block", {"block_size": 7}),
    ("block", {"block_size": 100}),
    ("block", {"block_size": 256}),
)

#: The search's layer shapes: digits_like's 64 inputs into each hidden
#: width choice, and the widest hidden layer into the 10 classes.
SEARCH_SHAPES = tuple((64, h) for h in (32, 48, 64, 96, 128, 192, 256)) + (
    (256, 10),
)


def random_ternary(seed, n_in, n_out, density):
    rng = np.random.default_rng(seed)
    return rng.choice(
        [-1, 0, 1], size=(n_in, n_out),
        p=[density / 2, 1 - density, density / 2],
    ).astype(np.int8)


def empty_columns():
    matrix = random_ternary(1, 50, 12, 0.3)
    matrix[:, [0, 5, 11]] = 0
    matrix[:, 3] = np.abs(matrix[:, 3])      # positive connections only
    matrix[:, 8] = -np.abs(matrix[:, 8])     # negative connections only
    return matrix


def index_boundary(n_in):
    matrix = random_ternary(2, n_in, 8, 0.2)
    matrix[n_in - 1, 0] = 1
    matrix[n_in - 1, 1] = -1
    return matrix


def wide_positive_column():
    """300 positive connections in one column, a sparse negative one."""
    matrix = np.zeros((600, 3), dtype=np.int8)
    matrix[:300, 0] = 1
    matrix[::30, 1] = -1
    matrix[[7, 310, 599], 2] = [1, -1, 1]
    return matrix


def wide_negative_column():
    matrix = random_ternary(3, 400, 4, 0.1)
    matrix[50:350, 2] = -1
    return matrix


def delta_gaps():
    """Offsets that fit a byte at stride 1 and overflow it at stride 2."""
    matrix = np.zeros((300, 3), dtype=np.int8)
    matrix[[3, 150, 290], 0] = 1
    matrix[[0, 100, 200], 1] = -1
    matrix[[20, 21, 22], 2] = [1, -1, 1]
    return matrix


def pointer_overflow():
    """More than 65,535 positive connections: CSC pointers overflow."""
    matrix = np.ones((260, 256), dtype=np.int8)
    matrix[0] = -1
    return matrix


CASES = {
    "1x1-pos": lambda: np.array([[1]], dtype=np.int8),
    "1x1-neg": lambda: np.array([[-1]], dtype=np.int8),
    "1x1-zero": lambda: np.array([[0]], dtype=np.int8),
    "all-zero-10x4": lambda: np.zeros((10, 4), dtype=np.int8),
    "all-pos-40x7": lambda: np.ones((40, 7), dtype=np.int8),
    "empty-columns": empty_columns,
    "n_in-256": lambda: index_boundary(256),
    "n_in-257": lambda: index_boundary(257),
    "wide-pos-column": wide_positive_column,
    "wide-neg-column": wide_negative_column,
    "delta-gaps": delta_gaps,
    "pointer-overflow": pointer_overflow,
    "toy": toy_matrix,
    "float64-input": lambda: random_ternary(4, 30, 5, 0.4).astype(np.float64),
    "fortran-order": lambda: np.asfortranarray(random_ternary(5, 90, 6, 0.3)),
    "non-ternary": lambda: np.array([[0, 2], [1, -1]]),
    "one-dimensional": lambda: np.array([1, 0, -1]),
    "no-rows": lambda: np.zeros((0, 3), dtype=np.int8),
}
for _i, (_n_in, _n_out) in enumerate(SEARCH_SHAPES):
    for _density in (0.08, 0.3):
        CASES[f"search-{_n_in}x{_n_out}-d{_density}"] = (
            lambda s=_i, n=_n_in, m=_n_out, d=_density:
            random_ternary(100 + s, n, m, d)
        )


def option_label(options):
    return ",".join(f"{k}={v}" for k, v in options.items()) or "-"


def digest(format_name, options, matrix):
    """sha256 over each array's name, dtype, length and bytes, in
    ``arrays()`` order, or over the error's type and message."""
    h = hashlib.sha256()
    try:
        encoding = ENCODINGS[format_name].from_matrix(matrix, **options)
    except Exception as error:
        h.update(f"{type(error).__name__}: {error}".encode())
        return h.hexdigest()
    for name, array in encoding.arrays().items():
        h.update(f"{name} {array.dtype} {array.size}\n".encode())
        h.update(array.tobytes())
    return h.hexdigest()


#: ``digest`` of each (case, format, options), recorded with the
#: per-column encoders the flat polarity split replaced, by the command
#: that prints this table:
#:
#:     PYTHONPATH=src python tests/encodings/test_bytes.py
DIGESTS = {
    ("1x1-pos", "csc", "-"):
        "e8ff71602876c72776bcf2337a86fc622c6836573dd6a2243a96d27036bd66a0",
    ("1x1-pos", "delta", "stride=1"):
        "aa5942b3fb6b91be33fbe4640e4db340c2c38d54f6bdf53af83632be1c88ae82",
    ("1x1-pos", "delta", "stride=2"):
        "aa5942b3fb6b91be33fbe4640e4db340c2c38d54f6bdf53af83632be1c88ae82",
    ("1x1-pos", "mixed", "-"):
        "b39eb99e8b2b7ee75fb03d3317ed0e7840b5c3e9301d419c09bf7d549e1b593d",
    ("1x1-pos", "block", "block_size=1"):
        "744c996d674f2ab37f7230ac6c0e5da798ab03f5c58acd95c06665da25a8d261",
    ("1x1-pos", "block", "block_size=7"):
        "744c996d674f2ab37f7230ac6c0e5da798ab03f5c58acd95c06665da25a8d261",
    ("1x1-pos", "block", "block_size=100"):
        "744c996d674f2ab37f7230ac6c0e5da798ab03f5c58acd95c06665da25a8d261",
    ("1x1-pos", "block", "block_size=256"):
        "744c996d674f2ab37f7230ac6c0e5da798ab03f5c58acd95c06665da25a8d261",
    ("1x1-neg", "csc", "-"):
        "8dc4ccb28bb8928715b69bb306aba26e52b7a4035bda4b8bfed7d55db15571ab",
    ("1x1-neg", "delta", "stride=1"):
        "e91ea28af6a2ce1512c7672662fef28bf2b7461c554cbcede56d3c136a94e26a",
    ("1x1-neg", "delta", "stride=2"):
        "e91ea28af6a2ce1512c7672662fef28bf2b7461c554cbcede56d3c136a94e26a",
    ("1x1-neg", "mixed", "-"):
        "05e1675fd7481c50ba045436517e24a8aed8d07a20d79fd3740fbf259a2a8dff",
    ("1x1-neg", "block", "block_size=1"):
        "c577fcccc983826a37c249b87b50f29a05178f2397910e967fd8f258c55cc1a1",
    ("1x1-neg", "block", "block_size=7"):
        "c577fcccc983826a37c249b87b50f29a05178f2397910e967fd8f258c55cc1a1",
    ("1x1-neg", "block", "block_size=100"):
        "c577fcccc983826a37c249b87b50f29a05178f2397910e967fd8f258c55cc1a1",
    ("1x1-neg", "block", "block_size=256"):
        "c577fcccc983826a37c249b87b50f29a05178f2397910e967fd8f258c55cc1a1",
    ("1x1-zero", "csc", "-"):
        "8ae97379de0df8b6a1511da8d1cdc2d267db61a9811dc649cdc00944ce4255b1",
    ("1x1-zero", "delta", "stride=1"):
        "96078d08574e81e1165f480b9a954ff07d55a5a08bef5508b0014a4b88ef6c0e",
    ("1x1-zero", "delta", "stride=2"):
        "96078d08574e81e1165f480b9a954ff07d55a5a08bef5508b0014a4b88ef6c0e",
    ("1x1-zero", "mixed", "-"):
        "e475c30258d042eb772dec3c2daeb067ee3413ea76ea40207123f42f449f4d03",
    ("1x1-zero", "block", "block_size=1"):
        "f453e5c4f4f2c8126ceedc81bade9b86cdbc3a84641f352b0629005b759de377",
    ("1x1-zero", "block", "block_size=7"):
        "f453e5c4f4f2c8126ceedc81bade9b86cdbc3a84641f352b0629005b759de377",
    ("1x1-zero", "block", "block_size=100"):
        "f453e5c4f4f2c8126ceedc81bade9b86cdbc3a84641f352b0629005b759de377",
    ("1x1-zero", "block", "block_size=256"):
        "f453e5c4f4f2c8126ceedc81bade9b86cdbc3a84641f352b0629005b759de377",
    ("all-zero-10x4", "csc", "-"):
        "ba5c33f35aaa1ba6b12b6008989719df45980eda116f9aef594af9159f3f50ea",
    ("all-zero-10x4", "delta", "stride=1"):
        "b3524d2ddb2aa4dd9113a4b28e9797e8a48bfea20a6efcee773b828ebb2f4027",
    ("all-zero-10x4", "delta", "stride=2"):
        "b3524d2ddb2aa4dd9113a4b28e9797e8a48bfea20a6efcee773b828ebb2f4027",
    ("all-zero-10x4", "mixed", "-"):
        "aede14f1994a41029e0c3b95adc8c7869e6a013df0d2d8df73afc52984501007",
    ("all-zero-10x4", "block", "block_size=1"):
        "c660b1fc2182239345012eea5ba9cecc7b6537d1b1c30e7f140ae7b61114ced4",
    ("all-zero-10x4", "block", "block_size=7"):
        "224f5dc4f161d102f7d2a3db73195cdc95ba6b659dc645b5beb743b54b37cd5a",
    ("all-zero-10x4", "block", "block_size=100"):
        "b98a22d38dfd4d2fd111fccb6139636d4a1d01edb158be3ee20b369d32ffcc2b",
    ("all-zero-10x4", "block", "block_size=256"):
        "b98a22d38dfd4d2fd111fccb6139636d4a1d01edb158be3ee20b369d32ffcc2b",
    ("all-pos-40x7", "csc", "-"):
        "6f1fc6b72c1b459ba63f360f2860f33c98696e23fd31357d67b905937e0912ce",
    ("all-pos-40x7", "delta", "stride=1"):
        "831029c5b117ebc1397e8c09de9c63b747e08734315546a37e2e49d9ea1a994b",
    ("all-pos-40x7", "delta", "stride=2"):
        "19c5f5152c9f0edb3091daac3e3ef9d5c28eb38ae5c5f5d5078a40d07f305eb6",
    ("all-pos-40x7", "mixed", "-"):
        "39da24f5aeb83db4e0a1b1b62ee4409e3a44ba70730c68cfd50272fbbd3fa295",
    ("all-pos-40x7", "block", "block_size=1"):
        "5ef5b639f6729d6e478bf85e05690ec640822d492aea99b0bf91c38ebde9574c",
    ("all-pos-40x7", "block", "block_size=7"):
        "1a4c6b7fd39294b523f4bc6af92383f1e62b23b8ac31ccd439dc208c7740af16",
    ("all-pos-40x7", "block", "block_size=100"):
        "c3d4a94448c67670492163bfd810042745c2e931fba34b208e623145bc22263d",
    ("all-pos-40x7", "block", "block_size=256"):
        "c3d4a94448c67670492163bfd810042745c2e931fba34b208e623145bc22263d",
    ("empty-columns", "csc", "-"):
        "48e3c645f3a30a87aa133588d110f33e256fc0aa591b951ba89e13ed86d3b94d",
    ("empty-columns", "delta", "stride=1"):
        "9c5452696d7c05e3cb247332d20d315ee391bebc27347530d4f418a9bf6ab32d",
    ("empty-columns", "delta", "stride=2"):
        "f36ec19985a1ebe50fbe69df400ac5896a49e60222210416eb9c99d5c5da4d72",
    ("empty-columns", "mixed", "-"):
        "d13993815ef835f8c70e53eaa590b11604abee96cd6f6007a759c9ff86cc4fcd",
    ("empty-columns", "block", "block_size=1"):
        "9fca830c806d25f91220037870b9ae61132791898b0dd270ef42cb376c60e067",
    ("empty-columns", "block", "block_size=7"):
        "9e169c3d25efee1d01629ae519ee64aa3989839e3815acf010e079118a108e82",
    ("empty-columns", "block", "block_size=100"):
        "bb9f8028e92807cc15070ea7047ffd9351e11b7e820478d1520503c800edc531",
    ("empty-columns", "block", "block_size=256"):
        "bb9f8028e92807cc15070ea7047ffd9351e11b7e820478d1520503c800edc531",
    ("n_in-256", "csc", "-"):
        "3952f900a5b0aea6c69676218eb50fb5bf921635df46d7d67d1f164f1ba0af9f",
    ("n_in-256", "delta", "stride=1"):
        "c1bce657a2b34dadf04c84e56a2c829ab9dd698536d4ea70cfb890137e9b663a",
    ("n_in-256", "delta", "stride=2"):
        "9f5b609c6c3f1c159b5d30ef1c4f0771a59c9627121c804f6e5d26e4fb4a78d8",
    ("n_in-256", "mixed", "-"):
        "4e044b70b25f7b1866a8926d228d785972f9ce60974fc615e3647a6f071759e7",
    ("n_in-256", "block", "block_size=1"):
        "229e443009879c42cb0eb0b70953a257782d544342e99395314933559de98194",
    ("n_in-256", "block", "block_size=7"):
        "c520a26dedbe55bccf22701dcd6485cd4820f9b48aadc9fe53c096c69615e893",
    ("n_in-256", "block", "block_size=100"):
        "90b9163d615047a503694a1fc9139b088170409e2a133fbcc0f28624d6cbb38c",
    ("n_in-256", "block", "block_size=256"):
        "dd1ca3bfc21ce6aa79139ae5f8d22db92e5354d954d17a87cffc1bf006f9874e",
    ("n_in-257", "csc", "-"):
        "ae2d2e546dd8e5ca5cb284c52c9b70ad7f98e03bafb26bf653591781148be907",
    ("n_in-257", "delta", "stride=1"):
        "73b05b188b47450b562edbaf35dfe7ba185a15e28513408903657d7c20d9926d",
    ("n_in-257", "delta", "stride=2"):
        "fae448f89f1a4c4116bdbe167f62bad4e76cd374b9f0652104fd74d0d25eda3f",
    ("n_in-257", "mixed", "-"):
        "0ddc4e43e2496b061c10d364f35d9c999a7d4b8bef90fedf1de0d07c6b189429",
    ("n_in-257", "block", "block_size=1"):
        "f80295a706a30acbbd9b36734a76637fcd4d3caf940d47c5ab4ecadcaed0d1a9",
    ("n_in-257", "block", "block_size=7"):
        "5ea461c070ec2a142257bfcab0eacd0feb89ad2f4d442b8a19467e48ba0c345e",
    ("n_in-257", "block", "block_size=100"):
        "91e1671fded0859065ea9e4b7be0c4acbe00c60f4cd5e74d1cff5c0a846fb8e2",
    ("n_in-257", "block", "block_size=256"):
        "958c2af76d95579e15d13af433c15fa6aa8bac65ea12d2ac5456764b0e0ef27b",
    ("wide-pos-column", "csc", "-"):
        "7c72554e9ae8f7e6cd5c931b74e1a53cd302be7f53d693785270931fa9ec6198",
    ("wide-pos-column", "delta", "stride=1"):
        "89803afdaeaa031ba269950de7c2ac7b59d31a21116465cb1ac763ff12b57c6f",
    ("wide-pos-column", "delta", "stride=2"):
        "490b4244ba7d7e2adef79f06fbca902c2f97c866defdb1158699ad19f6b3174f",
    ("wide-pos-column", "mixed", "-"):
        "b6f269281b1446e800f1e532285f0a3d691fd3c2e1ed4fe5933abfb7246a72cc",
    ("wide-pos-column", "block", "block_size=1"):
        "7230a0acd3d1a6882a063972401593dc6cd08c71604455436c6b3a70beb63d31",
    ("wide-pos-column", "block", "block_size=7"):
        "679a4e3a1f7435bc8c7dad3f95b6e216deae012dbd3c6c6682c9dc6bd9b2761c",
    ("wide-pos-column", "block", "block_size=100"):
        "491b121b9d875d843e35701794c1b1f6ecf7e2d3c0fe4ea8967d2227fd275729",
    ("wide-pos-column", "block", "block_size=256"):
        "1c4e74b3cfa3f11b2081256c89deee6dfa231169a8ef631a071f2d79218ea655",
    ("wide-neg-column", "csc", "-"):
        "1d7f309d309e613903b20d196dd5adc1fabfa68ec8e0e0b64cd76aac9e925d64",
    ("wide-neg-column", "delta", "stride=1"):
        "243c4da88608efb7c8e0ffea6fd95377bcb1dd457966c87d9ee78e56901f99e1",
    ("wide-neg-column", "delta", "stride=2"):
        "19c13b9e347d7cc56518aec70150d34cc3b7d183db63820846f4007251f12090",
    ("wide-neg-column", "mixed", "-"):
        "07373da4daa8a554bf4c28218efb4656a3862d51b310a8a4e2e8a0894ec96afa",
    ("wide-neg-column", "block", "block_size=1"):
        "df1911b199daaadd37912498d9a69473012d73a7cf980c36de0d72cc413a78fb",
    ("wide-neg-column", "block", "block_size=7"):
        "efc42f185ebba32de507e6ee4c3bec8314c6adb7b0b2f296aa029d91f0879f1b",
    ("wide-neg-column", "block", "block_size=100"):
        "ca6c21b526a7e33a6fd953970e17df5a679de48a7093badf2d0885be4ac59fa5",
    ("wide-neg-column", "block", "block_size=256"):
        "f9f49d3d6d40cc1558e40b3fe51c9b7c9ef1efddd1820a3a975da640df7e523f",
    ("delta-gaps", "csc", "-"):
        "4c10a2c399861acede79831859fa344bf2f8d640762d61c3e7db685cf6349827",
    ("delta-gaps", "delta", "stride=1"):
        "7a7c42431fdb694bb6fbe970b6f6e29028b004fc9f1888aca517d5aac6dfc1b7",
    ("delta-gaps", "delta", "stride=2"):
        "f7d64b569f403f9f39b58cb968df2daec4d841a5f4374ee0cb3b7069ef072511",
    ("delta-gaps", "mixed", "-"):
        "f18cb08d1a096a813e27233c75c0e4b7ae51c24d971c1d9a00783edaac672970",
    ("delta-gaps", "block", "block_size=1"):
        "6436f446e9e90f3b635dc9ed38c8218c448a19a213b93796cef87eb56ef8a288",
    ("delta-gaps", "block", "block_size=7"):
        "a1a7c85a5281d19d4834865725f557578599a3f2f37566a49acda684dd2ad1ea",
    ("delta-gaps", "block", "block_size=100"):
        "b6f105c4e455dd16c112292522fe41041bb018133e376aac14635c559c00fe01",
    ("delta-gaps", "block", "block_size=256"):
        "fc6b9b13a4c85cc915b4e5849e36a012a68f92f9f9d23a83a18b35b31db23913",
    ("pointer-overflow", "csc", "-"):
        "fdc0ff9256b6ab0126b40c6b3b100c44c3494622809518c691e161939d86aca5",
    ("pointer-overflow", "delta", "stride=1"):
        "e9654a5b08727c213efcc5aa9c0935b180ecb14f3b148e282c058d6bfcc8b9f4",
    ("pointer-overflow", "delta", "stride=2"):
        "cde17e19228d131b9c4a8e24d6a61e89ed509b0869c6cc7573f47da322ddbbe1",
    ("pointer-overflow", "mixed", "-"):
        "e540d18663e2c4fafcfeedb4becf1b0298a39c59ac19be986bb65b0f4ae0b9bf",
    ("pointer-overflow", "block", "block_size=1"):
        "1d578b9ac22131131ef7dc3932d8849edccca858ff37c7031020b66a62787015",
    ("pointer-overflow", "block", "block_size=7"):
        "1eaa9d44959daeddf754f6406defe1486474e4507aa0eb8312bdc31383dbdb48",
    ("pointer-overflow", "block", "block_size=100"):
        "2bf4dbac20a9197e6e290e94b173a0b455494536ccdf66c6041204aafa177a07",
    ("pointer-overflow", "block", "block_size=256"):
        "48aa94dd442d5fcbbd75b2796f68ade08fe8e5cfb2b9ffaf8cd39e469aff0c51",
    ("toy", "csc", "-"):
        "1f36c51dc4a34aa1a8599dffd7821406a3db88422db8203936c71db846232b26",
    ("toy", "delta", "stride=1"):
        "3c718a78f4aa235832757d2e4a1b1d958efbab56784b4b5b1c4e305e558980dc",
    ("toy", "delta", "stride=2"):
        "e5581c1ff452906336e5cc081d7d7d4d8df098d850634d2253279daf789bb4af",
    ("toy", "mixed", "-"):
        "06f74bbe8a8866e651096cbb63fcde45f2ced1952484b66a8b731fa0ed13cae2",
    ("toy", "block", "block_size=1"):
        "7e4d49842de93d2d421236228287685180bff63ae72a0c08c9131908cb77aadf",
    ("toy", "block", "block_size=7"):
        "8a97ed53c663ecb24b116ea5593d3bb0d87d0ba45fd985e89ac87038cec1ee4c",
    ("toy", "block", "block_size=100"):
        "d82de8d0d9c53af975c13434e41312ed22c87e50340eb2b708fca43743aeac39",
    ("toy", "block", "block_size=256"):
        "69917bf271138dfb6e3a2a2f3353e0e3e7a154b3512777609dd06623c628ba88",
    ("float64-input", "csc", "-"):
        "d91434d0da15bcda476fcabafbe2b69be43313f735bc9bca0ed20dca362a6bc8",
    ("float64-input", "delta", "stride=1"):
        "8f65950bb685faa5a9d53fef1346df72b8c66e936efa2962db0a1279d0f876c7",
    ("float64-input", "delta", "stride=2"):
        "6f942303c7e684d7c47441353e39a575e644972d10b7bf20cfb688381983d56f",
    ("float64-input", "mixed", "-"):
        "5b7653e69d854288b731316e2981b282e2006448889856aedd02bba1d74fdf17",
    ("float64-input", "block", "block_size=1"):
        "4324fce0c519cc220cd13af59d41f897179e9240a2158722504f117cef898d29",
    ("float64-input", "block", "block_size=7"):
        "e6f45f12922c2b1879f3056301037ab988d3230954bd8d2383d6921e44dcb066",
    ("float64-input", "block", "block_size=100"):
        "cf4d3ab30107db123eb838edbadd9a2e61b1c9285ff44725ea290ebcc66ebfd9",
    ("float64-input", "block", "block_size=256"):
        "cf4d3ab30107db123eb838edbadd9a2e61b1c9285ff44725ea290ebcc66ebfd9",
    ("fortran-order", "csc", "-"):
        "b75970a6b75fc7817e5c950076a702c4546c2b9be4b3c75be99ce6dc7dc7843d",
    ("fortran-order", "delta", "stride=1"):
        "119bafb220e3ff86ea2a3a8d573238cbcab7cac9d7d181b7df65178a12a1f882",
    ("fortran-order", "delta", "stride=2"):
        "38623bf9678480c742e9c5b7ff761c638bff29b1f8f4a8dd5d99ef0bbf7a4738",
    ("fortran-order", "mixed", "-"):
        "1e6cb34871ce454d6a5a0792a895127150fbb2a5485a5df4e35c46bc1ae4a6f4",
    ("fortran-order", "block", "block_size=1"):
        "18f33f8194fab606db6f32e03e100cfe366f3fad6ab178a38a2605f2480d7758",
    ("fortran-order", "block", "block_size=7"):
        "4ef0f54571fa6f9a253aac60b9b534ba51c2a562fbd64a96b1dfd28ff37f963d",
    ("fortran-order", "block", "block_size=100"):
        "34fe850bee5e25a64fccb23bba72356f67065c0f031d280cf1b874de627f5365",
    ("fortran-order", "block", "block_size=256"):
        "34fe850bee5e25a64fccb23bba72356f67065c0f031d280cf1b874de627f5365",
    ("non-ternary", "csc", "-"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "delta", "stride=1"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "delta", "stride=2"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "mixed", "-"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "block", "block_size=1"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "block", "block_size=7"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "block", "block_size=100"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("non-ternary", "block", "block_size=256"):
        "f367b2dbd8c8e9752aba601a2d69d42b5d739405e91abb99a8ea80e62366a524",
    ("one-dimensional", "csc", "-"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "delta", "stride=1"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "delta", "stride=2"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "mixed", "-"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "block", "block_size=1"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "block", "block_size=7"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "block", "block_size=100"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("one-dimensional", "block", "block_size=256"):
        "5674493b8dbf473f40a0ad518ce8fe69c5b210713a8201e558d6b57700ba5379",
    ("no-rows", "csc", "-"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "delta", "stride=1"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "delta", "stride=2"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "mixed", "-"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "block", "block_size=1"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "block", "block_size=7"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "block", "block_size=100"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("no-rows", "block", "block_size=256"):
        "55a9cb5258384f79b1c639c94ef5aa7bb287dfedb26705650190d2f43bca6bab",
    ("search-64x32-d0.08", "csc", "-"):
        "fc79d3f7e98c1700632eee43662dddd02fc32560788f1a030a8a8af84e4f0a9c",
    ("search-64x32-d0.08", "delta", "stride=1"):
        "ccd0843d91dbe7f0805453242af9dc1d80e40e739437ca2cf89cec239c6a26be",
    ("search-64x32-d0.08", "delta", "stride=2"):
        "afc3e03f344a40cd7fbf1338719d14c533d06361f723f3e39721953a465d98eb",
    ("search-64x32-d0.08", "mixed", "-"):
        "faaec52f5ecd6795ea0fa4c0543c8057b947dee7c68cc14059ee663b66418e41",
    ("search-64x32-d0.08", "block", "block_size=1"):
        "3db8bfab0c6e2f9803ddfc5b147a38ca55ca9221c21026015298f9e991cb997c",
    ("search-64x32-d0.08", "block", "block_size=7"):
        "8ac3fa7b0f52112ae6437832b40027c634a975195104fe73c38b58ff02bee6e9",
    ("search-64x32-d0.08", "block", "block_size=100"):
        "94ad0ff16eb370e0d115bb62e18a4025389285324d3fd1e35af3787eaa019314",
    ("search-64x32-d0.08", "block", "block_size=256"):
        "94ad0ff16eb370e0d115bb62e18a4025389285324d3fd1e35af3787eaa019314",
    ("search-64x32-d0.3", "csc", "-"):
        "40ccd976bb94edb2f39f8511be25ed41b98c52aff2dbdc4603f679b89c1e5f7e",
    ("search-64x32-d0.3", "delta", "stride=1"):
        "bc1be525c7ffc259e93a1b4fea6657cc7e7a11afdeba37d98a43ad0e50751cd1",
    ("search-64x32-d0.3", "delta", "stride=2"):
        "642dc3f23c3215426976dc85fe3c1f735c64aa48ce7f19cac4e472e47c589534",
    ("search-64x32-d0.3", "mixed", "-"):
        "e307535d744ff49f5475c73f371fc24c0f68edecd864182aa0563530400101e0",
    ("search-64x32-d0.3", "block", "block_size=1"):
        "56a34623bfacf0e7752a93415f70cafecbfa7a4b1419789c4a697e69bc3f9226",
    ("search-64x32-d0.3", "block", "block_size=7"):
        "f926afc479ab34ddaa73b34553763b632cdd156e866f15cb5397fd701a4065eb",
    ("search-64x32-d0.3", "block", "block_size=100"):
        "49a6c58518f3d1951050ce51b7520f6eee330cadefb0c6364479393974a43707",
    ("search-64x32-d0.3", "block", "block_size=256"):
        "49a6c58518f3d1951050ce51b7520f6eee330cadefb0c6364479393974a43707",
    ("search-64x48-d0.08", "csc", "-"):
        "50578e5ebf87ca3a4293b89e18c4296600e9c6dbafc87462f821accaee93e66d",
    ("search-64x48-d0.08", "delta", "stride=1"):
        "261eb600c24d52c92e59bf43eeb88c3603f7c15f88c908287f41abbefd0f1610",
    ("search-64x48-d0.08", "delta", "stride=2"):
        "241db1512cb9229b9dd978c55dc87f496da5eb652a5a5670295634e336a48d4c",
    ("search-64x48-d0.08", "mixed", "-"):
        "4ebec69813d35d2734deb5abee5958c2f93e2d92c0a7d4a831c8342b70d21dc0",
    ("search-64x48-d0.08", "block", "block_size=1"):
        "2c1b1b7326083b435e3cc676cedac12d39f8a951b32e9abbe594bfd8abf3fc24",
    ("search-64x48-d0.08", "block", "block_size=7"):
        "f15e3ecb05dc1b294f2cbe5bf249cf1a9610d41e55a43615565ab0385a7c4209",
    ("search-64x48-d0.08", "block", "block_size=100"):
        "d30ade2bbe469892a9f982dcc51f8ce41183d0f57e944894911da689d557d8d8",
    ("search-64x48-d0.08", "block", "block_size=256"):
        "d30ade2bbe469892a9f982dcc51f8ce41183d0f57e944894911da689d557d8d8",
    ("search-64x48-d0.3", "csc", "-"):
        "effd223983527cb5665ed82f7e0db480de46e9938f64d07fdd3c5ec6b83d7cd9",
    ("search-64x48-d0.3", "delta", "stride=1"):
        "a029b53246ba9dafe71e522d42f3535811e842e259f0e0bd3f4523bd0d25ebda",
    ("search-64x48-d0.3", "delta", "stride=2"):
        "a7ec835b98986fb55091e5263ce4d89f75790a65d257dc02fbf8f8e3561b809d",
    ("search-64x48-d0.3", "mixed", "-"):
        "d1af8bf91468e78475a01f2e350ace96479bb6613d157b885fb9c28675456abf",
    ("search-64x48-d0.3", "block", "block_size=1"):
        "2097a46f3b03fcb160e8b15e01d75a3a149a1b7ec5f43236c3ab0425d663d28b",
    ("search-64x48-d0.3", "block", "block_size=7"):
        "87122c6f0d62533665b7657c26246d7bb8cf899d44581a739e39e03ab2779f48",
    ("search-64x48-d0.3", "block", "block_size=100"):
        "574afbcab1ba63a13d0b7df73a9ec8b8b5c263efa27dcfe00087d4fdb1d4e0f3",
    ("search-64x48-d0.3", "block", "block_size=256"):
        "574afbcab1ba63a13d0b7df73a9ec8b8b5c263efa27dcfe00087d4fdb1d4e0f3",
    ("search-64x64-d0.08", "csc", "-"):
        "b89a6a8ef4fe90f5d6131f6385b3abb264f475590bc8f4f3dc87f5dcb899ce06",
    ("search-64x64-d0.08", "delta", "stride=1"):
        "1fddec25246df4b83aedfcd88a5c725a0e56c4dbafecfb74169e83c44789a036",
    ("search-64x64-d0.08", "delta", "stride=2"):
        "96691a1618976010479f4449931d9c56905d4b76c59491c120f4a02f113a01bb",
    ("search-64x64-d0.08", "mixed", "-"):
        "64008314fdb691ce283a692d3d9c595e9a6331128130718ec27abb7fea1b1046",
    ("search-64x64-d0.08", "block", "block_size=1"):
        "d93a518a146d9234e4bdfb78ccab055e3d88ce4fee09e4c17ff73bd4815cc03f",
    ("search-64x64-d0.08", "block", "block_size=7"):
        "a57e92c016116c29810cdbfaac03ae5a123999f7e861cdcc05b96e893018ff58",
    ("search-64x64-d0.08", "block", "block_size=100"):
        "62b4d6ac6ce41c8947d7fa65081b9957c53e396959a146a0eae161820f89d016",
    ("search-64x64-d0.08", "block", "block_size=256"):
        "62b4d6ac6ce41c8947d7fa65081b9957c53e396959a146a0eae161820f89d016",
    ("search-64x64-d0.3", "csc", "-"):
        "1482bedb3a24bdd3185adfb68812e272ccc1eadbedf342162c614cdde9a08f04",
    ("search-64x64-d0.3", "delta", "stride=1"):
        "cebffd92542d7b78f2532a9998776f314f7345fba8f1f46c691075aee90f1dac",
    ("search-64x64-d0.3", "delta", "stride=2"):
        "1de953771156943477b64d7d050185e0368291aeac54d5d09eefc10f3df8b620",
    ("search-64x64-d0.3", "mixed", "-"):
        "a64483bd2b39a89cb012483785e982be92041558019ad5505931efbf3c8123e5",
    ("search-64x64-d0.3", "block", "block_size=1"):
        "da34d21332a571092e50f6116e8fc1c30bb4e6d7833a647245dd894f97ce6ec7",
    ("search-64x64-d0.3", "block", "block_size=7"):
        "a82f119a99ef7edc5d7fff1e761c1e6c56a2578e6ab0aad9d25a3e8085432050",
    ("search-64x64-d0.3", "block", "block_size=100"):
        "aae587a4fb795a5f494ac36a9cd3c675d16959bdd286f29b0e67b55b75936cb0",
    ("search-64x64-d0.3", "block", "block_size=256"):
        "aae587a4fb795a5f494ac36a9cd3c675d16959bdd286f29b0e67b55b75936cb0",
    ("search-64x96-d0.08", "csc", "-"):
        "463726517acd5947c85ec21ea3fe81c676cdcd5c5e93d7be0761b03b7a76c44f",
    ("search-64x96-d0.08", "delta", "stride=1"):
        "d577ebe041fff1e579bfeda9dad56b5b7fb70e3cb98ebf110a514edc54ff80a1",
    ("search-64x96-d0.08", "delta", "stride=2"):
        "db0ffd1e5b10aacee78b4a0e459f3a080f9d147280f90af6b510e0f16a0ae96e",
    ("search-64x96-d0.08", "mixed", "-"):
        "84568400079f655fcfbbea83db90a6c588fc00b6986859bf49e896bb43dacbbb",
    ("search-64x96-d0.08", "block", "block_size=1"):
        "7694080c14e87335cefa90022285e7a4a1684fc5c5c2d57779a6214329eb1fcc",
    ("search-64x96-d0.08", "block", "block_size=7"):
        "56f91974d9903025e478f308876f3a499a86f8d13b75438e13acf54c0b3e8fe4",
    ("search-64x96-d0.08", "block", "block_size=100"):
        "b5abb042c9959c6ae6b20510fdf516fbd2c712100f6d6e6eefdc1262fed1a82a",
    ("search-64x96-d0.08", "block", "block_size=256"):
        "b5abb042c9959c6ae6b20510fdf516fbd2c712100f6d6e6eefdc1262fed1a82a",
    ("search-64x96-d0.3", "csc", "-"):
        "c6e1c523aef7482ec9529c1152dc0992083ada24da41221865ddff6b54d37863",
    ("search-64x96-d0.3", "delta", "stride=1"):
        "ca3f9dcd3e999bc3792c8158f8edd2174f3edf78335ecadbcf9055abb7c551c9",
    ("search-64x96-d0.3", "delta", "stride=2"):
        "333f9942b5deb128ac27d782194863eb2537709c2c58aacc365f1a7f7efac00d",
    ("search-64x96-d0.3", "mixed", "-"):
        "738b48b77ba19e6364ac1541f7594da0f998b7b52c0a0915b280ca9a237bf3d5",
    ("search-64x96-d0.3", "block", "block_size=1"):
        "b649aabe5324bbba03495eaf032e44452a30400ea4928e6a0b2fd5221633fe05",
    ("search-64x96-d0.3", "block", "block_size=7"):
        "f166a70e6a48236a9e616d52bbaf1dc07308c5076894908883b4561bb3ffd6a0",
    ("search-64x96-d0.3", "block", "block_size=100"):
        "63c970b8f3f63e99a956388b73c5adc903b84c14fd5760093ea433a2b3244bf4",
    ("search-64x96-d0.3", "block", "block_size=256"):
        "63c970b8f3f63e99a956388b73c5adc903b84c14fd5760093ea433a2b3244bf4",
    ("search-64x128-d0.08", "csc", "-"):
        "924a25bbfdb66745fc9be48dbd9ce3a03f2e022fd00e7f5f7e48b28d9ce1b26a",
    ("search-64x128-d0.08", "delta", "stride=1"):
        "a6a854c2f2bdc92e3df8e0a37ce8d485816954a73f3b6c2f0954334ff69bebd2",
    ("search-64x128-d0.08", "delta", "stride=2"):
        "9b4de087e4715b15a11c20970a8aa90272f83f29528cf8fb207fa4b337ce5c61",
    ("search-64x128-d0.08", "mixed", "-"):
        "e8c9d45f63d390091b674dc151cd162df450c827ffff87148745500f47851abc",
    ("search-64x128-d0.08", "block", "block_size=1"):
        "c1913f2c6c1795163f3294789df5a8aa56a8c8545f3f56671a2e1ed4e5b5c3ea",
    ("search-64x128-d0.08", "block", "block_size=7"):
        "046633cb7dcb564979584373c2598cc425db2a536a98e65228ccd6c6854492e3",
    ("search-64x128-d0.08", "block", "block_size=100"):
        "1a44f6b0ad990f004a054c7bdf3ede0d06c656f2766278fd89917f1223e27884",
    ("search-64x128-d0.08", "block", "block_size=256"):
        "1a44f6b0ad990f004a054c7bdf3ede0d06c656f2766278fd89917f1223e27884",
    ("search-64x128-d0.3", "csc", "-"):
        "6d4e8adce3982cdf43c5e14d95eb0879161468f96d3bccc36ba96eaec5ba7ecc",
    ("search-64x128-d0.3", "delta", "stride=1"):
        "c6822e87e0b4525a6a26681e205bf8dae8e060d24dc9428f2c5a47585f0b11c3",
    ("search-64x128-d0.3", "delta", "stride=2"):
        "114d7b72f390a26370f69a39228d53c0353bcec3b21e298713920e8147afb9a1",
    ("search-64x128-d0.3", "mixed", "-"):
        "a2f38619d61e3146470e1def156a6952e81a1f0a3c3e1ada51aaa9c380cb4cb9",
    ("search-64x128-d0.3", "block", "block_size=1"):
        "c6d2b4c4e25aedf417add8cffadd9f3bbe69e74da37efe7c656e61b3ef81ff4c",
    ("search-64x128-d0.3", "block", "block_size=7"):
        "974ed33aea8cb2f70495ecb7380652085f6cebe7f490c1e7a878fc08c837305e",
    ("search-64x128-d0.3", "block", "block_size=100"):
        "72e78db3ad14b700a14f347f98b4c1acb334a1b88e9274d5d23cd9616130b6b5",
    ("search-64x128-d0.3", "block", "block_size=256"):
        "72e78db3ad14b700a14f347f98b4c1acb334a1b88e9274d5d23cd9616130b6b5",
    ("search-64x192-d0.08", "csc", "-"):
        "d7fce9be1129f6b327e3d73497706e91666a292d32cd870d95ec4bcd53538082",
    ("search-64x192-d0.08", "delta", "stride=1"):
        "9d9516f48ceaa31c68d4887e3d40e87174dc7cd1cb58249f03514ccc8cf28e33",
    ("search-64x192-d0.08", "delta", "stride=2"):
        "3f3b1343f1b4fe112c03c5a88e2b8add941bea90ad23b622be10850281ed4fec",
    ("search-64x192-d0.08", "mixed", "-"):
        "935b7fdcc5277d776998310e9acac2152f2af56565468ec4d472511af7048296",
    ("search-64x192-d0.08", "block", "block_size=1"):
        "9a004d1a44aeb29bfe22488b7f118322bd8b219717cd329a0d9a1803cd5c3e7b",
    ("search-64x192-d0.08", "block", "block_size=7"):
        "c6e894f47ef164feaa4a23af835b09d59a54eb169fb4dd57d976dd148f895795",
    ("search-64x192-d0.08", "block", "block_size=100"):
        "920a6dee1eaa7ab12f1532ed836c2e3c23e45114941e81a32f32fc32434efb87",
    ("search-64x192-d0.08", "block", "block_size=256"):
        "920a6dee1eaa7ab12f1532ed836c2e3c23e45114941e81a32f32fc32434efb87",
    ("search-64x192-d0.3", "csc", "-"):
        "52a30a8784ed80c2bfdca2261121d66944e71d0a1c305c2017c9367465c26d5e",
    ("search-64x192-d0.3", "delta", "stride=1"):
        "74471383e81752a60da4aaf493ee656fc1c3df902f811d0f29cde93c08c20877",
    ("search-64x192-d0.3", "delta", "stride=2"):
        "06a53d438d7934fe187ef549f913a6736921d8e2e5199d678d45a25b2b17f1ce",
    ("search-64x192-d0.3", "mixed", "-"):
        "bb4e88f2ee9b0683ef4e5d660420434014c653fe067514fc472451fdbc2d056e",
    ("search-64x192-d0.3", "block", "block_size=1"):
        "e821b7dd896852e193be96058f62f111f698dba1ef6ece4368314e263388b2b7",
    ("search-64x192-d0.3", "block", "block_size=7"):
        "4f49fce106511b3996651c5fef35daebe5685efc519a9b6b07760a40b1338232",
    ("search-64x192-d0.3", "block", "block_size=100"):
        "db74c796eb26b885b71e4d6b9b48c9b23ca8dde2cf3f6a0add0c68468f0fe2d4",
    ("search-64x192-d0.3", "block", "block_size=256"):
        "db74c796eb26b885b71e4d6b9b48c9b23ca8dde2cf3f6a0add0c68468f0fe2d4",
    ("search-64x256-d0.08", "csc", "-"):
        "3dc9a2a84b1b913da19d0f1187c1366e8b31e23dd24b2aff3a92c7506753b16a",
    ("search-64x256-d0.08", "delta", "stride=1"):
        "60f0ad22be4070b22bf7a60b50528354e3877ec8de687938018f7ea3c5d59b0c",
    ("search-64x256-d0.08", "delta", "stride=2"):
        "d36a9fc65d9aae2d4441746c2681b5780cec0714fc4a9800867cc7c62454ed2f",
    ("search-64x256-d0.08", "mixed", "-"):
        "92e1e0e2650d37ba98b300eaff1fba96cb88471394534e12d118ff28c1029226",
    ("search-64x256-d0.08", "block", "block_size=1"):
        "6ecc867eb71a7fd80108632ebe8f0836ab52254bfa75f711c1a528c6052909e7",
    ("search-64x256-d0.08", "block", "block_size=7"):
        "8beeef3e4a58bfcc5ee7f4a0d39e475fc7c6869848e2ce26933b460f4984a4a0",
    ("search-64x256-d0.08", "block", "block_size=100"):
        "59fdf363d2fce71eed6a527142c53bf0d7f2747abb9a6c9b7c3abcd82bd67237",
    ("search-64x256-d0.08", "block", "block_size=256"):
        "59fdf363d2fce71eed6a527142c53bf0d7f2747abb9a6c9b7c3abcd82bd67237",
    ("search-64x256-d0.3", "csc", "-"):
        "644f1b4cabbcceb488edfb3f19eb05033f8d00025bd84cef8b4f6e9f80a64418",
    ("search-64x256-d0.3", "delta", "stride=1"):
        "80bb5f24f4d45b4c2725665e2aaca5c4dbdec476e9dec0624c7d4f33a882ec98",
    ("search-64x256-d0.3", "delta", "stride=2"):
        "b240c93faa3378b035ade3d88d1c240731de8e32f82c8e7c7b91aa16b4dd5703",
    ("search-64x256-d0.3", "mixed", "-"):
        "1aff42ac17211091fdcd1b0f0db3aec9646ef603cefb3fa2bf8f26356feefb75",
    ("search-64x256-d0.3", "block", "block_size=1"):
        "138dca4ea0b1345d70e71dc8b907e905c7811d1fdf228a8fa55da33cf2312ad7",
    ("search-64x256-d0.3", "block", "block_size=7"):
        "dbc0c478c6de14adb6ac649f2eabcaccf813b347a6a5395cb34d3872886c6ddd",
    ("search-64x256-d0.3", "block", "block_size=100"):
        "19e2c9e6df5a587fa8ad43c02c544095236c8447d9c91580868dbdf8808c664a",
    ("search-64x256-d0.3", "block", "block_size=256"):
        "19e2c9e6df5a587fa8ad43c02c544095236c8447d9c91580868dbdf8808c664a",
    ("search-256x10-d0.08", "csc", "-"):
        "74d7accbff6c3f66f8065d97bdc63c510a375c895277b7bcf5c85e5674835c92",
    ("search-256x10-d0.08", "delta", "stride=1"):
        "1574f411c8d9e525ce24f2fa663e6de618ea50769261718724054c83d7a15f59",
    ("search-256x10-d0.08", "delta", "stride=2"):
        "327363f6394ee2a5c9db42637a0b247dd8ad70b6d572a7075451211d8ea5736c",
    ("search-256x10-d0.08", "mixed", "-"):
        "6764654f8f18fa48024d81dcf7d3a6db0d73c54d2e2e5eb6245ad438a6a23dc4",
    ("search-256x10-d0.08", "block", "block_size=1"):
        "ac7b442998fc105868fca2fafb97d57d536788538cb9cd03265bc0101139ca96",
    ("search-256x10-d0.08", "block", "block_size=7"):
        "c94fbd22e0fb3ac77f437d781dda7224fa0db9453dbde1c95dab048abb2cc3cc",
    ("search-256x10-d0.08", "block", "block_size=100"):
        "932f82e342e26778b049132b742fe9961faaf91c6bb2076dbd779d536b700d0d",
    ("search-256x10-d0.08", "block", "block_size=256"):
        "13a41befeb3d17cca44594f086eb7a1878fd2391697a5404a5b285627c0978e6",
    ("search-256x10-d0.3", "csc", "-"):
        "d3e17794a3a0066c8aa9b803118a78c0b3ceb6b63a2fd4d9264a2127e588787f",
    ("search-256x10-d0.3", "delta", "stride=1"):
        "a3d5ceb8f9e5472b1082fccd69d946e0d06756a3d3e3b15985d858cca703c808",
    ("search-256x10-d0.3", "delta", "stride=2"):
        "0c5c5bd85d3cd2365983a25ffa6524750259c31ab20131d078700cee32e10c16",
    ("search-256x10-d0.3", "mixed", "-"):
        "e32cae63452a98fa23a79972f28a423bb7167830b0f25876f69a0b54724704a2",
    ("search-256x10-d0.3", "block", "block_size=1"):
        "8101c03cc265b5fca6810eb27be3f22d545f93c26fc5bd18eb21fd3e08c20b43",
    ("search-256x10-d0.3", "block", "block_size=7"):
        "b679d8ee4b7735c39281ba149fcfa3436e7348e01389d9e930ae937dc6615090",
    ("search-256x10-d0.3", "block", "block_size=100"):
        "f8a4953646c5f5954360d0f10efcef39f4e7e6cc096fb174f7e65324f007ae5b",
    ("search-256x10-d0.3", "block", "block_size=256"):
        "36724a2e7e1ebd78c89e48b7ed4681280ffa01aea48fdc37f8359c8a2378848d",
}


KEYS = [
    (case, fmt, option_label(options)) for case in CASES
    for fmt, options in FORMATS
]


def test_table_covers_every_case_and_format():
    assert sorted(DIGESTS) == sorted(KEYS)


@pytest.mark.parametrize("case", list(CASES))
def test_bytes_match_the_recorded_digest(case):
    matrix = CASES[case]()
    for fmt, options in FORMATS:
        key = (case, fmt, option_label(options))
        assert digest(fmt, options, matrix) == DIGESTS[key], key


if __name__ == "__main__":
    for case, build in CASES.items():
        matrix = build()
        for fmt, options in FORMATS:
            key = (case, fmt, option_label(options))
            print(f'    ("{case}", "{fmt}", "{key[2]}"):\n'
                  f'        "{digest(fmt, options, matrix)}",')
