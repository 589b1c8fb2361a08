"""Dataset generators: shapes, determinism, balance, difficulty ordering,
byte identity and a bounded working set."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.datasets import (
    EVALUATION_DATASETS,
    Dataset,
    dataset_names,
    load,
    make_cifar5_like,
    make_digits_like,
    make_fashion_like,
    make_mnist_like,
)
from repro.datasets.base import CHUNK_ROWS
from repro.errors import ConfigurationError

SMALL = {"n_train": 200, "n_test": 60}

MAKERS = {
    "digits_like": make_digits_like,
    "mnist_like": make_mnist_like,
    "fashion_like": make_fashion_like,
    "cifar5_like": make_cifar5_like,
}


class TestRegistry:
    def test_all_four_registered(self):
        assert set(dataset_names()) == {
            "digits_like", "mnist_like", "fashion_like", "cifar5_like"
        }

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            load("imagenet")

    def test_memoization_returns_same_object(self):
        a = load("digits_like", **SMALL, seed=5)
        b = load("digits_like", **SMALL, seed=5)
        assert a is b

    @pytest.mark.parametrize("sizes, shown", [
        ({"n_train": 0}, "n_train >= 1, got 0"),
        ({"n_test": 0}, "n_test >= 1, got 0"),
        ({"n_train": -3}, "n_train >= 1, got -3"),
    ])
    def test_sizes_below_one_are_rejected(self, sizes, shown):
        with pytest.raises(ConfigurationError) as raised:
            load("digits_like", **sizes)
        assert str(raised.value) == f"dataset 'digits_like' needs {shown}"

    def test_evaluation_datasets_are_the_paper_trio(self):
        assert EVALUATION_DATASETS == (
            "mnist_like", "fashion_like", "cifar5_like"
        )


@pytest.mark.parametrize(
    "name,features,classes,shape",
    [
        ("digits_like", 64, 10, (8, 8)),
        ("mnist_like", 784, 10, (28, 28)),
        ("fashion_like", 784, 10, (28, 28)),
        ("cifar5_like", 3072, 5, (32, 32, 3)),
    ],
)
class TestGeneratorContracts:
    def test_shapes_and_metadata(self, name, features, classes, shape):
        ds = load(name, **SMALL, seed=1)
        assert ds.num_features == features
        assert ds.num_classes == classes
        assert ds.image_shape == shape
        assert ds.x_train.shape == (SMALL["n_train"], features)
        assert ds.x_test.shape == (SMALL["n_test"], features)
        assert ds.x_train.dtype == np.float32

    def test_values_in_unit_range(self, name, features, classes, shape):
        ds = load(name, **SMALL, seed=1)
        assert float(ds.x_train.min()) >= 0.0
        assert float(ds.x_train.max()) <= 1.0

    def test_deterministic_under_seed(self, name, features, classes, shape):
        a = load(name, n_train=40, n_test=10, seed=7)
        b = MAKERS[name](n_train=40, n_test=10, seed=7)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self, name, features, classes, shape):
        a = load(name, n_train=30, n_test=10, seed=1)
        b = load(name, n_train=30, n_test=10, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_prefixes_are_class_balanced(self, name, features, classes,
                                         shape):
        ds = load(name, **SMALL, seed=1)
        counts = np.bincount(ds.y_train[: classes * 4],
                             minlength=classes)
        assert (counts == 4).all()

    def test_classes_are_separable_by_centroids(
        self, name, features, classes, shape
    ):
        # A trivially weak classifier must still beat chance by a wide
        # margin, or the dataset carries no class signal.
        ds = load(name, n_train=400, n_test=100, seed=1)
        centroids = np.stack(
            [
                ds.x_train[ds.y_train == c].mean(axis=0)
                for c in range(classes)
            ]
        )
        distances = (
            ((ds.x_test[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        )
        predictions = distances.argmin(axis=1)
        assert (predictions == ds.y_test).mean() > 2.0 / classes


class TestDatasetContainer:
    def test_validation_split_partitions(self):
        ds = load("digits_like", **SMALL, seed=1)
        x_tr, y_tr, x_val, y_val = ds.split_validation(0.25, seed=0)
        assert len(x_tr) + len(x_val) == len(ds.x_train)
        assert len(x_val) == int(len(ds.x_train) * 0.25)
        assert len(x_tr) == len(y_tr)

    def test_validation_split_is_deterministic(self):
        ds = load("digits_like", **SMALL, seed=1)
        a = ds.split_validation(0.2, seed=3)
        b = ds.split_validation(0.2, seed=3)
        assert np.array_equal(a[0], b[0])

    def test_invalid_fraction(self):
        ds = load("digits_like", **SMALL, seed=1)
        with pytest.raises(ConfigurationError):
            ds.split_validation(0.0)

    def test_subset(self):
        ds = load("digits_like", **SMALL, seed=1)
        sub = ds.subset(50, 20)
        assert len(sub.x_train) == 50
        assert len(sub.x_test) == 20

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(
                name="bad",
                x_train=np.zeros((3, 4), np.float32),
                y_train=np.zeros(2, np.int64),
                x_test=np.zeros((1, 4), np.float32),
                y_test=np.zeros(1, np.int64),
                num_classes=2,
                image_shape=(2, 2),
            )


def test_difficulty_ordering_matches_paper():
    """mnist < fashion < cifar5 in difficulty, measured by one fixed small
    trained classifier, chance-normalized across class counts."""
    from repro.nn import (
        Adam, DenseLayer, ReLULayer, Sequential, TrainConfig, Trainer,
    )

    scores = {}
    for name in EVALUATION_DATASETS:
        ds = load(name, n_train=800, n_test=200, seed=2)
        x_tr, y_tr, x_val, y_val = ds.split_validation(seed=0)
        rng = np.random.default_rng(0)
        model = Sequential(
            [DenseLayer(ds.num_features, 16, rng), ReLULayer(),
             DenseLayer(16, ds.num_classes, rng)]
        )
        Trainer(model, Adam(0.003), rng=np.random.default_rng(1)).fit(
            x_tr, y_tr, x_val, y_val, TrainConfig(epochs=12)
        )
        raw = model.accuracy(ds.x_test, ds.y_test)
        scores[name] = (raw - 1 / ds.num_classes) / (1 - 1 / ds.num_classes)
    assert scores["mnist_like"] > scores["fashion_like"]
    assert scores["fashion_like"] > scores["cifar5_like"]


def digest(dataset: Dataset) -> str:
    """sha256 over the bytes of x_train, y_train, x_test and y_test."""
    h = hashlib.sha256()
    for array in (dataset.x_train, dataset.y_train,
                  dataset.x_test, dataset.y_test):
        h.update(array.tobytes())
    return h.hexdigest()


#: ``digest`` of each generator at (name, n_train, n_test, seed), ``None``
#: for its default size.  Computed with the one-sample-at-a-time renderers
#: that the chunked ones replaced, by the command that prints this table:
#:
#:     PYTHONPATH=src python tests/datasets/test_generators.py
#:
#: The bytes must never change: search-unit cache keys carry only the
#: dataset's name, sizes and seed, and fig6's carry no dataset identity at
#: all, so changed data would silently mix with cached results.  Rows 31,
#: 32 and 33 straddle ``CHUNK_ROWS``; 1, 7 and 33 are not multiples of
#: the class count; 600/200 at seed 3 is perfbench's model data, and
#: default-size digits_like at seeds 4-7 is what ``perfbench --seed 1``
#: sweeps.
DIGESTS = {
    ("digits_like", 1, 1, 0):
        "79bfbd471ed4a0638870f7e89ac91ebbfb98c947d308d224793fc201c9800571",
    ("digits_like", 7, 2, 0):
        "37f3feb6d92b7675f3e2a8599596a20d589baa6af142736ffeba5d9b5be676b3",
    ("digits_like", 33, 9, 0):
        "ce58ebcc9eb7ed55a46dd1f2a0ab66a316f2473046c970934fa7d7273f7e7c62",
    ("digits_like", 31, 31, 1):
        "e0396f904b2f1cda1c0d14c375f45e864d1ba2bf5ff6ee4d5806dcdc917a4438",
    ("digits_like", 32, 32, 1):
        "67ff3c1052f0f9565c0a82ad22401bfa80032bb9b22a6090a35e35f18578ef93",
    ("digits_like", 33, 33, 1):
        "382b2a4634aa37a02ab080138a1afc8cb699cab6b6cd2e7df09bea1cab4671c8",
    ("digits_like", 65, 63, 2):
        "31ad5ca9bb3e1bda5e9e20b0030c202086331da4899fede22f3286e1dcde3b3f",
    ("digits_like", 400, 100, 0):
        "089eceb28c51e43c18d89e9d67a21dac7fcf429851685cc3324696e26193d677",
    ("digits_like", 400, 100, 1):
        "22871f3a7963fafd3d1d5dd8784caf27b56e29755f031de8716c0d0279fcf317",
    ("mnist_like", 1, 1, 0):
        "cbc4a56a5c344e726bd1ee3d7e6e87f448c19abe23ff3f9049123c224e8eb372",
    ("mnist_like", 7, 2, 0):
        "dcead4baf38476313139802cfb26a3aed81a5590171ae9a45b03411d109541ba",
    ("mnist_like", 33, 9, 0):
        "0c52cfcd02f8f160fb709fcbc688c5922878dfdf6f5ba688634be54f26d2ae0c",
    ("mnist_like", 31, 31, 1):
        "efea9ad5ace2534d48472e043e1a3789435b1fdb7cbb6e26b6d78b6581f8b4e2",
    ("mnist_like", 32, 32, 1):
        "6c0eaa16bcc9dbd8a9537201815fd2391ccedd2c48f7855c5ee66d9406ccd8e1",
    ("mnist_like", 33, 33, 1):
        "24eabfd49a5675f8f072a9cae661604e1637f8af6eb10d5a80d3bd3c4822b217",
    ("mnist_like", 65, 63, 2):
        "0b168ce696327c05a150cb5554730198c832d0116dbd7598efb8793dd63a31a0",
    ("mnist_like", 400, 100, 0):
        "3ec24f9c6abcc0152a2e1f388fa4842d63361e7d88a780c07550965161d97acb",
    ("mnist_like", 400, 100, 1):
        "88065ee8d88ee7be7bc982f1eb472a4391757fb2b85ff1a362fa022df51d729e",
    ("fashion_like", 1, 1, 0):
        "1de7d775532514a4cf15d11bb26ace1c43d88aab9c2b805d20bc66484053e947",
    ("fashion_like", 7, 2, 0):
        "301708aa75e422936d179672a1211b91a9645382e29a356542ae5869d251fae5",
    ("fashion_like", 33, 9, 0):
        "4741ce78eee32f0c41550f33a5e66923f1fa9dec4b66a56c1f7907f364c2b470",
    ("fashion_like", 31, 31, 1):
        "0cdd828e0ac6c7a4f180a2060aeb1637a5a200871f3535466b2e403a834c4167",
    ("fashion_like", 32, 32, 1):
        "707a87a07a09ce94da63b2f39881acb5973419aa8ed71b905805d8dfb07c5717",
    ("fashion_like", 33, 33, 1):
        "30f350a0fd5d54aee00df956331fa07c2dc95858d184da9f1f0199171a4d2fff",
    ("fashion_like", 65, 63, 2):
        "ce83228492f5ab4b81097866833f986e4e93c53652b5ed40c122559139e4c451",
    ("fashion_like", 400, 100, 0):
        "9b3642f1d9612e6b1b445a36fdfcf7eaf6a273620049dc423e6fa3069373e397",
    ("fashion_like", 400, 100, 1):
        "a18d7a7f694f632173c74599356cdd6a179d911830d8ec855a00999acdab03c5",
    ("cifar5_like", 1, 1, 0):
        "ab6e20d9e8cc0d3a039f6e723075ce473fd43285df8fb631599521222d129b1e",
    ("cifar5_like", 7, 2, 0):
        "471154ae4f82927f3e4d13d2693b2bf4349788075259a6fc680917ac1029be13",
    ("cifar5_like", 33, 9, 0):
        "9551c1e21189381afc8f238b4a0e7206bb9544757d8db57e47d8293339376062",
    ("cifar5_like", 31, 31, 1):
        "b512cd00e22d966e4f1684e34769e1acbd5c7f4077c3ba4e549aea09a966cc02",
    ("cifar5_like", 32, 32, 1):
        "305aaf8f51fc66ce6d3bf656d27fc9cd49967870c4cd239d0b1bf3d4e2b19272",
    ("cifar5_like", 33, 33, 1):
        "16be7de3b501092a725aea27b3d6159c75456ebe9b1de659f04433033d716ca4",
    ("cifar5_like", 65, 63, 2):
        "f32ee358e8641c63c8c83e91a32b9c6e53a03685b92270311d4d57c1a06fc103",
    ("cifar5_like", 400, 100, 0):
        "037bdb72774941ead470b57058dfbb5604e8099765695ce52161ffebdf82c2da",
    ("cifar5_like", 400, 100, 1):
        "af8f99869f965cb1f040c35fcbe7a55d76092e0aaf7429439ee7620c21a7753e",
    ("digits_like", 600, 200, 3):
        "4a0bb016dda3b12e7b34f4f02ae5d064b28c2d9b6c2c774c65f5474fc58fc44d",
    ("digits_like", None, None, 4):
        "7b5c50064afe6a91c71a2f3b069b40ae45aa88de63cb52c4b24ca272c41bb214",
    ("digits_like", None, None, 5):
        "9b43026c0073c20013c457db9e0ee2ae740f09a4efd281678beeda5f0e169afc",
    ("digits_like", None, None, 6):
        "1161b5307db99f254fed27ce9b5d17662fa7a10b7bee1152e96c9ba1158fb589",
    ("digits_like", None, None, 7):
        "b96fbe858843a11f4cfe0aa5f67181960febbc32c40b1a99cb6b213c2981a851",
}


@pytest.mark.parametrize(
    "name, n_train, n_test, seed", list(DIGESTS),
    ids=[f"{k[0]}-{k[1]}x{k[2]}-s{k[3]}" for k in DIGESTS],
)
def test_bytes_match_the_recorded_digest(name, n_train, n_test, seed):
    dataset = MAKERS[name](n_train=n_train, n_test=n_test, seed=seed)
    assert digest(dataset) == DIGESTS[name, n_train, n_test, seed]


def test_digest_table_straddles_the_chunk_size():
    assert CHUNK_ROWS == 32, "move the 31/32/33 rows of DIGESTS with it"


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_working_set_does_not_grow_with_rows(name):
    """Ten times the rows raise the traced peak by no more than the
    output arrays grow, plus a fixed slack: generation holds one chunk's
    working set at a time, whatever the row count."""
    make = MAKERS[name]
    make(n_train=40, n_test=10, seed=0)   # fill the template caches

    def traced(n_train, n_test):
        tracemalloc.start()
        try:
            dataset = make(n_train=n_train, n_test=n_test, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in (dataset.x_train, dataset.y_train,
                                        dataset.x_test, dataset.y_test))
        return peak, output

    small_peak, small_output = traced(40, 10)
    large_peak, large_output = traced(400, 100)
    slack = 1 << 20
    assert large_peak - small_peak <= large_output - small_output + slack


if __name__ == "__main__":
    for key in DIGESTS:
        name, n_train, n_test, seed = key
        dataset = MAKERS[name](n_train=n_train, n_test=n_test, seed=seed)
        print(f'    ("{name}", {n_train}, {n_test}, {seed}):\n'
              f'        "{digest(dataset)}",')
