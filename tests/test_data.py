"""Data pipeline: IDX parsing, synthesis, partitioning, poison transforms."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fedsim.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    MNIST_LIKE_SEED,
    Dataset,
    Partition,
    flip_labels,
    insert_backdoor,
    load_idx,
    make_mnist_like,
    mix_poison,
    mnist_available,
    partition_non_iid,
    sample_class_partition,
    synthesize,
    train_test_split,
)
from fedsim.errors import ConfigurationError, DataFormatError

from conftest import make_small_dataset
from oracles import (
    mix_poison_by_gather,
    partition_non_iid_by_gather,
    sample_class_partition_by_gather,
    split_by_gather,
    synthesize_by_blocks,
    write_idx,
)


def oracle_idx_features(pixels):
    """The three-copy `load_idx` conversion: cast, scale, append the bias."""
    X = pixels.reshape(len(pixels), -1).astype(np.float64) / 255.0
    return np.hstack([X, np.ones((len(X), 1), dtype=X.dtype)])


def peak_ratio(build):
    """Peak traced allocation while `build()` runs, over the bytes of the
    arrays it returns."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        datasets = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    live = sum(ds.X.nbytes + ds.y.nbytes for ds in datasets)
    return (peak - base) / live


def write_fixture(tmp_path, pixels, labels, image_magic=IDX_IMAGE_MAGIC,
                  label_magic=IDX_LABEL_MAGIC, truncate_images=0,
                  label_count=None):
    """Hand-built IDX pair; pixels is (n, rows, cols) uint8."""
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    count = len(labels) if label_count is None else label_count
    lbl_path.write_bytes(struct.pack(">II", label_magic, count)
                         + bytes(labels[:count]))
    return str(img_path), str(lbl_path)


class TestLoadIdx:
    def test_round_trip_exact_pixels(self, tmp_path):
        pixels = np.array([[[0, 128], [255, 51]],
                           [[10, 20], [30, 40]]], dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, [3, 1])
        ds = load_idx(img, lbl)
        assert len(ds) == 2
        assert ds.num_features == 5  # 4 pixels + bias
        assert np.allclose(ds.X[0, :4], pixels[0].ravel() / 255.0)
        assert np.all(ds.X[:, -1] == 1.0)
        assert list(ds.y) == [3, 1]

    def test_bad_image_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, [0], image_magic=0xDEADBEEF)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, [0], label_magic=0x12345678)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lbl)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, [0, 1], truncate_images=3)
        with pytest.raises(DataFormatError, match="truncated") as exc:
            load_idx(img, lbl)
        assert exc.value.offset == 16 + 8 - 3

    def test_empty_file(self, tmp_path):
        img = tmp_path / "empty"
        img.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_idx(str(img), str(img))

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, [0, 1], label_count=2)
        with pytest.raises(DataFormatError, match="count"):
            load_idx(img, lbl)

    def test_write_then_load(self, tmp_path):
        ds = synthesize(seed=1, num_classes=3, num_features=6,
                        examples_per_class=[5, 5, 5])
        img, lbl = str(tmp_path / "i"), str(tmp_path / "l")
        write_idx(ds, img, lbl)
        back = load_idx(img, lbl)
        assert np.array_equal(back.y, ds.y)
        # values survive up to uint8 quantization
        assert np.max(np.abs(back.X[:, :-1] - ds.X[:, :-1])) <= 0.5 / 255.0 + 1e-12


class TestOneBufferLoaders:
    """The loaders write each row once into one buffer; the values must be
    exactly those of the stack-then-append forms they replaced."""

    @pytest.mark.parametrize("kwargs", [
        dict(num_features=12, examples_per_class=[30, 20, 25]),
        dict(num_features=12, examples_per_class=[30, 20, 25], dead_features=4),
        dict(num_features=12, examples_per_class=[30, 20, 25],
             centroid_sparsity=0.3, dead_features=2),
        dict(num_features=9, examples_per_class=[200, 1, 7],
             centroid_sparsity=0.5, noise_scale=0.3),
        dict(num_features=5, examples_per_class=[1, 1, 1], dead_features=1),
    ])
    def test_synthesize_matches_block_oracle(self, kwargs):
        got = synthesize(seed=11, num_classes=3, **kwargs)
        want = synthesize_by_blocks(seed=11, num_classes=3, **kwargs)
        assert got.X.dtype == want.X.dtype and got.y.dtype == want.y.dtype
        assert np.array_equal(got.X, want.X)
        assert np.array_equal(got.y, want.y)

    def test_mnist_like_matches_block_oracle(self):
        train, test = make_mnist_like()
        full = synthesize_by_blocks(seed=MNIST_LIKE_SEED, num_classes=10,
                                    num_features=784,
                                    examples_per_class=[2000] * 10,
                                    noise_scale=0.12, centroid_sparsity=0.15,
                                    dead_features=196)
        want_train, want_test = split_by_gather(full, 0.5,
                                                seed=MNIST_LIKE_SEED + 1)
        del full
        assert np.array_equal(train.X, want_train.X)
        assert np.array_equal(train.y, want_train.y)
        assert np.array_equal(test.X, want_test.X)
        assert np.array_equal(test.y, want_test.y)

    def test_load_idx_matches_cast_scale_append(self, tmp_path):
        values = np.arange(256, dtype=np.uint8)
        pixels = np.stack([values.reshape(16, 16),
                           values[::-1].reshape(16, 16)])
        img, lbl = write_fixture(tmp_path, pixels, [0, 1])
        ds = load_idx(img, lbl)
        assert np.array_equal(ds.X, oracle_idx_features(pixels))
        assert ds.y.dtype == np.int64

    def test_synthesis_peak_memory(self):
        # Stack-then-append peaked at 3.05x the returned arrays, and one
        # buffer with a copying shuffle and split at 2.05x.
        ratio = peak_ratio(lambda: make_mnist_like(train_per_class=100,
                                                   test_per_class=100))
        assert ratio <= 2.25

    def test_mnist_like_peak_memory(self):
        # The buffer plus one class's noise draw: the shuffle and the split
        # reorder the buffer in place.
        assert peak_ratio(make_mnist_like) <= 1.2

    def test_load_idx_peak_memory(self, tmp_path):
        # Cast, scale and append made three float64 copies (2.12x); the
        # buffer plus the raw uint8 bytes come to about 1.13x.
        pixels = np.random.default_rng(0).integers(
            0, 256, size=(3000, 28, 28), dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, pixels, list(range(10)) * 300)
        del pixels
        ratio = peak_ratio(lambda: [load_idx(img, lbl)])
        assert ratio <= 1.3


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(seed=9, num_classes=3, num_features=10,
                       examples_per_class=[4, 5, 6])
        b = synthesize(seed=9, num_classes=3, num_features=10,
                       examples_per_class=[4, 5, 6])
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_class_counts_exact(self):
        ds = synthesize(seed=2, num_classes=2, num_features=8,
                        examples_per_class=[2800, 5])
        assert int(np.sum(ds.y == 0)) == 2800
        assert int(np.sum(ds.y == 1)) == 5

    def test_values_in_unit_range(self):
        ds = synthesize(seed=4, num_classes=2, num_features=8,
                        examples_per_class=[50, 50], noise_scale=0.5)
        assert ds.X.min() >= 0.0
        assert ds.X.max() <= 1.0

    def test_separable_classes_learnable(self, small_dataset):
        # a softmax trained on the full dataset reaches high train accuracy
        from fedsim.metrics import accuracy
        from fedsim.model import gradient, sgd_step

        params = np.zeros((small_dataset.num_classes, small_dataset.num_features))
        for _ in range(300):
            params = sgd_step(
                params, gradient(params, small_dataset.X, small_dataset.y, 1e-4),
                0.5)
        assert accuracy(params, small_dataset.X, small_dataset.y) >= 0.99

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            synthesize(seed=1, num_classes=2, num_features=4,
                       examples_per_class=[5])
        with pytest.raises(ConfigurationError):
            synthesize(seed=1, num_classes=2, num_features=4,
                       examples_per_class=[5, 0])

    def test_dead_features_near_zero(self):
        ds = synthesize(seed=1, num_classes=2, num_features=20,
                        examples_per_class=[30, 30], dead_features=5)
        # dead region sits just before the bias column
        assert np.max(ds.X[:, 15:20]) < 0.1


class TestTrainTestSplit:
    def test_sizes_and_disjoint(self):
        dataset = make_small_dataset()
        n = len(dataset)
        train, test = train_test_split(dataset, 0.3, seed=1)
        assert len(train) + len(test) == n
        assert len(test) == int(round(0.3 * n))

    def test_invalid_fraction(self, small_dataset):
        with pytest.raises(ConfigurationError):
            train_test_split(small_dataset, 1.0, seed=1)


class TestOneBufferLayout:
    """Train/test are views of one buffer and partitions are row indices
    into it; every array must equal the copy-per-step oracle's."""

    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.01])
    def test_split_matches_gather_oracle(self, fraction):
        want_train, want_test = split_by_gather(make_small_dataset(), fraction, seed=4)
        dataset = make_small_dataset()
        train, test = train_test_split(dataset, fraction, seed=4)
        for got, want in ((train, want_train), (test, want_test)):
            assert np.array_equal(got.X, want.X)
            assert np.array_equal(got.y, want.y)
            assert got.name == want.name
        # Disjoint row ranges never overlap, so each is checked against the
        # one buffer they are views of.
        for part in (train, test):
            assert part.X.base is dataset.X and part.y.base is dataset.y
            assert np.shares_memory(part.X, dataset.X)

    def test_split_refuses_read_only(self):
        dataset = make_small_dataset()
        dataset.X.setflags(write=False)
        before = dataset.y.copy()
        with pytest.raises(ConfigurationError, match="read-only"):
            train_test_split(dataset, 0.3, seed=1)
        assert np.array_equal(dataset.y, before)

    def test_small_dataset_keeps_its_order(self, small_dataset):
        # Tests that split must build their own dataset: the session
        # fixture is shared.
        fresh = make_small_dataset()
        assert np.array_equal(small_dataset.X, fresh.X)
        assert np.array_equal(small_dataset.y, fresh.y)

    @staticmethod
    def assert_same_partition(got, want, source):
        assert got.owner_id == want.owner_id
        assert np.array_equal(got.X[got.rows], want.X)
        assert np.array_equal(got.y, want.y)
        assert got.X is source

    @pytest.mark.parametrize("clients,mix", [(4, 0.0), (2, 0.0), (4, 0.3), (3, 1.0)])
    def test_partition_non_iid_matches_gather_oracle(self, small_split, clients, mix):
        train, _ = small_split
        got = partition_non_iid(train, clients, mix, seed=6)
        want = partition_non_iid_by_gather(train, clients, mix, seed=6)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            self.assert_same_partition(g, w, train.X)
            assert np.shares_memory(g.X, train.X)

    @pytest.mark.parametrize("mix", [0.0, 0.4, 1.0])
    def test_sybil_partitions_match_gather_oracle(self, small_split, mix):
        train, _ = small_split
        base = sample_class_partition(train, 2, mix, seed=8, owner_id=5)
        want_base = sample_class_partition_by_gather(train, 2, mix, seed=8, owner_id=5)
        self.assert_same_partition(base, want_base, train.X)
        flipped = flip_labels(base, 2, 3)
        want_flipped = flip_labels(want_base, 2, 3)
        self.assert_same_partition(flipped, want_flipped, train.X)
        for fraction in (0.0, 0.35, 1.0):
            self.assert_same_partition(
                mix_poison(base, flipped, fraction, seed=9),
                mix_poison_by_gather(want_base, want_flipped, fraction, seed=9),
                train.X)

    def test_backdoor_gathers_its_rows(self, small_split):
        train, _ = small_split
        idx = np.array([5, 3, 3, 40])
        out = insert_backdoor(Partition(-1, train.X, train.y[idx], idx), 1)
        want = insert_backdoor(Partition(-1, train.X[idx], train.y[idx]), 1)
        assert np.array_equal(out.X, want.X)
        assert np.array_equal(out.y, want.y)
        assert np.array_equal(out.rows, np.arange(len(idx)))
        assert not np.shares_memory(out.X, train.X)

    def test_client_batches_match_gathered_partition(self, small_split):
        from fedsim.clients import Client, SgdConfig, client_rng

        train, _ = small_split
        sgd = SgdConfig(batch_size=30)
        got = partition_non_iid(train, 4, 0.3, seed=2)
        want = partition_non_iid_by_gather(train, 4, 0.3, seed=2)
        for g, w in zip(got, want):
            a = Client(g.owner_id, g, sgd, client_rng(1, g.owner_id))
            b = Client(w.owner_id, w, sgd, client_rng(1, w.owner_id))
            for _ in range(3):
                (Xa, ya), (Xb, yb) = a.sample_batch(), b.sample_batch()
                assert np.array_equal(Xa, Xb)
                assert np.array_equal(ya, yb)

    def test_default_rows_cover_the_source(self):
        p = Partition(0, np.zeros((3, 2)), np.array([0, 1, 2]))
        assert np.array_equal(p.rows, np.arange(3))


class TestPartitionNonIid:
    def test_mix_zero_single_class(self, small_dataset):
        parts = partition_non_iid(small_dataset, 4, 0.0, seed=0)
        assert len(parts) == 4
        for p in parts:
            assert len(np.unique(p.y)) == 1

    def test_round_robin_extra_classes(self, small_dataset):
        parts = partition_non_iid(small_dataset, 2, 0.0, seed=0)
        # 4 classes over 2 clients: each owns 2 whole classes
        for p in parts:
            assert len(np.unique(p.y)) == 2

    def test_disjoint_and_complete(self, small_dataset):
        parts = partition_non_iid(small_dataset, 4, 0.5, seed=0)
        total = sum(len(p) for p in parts)
        assert total == len(small_dataset)
        # disjointness: every example row appears exactly once across clients
        seen = np.vstack([p.X[p.rows] for p in parts])
        assert seen.shape[0] == len(small_dataset)
        assert np.array_equal(
            np.sort(seen.view([("", seen.dtype)] * seen.shape[1]), axis=0),
            np.sort(small_dataset.X.view(
                [("", small_dataset.X.dtype)] * small_dataset.X.shape[1]), axis=0),
        )

    def test_mix_one_uniform_histogram(self):
        ds = synthesize(seed=6, num_classes=4, num_features=10,
                        examples_per_class=[1000] * 4)
        parts = partition_non_iid(ds, 4, 1.0, seed=0)
        for p in parts:
            counts = np.bincount(p.y, minlength=4)
            chi = stats.chisquare(counts)
            assert chi.pvalue > 0.01

    def test_mix_half_majority_class(self, small_dataset):
        parts = partition_non_iid(small_dataset, 4, 0.5, seed=0)
        for p in parts:
            top = np.bincount(p.y, minlength=4).max()
            assert top / len(p) >= 0.5

    def test_deterministic(self, small_dataset):
        a = partition_non_iid(small_dataset, 4, 0.3, seed=5)
        b = partition_non_iid(small_dataset, 4, 0.3, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.X[pa.rows], pb.X[pb.rows])
            assert np.array_equal(pa.y, pb.y)

    def test_too_many_clients(self, small_dataset):
        with pytest.raises(ConfigurationError):
            partition_non_iid(small_dataset, 5, 0.0, seed=0)

    def test_bad_mix(self, small_dataset):
        with pytest.raises(ConfigurationError):
            partition_non_iid(small_dataset, 2, 1.5, seed=0)


class TestSampleClassPartition:
    def test_pure_source_at_mix_zero(self, small_dataset):
        p = sample_class_partition(small_dataset, 2, 0.0, seed=1)
        assert np.all(p.y == 2)

    def test_size_matches_class(self, small_dataset):
        n2 = int(np.sum(small_dataset.y == 2))
        p = sample_class_partition(small_dataset, 2, 0.5, seed=1)
        assert len(p) == n2

    def test_missing_class(self, small_dataset):
        with pytest.raises(ConfigurationError):
            sample_class_partition(small_dataset, 99, 0.0, seed=1)


class TestPoisonTransforms:
    def test_flip_labels(self):
        p = Partition(0, np.zeros((4, 3)), np.array([1, 7, 1, 2]))
        out = flip_labels(p, 1, 7)
        assert list(out.y) == [7, 7, 7, 2]
        assert out.X is p.X  # features untouched

    def test_flip_no_source_unchanged(self):
        p = Partition(0, np.zeros((2, 3)), np.array([2, 3]))
        out = flip_labels(p, 1, 7)
        assert np.array_equal(out.y, p.y)

    def test_flip_composition(self):
        p = Partition(0, np.zeros((3, 2)), np.array([1, 7, 2]))
        out = flip_labels(flip_labels(p, 1, 7), 7, 1)
        assert list(out.y) == [1, 1, 2]

    def test_flip_same_class_error(self):
        p = Partition(0, np.zeros((1, 2)), np.array([1]))
        with pytest.raises(ConfigurationError):
            flip_labels(p, 1, 1)

    def test_insert_backdoor_defaults(self):
        X = np.zeros((3, 5))  # 4 raw features + bias
        p = Partition(0, X, np.array([0, 1, 2]))
        out = insert_backdoor(p, target_class=2)
        assert np.all(out.y == 2)
        assert np.all(out.X[:, 3] == 1.0)  # last raw feature
        assert np.all(p.X == 0.0)  # input not mutated

    def test_insert_backdoor_explicit_trigger(self):
        p = Partition(0, np.full((2, 4), 0.5), np.array([0, 1]))
        out = insert_backdoor(p, 1, trigger=0, trigger_value=0.9)
        assert np.all(out.X[:, 0] == 0.9)
        assert np.all(out.X[:, 1] == 0.5)

    def test_backdoor_trigger_out_of_range(self):
        p = Partition(0, np.zeros((1, 4)), np.array([0]))
        with pytest.raises(ConfigurationError):
            insert_backdoor(p, 1, trigger=10)

    @staticmethod
    def zeros_and_ones(n):
        """An honest partition of n zero rows and a poisoned one of n one
        rows, both indexing one shared source."""
        X = np.zeros((2 * n, 2))
        X[n:] = 1.0
        honest = Partition(0, X, np.zeros(n, dtype=int), np.arange(n))
        poisoned = Partition(0, X, np.ones(n, dtype=int), np.arange(n, 2 * n))
        return honest, poisoned

    def test_mix_poison_counts(self):
        honest, poisoned = self.zeros_and_ones(100)
        out = mix_poison(honest, poisoned, 0.8, seed=1)
        assert len(out) == 100
        assert int(np.sum(out.y == 1)) == 80
        assert np.array_equal(out.X[out.rows][:, 0], out.y)

    def test_mix_poison_extremes(self):
        honest, poisoned = self.zeros_and_ones(10)
        assert np.sum(mix_poison(honest, poisoned, 0.0, seed=1).y) == 0
        assert np.sum(mix_poison(honest, poisoned, 1.0, seed=1).y) == 10

    def test_mix_poison_needs_one_source(self):
        honest = Partition(0, np.zeros((10, 2)), np.zeros(10, dtype=int))
        poisoned = Partition(0, np.ones((10, 2)), np.ones(10, dtype=int))
        with pytest.raises(ConfigurationError, match="source"):
            mix_poison(honest, poisoned, 0.5, seed=1)

    def test_dimension_preserved(self, small_dataset):
        p = sample_class_partition(small_dataset, 0, 0.0, seed=1)
        assert flip_labels(p, 0, 1).X.shape[1] == small_dataset.num_features
        assert insert_backdoor(p, 1).X.shape[1] == small_dataset.num_features


class TestMnistLike:
    def test_shape_and_determinism(self):
        train, test = make_mnist_like()
        train2, _ = make_mnist_like()
        assert train.num_features == 785
        assert train.num_classes == 10
        assert len(train) == 10000
        assert len(test) == 10000
        assert np.array_equal(train.X, train2.X)

    def test_mnist_available_without_dir(self):
        assert not mnist_available(None)
        assert not mnist_available("/nonexistent/path")


class TestDatasetValidate:
    def test_label_out_of_range(self):
        ds = Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=2)
        with pytest.raises(ConfigurationError):
            ds.validate()
