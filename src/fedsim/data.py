"""Dataset loading, synthesis, client partitioning and poisoning transforms.

Every loader writes its rows once, into one preallocated float64 buffer
whose last column is a constant-1 bias, so `num_features` is always one
more than the raw feature count on disk. Shuffles and splits reorder that
buffer in place; train and test are row-range views of it, and a client
partition is a row-index array into it with its own labels.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

DATA_DIR_ENV = "FEDSIM_DATA_DIR"


@dataclass
class Dataset:
    X: np.ndarray  # (n, num_features) floats in [0, 1] plus the bias column
    y: np.ndarray  # (n,) integer labels
    num_classes: int
    name: str = ""

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return len(self.y)

    def validate(self) -> None:
        if self.y.min(initial=0) < 0 or self.y.max(initial=0) >= self.num_classes:
            raise ConfigurationError("labels out of range for num_classes")
        if len(self.X) != len(self.y):
            raise ConfigurationError("feature/label counts disagree")


@dataclass
class Partition:
    """A client's examples: rows `rows` of the shared source `X`, with
    labels `y` of their own (len(y) == len(rows)). `rows` defaults to every
    row of `X`."""

    owner_id: int
    X: np.ndarray
    y: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rows is None:
            self.rows = np.arange(len(self.X))

    def __len__(self) -> int:
        return len(self.y)


def _with_bias(rows: int, num_features: int) -> np.ndarray:
    """An uninitialized (rows, num_features + 1) float64 buffer whose last
    column, the bias, is already 1.0; loaders write the features in place."""
    X = np.empty((rows, num_features + 1))
    X[:, -1] = 1.0
    return X


def _permute_rows(A: np.ndarray, order: np.ndarray) -> None:
    """A[:] = A[order] in place for a permutation `order`, following each
    cycle with one row of scratch instead of a copy of A."""
    order = order.tolist()
    done = bytearray(len(order))
    scratch = np.empty_like(A[0])
    for start in range(len(order)):
        if done[start]:
            continue
        scratch[...] = A[start]
        j = start
        while True:
            done[j] = 1
            k = order[j]
            if k == start:
                break
            A[j] = A[k]
            j = k
        A[j] = scratch


def _read_be_u32(f, path: str) -> int:
    data = f.read(4)
    if len(data) < 4:
        raise DataFormatError(f"truncated header in {path}", offset=f.tell())
    return struct.unpack(">I", data)[0]


def load_idx(images_path: str, labels_path: str, name: str = "") -> Dataset:
    """Load an IDX image/label file pair (big-endian MNIST format).

    Pixels are scaled to [0, 1] by dividing by 255 and a bias column is
    appended, so MNIST yields 784 + 1 = 785 features.
    """
    with open(images_path, "rb") as f:
        magic = _read_be_u32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"bad image magic 0x{magic:08x} in {images_path}", offset=0
            )
        count = _read_be_u32(f, images_path)
        rows = _read_be_u32(f, images_path)
        cols = _read_be_u32(f, images_path)
        raw = f.read(count * rows * cols)
        if len(raw) < count * rows * cols:
            raise DataFormatError(
                f"truncated pixel data in {images_path}", offset=16 + len(raw)
            )
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic = _read_be_u32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"bad label magic 0x{magic:08x} in {labels_path}", offset=0
            )
        label_count = _read_be_u32(f, labels_path)
        raw = f.read(label_count)
        if len(raw) < label_count:
            raise DataFormatError(
                f"truncated label data in {labels_path}", offset=8 + len(raw)
            )
        labels = np.frombuffer(raw, dtype=np.uint8)

    if label_count != count:
        raise DataFormatError(
            f"image count {count} != label count {label_count}", offset=4
        )

    X = _with_bias(count, rows * cols)
    np.divide(images, 255.0, out=X[:, :-1])
    y = labels.astype(np.int64)
    num_classes = int(y.max()) + 1 if len(y) else 0
    ds = Dataset(X=X, y=y, num_classes=num_classes, name=name or "idx")
    ds.validate()
    return ds


def synthesize(
    seed: int,
    num_classes: int,
    num_features: int,
    examples_per_class,
    name: str = "synthetic",
    noise_scale: float = 0.08,
    centroid_sparsity: float = 1.0,
    dead_features: int = 0,
) -> Dataset:
    """Per-class Gaussian blobs around random centroids, clipped to [0, 1].

    `examples_per_class` is a sequence of counts, one per class, which
    allows heavy class imbalance. With `centroid_sparsity` < 1 only that
    fraction of the usable features carries class signal, and the last
    `dead_features` features are near-zero everywhere (mimicking the dark
    border pixels of image data). Deterministic given the seed.
    """
    counts = list(examples_per_class)
    if len(counts) != num_classes:
        raise ConfigurationError("examples_per_class length must equal num_classes")
    if any(c < 1 for c in counts):
        raise ConfigurationError("every class needs at least one example")
    if dead_features >= num_features:
        raise ConfigurationError("dead_features must leave some active features")

    rng = np.random.default_rng(np.random.SeedSequence([seed, num_classes, num_features]))
    active = num_features - dead_features
    n_on = max(1, int(round(active * centroid_sparsity)))

    X = _with_bias(sum(counts), num_features)
    start = 0
    for count in counts:
        centroid = np.zeros(num_features)
        on = rng.choice(active, size=n_on, replace=False)
        centroid[on] = rng.uniform(0.35, 0.95, size=n_on)
        block = X[start:start + count, :-1]
        start += count
        np.add(centroid, rng.normal(0.0, noise_scale, size=(count, num_features)),
               out=block)
        if dead_features:
            block[:, active:] = np.abs(rng.normal(0.0, 0.01, size=(count, dead_features)))
        np.clip(block, 0.0, 1.0, out=block)

    y = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    order = rng.permutation(len(y))
    _permute_rows(X, order)
    return Dataset(X=X, y=y[order], num_classes=num_classes, name=name)


def train_test_split(dataset: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle split; used for synthetic datasets (30% held out).

    Consumes `dataset`: its rows are shuffled in place, and the returned
    test and train sets are the leading and trailing row ranges (views) of
    its arrays. A read-only dataset, such as a cached one, is refused.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError("test_fraction must be in (0, 1)")
    if not (dataset.X.flags.writeable and dataset.y.flags.writeable):
        raise ConfigurationError(
            "train_test_split reorders its dataset in place; got a read-only one")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    order = rng.permutation(len(dataset))
    n_test = int(round(test_fraction * len(dataset)))
    _permute_rows(dataset.X, order)
    dataset.y[:] = dataset.y[order]
    X, y = dataset.X, dataset.y
    train = Dataset(X[n_test:], y[n_test:], dataset.num_classes, dataset.name)
    test = Dataset(X[:n_test], y[:n_test], dataset.num_classes,
                   dataset.name + "-test")
    return train, test


def partition_non_iid(
    dataset: Dataset, num_clients: int, mix: float, seed: int
) -> list[Partition]:
    """Split a dataset across clients with a tunable IID/non-IID mix.

    mix=0: each client holds whole classes (round-robin when there are
    more classes than clients). mix=1: a uniform random disjoint split.
    Intermediate mix x: each client keeps (1-x) of its class-specific
    share and draws x from a shared uniform pool. Partitions are always
    pairwise disjoint subsets of the dataset.
    """
    if not 0.0 <= mix <= 1.0:
        raise ConfigurationError("mix must be in [0, 1]")
    if num_clients < 1:
        raise ConfigurationError("need at least one client")
    if num_clients > dataset.num_classes:
        raise ConfigurationError(
            "non-IID partitioning assigns whole classes; "
            f"num_clients {num_clients} > num_classes {dataset.num_classes}"
        )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    class_pools = []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.y == c)
        class_pools.append(rng.permutation(idx))

    # Round-robin class ownership, then split each pool into a disjoint
    # part kept by the owner and a part surrendered to the shared pool.
    owned: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    shared_chunks = []
    for c, pool in enumerate(class_pools):
        owner = c % num_clients
        n_keep = int(round((1.0 - mix) * len(pool)))
        owned[owner].append(pool[:n_keep])
        shared_chunks.append(pool[n_keep:])

    shared = rng.permutation(np.concatenate(shared_chunks)) if shared_chunks else np.array([], dtype=int)
    # Deal the shared pool round-robin so sizes stay balanced.
    dealt = [shared[i::num_clients] for i in range(num_clients)]

    partitions = []
    for cid in range(num_clients):
        idx = np.concatenate(owned[cid] + [dealt[cid]]).astype(int)
        if len(idx) == 0:
            raise ConfigurationError(f"client {cid} received an empty partition")
        idx = rng.permutation(idx)
        partitions.append(Partition(cid, dataset.X, dataset.y[idx], idx))
    return partitions


def sample_class_partition(
    dataset: Dataset, source_class: int, mix: float, seed: int, owner_id: int = -1
) -> Partition:
    """Build one client partition the way an honest owner of `source_class`
    would see it: (1-mix) source-class data plus mix uniform data.

    Used to create sybil training data: build this, then poison it.
    Draws are independent of the honest partitioning (an attacker brings
    its own data).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13, source_class]))
    src_idx = np.flatnonzero(dataset.y == source_class)
    if len(src_idx) == 0:
        raise ConfigurationError(f"dataset has no examples of class {source_class}")
    n = len(src_idx)
    n_shared = int(round(mix * n))
    keep = rng.choice(src_idx, size=n - n_shared, replace=False)
    uniform = rng.choice(len(dataset), size=n_shared, replace=False)
    idx = rng.permutation(np.concatenate([keep, uniform]))
    return Partition(owner_id, dataset.X, dataset.y[idx], idx)


def flip_labels(partition: Partition, source_class: int, target_class: int) -> Partition:
    """Relabel every source-class example as the target class."""
    if source_class == target_class:
        raise ConfigurationError("source and target class must differ")
    y = partition.y.copy()
    y[y == source_class] = target_class
    return Partition(partition.owner_id, partition.X, y, partition.rows)


def insert_backdoor(
    partition: Partition,
    target_class: int,
    trigger: int | None = None,
    trigger_value: float = 1.0,
) -> Partition:
    """Set the trigger feature on every example and relabel everything.

    The default trigger is the last raw feature (the bias column is
    skipped), i.e. the bottom-right pixel for image data. The partition's
    rows are gathered into a new source, since the trigger is written.
    """
    num_features = partition.X.shape[1]
    if trigger is None:
        trigger = num_features - 2  # last feature before the bias column
    if not 0 <= trigger < num_features:
        raise ConfigurationError(f"trigger index {trigger} out of range")
    X = partition.X[partition.rows]
    X[:, trigger] = trigger_value
    y = np.full_like(partition.y, target_class)
    return Partition(partition.owner_id, X, y)


def mix_poison(
    honest: Partition, poisoned: Partition, poison_fraction: float, seed: int = 0
) -> Partition:
    """Blend floor(fraction*n) poisoned examples with honest remainder.

    Both partitions must index the same source array.
    """
    if not 0.0 <= poison_fraction <= 1.0:
        raise ConfigurationError("poison_fraction must be in [0, 1]")
    if honest.X is not poisoned.X:
        raise ConfigurationError("mix_poison needs partitions of one source array")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    n = len(honest)
    n_poison = int(np.floor(poison_fraction * n))
    if n_poison > len(poisoned):
        raise ConfigurationError("poisoned partition too small for requested fraction")
    p_idx = rng.choice(len(poisoned), size=n_poison, replace=False)
    h_idx = rng.choice(n, size=n - n_poison, replace=False)
    rows = np.concatenate([poisoned.rows[p_idx], honest.rows[h_idx]])
    y = np.concatenate([poisoned.y[p_idx], honest.y[h_idx]])
    order = rng.permutation(n)
    return Partition(honest.owner_id, honest.X, y[order], rows[order])


def default_data_dir() -> str | None:
    return os.environ.get(DATA_DIR_ENV)


def mnist_paths(data_dir: str, split: str) -> tuple[str, str]:
    prefix = "train" if split == "train" else "t10k"
    return (
        os.path.join(data_dir, f"{prefix}-images-idx3-ubyte"),
        os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte"),
    )


def mnist_available(data_dir: str | None) -> bool:
    if not data_dir:
        return False
    return all(
        os.path.exists(p) for split in ("train", "test") for p in mnist_paths(data_dir, split)
    )


def load_mnist(data_dir: str) -> tuple[Dataset, Dataset]:
    train = load_idx(*mnist_paths(data_dir, "train"), name="mnist")
    test = load_idx(*mnist_paths(data_dir, "test"), name="mnist-test")
    return train, test


# MNIST-shaped deterministic surrogate used when the real IDX files are
# not present: 10 classes, 784 raw features with a dead border region.
MNIST_LIKE_SEED = 90210
MNIST_LIKE_TRAIN_PER_CLASS = 1000
MNIST_LIKE_TEST_PER_CLASS = 1000


def make_mnist_like(train_per_class: int = MNIST_LIKE_TRAIN_PER_CLASS,
                    test_per_class: int = MNIST_LIKE_TEST_PER_CLASS,
                    seed: int = MNIST_LIKE_SEED) -> tuple[Dataset, Dataset]:
    full = synthesize(
        seed=seed,
        num_classes=10,
        num_features=784,
        examples_per_class=[train_per_class + test_per_class] * 10,
        name="mnist-like",
        noise_scale=0.12,
        centroid_sparsity=0.15,
        dead_features=196,
    )
    test_fraction = test_per_class / (train_per_class + test_per_class)
    return train_test_split(full, test_fraction, seed=seed + 1)
