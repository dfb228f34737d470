"""Reference implementations the tests check fedsim against.

Nothing in `fedsim` calls these: they are straightforward oracles (the
regularized loss behind the finite-difference gradient checks, a
softmax-then-argmax prediction, a scalar weighted cosine, the copy-per-step
data pipeline, the dense Multi-Krum distance tensor) and fixture writers
(an IDX writer, a history dump).
"""

import struct

import numpy as np

from fedsim.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset, Partition
from fedsim.errors import InvalidArgumentError
from fedsim.model import softmax_forward


def weighted_cosine(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Cosine of the feature-weighted vectors; 0 if either has zero norm."""
    aw = (a * weights).ravel()
    bw = (b * weights).ravel()
    na = np.linalg.norm(aw)
    nb = np.linalg.norm(bw)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(aw @ bw / (na * nb), -1.0, 1.0))


def regularized_loss(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, regularization: float
) -> float:
    """Mean cross-entropy over the batch plus (lambda/2)*||w||^2."""
    if len(y) == 0:
        raise InvalidArgumentError("loss requires a non-empty batch")
    probs = softmax_forward(params, X)
    eps = 1e-12
    nll = -np.log(probs[np.arange(len(y)), y] + eps).mean()
    return float(nll + 0.5 * regularization * np.sum(params * params))


def predict(params: np.ndarray, features: np.ndarray) -> int | np.ndarray:
    """Argmax class; ties break toward the lowest class index."""
    probs = softmax_forward(params, features)
    idx = np.argmax(probs, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def export_history_matrix(histories: np.ndarray, path: str) -> None:
    """Numeric clients-x-parameters dump of aggregate update vectors."""
    np.savetxt(path, histories, delimiter=",", fmt="%.8g")


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Write a dataset as an IDX pair (inverse of load_idx).

    The bias column is dropped and features are quantized to uint8, so a
    round trip only preserves values on the 1/255 grid.
    """
    raw = dataset.X[:, :-1]
    pixels = np.clip(np.round(raw * 255.0), 0, 255).astype(np.uint8)
    n, f = pixels.shape
    # Store as n x f x 1 "images"; load_idx flattens rows*cols anyway.
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, f, 1))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fh.write(dataset.y.astype(np.uint8).tobytes())


def synthesize_by_blocks(seed, num_classes, num_features, examples_per_class,
                         name="synthetic", noise_scale=0.08,
                         centroid_sparsity=1.0, dead_features=0):
    """`data.synthesize` as copies: each class drawn into its own array,
    then stacked, given a bias column and shuffled by a gather."""
    counts = list(examples_per_class)
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_classes, num_features]))
    active = num_features - dead_features
    n_on = max(1, int(round(active * centroid_sparsity)))
    blocks = []
    labels = []
    for c, count in enumerate(counts):
        centroid = np.zeros(num_features)
        on = rng.choice(active, size=n_on, replace=False)
        centroid[on] = rng.uniform(0.35, 0.95, size=n_on)
        block = centroid + rng.normal(0.0, noise_scale, size=(count, num_features))
        if dead_features:
            block[:, active:] = np.abs(rng.normal(0.0, 0.01, size=(count, dead_features)))
        np.clip(block, 0.0, 1.0, out=block)
        blocks.append(block)
        labels.append(np.full(count, c, dtype=np.int64))
    X = np.vstack(blocks)
    X = np.hstack([X, np.ones((len(X), 1), dtype=X.dtype)])
    y = np.concatenate(labels)
    order = rng.permutation(len(y))
    return Dataset(X=X[order], y=y[order], num_classes=num_classes, name=name)


def split_by_gather(dataset, test_fraction, seed):
    """`data.train_test_split` as two gathers; leaves its input alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    order = rng.permutation(len(dataset))
    n_test = int(round(test_fraction * len(dataset)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    train = Dataset(dataset.X[train_idx], dataset.y[train_idx],
                    dataset.num_classes, dataset.name)
    test = Dataset(dataset.X[test_idx], dataset.y[test_idx],
                   dataset.num_classes, dataset.name + "-test")
    return train, test


def partition_non_iid_by_gather(dataset, num_clients, mix, seed):
    """`data.partition_non_iid` with each client's rows copied out."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    class_pools = [rng.permutation(np.flatnonzero(dataset.y == c))
                   for c in range(dataset.num_classes)]
    owned = [[] for _ in range(num_clients)]
    shared_chunks = []
    for c, pool in enumerate(class_pools):
        n_keep = int(round((1.0 - mix) * len(pool)))
        owned[c % num_clients].append(pool[:n_keep])
        shared_chunks.append(pool[n_keep:])
    shared = rng.permutation(np.concatenate(shared_chunks))
    dealt = [shared[i::num_clients] for i in range(num_clients)]
    partitions = []
    for cid in range(num_clients):
        idx = rng.permutation(np.concatenate(owned[cid] + [dealt[cid]]).astype(int))
        partitions.append(Partition(cid, dataset.X[idx], dataset.y[idx]))
    return partitions


def sample_class_partition_by_gather(dataset, source_class, mix, seed, owner_id=-1):
    """`data.sample_class_partition` with the rows copied out."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13, source_class]))
    src_idx = np.flatnonzero(dataset.y == source_class)
    n = len(src_idx)
    n_shared = int(round(mix * n))
    keep = rng.choice(src_idx, size=n - n_shared, replace=False)
    uniform = rng.choice(len(dataset), size=n_shared, replace=False)
    idx = rng.permutation(np.concatenate([keep, uniform]))
    return Partition(owner_id, dataset.X[idx], dataset.y[idx])


def mix_poison_by_gather(honest, poisoned, poison_fraction, seed=0):
    """`data.mix_poison` over gathered partitions: stack, then shuffle."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    n = len(honest)
    n_poison = int(np.floor(poison_fraction * n))
    p_idx = rng.choice(len(poisoned), size=n_poison, replace=False)
    h_idx = rng.choice(n, size=n - n_poison, replace=False)
    X = np.vstack([poisoned.X[p_idx], honest.X[h_idx]])
    y = np.concatenate([poisoned.y[p_idx], honest.y[h_idx]])
    order = rng.permutation(n)
    return Partition(honest.owner_id, X[order], y[order])


def multikrum_scores_dense(updates, f, distance_mode="squared"):
    """`defenses.multikrum_scores` over the full (n, n, d) difference tensor."""
    n = len(updates)
    flat = updates.reshape(n, -1)
    diff = flat[:, None, :] - flat[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.clip(d2, 0.0, None, out=d2)
    dist = d2 if distance_mode == "squared" else np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)
    return np.sort(dist, axis=1)[:, :n - f - 2].sum(axis=1)
