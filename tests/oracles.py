"""Reference implementations the tests check fedsim against.

Nothing in `fedsim` calls these: they are straightforward oracles (the
regularized loss behind the finite-difference gradient checks, a scalar
weighted cosine) and fixture writers (an IDX writer, a history dump).
"""

import struct

import numpy as np

from fedsim.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset
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
