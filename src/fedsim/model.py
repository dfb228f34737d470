"""Multinomial softmax classifier with L2 regularization, trained by SGD.

Parameters are kept as a dense (num_classes, num_features) array. There is
no separate bias term: the data pipeline appends a constant-1 column to
every feature vector, so the bias lives inside the weight matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError


def _check_features(params: np.ndarray, features: np.ndarray) -> None:
    if params.ndim != 2:
        raise ConfigurationError(
            f"params must be 2-D (classes x features), got shape {params.shape}"
        )
    if features.shape[-1] != params.shape[1]:
        raise ConfigurationError(
            f"feature length {features.shape[-1]} does not match model "
            f"feature count {params.shape[1]}"
        )


def softmax_forward(params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a single example or a batch.

    `features` may be shape (F,) or (B, F); the result is (C,) or (B, C).
    Logits are shifted by their max before exponentiation for stability.
    """
    _check_features(params, features)
    logits = features @ params.T
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def gradient(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, regularization: float
) -> np.ndarray:
    """Gradient of the regularized batch loss: lambda*w + (1/b) sum grad_l.

    X is (B, F), y is (B,) integer labels.
    """
    if len(y) == 0:
        raise InvalidArgumentError("gradient requires a non-empty batch")
    _check_features(params, X)
    probs = softmax_forward(params, X)
    probs[np.arange(len(y)), y] -= 1.0
    grad = (probs.T @ X) / len(y)
    if regularization:
        grad += regularization * params
    return grad


def sgd_step(
    params: np.ndarray, grad: np.ndarray, learning_rate: float
) -> np.ndarray:
    """w - eta * grad, elementwise."""
    if params.shape != grad.shape:
        raise ConfigurationError(
            f"gradient shape {grad.shape} does not match params {params.shape}"
        )
    return params - learning_rate * grad


def zeros_like_model(num_classes: int, num_features: int) -> np.ndarray:
    if num_classes < 1 or num_features < 1:
        raise ConfigurationError("model dimensions must be positive")
    return np.zeros((num_classes, num_features))
