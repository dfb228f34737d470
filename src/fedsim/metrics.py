"""Evaluation metrics and result serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError


def predictions(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted class of each row of X.

    params is one (C, F) model or a stack (..., C, F) of models; a stack is
    scored in one GEMM and gives predictions of shape (len(X), ...). Each
    model's logits are the same row-by-column dot products as in a call with
    that model alone, and RONI's tests compare the two with exact equality.
    """
    *lead, num_classes, num_features = params.shape
    flat = params.reshape(-1, num_features)
    logits = X @ np.ascontiguousarray(flat.T)
    # argmax over logits equals argmax over softmax probabilities
    return np.argmax(logits.reshape(len(X), *lead, num_classes), axis=-1)


def accuracy(params: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        raise MetricError("accuracy is undefined on an empty test set")
    return float(np.mean(predictions(params, X) == y))


def per_class_error(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    num_classes: int) -> np.ndarray:
    """1 - recall per class; NaN for classes absent from the test set."""
    preds = predictions(params, X)
    errors = np.full(num_classes, np.nan)
    for c in range(num_classes):
        mask = y == c
        if mask.any():
            errors[c] = 1.0 - float(np.mean(preds[mask] == c))
    return errors


def attack_rate_labelflip(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                          source: int, target: int) -> float:
    """Fraction of source-class examples predicted as the target class."""
    mask = y == source
    if not mask.any():
        raise MetricError(f"test set has no examples of source class {source}")
    preds = predictions(params, X[mask])
    return float(np.mean(preds == target))


def attack_rate_backdoor(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                         trigger: int, trigger_value: float,
                         target: int) -> float:
    """Apply the trigger to every non-target example; fraction hitting target.

    The input arrays are not modified.
    """
    mask = y != target
    if not mask.any():
        raise MetricError("every test example already has the target label")
    triggered = X[mask].copy()
    triggered[:, trigger] = trigger_value
    preds = predictions(params, triggered)
    return float(np.mean(preds == target))


@dataclass
class MetricSnapshot:
    iteration: int
    accuracy: float
    attack_rate: float
    alphas: np.ndarray
    round_time: float


@dataclass
class RunResult:
    """Per-round series plus the final model and full-test-set metrics."""

    config_dict: dict
    accuracy_series: np.ndarray
    attack_rate_series: np.ndarray
    alpha_series: np.ndarray  # (iterations, num_clients)
    round_times: np.ndarray
    final_params: np.ndarray
    final_accuracy: float
    final_attack_rate: float
    final_train_accuracy: float
    final_per_class_error: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        return len(self.accuracy_series)


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(x: float) -> str:
    return f"{x:.8g}"


def export_series_csv(result: RunResult, path: str, run_key: str = "") -> None:
    """One row per iteration; per-client alpha columns follow the metrics.

    Wall-clock timing is deliberately left out so that repeated runs of the
    same seed produce byte-identical files; timing lives in the summary.
    """
    n_clients = result.alpha_series.shape[1] if result.alpha_series.size else 0
    header = ["run", "iteration", "accuracy", "attack_rate"]
    header += [f"alpha_{i}" for i in range(n_clients)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(result.num_rounds):
            row = [run_key, t, _fmt(result.accuracy_series[t]),
                   _fmt(result.attack_rate_series[t])]
            row += [_fmt(a) for a in result.alpha_series[t]]
            writer.writerow(row)


def export_summary(result: RunResult, path: str, run_key: str = "") -> None:
    summary = {
        "run": run_key,
        "config_hash": config_hash(result.config_dict),
        "config": result.config_dict,
        "rounds": result.num_rounds,
        "final_accuracy": result.final_accuracy,
        "final_train_accuracy": result.final_train_accuracy,
        "final_attack_rate": result.final_attack_rate,
        "final_per_class_error": [
            None if np.isnan(e) else float(e) for e in result.final_per_class_error
        ],
        "median_round_time_s": (float(np.median(result.round_times))
                                if result.round_times.size else None),
        "extras": {k: v for k, v in result.extras.items()
                   if isinstance(v, (int, float, str, bool, list, dict, type(None)))},
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_grid_csv(results: dict[str, RunResult], path: str) -> None:
    """Grid export: rows keyed by grid coordinates, one row per iteration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        wrote_header = False
        for key in sorted(results):
            result = results[key]
            n_clients = result.alpha_series.shape[1] if result.alpha_series.size else 0
            if not wrote_header:
                header = ["run", "iteration", "accuracy", "attack_rate"]
                header += [f"alpha_{i}" for i in range(n_clients)]
                writer.writerow(header)
                wrote_header = True
            for t in range(result.num_rounds):
                row = [key, t, _fmt(result.accuracy_series[t]),
                       _fmt(result.attack_rate_series[t])]
                row += [_fmt(a) for a in result.alpha_series[t]]
                writer.writerow(row)
        if not wrote_header:
            writer.writerow(["run", "iteration", "accuracy", "attack_rate"])


def export_history_matrix(histories: np.ndarray, path: str) -> None:
    """Numeric clients-x-parameters dump of aggregate update vectors."""
    np.savetxt(path, histories, delimiter=",", fmt="%.8g")
