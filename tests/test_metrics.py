"""Metrics and result export."""

import json

import numpy as np
import pytest

from fedsim.metrics import (
    RunResult,
    accuracy,
    attack_rate_backdoor,
    attack_rate_labelflip,
    config_hash,
    export_grid_csv,
    export_series_csv,
    export_summary,
    per_class_error,
    predictions,
)
from fedsim.errors import MetricError

from oracles import export_history_matrix, predict


def make_result(rng, rounds=3, clients=2):
    return RunResult(
        config_dict={"name": "t", "seed": 1},
        accuracy_series=rng.uniform(size=rounds),
        attack_rate_series=rng.uniform(size=rounds),
        alpha_series=rng.uniform(size=(rounds, clients)),
        round_times=rng.uniform(size=rounds),
        final_params=np.zeros((2, 2)),
        final_accuracy=0.9,
        final_attack_rate=0.01,
        final_train_accuracy=0.95,
        final_per_class_error=np.array([0.0, np.nan]),
    )


class TestPredictionsAndAccuracy:
    def test_predictions_match_predict(self, rng):
        params = rng.normal(size=(4, 6))
        X = rng.normal(size=(25, 6))
        assert np.array_equal(predictions(params, X), predict(params, X))

    def test_perfect_model(self):
        params = np.eye(3) * 10
        X = np.eye(3)
        assert accuracy(params, X, np.arange(3)) == 1.0

    def test_constant_model_balanced_set(self, rng):
        params = np.zeros((10, 4))  # always predicts class 0
        X = rng.uniform(size=(100, 4))
        y = np.repeat(np.arange(10), 10)
        assert accuracy(params, X, y) == pytest.approx(0.1)

    def test_empty_test_set(self):
        with pytest.raises(MetricError):
            accuracy(np.zeros((2, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestPerClassError:
    def test_perfect_model_zero_errors(self):
        params = np.eye(3) * 10
        errors = per_class_error(params, np.eye(3), np.arange(3), 3)
        assert np.all(errors == 0.0)

    def test_absent_class_nan(self):
        params = np.zeros((3, 2))
        errors = per_class_error(params, np.ones((2, 2)), np.array([0, 0]), 3)
        assert errors[0] == 0.0
        assert np.isnan(errors[1]) and np.isnan(errors[2])


class TestAttackRateLabelflip:
    def test_all_target(self):
        params = np.zeros((8, 3))
        params[7, :] = 10.0  # predicts 7 for everything
        X = np.ones((5, 3))
        y = np.array([1, 1, 1, 2, 2])
        assert attack_rate_labelflip(params, X, y, 1, 7) == 1.0

    def test_all_correct(self):
        params = np.zeros((8, 3))
        params[1, :] = 10.0
        X = np.ones((3, 3))
        y = np.array([1, 1, 1])
        assert attack_rate_labelflip(params, X, y, 1, 7) == 0.0

    def test_missing_source_class(self):
        with pytest.raises(MetricError):
            attack_rate_labelflip(np.zeros((8, 2)), np.ones((2, 2)),
                                  np.array([2, 3]), 1, 7)


class TestAttackRateBackdoor:
    def test_input_not_mutated(self, rng):
        params = rng.normal(size=(3, 4))
        X = rng.uniform(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        before = X.copy()
        attack_rate_backdoor(params, X, y, trigger=2, trigger_value=1.0,
                             target=1)
        assert np.array_equal(X, before)

    def test_trigger_sensitive_model(self):
        # class 1 keys entirely on the trigger feature
        params = np.zeros((3, 4))
        params[1, 2] = 100.0
        X = np.zeros((6, 4))
        y = np.array([0, 0, 2, 2, 1, 1])
        rate = attack_rate_backdoor(params, X, y, 2, 1.0, target=1)
        assert rate == 1.0

    def test_trigger_ignoring_model_matches_confusion(self, rng):
        params = rng.normal(size=(3, 4))
        params[:, 2] = 0.0  # trigger feature carries no weight
        X = rng.uniform(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        rate = attack_rate_backdoor(params, X, y, 2, 1.0, target=1)
        mask = y != 1
        plain = float(np.mean(predictions(params, X[mask]) == 1))
        assert rate == pytest.approx(plain)

    def test_all_target_labels(self):
        with pytest.raises(MetricError):
            attack_rate_backdoor(np.zeros((2, 3)), np.ones((2, 3)),
                                 np.array([1, 1]), 0, 1.0, target=1)


class TestExports:
    def test_series_csv_shape_and_determinism(self, tmp_path, rng):
        result = make_result(rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_series_csv(result, str(p1), run_key="r")
        export_series_csv(result, str(p2), run_key="r")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "run,iteration,accuracy,attack_rate,alpha_0,alpha_1"
        assert len(lines) == 1 + result.num_rounds

    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "grid.csv"
        export_grid_csv({}, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("run,iteration,accuracy")

    def test_grid_rows_keyed(self, tmp_path, rng):
        results = {"x=1": make_result(rng), "x=2": make_result(rng)}
        path = tmp_path / "grid.csv"
        export_grid_csv(results, str(path))
        lines = path.read_text().strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("x=1,")) == 3
        assert sum(1 for ln in lines if ln.startswith("x=2,")) == 3

    def test_summary_json(self, tmp_path, rng):
        result = make_result(rng)
        path = tmp_path / "s.json"
        export_summary(result, str(path), run_key="r")
        blob = json.loads(path.read_text())
        assert blob["final_accuracy"] == 0.9
        assert blob["final_per_class_error"] == [0.0, None]
        assert blob["config_hash"] == config_hash(result.config_dict)

    def test_config_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_history_matrix_round_trip(self, tmp_path, rng):
        H = rng.normal(size=(3, 5))
        path = tmp_path / "h.csv"
        export_history_matrix(H, str(path))
        back = np.loadtxt(str(path), delimiter=",")
        assert np.allclose(back, H, atol=1e-7)
