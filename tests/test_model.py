"""Model core: softmax, gradient (finite-difference oracle), SGD step."""

import numpy as np
import pytest

from fedsim.errors import ConfigurationError, InvalidArgumentError
from fedsim.model import (
    gradient,
    predict,
    sgd_step,
    softmax_forward,
    zeros_like_model,
)

from oracles import regularized_loss


def finite_difference_gradient(params, X, y, lam, h=1e-6):
    """Central finite differences of the regularized batch loss."""
    grad = np.zeros_like(params)
    for idx in np.ndindex(params.shape):
        plus = params.copy()
        minus = params.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (regularized_loss(plus, X, y, lam)
                     - regularized_loss(minus, X, y, lam)) / (2 * h)
    return grad


class TestSoftmaxForward:
    def test_zero_params_uniform(self):
        params = np.zeros((3, 5))
        x = np.ones(5)
        assert np.allclose(softmax_forward(params, x), [1 / 3] * 3)

    def test_hand_computed_value(self):
        # class-0 row puts weight 10 on feature 0; input is the unit vector
        params = np.zeros((3, 4))
        params[0, 0] = 10.0
        x = np.zeros(4)
        x[0] = 1.0
        probs = softmax_forward(params, x)
        expected = np.exp(10.0) / (np.exp(10.0) + 2.0)
        assert probs[0] == pytest.approx(expected, rel=1e-12)

    def test_valid_distribution(self, rng):
        params = rng.normal(size=(5, 8))
        X = rng.normal(size=(20, 8))
        probs = softmax_forward(params, X)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self, rng):
        params = rng.normal(size=(4, 6))
        x = rng.normal(size=6)
        shifted = softmax_forward(params + 0.0, x)
        # adding a constant to every logit: achieved by shifting every
        # class row by the same vector c so logits all gain c . x
        c = rng.normal(size=6)
        same = softmax_forward(params + c, x)
        assert np.allclose(shifted, same, atol=1e-12)

    def test_large_logits_stable(self):
        params = np.full((3, 2), 500.0)
        probs = softmax_forward(params, np.ones(2))
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            softmax_forward(np.zeros((3, 5)), np.zeros(4))


class TestPredict:
    def test_zero_params_lowest_class(self):
        assert predict(np.zeros((4, 3)), np.ones(3)) == 0

    def test_clear_winner(self):
        params = np.zeros((3, 2))
        params[1, 0] = 5.0
        x = np.array([1.0, 0.0])
        assert predict(params, x) == 1

    def test_batch_shape(self, rng):
        params = rng.normal(size=(3, 4))
        X = rng.normal(size=(7, 4))
        preds = predict(params, X)
        assert preds.shape == (7,)

    def test_shift_invariance(self, rng):
        params = rng.normal(size=(4, 5))
        X = rng.normal(size=(10, 5))
        c = rng.normal(size=5)
        assert np.array_equal(predict(params, X), predict(params + c, X))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            params = rng.normal(scale=0.5, size=(3, 6))
            X = rng.uniform(size=(8, 6))
            y = rng.integers(0, 3, size=8)
            g = gradient(params, X, y, 0.01)
            fd = finite_difference_gradient(params, X, y, 0.01)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(g - fd) / denom < 1e-5

    def test_perfect_model_zero_gradient(self):
        # huge margins make the loss gradient vanish
        params = np.zeros((2, 3))
        params[0, 0] = 50.0
        params[1, 1] = 50.0
        X = np.array([[1.0, 0.0, 0.1], [0.0, 1.0, 0.1]])
        y = np.array([0, 1])
        g = gradient(params, X, y, 0.0)
        assert np.max(np.abs(g)) < 1e-6

    def test_regularizer_only(self):
        params = np.zeros((2, 3))
        params[0, 0] = 50.0
        params[1, 1] = 50.0
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        y = np.array([0, 1])
        g = gradient(params, X, y, 1.0)
        assert np.allclose(g, params, atol=1e-6)

    def test_empty_batch(self):
        with pytest.raises(InvalidArgumentError):
            gradient(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int), 0.0)

    def test_loss_monotone_under_gd(self, rng):
        # separable 2-class toy problem, full-batch GD
        X = np.vstack([rng.normal([2, 2], 0.2, size=(30, 2)),
                       rng.normal([-2, -2], 0.2, size=(30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        params = np.zeros((2, 2))
        prev = regularized_loss(params, X, y, 0.01)
        for _ in range(100):
            params = sgd_step(params, gradient(params, X, y, 0.01), 0.1)
            cur = regularized_loss(params, X, y, 0.01)
            assert cur < prev
            prev = cur


class TestSgdStep:
    def test_unit_rate(self, rng):
        w = rng.normal(size=(2, 3))
        g = rng.normal(size=(2, 3))
        assert np.allclose(sgd_step(w, g, 1.0), w - g)

    def test_zero_rate(self, rng):
        w = rng.normal(size=(2, 3))
        assert np.array_equal(sgd_step(w, rng.normal(size=(2, 3)), 0.0), w)

    def test_hand_arithmetic(self):
        w = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        assert np.allclose(sgd_step(w, g, 0.1), [[0.95, 2.05]])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            sgd_step(np.zeros((2, 3)), np.zeros((3, 2)), 0.1)


class TestZerosLikeModel:
    def test_shape(self):
        assert zeros_like_model(3, 7).shape == (3, 7)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            zeros_like_model(0, 7)


class TestRegularizedLoss:
    def test_empty_batch(self):
        with pytest.raises(InvalidArgumentError):
            regularized_loss(np.zeros((2, 3)), np.zeros((0, 3)),
                             np.zeros(0, dtype=int), 0.0)

    def test_zero_params_value(self):
        # uniform predictions: loss = ln(C) plus no regularizer
        X = np.ones((4, 3))
        y = np.array([0, 1, 0, 1])
        loss = regularized_loss(np.zeros((2, 3)), X, y, 0.0)
        assert loss == pytest.approx(np.log(2.0), rel=1e-9)
