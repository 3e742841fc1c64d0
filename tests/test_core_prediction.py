"""Tests for the linear predictor and AR(k) feature extraction."""

import numpy as np
import pytest

from repro.core.prediction import LinearPredictor, estimate_ar_coefficients, lag_history


def constant_velocity_history(n=50, order=2, seed=0):
    """Points moving with constant velocity: x_t = 2*x_{t-1} - x_{t-2}."""
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(n, 2))
    velocity = rng.normal(scale=0.1, size=(n, 2))
    prev1 = start + velocity          # position at t-1
    prev2 = start                     # position at t-2
    target = start + 2 * velocity     # position at t
    history = np.stack([prev1, prev2], axis=1)
    return history, target


class TestLinearPredictor:
    def test_recovers_constant_velocity_model(self):
        history, target = constant_velocity_history()
        predictor = LinearPredictor(order=2)
        coeffs = predictor.fit(history, target)
        # The exact solution is P1 = 2, P2 = -1.
        assert coeffs[0] == pytest.approx(2.0, abs=1e-4)
        assert coeffs[1] == pytest.approx(-1.0, abs=1e-4)

    def test_prediction_error_is_small_for_learnable_data(self):
        history, target = constant_velocity_history(seed=3)
        predictor = LinearPredictor(order=2)
        predictor.fit(history, target)
        predictions = predictor.predict(history)
        errors = np.linalg.norm(predictions - target, axis=1)
        assert errors.max() < 1e-6

    def test_unfitted_predictor_uses_persistence(self):
        predictor = LinearPredictor(order=2)
        history = np.array([[[1.0, 2.0], [0.0, 0.0]]])
        prediction = predictor.predict(history)
        np.testing.assert_allclose(prediction[0], [1.0, 2.0])

    def test_fit_empty_falls_back_to_persistence(self):
        predictor = LinearPredictor(order=3)
        coeffs = predictor.fit(np.empty((0, 3, 2)), np.empty((0, 2)))
        np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0])

    def test_shape_validation(self):
        predictor = LinearPredictor(order=2)
        with pytest.raises(ValueError):
            predictor.fit(np.zeros((5, 3, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            predictor.fit(np.zeros((5, 2, 2)), np.zeros((4, 2)))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            LinearPredictor(order=0)

    def test_collinear_history_is_stable(self):
        """Identical lags (stationary object) must not blow up numerically."""
        history = np.zeros((20, 2, 2))
        history[:] = 1.0
        target = np.ones((20, 2))
        predictor = LinearPredictor(order=2)
        coeffs = predictor.fit(history, target)
        assert np.all(np.isfinite(coeffs))
        predictions = predictor.predict(history)
        np.testing.assert_allclose(predictions, target, atol=1e-6)


class TestARCoefficients:
    def test_shape(self):
        histories = np.random.default_rng(0).normal(size=(10, 3, 2))
        targets = np.random.default_rng(1).normal(size=(10, 2))
        coeffs = estimate_ar_coefficients(histories, targets)
        assert coeffs.shape == (10, 3)

    def test_stationary_point_has_unit_lag1_coefficient(self):
        """A stationary trajectory's current point equals its lag-1 point, so
        the normalised correlation feature for lag 1 is 1."""
        point = np.array([0.3, 0.4])
        histories = np.tile(point, (5, 1, 1))
        targets = np.tile(point, (5, 1))
        coeffs = estimate_ar_coefficients(histories, targets)
        np.testing.assert_allclose(coeffs[:, 0], 1.0, atol=1e-4)

    def test_different_dynamics_yield_different_features(self):
        """Fast movers and stationary objects must be distinguishable --
        the property the PPQ-A partitioning relies on."""
        stationary_history = np.tile(np.array([0.5, 0.5]), (1, 2, 1))
        stationary_target = np.array([[0.5, 0.5]])
        moving_history = np.array([[[1.0, 1.0], [0.5, 0.5]]])
        moving_target = np.array([[2.0, 2.0]])
        a = estimate_ar_coefficients(stationary_history, stationary_target)
        b = estimate_ar_coefficients(moving_history, moving_target)
        assert not np.allclose(a, b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimate_ar_coefficients(np.zeros((5, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            estimate_ar_coefficients(np.zeros((5, 2, 2)), np.zeros((4, 2)))


def lag_history_reference(appearances, order):
    """Row-by-row statement of the rule: lag ``j`` is the ``j``-th previous
    appearance, or the oldest one present; no appearance at all gives zeros."""
    history = np.zeros((len(appearances), order, 2))
    for row, points in enumerate(appearances):
        points = list(points)[:order]
        for lag in range(order):
            if points:
                history[row, lag] = points[min(lag, len(points) - 1)]
    return history


class TestLagHistory:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_reference(self, order):
        rng = np.random.default_rng(100 + order)
        for n in (0, 1, 2, 9, 60):
            appearances = [list(rng.normal(size=(int(rng.integers(0, order + 3)), 2)))
                           for _ in range(n)]
            history, complete = lag_history(appearances, order)
            assert history.shape == (n, order, 2)
            assert history.tobytes() == lag_history_reference(appearances, order).tobytes()
            np.testing.assert_array_equal(
                complete, [len(points) >= order for points in appearances])

    def test_most_recent_first(self):
        recent, older, oldest = np.ones(2), np.zeros(2), np.full(2, -1.0)
        history, complete = lag_history([[recent, older, oldest]], order=2)
        np.testing.assert_array_equal(history[0], [recent, older])
        assert complete.tolist() == [True]

    def test_short_history_repeats_the_oldest_lag(self):
        history, complete = lag_history([[np.array([3.0, 4.0])]], order=3)
        np.testing.assert_array_equal(history[0], [[3.0, 4.0]] * 3)
        assert complete.tolist() == [False]

    def test_empty_history_gives_zeros(self):
        history, complete = lag_history([[], iter(())], order=2)
        assert history.shape == (2, 2, 2) and not history.any()
        assert complete.tolist() == [False, False]

    def test_reads_only_order_points(self):
        def endless():
            while True:
                yield np.ones(2)
        history, complete = lag_history([endless()], order=4)
        np.testing.assert_array_equal(history, np.ones((1, 4, 2)))
        assert complete.tolist() == [True]
