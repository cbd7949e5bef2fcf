"""Tests for the Kalman filter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.motion.kalman import ConstantVelocityModel2D, Gaussian, KalmanFilter

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


class TestGaussian:
    def test_shape_checks(self):
        with pytest.raises(PredictionError):
            Gaussian(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(PredictionError):
            Gaussian(np.zeros(2), np.eye(3))

    def test_marginal(self):
        g = Gaussian(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 4.0, 9.0]))
        m = g.marginal([0, 2])
        assert np.allclose(m.mean, [1.0, 3.0])
        assert np.allclose(m.cov, np.diag([1.0, 9.0]))

    def test_pdf_peak_at_mean(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        assert g.pdf(np.zeros(2)) > g.pdf(np.array([1.0, 1.0]))

    def test_pdf_standard_normal_value(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        assert g.pdf(np.zeros(2)) == pytest.approx(1 / (2 * np.pi), rel=1e-6)

    def test_pdf_integrates_roughly_to_one(self):
        g = Gaussian(np.zeros(2), np.eye(2) * 0.5)
        xs = np.linspace(-5, 5, 60)
        step = xs[1] - xs[0]
        total = sum(
            g.pdf(np.array([x, y])) * step * step for x in xs for y in xs
        )
        assert total == pytest.approx(1.0, rel=0.02)

    def test_log_pdf_matches_pdf(self):
        g = Gaussian(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 0.5]]))
        x = np.array([0.5, -1.0])
        assert g.pdf(x) == pytest.approx(np.exp(g.log_pdf(x)), rel=1e-12)

    def test_tiny_covariance_exact(self):
        """Regression: a fixed 1e-9 jitter used to dominate a covariance
        of scale 1e-12 and bias the peak density by orders of magnitude."""
        scale = 1e-12
        g = Gaussian(np.zeros(2), np.eye(2) * scale)
        expected_log_peak = -0.5 * 2 * np.log(2 * np.pi * scale)
        assert g.log_pdf(np.zeros(2)) == pytest.approx(expected_log_peak, rel=1e-9)
        # The old path returned the jittered peak, ~1e3x too small.
        jittered = -0.5 * 2 * np.log(2 * np.pi * (scale + 1e-9))
        assert abs(g.log_pdf(np.zeros(2)) - jittered) > 1.0

    def test_log_pdf_survives_underflowing_density(self):
        """Far tails underflow ``pdf`` to 0.0 but keep a finite log."""
        g = Gaussian(np.zeros(2), np.eye(2) * 1e-6)
        far = np.array([5.0, 5.0])
        assert g.pdf(far) == 0.0
        assert np.isfinite(g.log_pdf(far))

    def test_near_singular_covariance_regularised(self):
        """A rank-deficient covariance gets minimal, scale-aware jitter."""
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        cov = np.outer(direction, direction)  # rank 1, semi-definite
        g = Gaussian(np.zeros(2), cov)
        on_axis = g.log_pdf(direction * 0.1)
        off_axis = g.log_pdf(np.array([0.1, -0.1]))
        assert np.isfinite(on_axis) and np.isfinite(off_axis)
        assert on_axis > off_axis

    def test_truly_singular_zero_covariance_rejected(self):
        g = Gaussian(np.zeros(2), np.array([[0.0, 0.0], [0.0, 0.0]]))
        finite = g.log_pdf(np.zeros(2))
        assert np.isfinite(finite)  # regularised at unit scale


def random_spd(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return (a @ a.T + np.eye(d) * 1e-3) * scale


def check_rows_equal_scalar(g: Gaussian, points: np.ndarray) -> None:
    """Row ``i`` of the batch is the scalar call, bit for bit."""
    log_many = g.log_pdf_many(points)
    many = g.pdf_many(points)
    assert log_many.shape == many.shape == (len(points),)
    for i, x in enumerate(points):
        assert g.log_pdf(x) == log_many[i]
        assert g.pdf(x) == many[i]
    # ... and of any other batch containing the point.
    assert np.array_equal(g.pdf_many(points[::-1])[::-1], many)
    assert np.array_equal(g.pdf_many(points[:3]), many[:3])


class TestGaussianBatched:
    @pytest.mark.parametrize("seed", range(20))
    def test_rows_equal_scalar_on_random_spd(self, seed: int):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        scale = float(10.0 ** rng.uniform(-3, 5))
        g = Gaussian(rng.normal(size=d) * 100.0, random_spd(rng, d, scale))
        points = g.mean + rng.normal(size=(37, d)) * np.sqrt(scale) * 3.0
        check_rows_equal_scalar(g, points)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_solve_and_slogdet(self, seed: int):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 5))
        g = Gaussian(rng.normal(size=d), random_spd(rng, d, 4.0))
        points = rng.normal(size=(25, d)) * 3.0
        diff = points - g.mean
        maha = np.einsum("ij,ij->i", diff, np.linalg.solve(g.cov, diff.T).T)
        expected = -0.5 * (
            d * np.log(2.0 * np.pi) + np.linalg.slogdet(g.cov)[1] + maha
        )
        assert np.allclose(g.log_pdf_many(points), expected, rtol=1e-9, atol=1e-9)

    def test_tiny_covariance_scale(self):
        rng = np.random.default_rng(7)
        g = Gaussian(np.array([3.0, -4.0]), random_spd(rng, 2, 1e-12))
        points = g.mean + rng.normal(size=(16, 2)) * 1e-6
        check_rows_equal_scalar(g, points)
        peak = g.log_pdf_many(g.mean[None, :])[0]
        assert peak == pytest.approx(
            -0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(g.cov)[1]), rel=1e-9
        )

    @pytest.mark.parametrize(
        "defect, rung",
        [(0.0, 1e-12), (-1e-10, 1e-9), (-1e-7, 1e-6)],
        ids=["semi-definite", "needs-1e-9", "needs-1e-6"],
    )
    def test_each_jitter_rung(self, defect: float, rung: float):
        """Jitter escalates only as far as the factorisation needs."""
        cov = np.diag([2.0, defect * 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        g = Gaussian(np.zeros(2), cov)
        chol = g._cholesky()
        assert (chol @ chol.T)[1, 1] == pytest.approx(2.0 * (defect + rung), rel=1e-6)
        points = np.random.default_rng(3).normal(size=(9, 2)) * 1e-3
        assert np.all(np.isfinite(g.log_pdf_many(points)))
        check_rows_equal_scalar(g, points)

    def test_indefinite_covariance_rejected(self):
        g = Gaussian(np.zeros(2), np.diag([1.0, -1e-3]))
        with pytest.raises(PredictionError, match="singular covariance in pdf"):
            g.pdf_many(np.zeros((4, 2)))
        with pytest.raises(PredictionError, match="singular covariance in pdf"):
            g.pdf(np.zeros(2))

    def test_point_array_shape_checked(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        for bad in (np.zeros(2), np.zeros((4, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(PredictionError):
                g.log_pdf_many(bad)
        with pytest.raises(PredictionError):
            g.log_pdf(np.zeros(3))

    def test_no_points(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        assert g.pdf_many(np.empty((0, 2))).shape == (0,)


if HAVE_HYPOTHESIS:

    class TestGaussianBatchedHypothesis:
        @given(
            st.integers(1, 4),
            st.floats(-6.0, 6.0),
            st.integers(0, 2**32 - 1),
        )
        @settings(max_examples=60, deadline=None)
        def test_rows_equal_scalar(self, d: int, log_scale: float, seed: int):
            rng = np.random.default_rng(seed)
            scale = 10.0**log_scale
            g = Gaussian(rng.normal(size=d), random_spd(rng, d, scale))
            points = g.mean + rng.normal(size=(11, d)) * np.sqrt(scale) * 4.0
            check_rows_equal_scalar(g, points)


class TestKalmanFilter:
    def test_shape_validation(self):
        with pytest.raises(PredictionError):
            KalmanFilter(
                np.eye(3)[:2],  # not square
                np.eye(2),
                np.eye(2),
                np.eye(2),
                np.zeros(2),
                np.eye(2),
            )

    def test_tracks_constant_velocity(self):
        model = ConstantVelocityModel2D(
            dt=1.0, process_noise=0.01, measurement_noise=0.1
        )
        kf = model.build()
        rng = np.random.default_rng(0)
        velocity = np.array([2.0, -1.0])
        for t in range(60):
            pos = velocity * t + rng.normal(0, 0.1, 2)
            kf.step(pos)
        assert np.allclose(kf.x[2:], velocity, atol=0.15)

    def test_forecast_does_not_mutate(self):
        kf = ConstantVelocityModel2D().build()
        kf.step(np.array([0.0, 0.0]))
        kf.step(np.array([1.0, 1.0]))
        state_before = kf.x.copy()
        kf.forecast(5)
        assert np.array_equal(kf.x, state_before)

    def test_forecast_extrapolates_linearly(self):
        model = ConstantVelocityModel2D(
            dt=1.0, process_noise=0.01, measurement_noise=0.01
        )
        kf = model.build()
        for t in range(30):
            kf.step(np.array([float(t), 0.0]))
        forecasts = kf.forecast(3)
        for i, g in enumerate(forecasts, start=1):
            assert g.mean[0] == pytest.approx(29.0 + i, abs=0.3)

    def test_forecast_covariance_grows(self):
        kf = ConstantVelocityModel2D().build()
        kf.step(np.array([0.0, 0.0]))
        kf.step(np.array([1.0, 0.0]))
        forecasts = kf.forecast(10)
        traces = [float(np.trace(g.cov)) for g in forecasts]
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_forecast_needs_positive_steps(self):
        kf = ConstantVelocityModel2D().build()
        with pytest.raises(PredictionError):
            kf.forecast(0)

    def test_update_shape_checked(self):
        kf = ConstantVelocityModel2D().build()
        with pytest.raises(PredictionError):
            kf.update(np.zeros(3))

    def test_uncertainty_shrinks_with_measurements(self):
        kf = ConstantVelocityModel2D().build()
        initial = float(np.trace(kf.P))
        for t in range(20):
            kf.step(np.array([float(t), float(t)]))
        assert float(np.trace(kf.P)) < initial


class TestConstantVelocityModel:
    def test_invalid_parameters(self):
        with pytest.raises(PredictionError):
            ConstantVelocityModel2D(dt=0)
        with pytest.raises(PredictionError):
            ConstantVelocityModel2D(process_noise=0)
        with pytest.raises(PredictionError):
            ConstantVelocityModel2D(measurement_noise=-1)
