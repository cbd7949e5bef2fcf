"""Tests for motion predictors and grid visit probabilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.motion.kalman import Gaussian
from repro.motion.predictor import (
    DeadReckoningPredictor,
    HistoryMotionPredictor,
    KalmanMotionPredictor,
    visit_probabilities,
)
from repro.motion.trajectory import pedestrian_tour, tram_tour

PREDICTORS = [
    KalmanMotionPredictor,
    HistoryMotionPredictor,
    DeadReckoningPredictor,
]


@pytest.fixture(params=PREDICTORS, ids=lambda c: c.__name__)
def predictor(request):
    return request.param()


class TestReadiness:
    def test_not_ready_initially(self, predictor):
        assert not predictor.ready
        with pytest.raises(PredictionError):
            predictor.forecast_positions(1)

    def test_becomes_ready(self, predictor):
        for i in range(8):
            predictor.observe(np.array([float(i), 0.0]))
        assert predictor.ready
        forecast = predictor.forecast_positions(3)
        assert len(forecast) == 3

    def test_rejects_bad_position(self, predictor):
        with pytest.raises(PredictionError):
            predictor.observe(np.zeros(3))


class TestLinearMotionForecast:
    def test_extrapolates_straight_line(self, predictor):
        for i in range(20):
            predictor.observe(np.array([2.0 * i, -1.0 * i]))
        forecast = predictor.forecast_positions(3)
        assert forecast[0].mean[0] == pytest.approx(40.0, abs=2.0)
        assert forecast[2].mean[0] == pytest.approx(44.0, abs=3.0)
        assert forecast[2].mean[1] == pytest.approx(-22.0, abs=3.0)

    def test_covariance_grows_with_horizon(self, predictor):
        rng = np.random.default_rng(0)
        for i in range(20):
            predictor.observe(
                np.array([2.0 * i, 0.0]) + rng.normal(0, 0.05, 2)
            )
        forecast = predictor.forecast_positions(6)
        traces = [float(np.trace(g.cov)) for g in forecast]
        assert traces[-1] >= traces[0]


class TestPredictabilityGap:
    def test_tram_more_predictable_than_pedestrian(self):
        """The property the whole buffer section rests on."""
        space = Box((0, 0), (1000, 1000))
        errors = {}
        for kind, gen in (("tram", tram_tour), ("ped", pedestrian_tour)):
            errs = []
            for seed in range(4):
                tour = gen(space, np.random.default_rng(seed), speed=0.5, steps=200)
                predictor = KalmanMotionPredictor()
                for i in range(len(tour)):
                    if predictor.ready and i + 3 < len(tour):
                        forecast = predictor.forecast_positions(3)[-1]
                        errs.append(
                            float(
                                np.linalg.norm(
                                    forecast.mean - tour.positions[i + 3]
                                )
                            )
                        )
                    predictor.observe(tour.positions[i])
            errors[kind] = float(np.mean(errs))
        assert errors["tram"] < errors["ped"]


class TestVisitProbabilities:
    def _trained(self):
        predictor = KalmanMotionPredictor()
        for i in range(15):
            predictor.observe(np.array([100.0 + 10.0 * i, 500.0]))
        return predictor

    def test_not_ready_returns_empty(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        cells, probs = visit_probabilities(KalmanMotionPredictor(), grid)
        assert cells.shape == (0, 2) and probs.shape == (0,)

    def test_normalised(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        predictor = self._trained()
        cells, probs = visit_probabilities(
            predictor, grid, steps=5, radius=3, center=np.array([240.0, 500.0])
        )
        assert cells.shape == (49, 2) and probs.shape == (49,)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_candidates_run_ring_by_ring_from_the_client(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        center = np.array([40.0, 990.0])  # a corner: rings are clipped
        cells, _ = visit_probabilities(
            self._trained(), grid, steps=2, radius=3, center=center
        )
        home = grid.cell_of_point(center)
        expected = [c for r in range(4) for c in grid.ring(home, r)]
        assert [tuple(c) for c in cells.tolist()] == expected

    def test_mass_ahead_of_motion(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        predictor = self._trained()  # moving in +x at y=500
        cells, probs = visit_probabilities(
            predictor, grid, steps=5, radius=4, center=np.array([240.0, 500.0])
        )
        ahead = probs[cells[:, 0] >= 5].sum()
        behind = probs[cells[:, 0] < 4].sum()
        assert ahead > behind

    def test_radius_requires_center(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        predictor = self._trained()
        with pytest.raises(PredictionError):
            visit_probabilities(predictor, grid, radius=2)

    def test_whole_grid_mode(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (8, 8))
        predictor = self._trained()
        cells, probs = visit_probabilities(predictor, grid, steps=3)
        assert [tuple(c) for c in cells.tolist()] == list(grid.cells())
        assert probs.sum() == pytest.approx(1.0)

    def test_frame_extents_spread_mass(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        predictor = self._trained()
        _, tight = visit_probabilities(
            predictor, grid, steps=3, radius=4, center=np.array([240.0, 500.0])
        )
        _, spread = visit_probabilities(
            predictor,
            grid,
            steps=3,
            radius=4,
            center=np.array([240.0, 500.0]),
            frame_extents=np.array([150.0, 150.0]),
        )
        # Spreading flattens the distribution: the max cell probability drops.
        assert spread.max() <= tight.max() + 1e-9

    def test_bad_frame_extents_rejected(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        predictor = self._trained()
        for bad in (np.array([-1.0, 1.0]), np.array([1.0, 1.0, 1.0])):
            with pytest.raises(PredictionError):
                visit_probabilities(
                    predictor,
                    grid,
                    radius=2,
                    center=np.array([240.0, 500.0]),
                    frame_extents=bad,
                )

    def test_far_from_candidates_falls_back_to_uniform(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        predictor = KalmanMotionPredictor()
        # Train far outside the grid so all candidate pdfs underflow.
        for i in range(10):
            predictor.observe(np.array([1e7 + i, 1e7]))
        cells, probs = visit_probabilities(
            predictor, grid, steps=2, radius=2, center=np.array([500.0, 500.0])
        )
        assert len(cells) == 25
        assert np.all(probs == 1.0 / 25)

    def test_matches_per_cell_scalar_density(self):
        """The array form is the per-cell, per-step sum it replaced."""
        grid = Grid(Box((-50, 20), (950, 1220)), (10, 12))
        predictor = self._trained()
        center = np.array([240.0, 500.0])
        extents = np.array([50.0, 60.0])
        cells, probs = visit_probabilities(
            predictor, grid, steps=7, radius=3, center=center, frame_extents=extents
        )
        spread = np.diag(extents**2 / 12.0)
        weights = np.zeros(len(cells))
        for g in predictor.forecast_positions(7):
            widened = Gaussian(g.mean, g.cov + spread)
            for i, cell in enumerate(cells.tolist()):
                weights[i] += widened.pdf(grid.cell_center(tuple(cell))) * grid.cell_volume
        assert np.array_equal(probs, weights / float(weights.sum()))

    def test_handed_in_forecasts_are_used_as_a_prefix(self):
        grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
        predictor = self._trained()
        kwargs = dict(steps=4, radius=3, center=np.array([240.0, 500.0]))
        cells, probs = visit_probabilities(predictor, grid, **kwargs)
        longer = predictor.forecast_positions(9)
        predictor.forecast_positions = None  # must not be asked again
        again_cells, again = visit_probabilities(
            predictor, grid, forecasts=longer, **kwargs
        )
        assert np.array_equal(cells, again_cells)
        assert np.array_equal(probs, again)
