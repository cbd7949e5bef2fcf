"""Motion prediction and grid visit probabilities.

This module turns a stream of observed client positions into the
probability distribution over grid blocks that drives the motion-aware
buffer manager (Section V-B):

1. a predictor (Kalman constant-velocity, stacked-history RLS -- the
   paper's formulation -- or dead reckoning for ablations) produces
   multi-step position forecasts with growing error covariance;
2. :func:`visit_probabilities` integrates those Gaussians over the grid
   cells around the client and normalises, giving ``P(block visited)``
   as a pair of arrays (cell ids, probabilities).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.errors import PredictionError
from repro.geometry.grid import Grid
from repro.motion.kalman import ConstantVelocityModel2D, Gaussian, KalmanFilter
from repro.motion.rls import RecursiveLeastSquares

__all__ = [
    "Predictor",
    "KalmanMotionPredictor",
    "HistoryMotionPredictor",
    "DeadReckoningPredictor",
    "visit_probabilities",
]


class Predictor(Protocol):
    """Anything that forecasts future positions from observed ones."""

    def observe(self, position: np.ndarray) -> None:
        """Consume one observed position."""
        ...

    @property
    def ready(self) -> bool:
        """True once enough history arrived to forecast."""
        ...

    def forecast_positions(self, steps: int) -> list[Gaussian]:
        """Gaussians over the position at each of the next ``steps`` ticks."""
        ...


class KalmanMotionPredictor:
    """Constant-velocity Kalman filter over 2-D positions."""

    def __init__(
        self,
        dt: float = 1.0,
        *,
        process_noise: float = 0.5,
        measurement_noise: float = 0.5,
    ):
        self._model = ConstantVelocityModel2D(
            dt, process_noise=process_noise, measurement_noise=measurement_noise
        )
        self._filter: KalmanFilter | None = None
        self._observations = 0

    @property
    def ready(self) -> bool:
        return self._observations >= 2

    def observe(self, position: np.ndarray) -> None:
        position = np.asarray(position, dtype=float)
        if position.shape != (2,):
            raise PredictionError(f"expected a 2-D position, got {position.shape}")
        if self._filter is None:
            self._model.initial_position = position
            self._filter = self._model.build()
            self._filter.update(position)
        else:
            self._filter.step(position)
        self._observations += 1

    def forecast_positions(self, steps: int) -> list[Gaussian]:
        if not self.ready or self._filter is None:
            raise PredictionError("predictor needs at least 2 observations")
        return [g.marginal([0, 1]) for g in self._filter.forecast(steps)]


class HistoryMotionPredictor:
    """The paper's stacked-history predictor.

    State ``s_t = [p(t), p(t-1), ..., p(t-h)]`` (flattened to
    ``2 * (h+1)`` components); the transition matrix is fitted online
    with recursive least squares, and the prediction error covariance is
    tracked empirically with exponential smoothing, giving the
    ``P_t = E[e_t e_t^T]`` of the paper.
    """

    def __init__(self, history: int = 3, *, forgetting: float = 0.95):
        if history < 1:
            raise PredictionError(f"history must be >= 1, got {history}")
        self._h = history
        self._dim = 2 * (history + 1)
        self._rls = RecursiveLeastSquares(self._dim, forgetting=forgetting)
        self._positions: deque[np.ndarray] = deque(maxlen=history + 2)
        self._error_cov = np.eye(self._dim) * 1.0
        self._error_alpha = 0.2

    @property
    def ready(self) -> bool:
        # Need a full state plus at least one observed transition.
        return len(self._positions) >= self._h + 2 and self._rls.updates >= 1

    def _state_from(self, newest_first: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(newest_first)

    def _current_state(self) -> np.ndarray:
        ordered = list(self._positions)[-(self._h + 1):]
        ordered.reverse()  # newest first, as in the paper's s_t definition
        return self._state_from(ordered)

    def observe(self, position: np.ndarray) -> None:
        position = np.asarray(position, dtype=float)
        if position.shape != (2,):
            raise PredictionError(f"expected a 2-D position, got {position.shape}")
        self._positions.append(position.copy())
        if len(self._positions) >= self._h + 2:
            all_pos = list(self._positions)
            prev = all_pos[-(self._h + 2):-1]
            curr = all_pos[-(self._h + 1):]
            prev.reverse()
            curr.reverse()
            x = self._state_from(prev)
            y = self._state_from(curr)
            predicted = self._rls.predict(x)
            error = y - predicted
            self._error_cov = (
                (1 - self._error_alpha) * self._error_cov
                + self._error_alpha * np.outer(error, error)
            )
            self._rls.update(x, y)

    def forecast_positions(self, steps: int) -> list[Gaussian]:
        if not self.ready:
            raise PredictionError(
                f"predictor needs {self._h + 2} observations, "
                f"has {len(self._positions)}"
            )
        a = self._rls.transition
        state = self._current_state()
        cov = np.zeros((self._dim, self._dim))
        out: list[Gaussian] = []
        for _ in range(steps):
            state = a @ state
            cov = a @ cov @ a.T + self._error_cov
            out.append(Gaussian(state[:2].copy(), cov[:2, :2].copy()))
        return out


class DeadReckoningPredictor:
    """Linear extrapolation of the last observed velocity (ablation).

    Covariance grows linearly with the horizon at a fixed rate; this is
    the "assume linear movement" baseline the related-work section
    criticises.
    """

    def __init__(self, dt: float = 1.0, *, spread_rate: float = 1.0):
        if dt <= 0:
            raise PredictionError(f"dt must be positive, got {dt}")
        if spread_rate <= 0:
            raise PredictionError(f"spread_rate must be positive, got {spread_rate}")
        self._dt = dt
        self._spread = spread_rate
        self._last: np.ndarray | None = None
        self._velocity = np.zeros(2)
        self._count = 0

    @property
    def ready(self) -> bool:
        return self._count >= 2

    def observe(self, position: np.ndarray) -> None:
        position = np.asarray(position, dtype=float)
        if position.shape != (2,):
            raise PredictionError(f"expected a 2-D position, got {position.shape}")
        if self._last is not None:
            self._velocity = (position - self._last) / self._dt
        self._last = position.copy()
        self._count += 1

    def forecast_positions(self, steps: int) -> list[Gaussian]:
        if not self.ready or self._last is None:
            raise PredictionError("predictor needs at least 2 observations")
        out = []
        for i in range(1, steps + 1):
            mean = self._last + self._velocity * self._dt * i
            cov = np.eye(2) * (self._spread * i) ** 2
            out.append(Gaussian(mean, cov))
        return out


def visit_probabilities(
    predictor: Predictor,
    grid: Grid,
    *,
    steps: int = 5,
    radius: int | None = None,
    center: np.ndarray | None = None,
    frame_extents: np.ndarray | None = None,
    forecasts: Sequence[Gaussian] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of each nearby grid block being visited.

    For each forecast step the positional Gaussian is evaluated at the
    centres of all candidate cells at once (cells within ``radius``
    Chebyshev rings of the client, or the whole grid when ``radius`` is
    None) -- one factorisation per step -- and scaled by the cell area,
    a midpoint approximation of the integral of eq. 3 over the block.
    Step contributions are summed and the result normalised to sum to 1.

    ``frame_extents`` (the query frame's side lengths) widens each
    Gaussian by the frame's own footprint: a block is "visited" when the
    *frame* touches it, not just the client's point position, so the
    position uncertainty is convolved with a uniform box of that size
    (approximated by adding the box's variance ``extent^2 / 12``).

    ``forecasts`` hands in ``predictor.forecast_positions(n)`` for some
    ``n >= steps`` when the caller already holds it; the first ``steps``
    entries are used and the predictor is not asked again.

    Returns ``(cells, probs)``: the ``(n, ndim)`` candidate cell ids, ring
    by ring outwards from the client (row-major for the whole grid), and
    their ``(n,)`` probabilities.  Both are empty when the predictor is
    not ready.
    """
    if not predictor.ready:
        return np.empty((0, grid.ndim), dtype=int), np.empty(0)
    if forecasts is None:
        forecasts = predictor.forecast_positions(steps)
    forecasts = forecasts[:steps]
    if frame_extents is not None:
        extents = np.asarray(frame_extents, dtype=float)
        if extents.shape != (2,) or np.any(extents < 0):
            raise PredictionError(f"bad frame extents {extents}")
        spread = np.diag(extents**2 / 12.0)
        forecasts = [Gaussian(g.mean, g.cov + spread) for g in forecasts]
    if radius is not None:
        if center is None:
            raise PredictionError("radius requires the client position (center)")
        home = grid.cell_of_point(np.asarray(center, dtype=float))
        cells = grid.cells_within(home, radius)
    else:
        cells = grid.cell_ids()
    centers = grid.cell_centers(cells)
    cell_area = grid.cell_volume
    weights = np.zeros(len(cells))
    for gaussian in forecasts:
        weights += gaussian.pdf_many(centers) * cell_area
    total = float(weights.sum())
    if total <= 0.0:
        # All mass escaped the candidate set; fall back to uniform.
        return cells, np.full(len(cells), 1.0 / len(cells))
    return cells, weights / total
