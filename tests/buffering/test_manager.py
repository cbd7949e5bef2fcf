"""Tests for the buffer managers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BufferError_, PredictionError
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.buffering.manager import (
    BufferSessionStats,
    MotionAwareBufferManager,
    NaiveBufferManager,
    TickResult,
)
from repro.motion.predictor import KalmanMotionPredictor
from repro.motion.trajectory import tram_tour

SPACE = Box((0, 0), (1000, 1000))


def flat_block_bytes(cell, w_min):
    return int(500 * (1.0 - 0.8 * w_min)) + 50


@pytest.fixture()
def grid() -> Grid:
    return Grid(SPACE, (20, 20))


MANAGERS = [MotionAwareBufferManager, NaiveBufferManager]


@pytest.fixture(params=MANAGERS, ids=lambda c: c.__name__)
def manager(request, grid):
    return request.param(grid, 32 * 1024, flat_block_bytes)


class TestTickBasics:
    def test_first_tick_all_misses(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        result = manager.tick(np.array([500.0, 500.0]), 0.5, box, 0.5)
        assert result.misses == result.required_cells > 0
        assert result.hits == 0
        assert result.contacted_server
        assert result.new_blocks == result.required_cells
        assert set(result.demand_cells) <= set(
            manager.grid.cells_overlapping(box)
        )

    def test_repeat_tick_all_hits(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        pos = np.array([500.0, 500.0])
        manager.tick(pos, 0.5, box, 0.5)
        result = manager.tick(pos, 0.5, box, 0.5)
        assert result.misses == 0
        assert result.hits == result.required_cells
        assert not result.contacted_server
        assert result.new_blocks == 0

    def test_resolution_increase_causes_miss(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        pos = np.array([500.0, 500.0])
        manager.tick(pos, 0.9, box, 0.9)
        result = manager.tick(pos, 0.1, box, 0.1)
        assert result.misses == result.required_cells
        # Demand bytes are the refinement delta, not the full block.
        full = flat_block_bytes((0, 0), 0.1)
        coarse = flat_block_bytes((0, 0), 0.9)
        assert result.demand_bytes == result.misses * (full - coarse)

    def test_resolution_decrease_is_free(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        pos = np.array([500.0, 500.0])
        manager.tick(pos, 0.1, box, 0.1)
        result = manager.tick(pos, 0.9, box, 0.9)
        assert result.misses == 0

    def test_invalid_resolution_rejected(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        with pytest.raises(BufferError_):
            manager.tick(np.zeros(2), 0.5, box, 1.5)

    def test_stats_accumulate(self, manager):
        box = Box.from_center((500, 500), (100, 100))
        pos = np.array([500.0, 500.0])
        manager.tick(pos, 0.5, box, 0.5)
        manager.tick(pos, 0.5, box, 0.5)
        stats = manager.stats
        assert stats.ticks == 2
        assert stats.contacts == 1
        assert 0.0 <= stats.hit_rate <= 1.0
        assert 0.0 <= stats.raw_hit_rate <= 1.0
        assert stats.total_bytes == stats.demand_bytes + stats.prefetch_bytes


class TestPrefetching:
    def test_motion_aware_prefetches_after_warmup(self, grid):
        manager = MotionAwareBufferManager(grid, 64 * 1024, flat_block_bytes)
        tour = tram_tour(SPACE, np.random.default_rng(3), speed=0.5, steps=60)
        prefetched = 0
        for i in range(len(tour)):
            pos = tour.positions[i]
            box = Box.from_center(pos, (100, 100))
            result = manager.tick(pos, 0.5, box, 0.5)
            prefetched += result.prefetched_cells
        assert prefetched > 0
        assert manager.stats.prefetch_bytes > 0

    def test_naive_prefetches_rings(self, grid):
        manager = NaiveBufferManager(grid, 64 * 1024, flat_block_bytes)
        pos = np.array([500.0, 500.0])
        box = Box.from_center(pos, (100, 100))
        result = manager.tick(pos, 0.5, box, 0.5)
        assert result.prefetched_cells > 0
        # Ring cells surround the home cell.
        home = grid.cell_of_point(pos)
        for cell in result.prefetch_cells:
            assert max(
                abs(cell[0] - home[0]), abs(cell[1] - home[1])
            ) >= 1

    def test_prefetch_respects_capacity(self, grid):
        tiny = NaiveBufferManager(grid, 2 * 1024, flat_block_bytes)
        pos = np.array([500.0, 500.0])
        box = Box.from_center(pos, (100, 100))
        tiny.tick(pos, 0.5, box, 0.5)
        assert tiny.cache.used_bytes <= tiny.cache.capacity_bytes

    def test_moving_client_gets_prefetch_hits(self, grid):
        """Motion-aware prefetching must produce hits on a straight run."""
        manager = MotionAwareBufferManager(grid, 64 * 1024, flat_block_bytes)
        y = 500.0
        hits_after_warmup = 0
        new_after_warmup = 0
        for i in range(80):
            x = 100.0 + 10.0 * i
            pos = np.array([x, y])
            box = Box.from_center(pos, (100, 100))
            result = manager.tick(pos, 0.5, box, 0.5)
            if i > 20:
                hits_after_warmup += result.new_hits
                new_after_warmup += result.new_blocks
        assert new_after_warmup > 0
        assert hits_after_warmup / new_after_warmup > 0.6

    def test_full_resolution_mode(self, grid):
        manager = NaiveBufferManager(
            grid, 32 * 1024, flat_block_bytes, full_resolution=True
        )
        pos = np.array([500.0, 500.0])
        box = Box.from_center(pos, (100, 100))
        manager.tick(pos, 1.0, box, 1.0)  # resolution arg overridden to 0.0
        home = grid.cell_of_point(pos)
        block = manager.cache.get(home)
        assert block is not None
        assert block.w_min == 0.0

    def test_constructor_validation(self, grid):
        with pytest.raises(BufferError_):
            MotionAwareBufferManager(
                grid, 1024, flat_block_bytes, k_directions=0
            )
        with pytest.raises(BufferError_):
            MotionAwareBufferManager(grid, 1024, flat_block_bytes, horizon=0)
        with pytest.raises(BufferError_):
            MotionAwareBufferManager(
                grid, 1024, flat_block_bytes, prefetch_radius=0
            )
        with pytest.raises(BufferError_):
            NaiveBufferManager(grid, 1024, flat_block_bytes, prefetch_radius=0)

    def test_zero_size_blocks_clamped(self, grid):
        manager = NaiveBufferManager(grid, 32 * 1024, lambda c, w: 0)
        pos = np.array([500.0, 500.0])
        box = Box.from_center(pos, (100, 100))
        result = manager.tick(pos, 0.5, box, 0.5)
        assert result.misses > 0  # no crash; blocks stored as 1 byte


class ScriptedPredictor:
    """A Kalman predictor whose multi-step forecasts can be made to fail.

    (The manager's own one-step forecast each tick is left alone.)
    """

    def __init__(self, failures: list[Exception] | None = None):
        self._inner = KalmanMotionPredictor()
        self._failures = failures or []
        self.long_forecasts: list[int] = []

    @property
    def ready(self) -> bool:
        return self._inner.ready

    def observe(self, position: np.ndarray) -> None:
        self._inner.observe(position)

    def forecast_positions(self, steps: int):
        if steps > 1:
            self.long_forecasts.append(steps)
            if self._failures:
                raise self._failures.pop(0)
        return self._inner.forecast_positions(steps)


def straight_run(manager, ticks: int = 12):
    for i in range(ticks):
        pos = np.array([100.0 + 60.0 * i, 500.0])
        yield manager.tick(pos, 0.5, Box.from_center(pos, (100, 100)), 0.5)


class TestReachJudgement:
    def test_one_long_forecast_per_contact(self, grid):
        predictor = ScriptedPredictor()
        manager = MotionAwareBufferManager(
            grid, 64 * 1024, flat_block_bytes, predictor=predictor
        )
        prefetching = 0
        for result in straight_run(manager):
            # The reach judgement and the visit probabilities share it.
            asked, predictor.long_forecasts = predictor.long_forecasts, []
            assert len(asked) == 1 if result.prefetched_cells else len(asked) <= 1
            prefetching += bool(result.prefetched_cells)
            for cell in result.prefetch_cells:
                assert all(type(v) is int for v in cell)
        assert prefetching

    def test_prediction_error_keeps_the_disc(self, grid):
        """A predictor that cannot forecast yet costs reach, not the tick:
        the disc radius stands and the probabilities forecast afresh."""
        predictor = ScriptedPredictor([PredictionError("not yet")])
        manager = MotionAwareBufferManager(
            grid, 64 * 1024, flat_block_bytes, predictor=predictor
        )
        assert sum(r.prefetched_cells for r in straight_run(manager)) > 0
        # The failed reach forecast was followed by a shorter, successful one.
        assert predictor.long_forecasts[1] <= predictor.long_forecasts[0]

    @pytest.mark.parametrize(
        "bug", [ValueError("shape"), np.linalg.LinAlgError("singular")]
    )
    def test_other_errors_propagate(self, grid, bug):
        """Only ``PredictionError`` means "no forecast"; anything else is a
        bug and must not degrade silently to the disc radius."""
        manager = MotionAwareBufferManager(
            grid, 64 * 1024, flat_block_bytes, predictor=ScriptedPredictor([bug])
        )
        with pytest.raises(type(bug)):
            list(straight_run(manager))


class TestSessionStats:
    def test_empty_session(self):
        stats = BufferSessionStats()
        assert stats.hit_rate == 1.0
        assert stats.raw_hit_rate == 1.0
        assert stats.total_bytes == 0

    def test_add_aggregates(self):
        stats = BufferSessionStats()
        stats.add(
            TickResult(
                required_cells=4,
                hits=3,
                misses=1,
                new_blocks=2,
                new_hits=1,
                demand_bytes=10,
                prefetch_bytes=20,
                prefetched_cells=2,
                contacted_server=True,
            )
        )
        assert stats.raw_hit_rate == 0.75
        assert stats.hit_rate == 0.5
        assert stats.contacts == 1
        assert stats.per_contact_blocks == [3]
