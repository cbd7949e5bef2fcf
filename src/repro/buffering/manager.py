"""Buffer managers: motion-aware (the paper's) and naive (baseline).

The manager sits between the client's continuous query stream and the
server.  Every tick it:

1. determines the grid blocks the current query frame needs and the
   resolution the current speed demands;
2. serves what it can from the cache (*hits*) and fetches the rest
   (*misses* -- each tick with at least one miss is one server contact);
3. on contact, prefetches additional blocks up to the buffer capacity.

The two managers differ only in step 3:

* :class:`MotionAwareBufferManager` predicts the client's path
  (Section V-B), derives per-direction probabilities, allocates the
  block budget across directions with the recursive eq.-2 optimum
  (Section V-A), and prefetches the most probable blocks per direction;
  eviction prefers improbable blocks.  The prediction horizon scales
  with the buffer: a bigger buffer forces predictions farther into the
  future, which is why the paper's data utilisation *drops* as the
  buffer grows.
* :class:`NaiveBufferManager` treats all surrounding blocks as equally
  likely: it prefetches concentric rings around the client until the
  buffer is full and evicts LRU.

Both buffer at the resolution the current speed asks for, which is the
paper's multi-resolution buffering ("a client moving at higher speeds
buffers more objects with lower resolutions"); the naive manager can be
pinned to full resolution to form the Fig. 14/15 naive system.

Metrics: the *cache hit rate* reported by the experiments is measured
over **newly required** blocks -- blocks the query frame needs this tick
but did not need last tick -- because blocks carried over from the
previous frame are trivially cached and would mask the prefetcher
entirely.  The raw all-blocks rate is also kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import BufferError_, PredictionError
from repro.geometry.box import Box
from repro.geometry.grid import CellId, Grid
from repro.buffering.cache import BlockCache
from repro.buffering.cost import allocate_blocks
from repro.buffering.partition import direction_probabilities, partition_cells

# Signature of a buffer allocator: (direction probabilities, capacity in
# blocks) -> blocks per direction.  The default is the paper's recursive
# eq.-2 scheme; the ablation benchmarks swap in alternatives.
AllocatorFn = Callable[[list[float], int], list[int]]
from repro.motion.kalman import Gaussian
from repro.motion.predictor import KalmanMotionPredictor, Predictor, visit_probabilities

__all__ = [
    "TickResult",
    "BufferSessionStats",
    "MotionAwareBufferManager",
    "NaiveBufferManager",
]

# Server-side size of one block at one resolution, in bytes.
BlockBytesFn = Callable[[CellId, float], int]

# Row ids (into the server's columnar store) of one block at one
# resolution; optional -- managers without it do byte accounting only.
BlockRowsFn = Callable[[CellId, float], np.ndarray]


@dataclass(frozen=True)
class TickResult:
    """What happened during one simulation tick.

    ``demand_cells``/``prefetch_cells`` list the exact blocks fetched so
    end-to-end drivers can replay the fetches against a real server for
    precise wire accounting.
    """

    required_cells: int
    hits: int
    misses: int
    new_blocks: int
    new_hits: int
    demand_bytes: int
    prefetch_bytes: int
    prefetched_cells: int
    contacted_server: bool
    demand_cells: tuple[CellId, ...] = ()
    prefetch_cells: tuple[CellId, ...] = ()


@dataclass
class BufferSessionStats:
    """Aggregates over a whole tour."""

    ticks: int = 0
    required: int = 0
    hits: int = 0
    misses: int = 0
    new_blocks: int = 0
    new_hits: int = 0
    contacts: int = 0
    demand_bytes: int = 0
    prefetch_bytes: int = 0
    per_contact_blocks: list[int] = field(default_factory=list)

    def add(self, result: TickResult) -> None:
        self.ticks += 1
        self.required += result.required_cells
        self.hits += result.hits
        self.misses += result.misses
        self.new_blocks += result.new_blocks
        self.new_hits += result.new_hits
        self.demand_bytes += result.demand_bytes
        self.prefetch_bytes += result.prefetch_bytes
        if result.contacted_server:
            self.contacts += 1
            self.per_contact_blocks.append(result.misses + result.prefetched_cells)

    @property
    def raw_hit_rate(self) -> float:
        """Fraction of all required blocks served from the buffer."""
        return self.hits / self.required if self.required else 1.0

    @property
    def hit_rate(self) -> float:
        """Fraction of *newly required* blocks already in the buffer."""
        return self.new_hits / self.new_blocks if self.new_blocks else 1.0

    @property
    def total_bytes(self) -> int:
        return self.demand_bytes + self.prefetch_bytes


class _BufferManagerBase:
    """Demand-path logic shared by both managers."""

    def __init__(
        self,
        grid: Grid,
        capacity_bytes: int,
        block_bytes: BlockBytesFn,
        *,
        eviction_policy: str,
        block_rows: BlockRowsFn | None = None,
    ):
        self._grid = grid
        self._block_bytes = block_bytes
        self._block_rows = block_rows
        self.cache = BlockCache(capacity_bytes, policy=eviction_policy)
        self.stats = BufferSessionStats()
        self._avg_block_estimate: float | None = None
        self._prev_required: set[CellId] = set()
        self._last_position: np.ndarray | None = None
        self._avg_step: float | None = None

    @property
    def grid(self) -> Grid:
        return self._grid

    def tick(
        self,
        position: np.ndarray,
        speed: float,
        query_box: Box,
        resolution: float,
    ) -> TickResult:
        """Process one time step; returns what was fetched."""
        if not 0.0 <= resolution <= 1.0:
            raise BufferError_(f"resolution must be in [0, 1], got {resolution}")
        position = np.asarray(position, dtype=float)
        self._track_motion(position)
        self._observe(position)
        required = self._grid.cells_overlapping(query_box)
        required_set = set(required)
        hits = 0
        new_blocks = 0
        new_hits = 0
        misses: list[CellId] = []
        for cell in required:
            cached = self.cache.holds(cell, resolution)
            if cell not in self._prev_required:
                new_blocks += 1
                if cached:
                    new_hits += 1
            if cached:
                hits += 1
                self.cache.touch(cell)
            else:
                misses.append(cell)
        self._prev_required = required_set
        demand_bytes = 0
        for cell in misses:
            # An empty block still occupies one marker byte: knowing a
            # cell holds no data is cacheable information.
            size = max(self._block_bytes(cell, resolution), 1)
            self._note_block_size(size)
            existing = self.cache.get(cell)
            already = existing.size_bytes if existing else 0
            demand_bytes += max(size - already, 0)
            self.cache.put(
                cell,
                resolution,
                size,
                prefetched=False,
                probability=1.0,
                protect=required_set,
                rows=self._rows_of(cell, resolution),
            )
            if self.cache.get(cell) is not None:
                self.cache.touch(cell)
        prefetch_bytes = 0
        prefetched: tuple[CellId, ...] = ()
        contacted = bool(misses)
        if contacted:
            prefetch_bytes, prefetched = self._prefetch(
                position, speed, query_box, resolution, required_set
            )
        result = TickResult(
            required_cells=len(required),
            hits=hits,
            misses=len(misses),
            new_blocks=new_blocks,
            new_hits=new_hits,
            demand_bytes=demand_bytes,
            prefetch_bytes=prefetch_bytes,
            prefetched_cells=len(prefetched),
            contacted_server=contacted,
            demand_cells=tuple(misses),
            prefetch_cells=prefetched,
        )
        self.stats.add(result)
        return result

    def utilization(self) -> float:
        """Used fraction of all prefetched bytes."""
        return self.cache.utilization()

    def rollback(self, cells: tuple[CellId, ...]) -> None:
        """Drop blocks whose wire transfer failed after this tick.

        The tick optimistically inserts demand and prefetch blocks; when
        the end-to-end driver's exchange dies on the link, the data
        never reached the client, so the blocks are discarded and the
        cells become misses again on the next frame.
        """
        for cell in cells:
            self.cache.discard(cell)
            self._prev_required.discard(cell)

    # -- hooks ----------------------------------------------------------------------

    def _observe(self, position: np.ndarray) -> None:
        """Feed the position stream to a predictor (no-op by default)."""

    def _prefetch(
        self,
        position: np.ndarray,
        speed: float,
        query_box: Box,
        resolution: float,
        required: set[CellId],
    ) -> tuple[int, tuple[CellId, ...]]:
        """Return (bytes prefetched, cells actually fetched)."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------------

    def _track_motion(self, position: np.ndarray) -> None:
        if self._last_position is not None:
            step = float(np.linalg.norm(position - self._last_position))
            if self._avg_step is None:
                self._avg_step = step
            else:
                self._avg_step = 0.7 * self._avg_step + 0.3 * step
        self._last_position = position.copy()

    def _rows_of(self, cell: CellId, resolution: float) -> np.ndarray | None:
        """Row ids of a block when a row source is wired in."""
        if self._block_rows is None:
            return None
        return self._block_rows(cell, resolution)

    def _note_block_size(self, size: int) -> None:
        if self._avg_block_estimate is None:
            self._avg_block_estimate = float(size)
        else:
            self._avg_block_estimate = 0.8 * self._avg_block_estimate + 0.2 * size

    def _block_budget(self) -> int:
        """How many blocks the whole buffer can hold, approximately."""
        if not self._avg_block_estimate or self._avg_block_estimate <= 0:
            return 0
        return max(int(self.cache.capacity_bytes / self._avg_block_estimate), 1)

    def _reach_radius(self, budget_blocks: int, required_count: int) -> int:
        """Chebyshev radius whose square holds ~budget+required blocks."""
        total = max(budget_blocks + required_count, 1)
        radius = int(math.ceil((math.sqrt(total) - 1.0) / 2.0))
        limit = max(self._grid.shape)
        return int(min(max(radius, 1), limit))

    def _fetch_for_prefetch(
        self,
        cells: list[CellId],
        resolution: float,
        required: set[CellId],
        probabilities: np.ndarray | None = None,
    ) -> tuple[int, tuple[CellId, ...]]:
        """Fetch ``cells`` in order; ``probabilities`` is grid-shaped."""
        total = 0
        fetched: list[CellId] = []
        for cell in cells:
            prob = float(probabilities[cell]) if probabilities is not None else 0.0
            if self.cache.holds(cell, resolution):
                if probabilities is not None:
                    self.cache.update_probability(cell, prob)
                continue
            # An empty block still occupies one marker byte: knowing a
            # cell holds no data is cacheable information.
            size = max(self._block_bytes(cell, resolution), 1)
            self._note_block_size(size)
            existing = self.cache.get(cell)
            already = existing.size_bytes if existing else 0
            stored = self.cache.put(
                cell,
                resolution,
                size,
                prefetched=existing is None,
                probability=prob,
                protect=required,
                rows=self._rows_of(cell, resolution),
            )
            if stored:
                total += max(size - already, 0)
                fetched.append(cell)
        return total, tuple(fetched)


class MotionAwareBufferManager(_BufferManagerBase):
    """Kalman-predicted, direction-allocated prefetching (Section V)."""

    def __init__(
        self,
        grid: Grid,
        capacity_bytes: int,
        block_bytes: BlockBytesFn,
        *,
        predictor: Predictor | None = None,
        k_directions: int = 4,
        horizon: int | None = None,
        prefetch_radius: int | None = None,
        allocator: AllocatorFn | None = None,
        block_rows: BlockRowsFn | None = None,
    ):
        super().__init__(
            grid,
            capacity_bytes,
            block_bytes,
            eviction_policy="probability",
            block_rows=block_rows,
        )
        if k_directions < 1:
            raise BufferError_(f"k_directions must be >= 1, got {k_directions}")
        if horizon is not None and horizon < 1:
            raise BufferError_(f"horizon must be >= 1, got {horizon}")
        if prefetch_radius is not None and prefetch_radius < 1:
            raise BufferError_(
                f"prefetch_radius must be >= 1, got {prefetch_radius}"
            )
        self._predictor: Predictor = (
            predictor if predictor is not None else KalmanMotionPredictor()
        )
        self._k = k_directions
        self._horizon = horizon
        self._radius = prefetch_radius
        self._allocator: AllocatorFn = (
            allocator if allocator is not None else allocate_blocks
        )
        self._pred_error: float | None = None

    def _observe(self, position: np.ndarray) -> None:
        # Track the empirical one-step prediction error before updating:
        # it measures how predictable this client actually is, which the
        # reach heuristic uses to decide how far ahead to trust forecasts.
        if self._predictor.ready:
            forecast = self._predictor.forecast_positions(1)[0]
            error = float(np.linalg.norm(forecast.mean - position))
            if self._pred_error is None:
                self._pred_error = error
            else:
                self._pred_error = 0.8 * self._pred_error + 0.2 * error
        self._predictor.observe(position)

    def _effective_radius(
        self, budget: int, required_count: int, position: np.ndarray
    ) -> tuple[int, list[Gaussian] | None]:
        """The prefetch reach, and the forecasts it was judged on.

        The forecasts (None when no forecast was needed or possible) run
        at least as far as the returned reach's horizon, so the caller
        can hand them on instead of forecasting again.
        """
        if self._radius is not None:
            return self._radius, None
        # A budget concentrated along the predicted path reaches farther
        # than a uniform disc -- but only when the prediction is actually
        # directional.  Scale the extension by the confidence ratio
        # (predicted displacement vs forecast spread): tram-like motion
        # doubles the reach, a wandering pedestrian keeps the disc.
        disc = self._reach_radius(budget, required_count)
        limit = max(self._grid.shape)
        horizon = self._effective_horizon(disc)
        try:
            # Directionality < 1 caps the reach at twice the disc; one
            # forecast that far serves every shorter horizon as a prefix.
            forecasts = self._predictor.forecast_positions(
                self._effective_horizon(min(2 * disc, limit))
            )
        except PredictionError:
            return disc, None
        last = forecasts[horizon - 1]
        displacement = float(np.linalg.norm(last.mean - position))
        spread = float(np.sqrt(max(np.trace(last.cov) / 2.0, 1e-12)))
        if self._pred_error is not None:
            # Accumulated empirical drift over the horizon dominates the
            # model covariance for erratic (pedestrian-like) motion.
            spread += self._pred_error * horizon
        directionality = displacement / (displacement + spread)
        radius = disc * (1.0 + directionality)
        return int(min(max(int(round(radius)), 1), limit)), forecasts

    def _effective_horizon(self, radius: int) -> int:
        if self._horizon is not None:
            return self._horizon
        # Enough steps for the predicted path to traverse `radius` cells.
        cell = float(self._grid.cell_size.min())
        step = self._avg_step if self._avg_step and self._avg_step > 0 else cell
        return int(min(max(math.ceil(radius * cell / step), 2), 60))

    def _prefetch(
        self,
        position: np.ndarray,
        speed: float,
        query_box: Box,
        resolution: float,
        required: set[CellId],
    ) -> tuple[int, tuple[CellId, ...]]:
        if not self._predictor.ready:
            return (0, ())
        budget = max(self._block_budget() - len(required), 0)
        if budget == 0:
            return (0, ())
        radius, forecasts = self._effective_radius(budget, len(required), position)
        cells, probs = visit_probabilities(
            self._predictor,
            self._grid,
            steps=self._effective_horizon(radius),
            radius=radius,
            center=position,
            frame_extents=query_box.extents,
            forecasts=forecasts,
        )
        # `where` addresses a grid-shaped array at every listed cell at once.
        where = tuple(cells.T)
        needed = np.zeros(self._grid.shape, dtype=bool)
        for cell in required:
            needed[cell] = True
        candidates = np.flatnonzero(~needed[where])
        if candidates.size == 0:
            return (0, ())
        sectors = partition_cells(self._grid, cells[candidates], position, self._k)
        dir_probs = direction_probabilities(sectors, probs[candidates], self._k)
        allocation = self._allocator(dir_probs, budget)
        # Most probable first; the stable sort leaves ties in ring order.
        ranked = np.argsort(-probs[candidates], kind="stable")
        ranked_sectors = sectors[ranked]
        picks = [
            ranked[ranked_sectors == direction][: allocation[direction]]
            for direction in range(self._k)
        ]
        chosen = np.concatenate(picks)
        # A direction may not have enough candidates to absorb its
        # allocation; spend the leftover budget on the most probable
        # remaining blocks so the buffer never sits idle.
        if chosen.size < budget:
            taken = np.zeros(candidates.size, dtype=bool)
            taken[chosen] = True
            leftovers = ranked[~taken[ranked]]
            chosen = np.concatenate([chosen, leftovers[: budget - chosen.size]])
        # Refresh probabilities of everything cached for eviction ranking.
        dense = np.zeros(self._grid.shape)
        dense[where] = probs
        for cell in self.cache.cells():
            self.cache.update_probability(cell, float(dense[cell]))
        chosen_cells = [tuple(c) for c in cells[candidates[chosen]].tolist()]
        return self._fetch_for_prefetch(chosen_cells, resolution, required, dense)


class NaiveBufferManager(_BufferManagerBase):
    """Uniform-probability ring prefetching with LRU eviction.

    Parameters
    ----------
    prefetch_radius:
        Cap on the ring radius; None (default) expands rings until the
        block budget is exhausted, so a bigger buffer prefetches farther
        out -- uniformly in all directions, which is exactly the paper's
        naive strawman.
    full_resolution:
        When True, every fetch (demand and prefetch) is forced to full
        resolution (``w_min = 0``); combined with LRU this is the naive
        end-to-end system of Figures 14/15.
    """

    def __init__(
        self,
        grid: Grid,
        capacity_bytes: int,
        block_bytes: BlockBytesFn,
        *,
        prefetch_radius: int | None = None,
        full_resolution: bool = False,
        block_rows: BlockRowsFn | None = None,
    ):
        super().__init__(
            grid,
            capacity_bytes,
            block_bytes,
            eviction_policy="lru",
            block_rows=block_rows,
        )
        if prefetch_radius is not None and prefetch_radius < 1:
            raise BufferError_(
                f"prefetch_radius must be >= 1, got {prefetch_radius}"
            )
        self._radius = prefetch_radius
        self._full_resolution = full_resolution

    def tick(
        self,
        position: np.ndarray,
        speed: float,
        query_box: Box,
        resolution: float,
    ) -> TickResult:
        if self._full_resolution:
            resolution = 0.0
        return super().tick(position, speed, query_box, resolution)

    def _prefetch(
        self,
        position: np.ndarray,
        speed: float,
        query_box: Box,
        resolution: float,
        required: set[CellId],
    ) -> tuple[int, tuple[CellId, ...]]:
        budget = max(self._block_budget() - len(required), 0)
        if budget == 0:
            return (0, ())
        max_radius = (
            self._radius
            if self._radius is not None
            else self._reach_radius(budget, len(required))
        )
        home = self._grid.cell_of_point(position)
        chosen: list[CellId] = []
        for radius in range(1, max_radius + 1):
            for cell in self._grid.ring(home, radius):
                if cell in required:
                    continue
                chosen.append(cell)
                if len(chosen) >= budget:
                    break
            if len(chosen) >= budget:
                break
        return self._fetch_for_prefetch(chosen, resolution, required)
