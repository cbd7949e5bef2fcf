"""Tests for direction partitioning of grid blocks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import BufferError_
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.buffering.partition import direction_probabilities, partition_cells


@pytest.fixture()
def grid() -> Grid:
    return Grid(Box((0, 0), (100, 100)), (10, 10))


def as_array(cells) -> np.ndarray:
    return np.asarray(cells, dtype=int).reshape(-1, 2)


def reference_sectors(grid: Grid, cells, center, k: int, offset=None) -> list[int]:
    """The per-cell loop the array form replaced (math.atan2, a toggle)."""
    offset = -math.pi / k if offset is None else offset
    width = 2.0 * math.pi / k
    out, toggle = [], False
    for cell in cells:
        delta = grid.cell_center(tuple(cell)) - center
        if float(np.dot(delta, delta)) == 0.0:
            out.append(0)
            continue
        angle = (math.atan2(delta[1], delta[0]) - offset) % (2.0 * math.pi)
        frac = angle / width
        boundary = round(frac)
        if abs(frac - boundary) < 1e-12:
            upper = int(boundary) % k
            out.append(upper if toggle else (upper - 1) % k)
            toggle = not toggle
        else:
            out.append(min(int(frac), k - 1))
    return out


class TestPartitionCells:
    def test_every_cell_assigned_once(self, grid: Grid):
        center = np.array([55.0, 55.0])
        sectors = partition_cells(grid, grid.cell_ids(), center, 4)
        assert sectors.shape == (grid.cell_count,)
        assert set(sectors.tolist()) == {0, 1, 2, 3}

    def test_quadrants(self, grid: Grid):
        center = np.array([50.0, 50.0])
        # Cell centres at 45 degrees are ties; pick clear quadrant cells.
        east = grid.cell_of_point((85, 55))
        north = grid.cell_of_point((55, 85))
        west = grid.cell_of_point((15, 55))
        south = grid.cell_of_point((55, 15))
        sectors = partition_cells(
            grid, as_array([east, north, west, south]), center, 4
        )
        assert sectors.tolist() == [0, 1, 2, 3]

    def test_center_cell_goes_to_sector_zero(self, grid: Grid):
        center = grid.cell_center((5, 5))
        for offset in (None, 0.0, math.pi / 2):
            sectors = partition_cells(
                grid, as_array([(5, 5)]), center, 4, offset=offset
            )
            assert sectors.tolist() == [0]

    def test_tie_breaking_alternates(self, grid: Grid):
        """Blocks exactly on a partition line alternate between sectors.

        With the default orientation the boundary between sectors 0 and
        1 runs along the 45-degree diagonal -- the paper's example of
        blocks (5,5), (6,6), (7,7), (8,8) straddling the line between
        directions 1 and 2.  The first goes to the lower sector.
        """
        center = grid.cell_center((5, 5))
        on_line = as_array([(6, 6), (7, 7), (8, 8), (9, 9)])
        assert partition_cells(grid, on_line, center, 4).tolist() == [0, 1, 0, 1]

    def test_alternation_counts_ties_across_all_lines(self, grid: Grid):
        """One running count of ties, whichever line each falls on --
        and the centre cell, though its bearing of zero can sit on a
        line, is not one of them."""
        center = grid.cell_center((5, 5))
        cells = as_array(
            [(6, 6), (4, 6), (5, 5), (4, 4), (7, 5), (6, 4), (7, 7)]
        )
        #        0|1     1|2    centre  2|3   clear    3|0     0|1
        for offset in (None, math.pi / 4):
            sectors = partition_cells(grid, cells, center, 4, offset=offset)
            assert sectors.tolist() == reference_sectors(
                grid, cells.tolist(), center, 4, offset
            )
        assert partition_cells(grid, cells, center, 4).tolist() == [
            0, 2, 0, 2, 0, 0, 0
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_per_cell_reference(self, seed: int):
        rng = np.random.default_rng(seed)
        low = rng.uniform(-50.0, 50.0, 2)
        shape = tuple(int(v) for v in rng.integers(3, 14, 2))
        grid = Grid(Box(low, low + rng.uniform(10.0, 500.0, 2)), shape)
        home = tuple(int(rng.integers(0, s)) for s in shape)
        # Half the time stand exactly on a cell centre, where whole
        # rows, columns and diagonals of cells sit on partition lines.
        center = grid.cell_center(home)
        if seed % 2:
            center = center + rng.uniform(-0.5, 0.5, 2) * grid.cell_size
        cells = grid.cells_within(home, int(rng.integers(1, 6)))
        k = int(rng.integers(1, 9))
        sectors = partition_cells(grid, cells, center, k)
        assert sectors.tolist() == reference_sectors(
            grid, cells.tolist(), center, k
        )

    def test_k_one_takes_everything(self, grid: Grid):
        sectors = partition_cells(grid, grid.cell_ids(), np.array([50.0, 50.0]), 1)
        assert not sectors.any()

    def test_invalid_k(self, grid: Grid):
        with pytest.raises(BufferError_):
            partition_cells(grid, as_array([]), np.zeros(2), 0)

    def test_no_cells(self, grid: Grid):
        assert partition_cells(grid, as_array([]), np.zeros(2), 4).shape == (0,)

    def test_offset_rotates_sectors(self, grid: Grid):
        center = np.array([50.0, 50.0])
        east = grid.cell_of_point((85, 55))
        rotated = partition_cells(
            grid, as_array([east]), center, 4, offset=math.pi / 2
        )
        # With a 90-degree offset the east cell lands in the last sector.
        assert rotated.tolist() == [3]

    def test_eight_directions(self, grid: Grid):
        center = np.array([52.0, 51.0])
        sectors = partition_cells(grid, grid.cell_ids(), center, 8)
        assert set(sectors.tolist()) == set(range(8))


class TestDirectionProbabilities:
    def test_sums_to_one(self, grid: Grid):
        center = np.array([50.0, 50.0])
        sectors = partition_cells(grid, grid.cell_ids(), center, 4)
        dir_probs = direction_probabilities(sectors, np.ones(len(sectors)), 4)
        assert sum(dir_probs) == pytest.approx(1.0)

    def test_reflects_cell_mass(self, grid: Grid):
        center = np.array([50.0, 50.0])
        east = grid.cell_of_point((85, 55))
        west = grid.cell_of_point((15, 55))
        sectors = partition_cells(grid, as_array([east, west]), center, 4)
        dir_probs = direction_probabilities(sectors, np.array([0.9, 0.1]), 4)
        assert dir_probs[0] == pytest.approx(0.9)
        assert dir_probs[2] == pytest.approx(0.1)

    def test_zero_mass_uniform_fallback(self):
        empty = np.empty(0, dtype=int)
        assert direction_probabilities(empty, np.empty(0), 2) == [0.5, 0.5]
        both = np.array([0, 1])
        assert direction_probabilities(both, np.zeros(2), 2) == [0.5, 0.5]

    def test_missing_cells_count_as_zero(self):
        """A direction none of the cells fell into carries no mass."""
        dir_probs = direction_probabilities(np.array([0]), np.array([0.4]), 2)
        assert dir_probs == [1.0, 0.0]

    def test_sums_accumulate_in_candidate_order(self):
        """Bit-equal to a left-to-right running sum per direction."""
        rng = np.random.default_rng(5)
        sectors = rng.integers(0, 4, 200)
        probs = rng.uniform(0.0, 1.0, 200) ** 8
        sums = [0.0] * 4
        for sector, p in zip(sectors.tolist(), probs.tolist()):
            sums[sector] += p
        total = sum(sums)
        assert direction_probabilities(sectors, probs, 4) == [
            s / total for s in sums
        ]

    def test_invalid_k(self):
        with pytest.raises(BufferError_):
            direction_probabilities(np.empty(0, dtype=int), np.empty(0), 0)
