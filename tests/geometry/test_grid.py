"""Tests for the uniform grid."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.box import Box
from repro.geometry.grid import Grid


@pytest.fixture()
def grid() -> Grid:
    return Grid(Box((0, 0), (100, 50)), (10, 5))


class TestConstruction:
    def test_basic(self, grid: Grid):
        assert grid.shape == (10, 5)
        assert grid.cell_count == 50
        assert np.array_equal(grid.cell_size, [10.0, 10.0])
        assert grid.cell_volume == 100.0
        assert grid.ndim == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            Grid(Box((0, 0), (1, 1)), (2, 2, 2))

    def test_non_positive_shape_rejected(self):
        with pytest.raises(GeometryError):
            Grid(Box((0, 0), (1, 1)), (0, 3))

    def test_degenerate_space_rejected(self):
        with pytest.raises(GeometryError):
            Grid(Box((0, 0), (0, 1)), (1, 1))


class TestAddressing:
    def test_cell_of_point(self, grid: Grid):
        assert grid.cell_of_point((0, 0)) == (0, 0)
        assert grid.cell_of_point((15, 25)) == (1, 2)
        assert grid.cell_of_point((99.9, 49.9)) == (9, 4)

    def test_cell_of_point_clamps_outside(self, grid: Grid):
        assert grid.cell_of_point((-5, -5)) == (0, 0)
        assert grid.cell_of_point((500, 500)) == (9, 4)

    def test_cell_of_point_upper_edge(self, grid: Grid):
        assert grid.cell_of_point((100, 50)) == (9, 4)

    def test_cell_of_point_dim_mismatch(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cell_of_point((1, 2, 3))

    def test_cell_box_roundtrip(self, grid: Grid):
        box = grid.cell_box((3, 2))
        assert box == Box((30, 20), (40, 30))
        assert grid.cell_of_point(box.center) == (3, 2)

    def test_cell_box_invalid(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cell_box((10, 0))
        with pytest.raises(GeometryError):
            grid.cell_box((-1, 0))

    def test_flatten_unflatten_roundtrip(self, grid: Grid):
        for flat in range(grid.cell_count):
            assert grid.flatten(grid.unflatten(flat)) == flat

    def test_unflatten_out_of_range(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.unflatten(50)
        with pytest.raises(GeometryError):
            grid.unflatten(-1)

    def test_cells_enumerates_all(self, grid: Grid):
        cells = list(grid.cells())
        assert len(cells) == 50
        assert len(set(cells)) == 50


class TestQueries:
    def test_cells_overlapping_whole_space(self, grid: Grid):
        cells = grid.cells_overlapping(grid.space)
        assert len(cells) == grid.cell_count

    def test_cells_overlapping_single_cell(self, grid: Grid):
        cells = grid.cells_overlapping(Box((12, 12), (18, 18)))
        assert cells == [(1, 1)]

    def test_cells_overlapping_boundary_excluded(self, grid: Grid):
        # Box ending exactly on a cell boundary does not claim the next cell.
        cells = grid.cells_overlapping(Box((0, 0), (10, 10)))
        assert cells == [(0, 0)]

    def test_cells_overlapping_outside_space(self, grid: Grid):
        assert grid.cells_overlapping(Box((200, 200), (300, 300))) == []

    def test_cells_overlapping_partial_clip(self, grid: Grid):
        cells = grid.cells_overlapping(Box((-50, -50), (15, 15)))
        assert set(cells) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_cells_overlapping_dim_mismatch(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cells_overlapping(Box((0, 0, 0), (1, 1, 1)))

    def test_neighbors_interior(self, grid: Grid):
        n = grid.neighbors((5, 2))
        assert len(n) == 8
        assert (5, 2) not in n

    def test_neighbors_corner(self, grid: Grid):
        n = grid.neighbors((0, 0))
        assert set(n) == {(0, 1), (1, 0), (1, 1)}

    def test_neighbors_orthogonal_only(self, grid: Grid):
        n = grid.neighbors((5, 2), diagonal=False)
        assert set(n) == {(4, 2), (6, 2), (5, 1), (5, 3)}

    def test_neighbors_invalid_cell(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.neighbors((99, 99))

    def test_ring_zero_is_self(self, grid: Grid):
        assert grid.ring((3, 3), 0) == [(3, 3)]

    def test_ring_one_equals_neighbors(self, grid: Grid):
        assert set(grid.ring((5, 2), 1)) == set(grid.neighbors((5, 2)))

    def test_ring_two_size(self, grid: Grid):
        ring = grid.ring((5, 2), 2)
        # 16 cells in an unclipped Chebyshev ring of radius 2.
        assert len(ring) == 16

    def test_ring_clipped_at_border(self, grid: Grid):
        ring = grid.ring((0, 0), 1)
        assert set(ring) == {(0, 1), (1, 0), (1, 1)}

    def test_ring_negative_radius_rejected(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.ring((0, 0), -1)


def reference_ring(grid: Grid, cell, radius: int):
    """Offsets in lexicographic order, kept when exactly ``radius`` away."""
    spans = [range(-radius, radius + 1)] * grid.ndim
    return [
        tuple(c + d for c, d in zip(cell, delta))
        for delta in itertools.product(*spans)
        if max(abs(d) for d in delta) == radius
        and grid.is_valid_cell(tuple(c + d for c, d in zip(cell, delta)))
    ]


GRIDS = [
    Grid(Box((0, 0), (100, 50)), (10, 5)),
    Grid(Box((-3.7, 12.25), (41.3, 19.0)), (9, 7)),
    Grid(Box((0.1, -7.0, 1e3), (2.3, -1.0, 1e3 + 0.7)), (4, 3, 5)),
]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
class TestArrayForms:
    def test_cell_ids_are_cells_in_order(self, grid: Grid):
        ids = grid.cell_ids()
        assert ids.shape == (grid.cell_count, grid.ndim)
        assert [tuple(c) for c in ids.tolist()] == list(grid.cells())

    def test_cell_centers_bit_equal_scalar(self, grid: Grid):
        centers = grid.cell_centers(grid.cell_ids())
        for cell, center in zip(grid.cells(), centers):
            assert np.array_equal(center, grid.cell_center(cell))

    def test_cell_centers_rejects_wrong_shape(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cell_centers(np.zeros((3, grid.ndim + 1), dtype=int))
        with pytest.raises(GeometryError):
            grid.cell_centers(np.zeros(grid.ndim, dtype=int))

    def test_cell_boxes_bit_equal_scalar(self, grid: Grid):
        low, high = grid.cell_boxes(grid.cell_ids())
        for cell, lo, hi in zip(grid.cells(), low, high):
            box = grid.cell_box(cell)
            assert lo.tobytes() == box.low.tobytes()
            assert hi.tobytes() == box.high.tobytes()
        none_low, none_high = grid.cell_boxes(np.empty((0, grid.ndim), dtype=int))
        assert none_low.shape == none_high.shape == (0, grid.ndim)

    def test_cell_boxes_rejects_what_cell_box_rejects(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cell_boxes(np.zeros(grid.ndim, dtype=int))
        with pytest.raises(GeometryError):
            grid.cell_boxes(np.zeros((3, grid.ndim + 1), dtype=int))
        for bad in ((-1,) + (0,) * (grid.ndim - 1), grid.shape):
            with pytest.raises(GeometryError):
                grid.cell_box(bad)
            with pytest.raises(GeometryError):
                grid.cell_boxes(np.asarray([(0,) * grid.ndim, bad]))

    def test_cells_within_is_the_rings_in_order(self, grid: Grid):
        corners = itertools.product(*[(0, s // 2, s - 1) for s in grid.shape])
        for home in corners:  # every corner, edge midpoint and the middle
            for radius in (0, 1, 2, max(grid.shape)):
                within = grid.cells_within(home, radius)
                assert within.shape[1] == grid.ndim
                expected = [
                    c for r in range(radius + 1) for c in reference_ring(grid, home, r)
                ]
                assert [tuple(c) for c in within.tolist()] == expected
                assert grid.ring(home, radius) == reference_ring(grid, home, radius)

    def test_cells_within_rejects_bad_arguments(self, grid: Grid):
        with pytest.raises(GeometryError):
            grid.cells_within((0,) * grid.ndim, -1)
        with pytest.raises(GeometryError):
            grid.cells_within((0,) * (grid.ndim + 1), 1)


class TestProperties:
    @given(
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 50, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_point_inside_its_cell_box(self, x: float, y: float):
        grid = Grid(Box((0, 0), (100, 50)), (10, 5))
        cell = grid.cell_of_point((x, y))
        assert grid.cell_box(cell).contains_point(
            np.clip((x, y), grid.space.low, grid.space.high)
        )

    @given(
        st.floats(5, 95, allow_nan=False),
        st.floats(5, 45, allow_nan=False),
        st.floats(1, 30, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_overlap_cells_cover_box(self, x: float, y: float, size: float):
        grid = Grid(Box((0, 0), (100, 50)), (10, 5))
        box = Box.from_center((x, y), (size, size)).intersection(grid.space)
        assert box is not None
        cells = grid.cells_overlapping(box)
        covered = sum(
            grid.cell_box(c).intersection_volume(box) for c in cells
        )
        assert covered == pytest.approx(box.volume, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.integers(1, 7), min_size=2, max_size=3),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(1e-3, 1e3, allow_nan=False),
        st.integers(0, 8),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_array_forms_match_scalar(self, shape, low, side, radius, data):
        grid = Grid(Box((low,) * len(shape), (low + side,) * len(shape)), shape)
        home = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        within = grid.cells_within(home, radius)
        assert [tuple(c) for c in within.tolist()] == [
            c for r in range(radius + 1) for c in reference_ring(grid, home, r)
        ]
        for cell, center in zip(within.tolist(), grid.cell_centers(within)):
            assert np.array_equal(center, grid.cell_center(tuple(cell)))


class TestThreeDimensional:
    def test_3d_grid_addressing(self):
        grid = Grid(Box((0, 0, 0), (10, 10, 10)), (2, 2, 2))
        assert grid.cell_count == 8
        assert grid.cell_of_point((7, 3, 9)) == (1, 0, 1)
        assert grid.cell_box((1, 0, 1)) == Box((5, 0, 5), (10, 5, 10))

    def test_3d_neighbors(self):
        grid = Grid(Box((0, 0, 0), (10, 10, 10)), (3, 3, 3))
        center = (1, 1, 1)
        assert len(grid.neighbors(center)) == 26
        assert len(grid.neighbors(center, diagonal=False)) == 6

    def test_3d_cells_overlapping(self):
        grid = Grid(Box((0, 0, 0), (10, 10, 10)), (2, 2, 2))
        cells = grid.cells_overlapping(Box((0, 0, 0), (6, 6, 6)))
        assert len(cells) == 8
