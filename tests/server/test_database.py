"""Tests for the object database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.index.packed import PackedAccessMethod
from repro.mesh.generators import procedural_building
from repro.server.database import ObjectDatabase
from repro.wavelets.analysis import analyze_hierarchy


@pytest.fixture()
def db() -> ObjectDatabase:
    database = ObjectDatabase()
    rng = np.random.default_rng(3)
    for oid, x in enumerate((100.0, 300.0)):
        hierarchy = procedural_building(
            rng, center=(x, 200.0, 0.0), footprint=(30, 20), height=40, levels=2
        )
        database.add_object(oid, analyze_hierarchy(hierarchy))
    return database


class TestStorage:
    def test_counts(self, db: ObjectDatabase):
        assert db.object_count == 2
        assert db.record_count == len(db.all_records())
        assert db.total_bytes > 0

    def test_duplicate_id_rejected(self, db: ObjectDatabase):
        hierarchy = procedural_building(np.random.default_rng(0), levels=1)
        with pytest.raises(WorkloadError):
            db.add_object(0, analyze_hierarchy(hierarchy))

    def test_get_object(self, db: ObjectDatabase):
        obj = db.get_object(1)
        assert obj.object_id == 1
        assert obj.total_bytes > 0
        with pytest.raises(WorkloadError):
            db.get_object(99)

    def test_footprint_is_2d(self, db: ObjectDatabase):
        footprint = db.get_object(0).footprint
        assert footprint.ndim == 2
        assert footprint.contains_point((100.0, 200.0))

    def test_displacement_lookup(self, db: ObjectDatabase):
        record = next(r for r in db.all_records() if not r.key.is_base)
        disp = db.displacement(record.uid)
        assert disp.shape == (3,)
        with pytest.raises(WorkloadError):
            db.displacement((99, 0, 0))

    def test_empty_database_cannot_index(self):
        with pytest.raises(WorkloadError):
            ObjectDatabase().access_method


class TestAccessMethodChoice:
    def test_packed_default(self, db: ObjectDatabase):
        assert isinstance(db.access_method, PackedAccessMethod)

    def test_index_invalidated_on_add(self, db: ObjectDatabase):
        first = db.access_method
        hierarchy = procedural_building(np.random.default_rng(1), levels=1)
        db.add_object(7, analyze_hierarchy(hierarchy))
        assert db.access_method is not first


class TestQueries:
    def test_query_region(self, db: ObjectDatabase):
        result = db.query_region(Box((50, 150), (150, 250)), 0.0, 1.0)
        assert result.records
        assert all(r.object_id == 0 for r in result.records)

    def test_block_bytes_zero_for_empty_cell(self, db: ObjectDatabase):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        assert db.block_bytes_fn(grid)((9, 9), 0.0) == 0

    def test_block_bytes_monotone_in_resolution(self, db: ObjectDatabase):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        cell = grid.cell_of_point((100.0, 200.0))
        full = db.block_bytes_fn(grid)(cell, 0.0)
        coarse = db.block_bytes_fn(grid)(cell, 0.9)
        assert 0 < coarse <= full

    def test_block_bytes_fn_memoised(self, db: ObjectDatabase):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        fn = db.block_bytes_fn(grid)
        cell = grid.cell_of_point((100.0, 200.0))
        first = fn(cell, 0.5)
        method = db.access_method
        method.stats.push()
        second = fn(cell, 0.5)
        delta = method.stats.pop_delta()
        assert first == second
        assert delta.node_reads == 0  # served from the memo

    def test_equal_grids_share_one_memo_entry(self, db: ObjectDatabase):
        """Every client builds its own Grid over the same space; the
        memo is keyed on the grid's value, so they share the rows."""
        first = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        second = Grid(Box((0.0, 0.0), (1000.0, 1000.0)), (10, 10))
        assert first is not second
        cell = first.cell_of_point((100.0, 200.0))
        rows = db.block_rows_fn(first)(cell, 0.5)
        method = db.access_method
        method.stats.push()
        assert db.block_rows_fn(second)(cell, 0.5) is rows
        assert method.stats.pop_delta().node_reads == 0
        assert len(db._block_cache) == 1

    def test_different_grids_never_alias(self, db: ObjectDatabase):
        """Same cell id, different cell: a different shape, or the same
        shape over a different space, must not answer from the memo --
        not even when a collected grid's ``id`` is handed out again."""
        space = Box((0, 0), (1000, 1000))
        cell = (1, 2)
        for _ in range(8):
            for grid in (
                Grid(space, (10, 10)),
                Grid(space, (5, 5)),
                Grid(Box((0, 0), (500, 500)), (5, 5)),
            ):
                want = db.query_region_rows(grid.cell_box(cell), 0.0, 1.0).rows
                assert np.array_equal(db.block_rows_fn(grid)(cell, 0.0), want)
                del grid  # frees the id for the next grid
        assert len(db._block_cache) == 3
        sizes = {len(rows) for rows in db._block_cache.values()}
        assert len(sizes) > 1  # the cells really do differ

    def test_block_cache_invalidated_on_add(self, db: ObjectDatabase):
        grid = Grid(Box((0, 0), (1000, 1000)), (10, 10))
        cell = grid.cell_of_point((700.0, 700.0))
        assert db.block_bytes_fn(grid)(cell, 0.0) == 0
        hierarchy = procedural_building(
            np.random.default_rng(2), center=(700.0, 700.0, 0.0), levels=1
        )
        db.add_object(5, analyze_hierarchy(hierarchy))
        assert db.block_bytes_fn(grid)(cell, 0.0) > 0
