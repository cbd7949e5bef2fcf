"""Tests for the experiment infrastructure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ResultTable,
    city_database,
    clear_caches,
    query_box_for,
    tour_suite,
)
from repro.index.access import MotionAwareAccessMethod
from repro.store.uids import pack_uid
from repro.workloads.config import ExperimentScale

TINY = ExperimentScale(scale=0.4)


class TestResultTable:
    def _table(self):
        table = ResultTable("demo", ["x", "y", "group"])
        table.add(x=1, y=10.0, group="a")
        table.add(x=2, y=20.0, group="a")
        table.add(x=1, y=5.0, group="b")
        return table

    def test_add_validates_columns(self):
        table = ResultTable("demo", ["x"])
        with pytest.raises(ConfigurationError):
            table.add(y=1)
        with pytest.raises(ConfigurationError):
            table.add(x=1, y=2)

    def test_column(self):
        table = self._table()
        assert table.column("x") == [1, 2, 1]
        with pytest.raises(ConfigurationError):
            table.column("z")

    def test_series_filters_and_sorts(self):
        table = self._table()
        assert table.series("x", "y", group="a") == [(1, 10.0), (2, 20.0)]
        assert table.series("x", "y", group="b") == [(1, 5.0)]

    def test_to_text_contains_everything(self):
        table = self._table()
        table.notes = "a note"
        text = table.to_text()
        assert "demo" in text
        assert "a note" in text
        assert "group" in text
        assert "20" in text

    def test_to_text_empty(self):
        table = ResultTable("empty", ["x"])
        assert "x" in table.to_text()


class TestCaches:
    def test_city_database_cached(self):
        clear_caches()
        a = city_database(TINY, object_count=3)
        b = city_database(TINY, object_count=3)
        assert a is b
        c = city_database(TINY, object_count=4)
        assert c is not a
        clear_caches()
        d = city_database(TINY, object_count=3)
        assert d is not a

    def test_tour_suite_cached(self):
        clear_caches()
        a = tour_suite(TINY, "tram", speed=0.5, steps=40, count=2)
        b = tour_suite(TINY, "tram", speed=0.5, steps=40, count=2)
        assert a is b
        c = tour_suite(TINY, "pedestrian", speed=0.5, steps=40, count=2)
        assert c is not a

    def test_tour_suite_defaults_from_scale(self):
        clear_caches()
        tours = tour_suite(TINY, "tram", speed=0.5)
        assert len(tours) == TINY.tours_per_kind
        assert len(tours[0]) == TINY.tour_steps + 1

    def test_query_box_for(self):
        box = query_box_for(TINY.space, np.array([500.0, 500.0]), 0.1)
        assert box.extents[0] == pytest.approx(100.0)


class TestPackedIndexAnswersTheFigures:
    def test_rows_and_node_reads_match_the_object_tree(self):
        """The figures' cities answer through the packed index; on one
        tour's query frames it must return the object R*-tree's row set
        and node accesses, which is what keeps the figures unchanged."""
        clear_caches()
        db = city_database(TINY)
        tree = MotionAwareAccessMethod(db.all_records())
        tour = tour_suite(TINY, "tram", speed=0.5)[0]
        bands = (0.0, 0.25, 0.5, 0.9)
        answered = 0
        for i, position in enumerate(tour.positions):
            box = query_box_for(TINY.space, position, 0.10)
            w_min = bands[i % len(bands)]
            packed = db.access_method.query_rows(box, w_min, 1.0)
            walked = tree.query(box, w_min, 1.0)
            keys = np.array(
                [
                    pack_uid(r.object_id, r.key.level, r.key.index)
                    for r in walked.records
                ],
                dtype=np.int64,
            )
            rows = db.store.rows_for_packed(keys)
            assert sorted(packed.rows.tolist()) == sorted(rows.tolist())
            assert packed.io.node_reads == walked.io.node_reads
            answered += int(packed.rows.size > 0)
        assert answered  # the tour crosses objects, not only empty ground
