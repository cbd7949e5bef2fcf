"""Tests for the city dataset builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.geometry.box import Box
from repro.workloads.cityscape import CityConfig, build_city, zipf_weights

SPACE = Box((0, 0), (1000, 1000))


class TestConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            CityConfig(space=Box((0, 0, 0), (1, 1, 1)))
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, object_count=0)
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, levels=0)
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, placement="diagonal")
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, landmark_fraction=1.5)
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, zipf_clusters=0)
        with pytest.raises(WorkloadError):
            CityConfig(space=SPACE, min_size_frac=0.05, max_size_frac=0.01)


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(10, 1.0)
        assert w.sum() == pytest.approx(1.0)

    def test_decreasing(self):
        w = zipf_weights(10, 1.2)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_single(self):
        assert zipf_weights(1, 2.0)[0] == 1.0

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0, 1.0)


class TestBuildCity:
    def test_uniform_city(self):
        config = CityConfig(space=SPACE, object_count=5, levels=1, seed=1)
        db = build_city(config)
        assert db.object_count == 5
        assert db.record_count > 0
        for obj in db.objects:
            footprint = obj.footprint
            assert SPACE.contains_point(footprint.center)

    def test_deterministic(self):
        config = CityConfig(space=SPACE, object_count=4, levels=1, seed=9)
        a = build_city(config)
        b = build_city(config)
        assert a.total_bytes == b.total_bytes
        assert [o.footprint for o in a.objects] == [
            o.footprint for o in b.objects
        ]

    def test_dataset_size_scales_with_objects(self):
        small = build_city(CityConfig(space=SPACE, object_count=3, levels=1, seed=2))
        large = build_city(CityConfig(space=SPACE, object_count=9, levels=1, seed=2))
        assert large.total_bytes > 2 * small.total_bytes

    def test_zipf_city_is_clustered(self):
        uniform = build_city(
            CityConfig(space=SPACE, object_count=40, levels=1, seed=3)
        )
        zipf = build_city(
            CityConfig(
                space=SPACE,
                object_count=40,
                levels=1,
                seed=3,
                placement="zipf",
                zipf_clusters=4,
                zipf_exponent=1.5,
            )
        )

        def mean_nn_distance(db):
            centers = np.array([o.footprint.center for o in db.objects])
            d = np.sqrt(
                ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            )
            np.fill_diagonal(d, np.inf)
            return float(d.min(axis=1).mean())

        assert mean_nn_distance(zipf) < mean_nn_distance(uniform)

    def test_landmark_fraction_extremes(self):
        all_buildings = build_city(
            CityConfig(
                space=SPACE, object_count=4, levels=1, seed=4, landmark_fraction=0.0
            )
        )
        all_landmarks = build_city(
            CityConfig(
                space=SPACE, object_count=4, levels=1, seed=4, landmark_fraction=1.0
            )
        )
        # Landmarks are icosahedra (12 base vertices); buildings prisms (8).
        assert all(
            o.decomposition.base.vertex_count == 8 for o in all_buildings.objects
        )
        assert all(
            o.decomposition.base.vertex_count == 12 for o in all_landmarks.objects
        )
