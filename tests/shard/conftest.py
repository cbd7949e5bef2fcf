"""Shared cityscape fixtures for the shard tests.

Dense enough (24 objects) that an 8-way tiling leaves no shard empty
and broad queries genuinely span shard boundaries.
"""

from __future__ import annotations

import pytest

from repro.geometry.box import Box
from repro.server.database import ObjectDatabase
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))


@pytest.fixture(scope="package")
def shard_city() -> ObjectDatabase:
    return build_city(
        CityConfig(
            space=SPACE,
            object_count=24,
            levels=2,
            seed=7,
            min_size_frac=0.02,
            max_size_frac=0.06,
        )
    )
