"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.mesh.generators import procedural_building
from repro.server.database import ObjectDatabase
from repro.server.server import Server
from repro.wavelets.analysis import analyze_hierarchy
from repro.workloads.cityscape import CityConfig, build_city

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - depends on the environment
    pass
else:
    # Property tests draw the same examples on every run ("ci"); CI
    # also runs them once under "random" with a fresh, printed seed:
    # HYPOTHESIS_PROFILE=random pytest --hypothesis-seed=N ...
    settings.register_profile("ci", derandomize=True)
    settings.register_profile("random", derandomize=False)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def space() -> Box:
    return Box((0.0, 0.0), (1000.0, 1000.0))


@pytest.fixture(scope="session")
def small_decomposition():
    """A small (levels=2) decomposed building, reused across tests."""
    hierarchy = procedural_building(
        np.random.default_rng(77), center=(100.0, 200.0, 0.0), levels=2
    )
    return analyze_hierarchy(hierarchy)


@pytest.fixture(scope="session")
def tiny_city() -> ObjectDatabase:
    """A 6-object city (levels=2) shared by server/core/experiment tests."""
    config = CityConfig(
        space=Box((0.0, 0.0), (1000.0, 1000.0)),
        object_count=6,
        levels=2,
        seed=42,
        min_size_frac=0.02,
        max_size_frac=0.05,
    )
    return build_city(config)


@pytest.fixture()
def tiny_server(tiny_city) -> Server:
    return Server(tiny_city)
