"""Golden digests of the motion-aware client's decisions.

The prediction -> visit probabilities -> partition -> allocation ->
prefetch chain is all floating point feeding discrete choices (which
blocks to fetch, in which order), so a change to any of it is safe only
when those choices do not move.  These digests were captured on the
per-cell scalar implementation (one ``Gaussian.pdf`` per grid cell per
forecast step, ``dict[CellId, float]`` probabilities) immediately before
it was replaced by the batched array form; they pin

* every field of every tour's :class:`~repro.sim.session.SessionResult`
  (bytes, I/O reads, simulated response times, shipped records), and
* the per-tick ``(demand_cells, prefetch_cells)`` sequences, including
  the Python types of the cell ids (``repr`` of a ``np.int64`` differs),

over tram and pedestrian tours on a coarse and a fine buffer grid, plus
whole motion fleets sharing one uplink.  A digest mismatch means a
*decision* changed, not a rounding: regenerate only with a justification.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.fleet import FleetConfig, simulate_system_fleet
from repro.core.system import MotionAwareSystem, SystemConfig
from repro.geometry.box import Box
from repro.motion.trajectory import Trajectory, make_tours
from repro.server.database import ObjectDatabase
from repro.server.server import Server
from repro.workloads.cityscape import CityConfig, build_city

from tests.scenarios.harness import result_digest

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))
#: Holds the whole city after two contacts (the ``tour_motion`` regime).
BUFFER_BYTES = 16 * 1024
#: Holds a few blocks: every other tick contacts the server and the
#: probability-ranked eviction decides what survives.
TIGHT_BUFFER_BYTES = 1024

#: ``(grid shape, buffer bytes) -> digest``.
TOUR_DIGESTS = {
    ((10, 10), BUFFER_BYTES): (
        "2cfc80bc1db4c0e4ea581efbe0f029ab7d7acafc84749929d73c80e215a1ea1d"
    ),
    ((20, 20), BUFFER_BYTES): (
        "7737a23120c9c7b5efcdd550770f312dc8a3889dfb1bb78fe17b9f77e03858eb"
    ),
    ((10, 10), TIGHT_BUFFER_BYTES): (
        "7692713a2dd3f6a4c7c0ae1002b5e002d38f0ba5c574bb4ae048635705298702"
    ),
    ((20, 20), TIGHT_BUFFER_BYTES): (
        "bfb0ea535d4ba56c878e5d8249627d1797bd44d0b6e2f124229bbf385df97e1b"
    ),
}
FLEET_DIGESTS = {
    4: "7fdd0f43bc85d8de101a1acc3bba377edb826fca9eb8dfa870688d3eba72052d",
    8: "68e2830a0b9d0eb1bcf9c6b07b3ac3527d20d935dd54bae8beeedfb04a0bbb65",
}


@pytest.fixture(scope="module")
def city() -> ObjectDatabase:
    return build_city(
        CityConfig(
            space=SPACE,
            object_count=24,
            levels=2,
            min_size_frac=0.02,
            max_size_frac=0.05,
            seed=48,
        )
    )


def tours(count: int) -> list[Trajectory]:
    """``count`` trams at speed 0.8 then ``count`` pedestrians at 0.3."""
    return make_tours(
        SPACE, "tram", count=count, speed=0.8, steps=49, base_seed=11
    ) + make_tours(
        SPACE, "pedestrian", count=count, speed=0.3, steps=49, base_seed=11
    )


def tour_digest(
    city: ObjectDatabase, grid_shape: tuple[int, int], buffer_bytes: int
) -> str:
    digest = hashlib.sha256()
    for tour in tours(6):
        system = MotionAwareSystem(
            Server(city),
            SystemConfig(
                space=SPACE, grid_shape=grid_shape, buffer_bytes=buffer_bytes
            ),
        )
        decisions = []
        tick = system.manager.tick

        def recording_tick(*args, _tick=tick, _out=decisions):
            result = _tick(*args)
            _out.append((result.demand_cells, result.prefetch_cells))
            return result

        system.manager.tick = recording_tick
        result = system.run(tour)
        assert len(decisions) == len(tour)
        digest.update(repr(dataclasses.asdict(result)).encode())
        digest.update(repr(decisions).encode())
    return digest.hexdigest()


def fleet_digest(city: ObjectDatabase, clients: int) -> str:
    result = simulate_system_fleet(
        Server(city),
        tours(clients // 2),
        FleetConfig(space=SPACE, grid_shape=(10, 10), buffer_bytes=BUFFER_BYTES),
        system="motion",
    )
    return result_digest(result)


@pytest.mark.parametrize("grid_shape, buffer_bytes", sorted(TOUR_DIGESTS))
def test_single_client_tours_match_golden(city, grid_shape, buffer_bytes):
    expected = TOUR_DIGESTS[grid_shape, buffer_bytes]
    assert tour_digest(city, grid_shape, buffer_bytes) == expected


@pytest.mark.parametrize("clients", sorted(FLEET_DIGESTS))
def test_motion_fleet_matches_golden(city, clients):
    assert fleet_digest(city, clients) == FLEET_DIGESTS[clients]
