"""Micro-benchmarks of the motion/buffering layer.

Absolute times are pytest-benchmark's; the contact-pricing cases attach
the machine they ran on as ``extra_info["machine"]``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffering.cost import allocate_blocks
from repro.buffering.partition import partition_cells
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.motion.kalman import ConstantVelocityModel2D
from repro.motion.predictor import KalmanMotionPredictor, visit_probabilities
from repro.server.server import Server
from repro.store.uids import EMPTY_UIDS
from repro.workloads.cityscape import CityConfig, build_city

from benchmarks.bench_fleet import machine_context
from tests.server.quote_reference import reference_quote_blocks


def test_kalman_step(benchmark):
    kf = ConstantVelocityModel2D().build()
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 100, size=(1000, 2))
    state = {"i": 0}

    def step():
        kf.step(positions[state["i"] % 1000])
        state["i"] += 1

    benchmark(step)


def trained_predictor() -> KalmanMotionPredictor:
    predictor = KalmanMotionPredictor()
    for i in range(20):
        predictor.observe(np.array([100.0 + 10 * i, 500.0]))
    return predictor


def test_visit_probabilities_radius5(benchmark):
    grid = Grid(Box((0, 0), (1000, 1000)), (25, 25))
    predictor = trained_predictor()
    center = np.array([290.0, 500.0])

    cells, probs = benchmark(
        lambda: visit_probabilities(
            predictor, grid, steps=8, radius=5, center=center
        )
    )
    assert cells.shape == (121, 2) and probs.shape == (121,)


def test_visit_probabilities_whole_grid_60_steps(benchmark):
    """The worst contacted tick: every cell of a 20x20 grid at the
    longest forecast horizon the buffer manager ever asks for."""
    grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
    predictor = trained_predictor()

    cells, probs = benchmark(
        lambda: visit_probabilities(
            predictor,
            grid,
            steps=60,
            frame_extents=np.array([50.0, 50.0]),
        )
    )
    assert cells.shape == (400, 2)
    assert abs(float(probs.sum()) - 1.0) < 1e-9


def test_partition_whole_grid(benchmark):
    grid = Grid(Box((0, 0), (1000, 1000)), (20, 20))
    cells = grid.cell_ids()
    sectors = benchmark(
        lambda: partition_cells(grid, cells, np.array([290.0, 500.0]), 4)
    )
    assert sectors.shape == (400,)


def test_allocate_blocks_8_directions(benchmark):
    probs = [0.35, 0.2, 0.15, 0.1, 0.08, 0.06, 0.04, 0.02]
    alloc = benchmark(lambda: allocate_blocks(probs, 64))
    assert sum(alloc) == 64


@pytest.fixture(scope="module")
def contact():
    """One ``tour_motion``-sized contact: the 34 blocks of a 10x10 grid
    nearest the client over the 48-building two-level city, nothing
    delivered yet (the dearest contact of a tour)."""
    space = Box((0.0, 0.0), (1000.0, 1000.0))
    city = build_city(
        CityConfig(
            space=space,
            object_count=48,
            levels=2,
            seed=48,
            min_size_frac=0.02,
            max_size_frac=0.05,
        )
    )
    grid = Grid(space, (10, 10))
    cells = grid.cells_within((4, 5), 3)[:34]
    city.query_region_rows(space, 0.0, 1.0)  # build the index untimed
    return Server(city), grid, cells


def test_quote_one_contact_serial_loop(benchmark, contact):
    """The per-block loop ``quote_blocks`` replaced (the test reference)."""
    server, grid, cells = contact
    boxes = [grid.cell_box(tuple(c)) for c in cells.tolist()]
    quotes, _, _ = benchmark(
        reference_quote_blocks, server, 0, boxes, 0.0, EMPTY_UIDS
    )
    benchmark.extra_info.update(
        machine=machine_context(),
        blocks=len(quotes),
        records=sum(len(q.new_uids) for q in quotes),
    )
    assert len(quotes) == 34


def test_quote_one_contact_batched(benchmark, contact):
    """``Server.quote_blocks``: one walk, one join for the same contact."""
    server, grid, cells = contact
    quotes, _, _ = benchmark(
        lambda: server.quote_blocks(0, grid.cell_boxes(cells), 0.0, EMPTY_UIDS)
    )
    benchmark.extra_info.update(
        machine=machine_context(),
        blocks=len(quotes),
        records=sum(len(q.new_uids) for q in quotes),
    )
    boxes = [grid.cell_box(tuple(c)) for c in cells.tolist()]
    assert quotes == reference_quote_blocks(server, 0, boxes, 0.0, EMPTY_UIDS)[0]
