"""Golden parity: the session engine must stay bit-identical to the
lock-step loops it replaced.

``MotionAwareSystem.run``/``NaiveSystem.run`` drive a
:class:`~repro.sim.session.ClientSession` on the event kernel.  The
pre-kernel loops (``run_legacy``) were kept as frozen twins until both
reached server pricing through the same ``quote_cells``; their output
over every scenario in the fault table is pinned here as SHA-256
digests of the whole :class:`SystemRunResult` -- every counter, every
response time, every trace entry -- captured from ``run_legacy`` on the
last commit that had it (where ``run`` produced the same digests).  Any
drift means a change moved semantics (RNG draw order, operation order,
clock arithmetic, a pricing decision), not just structure: regenerate
only with a justification.
"""

from __future__ import annotations

import pytest

from repro.core.system import MotionAwareSystem, NaiveSystem
from repro.server.server import Server

from tests.scenarios.harness import (
    SCENARIOS,
    fingerprint,
    make_config,
    make_tour,
    result_digest,
)

SYSTEMS = [MotionAwareSystem, NaiveSystem]

#: ``(system, scenario) -> digest of the legacy loop's result``.
LEGACY_DIGESTS = {
    ("MotionAwareSystem", "baseline"): (
        "fbde8e9bf33391fe278e4bb2b9428450a6868daedfe833bd831cb6169acc66d8"
    ),
    ("MotionAwareSystem", "burst_loss"): (
        "7a3bfe168ac793f0a5957c9086d9ba4a94e7110d35f132c5ee46b2e196175fb8"
    ),
    ("MotionAwareSystem", "outage"): (
        "598aee5c6c96d448e1d34ae416021e49c2ef170bf353ca242b1220a4990697a4"
    ),
    ("MotionAwareSystem", "latency_spike"): (
        "d6abfea6fe0090f6b1776417a73872092813f2fae433ed6516b1021beae9cdff"
    ),
    ("MotionAwareSystem", "bandwidth_collapse"): (
        "1c75b30b0685ba888c81ede4c722e417f70c09ff189b098657506c5254431504"
    ),
    ("NaiveSystem", "baseline"): (
        "dbe9f3c40d33542a442f4816687fd9049d5017803bf534cc3c3339b4fddb3243"
    ),
    ("NaiveSystem", "burst_loss"): (
        "64c66454892fa4a9a367fd1afbb01d10055880817e552f1dcffe21bbe9e1ef31"
    ),
    ("NaiveSystem", "outage"): (
        "af2853819281b949cfaf0b7b9836784cdd2b85537f87112f7c7d747520c567c9"
    ),
    ("NaiveSystem", "latency_spike"): (
        "8259a0122c6329b5d3443015ef919a6923abb02a8ffb515fb67f3eb50c23bc18"
    ),
    ("NaiveSystem", "bandwidth_collapse"): (
        "28774640fd677c9eb179d2a97da3ca82e68e2531282bb26e37c0bcc68ca72cc9"
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
@pytest.mark.parametrize("system_cls", SYSTEMS, ids=lambda c: c.__name__)
def test_session_engine_matches_legacy_loop(scenario_city, scenario, system_cls):
    tour = make_tour(scenario)
    new = system_cls(Server(scenario_city), make_config(scenario)).run(tour)
    assert result_digest(new) == LEGACY_DIGESTS[system_cls.__name__, scenario.name]


@pytest.mark.parametrize("system_cls", SYSTEMS, ids=lambda c: c.__name__)
def test_session_engine_is_deterministic(scenario_city, system_cls):
    """Two kernel-driven runs of the same scenario are bit-identical."""
    scenario = SCENARIOS[1]  # burst_loss: exercises the fault RNG paths
    tour = make_tour(scenario)
    first = system_cls(Server(scenario_city), make_config(scenario)).run(tour)
    second = system_cls(Server(scenario_city), make_config(scenario)).run(tour)
    assert fingerprint(first) == fingerprint(second)
