"""Datapath benchmark: per-record vs columnar serving stack.

Measures the two implementations of the same semantics, both over the
database's packed index:

* **per-record** -- ``Server.execute_per_record``: hits materialised as
  record views, per-record half-open/no-reship filtering against a
  (rebuilt-per-frame) delivered set, dict merge, per-record
  displacement lookups.
* **columnar** -- ``Server.execute_batch``: store row ids straight from
  the index, a sorted-uid ``searchsorted`` join for the delivered-set
  filter, and column reductions for all wire accounting.

Both run the identical simulated tour against the identical stored
objects; the benchmark asserts the retrieved uid sets match frame by
frame before reporting any timing, so the speedup is for *byte-identical
results*.

Run directly (not under pytest)::

    python benchmarks/bench_datapath.py            # default cityscape scale
    python benchmarks/bench_datapath.py --smoke    # CI-sized quick check
    python benchmarks/bench_datapath.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_fleet import machine_context  # sibling script: one definition
from repro.core.resolution import LinearMapper, clamp_speed
from repro.core.retrieval import ContinuousRetrievalClient
from repro.geometry.box import Box
from repro.net.link import WirelessLink
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.net.simclock import SimClock
from repro.server.server import Server
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))


def build_frames(steps: int, frame_side: float) -> list[tuple[np.ndarray, float, Box]]:
    """A deterministic diagonal tour with varying speed (hence w_min)."""
    frames = []
    for i in range(steps):
        t = i / max(steps - 1, 1)
        x = 80.0 + 840.0 * t
        y = 120.0 + 760.0 * t + 60.0 * np.sin(4.0 * np.pi * t)
        speed = 0.15 + 0.7 * (0.5 + 0.5 * np.sin(2.0 * np.pi * t))
        position = np.array([x, y])
        frames.append(
            (position, float(speed), Box.from_center(position, (frame_side, frame_side)))
        )
    return frames


# -- part 1: server-side query answering ------------------------------------


def drive_per_record(server: Server, frames, mapper) -> tuple[list[frozenset], float]:
    """The legacy path: frozenset exclude rebuilt per frame, record loop."""
    server.reset_client(1)
    sent: set[tuple[int, int, int]] = set()
    uid_sets: list[frozenset] = []
    start = time.perf_counter()
    for t, (_, speed, frame) in enumerate(frames):
        w_min = float(mapper(clamp_speed(speed)))
        request = RetrieveRequest(
            timestamp=float(t),
            client_id=1,
            regions=(RegionRequest(frame, w_min, 1.0),),
            exclude_uids=frozenset(sent),
        )
        response = server.execute_per_record(request)
        uids = frozenset(r.uid for r in response.records)
        sent |= uids
        uid_sets.append(uids)
    elapsed = time.perf_counter() - start
    return uid_sets, elapsed


def drive_columnar(server: Server, frames, mapper) -> tuple[list[frozenset], float]:
    """The columnar path: incremental UidSet, batch responses."""
    server.reset_client(2)
    sent = None
    uid_sets: list[frozenset] = []
    start = time.perf_counter()
    for t, (_, speed, frame) in enumerate(frames):
        w_min = float(mapper(clamp_speed(speed)))
        request = RetrieveRequest(
            timestamp=float(t),
            client_id=2,
            regions=(RegionRequest(frame, w_min, 1.0),),
            exclude_uids=sent,
        )
        response = server.execute_batch(request)
        uids = response.batch.uids
        sent = uids if sent is None else sent.union(uids)
        uid_sets.append(uids)
    elapsed = time.perf_counter() - start
    # Materialise tuples *outside* the timed loop for the parity check.
    return [u.to_frozenset() for u in uid_sets], elapsed


# -- part 2: end-to-end tour -------------------------------------------------


def plan_legacy(prev_box, prev_w, frame: Box, w_min: float) -> list[RegionRequest]:
    """Algorithm 1's planning, as the pre-columnar client ran it."""
    if prev_box is None:
        return [RegionRequest(frame, w_min, 1.0)]
    overlap = frame.intersection(prev_box)
    if overlap is None:
        return [RegionRequest(frame, w_min, 1.0)]
    regions = [RegionRequest(piece, w_min, 1.0) for piece in frame.difference(prev_box)]
    prev = prev_w if prev_w is not None else 1.0
    if w_min < prev:
        regions.append(RegionRequest(overlap, w_min, prev, half_open=True))
    return regions


def tour_per_record(server: Server, frames, mapper) -> tuple[int, frozenset, float]:
    """Legacy end-to-end loop: plan, per-record retrieve, tuple-set update."""
    server.reset_client(3)
    sent: set[tuple[int, int, int]] = set()
    prev_box = prev_w = None
    total_bytes = 0
    start = time.perf_counter()
    for t, (_, speed, frame) in enumerate(frames):
        w_min = float(mapper(clamp_speed(speed)))
        regions = plan_legacy(prev_box, prev_w, frame, w_min)
        if regions:
            request = RetrieveRequest(
                timestamp=float(t),
                client_id=3,
                regions=tuple(regions),
                exclude_uids=frozenset(sent),
            )
            response = server.execute_per_record(request)
            for record in response.records:
                sent.add(record.uid)
            total_bytes += response.payload_bytes
        prev_box, prev_w = frame, w_min
    elapsed = time.perf_counter() - start
    return total_bytes, frozenset(sent), elapsed


def tour_columnar(server: Server, frames, mapper) -> tuple[int, frozenset, float]:
    """The refactored client end to end (UidSet state, batch responses)."""
    client = ContinuousRetrievalClient(
        server, WirelessLink(), SimClock(), client_id=4, mapper=mapper
    )
    server.reset_client(4)
    start = time.perf_counter()
    for _, (position, speed, frame) in enumerate(frames):
        client.step(position, speed, frame)
    elapsed = time.perf_counter() - start
    return client.total_bytes, client.sent_uids.to_frozenset(), elapsed


# -- driver ------------------------------------------------------------------


def run(smoke: bool) -> dict:
    if smoke:
        config = CityConfig(
            space=SPACE, object_count=12, levels=2, seed=42,
            min_size_frac=0.02, max_size_frac=0.05,
        )
        steps, frame_side = 25, 140.0
    else:
        config = CityConfig(space=SPACE, seed=42)  # the default cityscape scale
        steps, frame_side = 60, 140.0
    db = build_city(config)
    # Build the index (and the store) outside the timed loops.
    db.access_method
    server = Server(db)
    mapper = LinearMapper()
    frames = build_frames(steps, frame_side)

    legacy_sets, legacy_s = drive_per_record(server, frames, mapper)
    columnar_sets, columnar_s = drive_columnar(server, frames, mapper)
    identical = legacy_sets == columnar_sets
    assert identical, "columnar query answering diverged from the per-record path"

    legacy_bytes, legacy_uids, legacy_tour_s = tour_per_record(
        server, frames, mapper
    )
    col_bytes, col_uids, col_tour_s = tour_columnar(server, frames, mapper)
    assert legacy_bytes == col_bytes, "end-to-end wire bytes diverged"
    assert legacy_uids == col_uids, "end-to-end delivered uid sets diverged"

    return {
        "config": {
            "object_count": config.object_count,
            "levels": config.levels,
            "records": db.record_count,
            "dataset_bytes": db.total_bytes,
            "frames": steps,
            "smoke": smoke,
        },
        "machine": machine_context(),
        "query_answering": {
            "per_record_s": round(legacy_s, 6),
            "columnar_s": round(columnar_s, 6),
            "speedup": round(legacy_s / columnar_s, 2),
            "retrieved_records": int(sum(len(s) for s in legacy_sets)),
            "identical_results": identical,
        },
        "end_to_end_tour": {
            "per_record_s": round(legacy_tour_s, 6),
            "columnar_s": round(col_tour_s, 6),
            "speedup": round(legacy_tour_s / col_tour_s, 2),
            "wire_bytes": legacy_bytes,
            "delivered_records": len(legacy_uids),
            "identical_results": True,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset / few frames (CI sanity run)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the result document to PATH",
    )
    args = parser.parse_args()
    result = run(smoke=args.smoke)
    document = json.dumps(result, indent=2)
    print(document)
    if args.json is not None:
        args.json.write_text(document + "\n")
    qa = result["query_answering"]
    if not args.smoke and qa["speedup"] < 5.0:
        print(
            f"FAIL: query-answering speedup {qa['speedup']}x below the 5x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
