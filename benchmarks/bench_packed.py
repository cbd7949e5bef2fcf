"""Packed-index benchmark: flat traversal + frame-delta planning.

Measures three implementations of the same query semantics on the same
stored objects and the same simulated tour:

* **object tree** -- a ``MotionAwareAccessMethod`` built over
  ``db.all_records()``: Python ``Node``/``Entry`` traversal, hits
  mapped to store rows, fed through ``Server.gather_batch``.
* **packed** -- ``Server.execute_batch`` over the database's own
  index: the same R*-tree compiled to level-ordered numpy arrays, one
  vectorised frontier intersection per level, then the same gather.
* **packed + planner** -- ``Server(plan_deltas=True)``: per-client
  frontier memos answer queries contained in the previous frame's
  inflated window without a root traversal.

The benchmark asserts per frame that the packed path returns the *same
rows in the same order* and bills the *same node accesses* as the
object tree before reporting any timing, and that the planner returns
the same rows as cold packed traversal.

Run directly (not under pytest)::

    python benchmarks/bench_packed.py            # default cityscape scale
    python benchmarks/bench_packed.py --smoke    # CI-sized quick check
    python benchmarks/bench_packed.py --json out.json
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
from repro.geometry.box import Box
from repro.index.access import MotionAwareAccessMethod
from repro.index.packed import RowResult
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.server.planner import FrontierPlanner
from repro.server.server import Server
from repro.store.uids import pack_uid
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))


def build_frames(steps: int, frame_side: float) -> list[tuple[float, Box]]:
    """A deterministic tour with frame-coherent motion (a few px/frame)."""
    frames = []
    for i in range(steps):
        t = i / max(steps - 1, 1)
        x = 80.0 + 840.0 * t
        y = 120.0 + 760.0 * t + 60.0 * np.sin(4.0 * np.pi * t)
        speed = 0.15 + 0.7 * (0.5 + 0.5 * np.sin(2.0 * np.pi * t))
        frames.append(
            (float(speed), Box.from_center((x, y), (frame_side, frame_side)))
        )
    return frames


def tree_fetch(tree: MotionAwareAccessMethod, store):
    """The server's fetch stage answered by the object-tree walk.

    Hits become store rows in the canonical ascending packed-uid order
    :meth:`Server.gather_batch` expects of every fetch.
    """

    def fetch(request: RegionRequest) -> RowResult:
        result = tree.query(request.region, request.w_min, request.w_max)
        keys = np.fromiter(
            (
                pack_uid(r.object_id, r.key.level, r.key.index)
                for r in result.records
            ),
            dtype=np.int64,
            count=len(result.records),
        )
        keys.sort()
        return RowResult(rows=store.rows_for_packed(keys), io=result.io)

    return fetch


def drive_batch(
    server: Server, frames, mapper, client_id: int, *, deltas=False, fetch=None
):
    """One tour through ``execute_batch``; returns per-frame digests.

    With ``deltas=True`` each request carries Algorithm 1's sub-query
    plan (difference rectangles + overlap band) instead of one
    full-window region, matching what a continuous client sends.  A
    ``fetch`` callable replaces the server's own fetch stage: its
    per-region rows go through the same ``gather_batch``.
    """
    server.reset_client(client_id)
    sent = None
    prev_box = prev_w = None
    digests = []
    start = time.perf_counter()
    for t, (speed, frame) in enumerate(frames):
        w_min = float(mapper(clamp_speed(speed)))
        if deltas:
            regions = tuple(plan_frame(prev_box, prev_w, frame, w_min))
            prev_box, prev_w = frame, w_min
        else:
            regions = (RegionRequest(frame, w_min, 1.0),)
        request = RetrieveRequest(
            timestamp=float(t),
            client_id=client_id,
            regions=regions,
            exclude_uids=sent,
        )
        if fetch is None:
            response = server.execute_batch(request)
        else:
            response = server.gather_batch(
                request, [fetch(region) for region in regions]
            )
        uids = response.batch.uids
        sent = uids if sent is None else sent.union(uids)
        digests.append((response.batch.rows, response.io_node_reads))
    elapsed = time.perf_counter() - start
    return digests, elapsed


def plan_frame(prev_box, prev_w, frame: Box, w_min: float) -> list[RegionRequest]:
    """Algorithm 1's per-frame delta plan (same as the legacy client).

    After the first frame each plan is a handful of thin difference
    rectangles plus a half-open band query over the overlap -- all
    contained in a slightly grown copy of the previous window, which is
    exactly the coherence the frontier planner memoises.
    """
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


def drive_deltas(query_rows, frames, mapper):
    """Algorithm-1 sub-query loop: isolates traversal from server work."""
    rows_per_query = []
    prev_box = prev_w = None
    start = time.perf_counter()
    for speed, frame in frames:
        w_min = float(mapper(clamp_speed(speed)))
        for request in plan_frame(prev_box, prev_w, frame, w_min):
            rows_per_query.append(
                query_rows(
                    request.region,
                    request.w_min,
                    request.w_max,
                    half_open=request.half_open,
                )
            )
        prev_box, prev_w = frame, w_min
    elapsed = time.perf_counter() - start
    return rows_per_query, elapsed


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
    db_packed = build_city(config)
    method = db_packed.access_method
    tree = MotionAwareAccessMethod(db_packed.all_records())
    mapper = LinearMapper()
    frames = build_frames(steps, frame_side)

    # -- part 1: server-side query answering, object tree vs packed ----------
    server = Server(db_packed)
    tree_digests, tree_s = drive_batch(
        server, frames, mapper, 1, fetch=tree_fetch(tree, db_packed.store)
    )
    packed_digests, packed_s = drive_batch(server, frames, mapper, 2)
    for t, ((rows_a, io_a), (rows_b, io_b)) in enumerate(
        zip(tree_digests, packed_digests)
    ):
        assert rows_a.tolist() == rows_b.tolist(), f"row divergence at frame {t}"
        assert io_a == io_b, f"node-access divergence at frame {t}: {io_a} != {io_b}"

    # -- part 2: frame-delta planner vs cold packed traversal ----------------
    # The workload is Algorithm 1's actual sub-query stream: difference
    # rectangles + a half-open overlap band per frame, which the memo
    # amortises across (the cold path re-descends for every sub-query).
    cold_rows, cold_s = drive_deltas(method.query_rows, frames, mapper)
    planner = FrontierPlanner(method)
    warm_rows, warm_s = drive_deltas(
        lambda region, w_min, w_max, half_open: planner.query_rows(
            3, region, w_min, w_max, half_open=half_open
        ),
        frames, mapper,
    )
    assert len(cold_rows) == len(warm_rows)
    for t, (a, b) in enumerate(zip(cold_rows, warm_rows)):
        assert a.rows.tolist() == b.rows.tolist(), f"planner divergence at query {t}"

    # Server-level numbers for context: both servers answer the same
    # delta request stream; only the planned one memoises frontiers.
    sd_digests, server_cold_s = drive_batch(
        Server(db_packed), frames, mapper, 4, deltas=True
    )
    plan_digests, plan_s = drive_batch(
        Server(db_packed, plan_deltas=True), frames, mapper, 5, deltas=True
    )
    for t, ((rows_a, _), (rows_b, _)) in enumerate(
        zip(sd_digests, plan_digests)
    ):
        assert rows_a.tolist() == rows_b.tolist(), f"planned-row divergence at {t}"

    return {
        "config": {
            "object_count": config.object_count,
            "levels": config.levels,
            "records": db_packed.record_count,
            "dataset_bytes": db_packed.total_bytes,
            "frames": steps,
            "smoke": smoke,
        },
        "machine": machine_context(),
        "query_answering": {
            "object_tree_s": round(tree_s, 6),
            "packed_s": round(packed_s, 6),
            "speedup": round(tree_s / packed_s, 2),
            "identical_rows": True,
            "identical_node_accesses": True,
        },
        "frame_delta_planner": {
            "cold_traversal_s": round(cold_s, 6),
            "planner_s": round(warm_s, 6),
            "speedup": round(cold_s / warm_s, 2),
            "hit_rate": round(planner.counters.hit_rate, 3),
            "sub_queries": len(cold_rows),
            "server_cold_s": round(server_cold_s, 6),
            "server_planned_s": round(plan_s, 6),
            "server_speedup": round(server_cold_s / plan_s, 2),
            "identical_rows": True,
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
    if not args.smoke:
        failed = False
        qa = result["query_answering"]
        if qa["speedup"] < 5.0:
            print(
                f"FAIL: packed speedup {qa['speedup']}x below the 5x target",
                file=sys.stderr,
            )
            failed = True
        fd = result["frame_delta_planner"]
        if fd["speedup"] <= 1.0:
            print(
                f"FAIL: planner ({fd['speedup']}x) does not beat cold traversal",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
