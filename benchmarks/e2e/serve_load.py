"""Load generator of the two socket workloads, ``serve_tram`` and
``serve_churn``: one process, one event loop, ``CONNECTIONS`` pipelined
connections carrying ``VIEWERS`` logical viewers.

Phase A is an open loop: frame ``k`` is due at ``t0 + k / rate``
whatever happened to earlier frames, and its latency runs from that due
time, so a server stall is charged to every frame it delays.  Phase B
is a closed loop of fresh viewers doing fixed work, each waiting for
its reply; its frames per second is the capacity.  On ``serve_churn``
the generator also tells the child to advance one scene epoch per
``EPOCH_PERIOD_S`` through both phases.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.motion.trajectory import make_tours
from repro.net.messages import InvalidationFrame, RetrieveBatchResponse
from repro.serve.client import ServeClient
from repro.store.uids import EMPTY_UIDS, UidSet

from benchmarks.e2e import shims
from benchmarks.e2e.scenario import (
    CLOSED_VIEWERS,
    ORACLE_EVERY,
    SETUP_REPEATS,
    SPACE,
    VIEWERS,
    WINDOWS,
    Seeds,
    frame_request,
    scaled,
)
from benchmarks.e2e.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: Generator connections; the run is invalid on a box with fewer cores.
CONNECTIONS = 2

#: Offered phase-A rate, frames per second: about 30 % of closed-loop
#: capacity on the 2-core reference box for ``serve_tram``, less for
#: ``serve_churn`` -- each epoch stall returns its replies in one burst,
#: which the single generator must decode before it can send on time.
#: Closed-loop frames per viewer are at ``RUN_SECONDS``.
RATES = {"serve_tram": 320.0, "serve_churn": 200.0}
CLOSED_FRAMES = {"serve_tram": 200, "serve_churn": 50}
SPEEDS = {"serve_tram": ("tram", 0.8), "serve_churn": ("pedestrian", 0.3)}

#: Shares of ``--seconds`` given to warm-up and to the timed windows
#: (the closed loop's fixed work is sized to fill the rest).
WARM_SHARE = 0.08
TIMED_SHARE = 0.62

#: Not a multiple of either frame period, so epochs sweep every phase of
#: the frame schedule instead of always landing the same distance from
#: the next frame.
EPOCH_PERIOD_S = 0.237

#: The generator sleeps until this long before a frame is due, then
#: yields to the loop in a spin: timer wake-ups are a millisecond late.
SPIN_S = 0.0015

#: Validity guards (ISSUE 11): phase A must achieve this share of the
#: offered rate, and the generator may run at most this late (p95).
MIN_ACHIEVED_SHARE = 0.98
MAX_LATE_P95_MS = 2.0

#: Client ids of the closed loop's fresh viewers start here.
CLOSED_FIRST_ID = 1000

#: Touched and released before any child starts.  Every scene epoch
#: keeps a copy of the store, so the ``serve_churn`` child's memory grows
#: all run long; in a lazily backed VM the first touch of a page the
#: guest never used costs ~20 us, which doubled ``advance_epoch`` from
#: the moment the child outgrew its predecessors (README, findings).
#: Touching more than the child will ever hold makes those pages ready.
PRETOUCH_BYTES = 512 * 1024 * 1024

FRAME_TIMEOUT_S = 10.0
HANG_GUARD_S = 120.0


class ChildDied(RuntimeError):
    pass


class Child:
    """The server process and its one-word command channel."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self._process = process
        self._lock = asyncio.Lock()

    @classmethod
    async def spawn(
        cls,
        workload: str,
        seed: int,
        trace: bool,
        smoke: bool,
        cpu: int | None = None,
    ) -> tuple["Child", dict, float]:
        """Start a child; returns it, its hello line and spawn-to-ready wall."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        argv = [
            sys.executable, "-m", "benchmarks.e2e.server_child",
            "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)),
        ] + (["--smoke"] if smoke else [])
        if cpu is not None:
            argv += ["--cpu", str(cpu)]
        started = time.perf_counter()
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=ROOT,
            env=env,
            limit=1 << 30,  # the quit reply of a traced run carries every span
        )
        child = cls(process)
        try:
            hello = await child._read()
        except BaseException:
            await child.kill()
            raise
        return child, hello, time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self._process.pid

    async def hang_up(self) -> int:
        """Close the child's stdin, as a dying generator would; its exit code."""
        self._process.stdin.close()
        return await asyncio.wait_for(self._process.wait(), HANG_GUARD_S)

    async def _read(self) -> dict:
        line = await asyncio.wait_for(
            self._process.stdout.readline(), HANG_GUARD_S
        )
        if not line:
            raise ChildDied("server child closed its pipe")
        return json.loads(line)

    async def command(self, word: str) -> dict:
        async with self._lock:
            self._process.stdin.write(word.encode() + b"\n")
            await self._process.stdin.drain()
            return await self._read()

    async def quit(self) -> dict:
        reply = await self.command("quit")
        await asyncio.wait_for(self._process.wait(), HANG_GUARD_S)
        return reply

    async def kill(self) -> None:
        if self._process.returncode is None:
            self._process.kill()
        await self._process.wait()


@dataclass
class Viewer:
    """One logical client: its tour, its cache, the connection it rides."""

    client_id: int
    positions: np.ndarray
    conn: int
    frame: int = 0
    delivered: UidSet = EMPTY_UIDS


@dataclass
class FrameRecord:
    trace: tuple[int, int]
    window: int  # -1 during warm-up and in the closed loop
    due: float
    done: float
    ok: bool
    node_reads: int = 0


@dataclass
class Sample:
    """A response kept for the oracle."""

    low: np.ndarray
    high: np.ndarray
    exclude: np.ndarray
    epoch: int
    uids: np.ndarray


@dataclass
class Generator:
    workload: str
    child: Child
    tracer: Tracer
    clients: list[ServeClient] = field(default_factory=list)
    invalidations: list[list[InvalidationFrame]] = field(default_factory=list)
    by_conn: list[list[Viewer]] = field(default_factory=list)
    frames: list[FrameRecord] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    epochs: list[tuple[float, int, float]] = field(default_factory=list)
    sent: int = 0
    stopping: bool = False

    async def connect(self, port: int) -> None:
        for conn in range(CONNECTIONS):
            self.invalidations.append([])
            self.by_conn.append([])
            self.clients.append(
                await ServeClient.connect(
                    "127.0.0.1",
                    port,
                    client_id=conn,
                    on_invalidation=lambda frame, conn=conn: self._invalidate(
                        conn, frame
                    ),
                )
            )

    def viewers(self, first_id: int, count: int, steps: int, seed: int) -> list[Viewer]:
        kind, speed = SPEEDS[self.workload]
        tours = make_tours(
            SPACE, kind, count=count, speed=speed, steps=steps, base_seed=seed
        )
        out = [
            Viewer(first_id + i, tour.positions, conn=i % CONNECTIONS)
            for i, tour in enumerate(tours)
        ]
        for viewer in out:
            self.by_conn[viewer.conn].append(viewer)
        return out

    # -- the per-viewer delivered cache ------------------------------------

    def _invalidate(self, conn: int, frame: InvalidationFrame) -> None:
        """A pushed epoch: every viewer on the connection drops stale uids."""
        self.invalidations[conn].append(frame)
        if not frame.count:
            return
        for viewer in self.by_conn[conn]:
            packed = viewer.delivered.packed
            if packed.size:
                stale = packed[frame.mask_uids(packed)]
                if stale.size:
                    viewer.delivered = viewer.delivered.difference(stale)

    def _fold(self, viewer: Viewer, response: RetrieveBatchResponse) -> None:
        packed = response.batch.uids.packed
        # An invalidation can overtake the coroutine waiting for this
        # response; rows it made stale must not enter the cache.
        for frame in reversed(self.invalidations[viewer.conn]):
            if frame.epoch <= response.epoch:
                break
            if frame.count and packed.size:
                packed = packed[~frame.mask_uids(packed)]
        if packed.size:
            viewer.delivered = viewer.delivered.union(packed)

    # -- one frame ---------------------------------------------------------

    async def frame(self, viewer: Viewer, due: float, window: int) -> None:
        index = viewer.frame
        viewer.frame += 1
        request = frame_request(
            viewer.client_id, index, viewer.positions[index], viewer.delivered
        )
        keep = self.sent % ORACLE_EVERY == 0
        self.sent += 1
        root = self.tracer.open(
            "serve.client",
            "frame",
            trace=(viewer.client_id, index),
            start_ns=int(due * 1e9),
        )
        trace = (viewer.client_id, index)
        if window >= 0:
            self.late_s.append(time.perf_counter() - due)
        # ``retrieve`` encodes before its first await, under this root.
        self.tracer.async_parent = root
        try:
            async with asyncio.timeout(FRAME_TIMEOUT_S):
                response = await self.clients[viewer.conn].retrieve(request)
        except (ReproError, TimeoutError):
            self.frames.append(
                FrameRecord(trace, window, due, time.perf_counter(), False)
            )
            return
        done = time.perf_counter()
        self.tracer.close(root)
        self._fold(viewer, response)
        self.frames.append(
            FrameRecord(trace, window, due, done, True, response.io_node_reads)
        )
        if keep:
            region = request.regions[0].region
            self.samples.append(
                Sample(
                    region.low,
                    region.high,
                    request.exclude_uids.packed,
                    response.epoch,
                    response.batch.uids.packed,
                )
            )

    # -- phases ------------------------------------------------------------

    async def open_loop(
        self, viewers: list[Viewer], rate: float, warm_s: float, window_s: float
    ) -> None:
        total = round(rate * (warm_s + WINDOWS * window_s))
        tasks = []
        t0 = time.perf_counter() + 0.05
        for k in range(total):
            offset = k / rate
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            while True:
                await asyncio.sleep(0)
                if time.perf_counter() >= due:
                    break
            window = -1 if offset < warm_s else int((offset - warm_s) // window_s)
            tasks.append(
                asyncio.ensure_future(
                    self.frame(viewers[k % len(viewers)], due, window)
                )
            )
        await asyncio.gather(*tasks)

    async def closed_loop(self, viewers: list[Viewer], frames: int) -> None:
        """Fixed work: every viewer sends its next frame on the reply."""

        async def tour(viewer: Viewer) -> None:
            for _ in range(frames):
                await self.frame(viewer, time.perf_counter(), -1)

        await asyncio.gather(*(tour(viewer) for viewer in viewers))

    async def epoch_clock(self) -> None:
        """One ``advance_epoch`` per period until :attr:`stopping` is set.

        Stopped by flag, not by cancellation: a command cancelled between
        its write and its reply would leave the reply in the pipe for the
        next command to read.
        """
        t0 = time.perf_counter()
        k = 0
        while True:
            k += 1
            await asyncio.sleep(max(t0 + k * EPOCH_PERIOD_S - time.perf_counter(), 0))
            if self.stopping:
                return
            reply = await self.child.command("epoch")
            self.epochs.append(
                (time.perf_counter(), reply["epoch"], reply["apply_ms"])
            )

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


@dataclass
class Measured:
    """Everything one socket run observed, before any arithmetic."""

    workload: str
    rate: float
    setup_walls: list[float]
    hello: dict  # the kept child's set-up report
    before: dict  # child counters around phase A
    after: dict
    last: dict  # ... and after phase B
    final: dict  # the child's quit reply (peak RSS, its spans)
    generator: Generator
    closed: tuple[float, float, int]  # phase B start, end, frames
    problems: list[str]


async def measure(
    workload: str, seed: int, seconds: float, tracer: Tracer, smoke: bool
) -> Measured:
    """Set up three times, then run both phases against the last child."""
    seeds = Seeds.derive(seed)
    problems: list[str] = []
    if CONNECTIONS > (os.cpu_count() or 1):
        problems.append(
            f"{CONNECTIONS} generator connections on {os.cpu_count()} cores"
        )
    rate = 40.0 if smoke else RATES[workload]
    warm_s = WARM_SHARE * seconds
    window_s = TIMED_SHARE * seconds / WINDOWS
    closed_frames = 5 if smoke else scaled(CLOSED_FRAMES[workload], seconds)
    viewers, closed_count = VIEWERS[workload], CLOSED_VIEWERS[workload]
    open_frames = int(rate * (warm_s + WINDOWS * window_s)) // viewers + 2

    if not smoke:
        np.ones(PRETOUCH_BYTES, dtype=np.uint8)
    # One core each: left to the scheduler, generator and child share a
    # core in some runs and not in others, and throughput is bimodal.
    allowed = sorted(os.sched_getaffinity(0))
    own_cpu, child_cpu = (
        (allowed[0], allowed[-1]) if len(allowed) > 1 else (None, None)
    )
    if own_cpu is not None:
        os.sched_setaffinity(0, {own_cpu})
    setup_walls: list[float] = []
    child = generator = clock = None
    try:
        repeats = 1 if smoke else SETUP_REPEATS
        for repeat in range(repeats):
            child, hello, wall = await Child.spawn(
                workload, seed, tracer.enabled, smoke, child_cpu
            )
            setup_walls.append(wall)
            if repeat < repeats - 1:
                await child.quit()
        generator = Generator(workload, child, tracer)
        await generator.connect(hello["port"])
        if tracer.enabled:
            shims.install_generator(tracer)
        if workload == "serve_churn":
            clock = asyncio.ensure_future(generator.epoch_clock())
        before = await child.command("stats")
        await generator.open_loop(
            generator.viewers(0, viewers, open_frames, seeds.tours),
            rate,
            warm_s,
            window_s,
        )
        after = await child.command("stats")
        closed_viewers = generator.viewers(
            CLOSED_FIRST_ID, closed_count, closed_frames, seeds.tours + viewers
        )
        closed_started = time.perf_counter()
        await generator.closed_loop(closed_viewers, closed_frames)
        closed_ended = time.perf_counter()
        if clock is not None:
            generator.stopping = True
            await clock
        last = await child.command("stats")
        await generator.close()
        final = await child.quit()
    except BaseException:
        # Generator failure, hang guard or interrupt: leave no process behind.
        if clock is not None:
            clock.cancel()
        if generator is not None:
            await generator.close()
        if child is not None:
            await child.kill()
        raise
    finally:
        tracer.restore()
        os.sched_setaffinity(0, allowed)
    return Measured(
        workload=workload,
        rate=rate,
        setup_walls=setup_walls,
        hello=hello,
        before=before,
        after=after,
        last=last,
        final=final,
        generator=generator,
        closed=(closed_started, closed_ended, closed_count * closed_frames),
        problems=problems,
    )
