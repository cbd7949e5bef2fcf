"""The per-block pricing loop ``Server.quote_blocks`` replaced.

Kept as the reference the batched join is compared against: the body of
``Server.quote_block`` as it stood before the batch (one ``_region_rows``
fetch, one no-reship filter, one base-mesh pass per block) inside the
chaining loop ``MotionAwareSessionPolicy.quote_cells`` ran around it.
Shared by ``tests/server/test_server.py`` and its sharded twin.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.server.server import BlockQuote, Server
from repro.shard import ShardedDatabase
from repro.store.uids import UidSet

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))
#: Cells half the width of the test cities' largest buildings, so
#: supports straddle cells and neighbouring blocks share base meshes.
GRID = Grid(SPACE, (20, 20))


def reference_quote_blocks(
    server: Server,
    client_id: int,
    regions: list[Box],
    w_min: float,
    exclude_uids,
    assume_bases: frozenset[int] = frozenset(),
) -> tuple[list[BlockQuote], UidSet, frozenset[int]]:
    store = server.database.store
    exclude = UidSet.coerce(exclude_uids)
    quotes: list[BlockQuote] = []
    for region in regions:
        result = server._region_rows(client_id, region, w_min, 1.0)
        rows = result.rows
        if rows.size:
            rows = rows[~exclude.contains_packed(store.packed_uids[rows])]
        payload = store.payload_bytes(rows)
        shipped = server._shipped_bases.get(client_id, set())
        new_bases: set[int] = set()
        base_rows = rows[store.levels[rows] == -1]
        for oid in np.unique(store.object_ids[base_rows]):
            oid = int(oid)
            if oid not in shipped and oid not in assume_bases:
                new_bases.add(oid)
                payload += server._base_connectivity_bytes(oid)
        quote = BlockQuote(
            client_id=client_id,
            payload_bytes=payload,
            io_node_reads=result.io.node_reads,
            new_uids=store.uid_set(rows),
            new_base_ids=frozenset(new_bases),
        )
        quotes.append(quote)
        exclude = exclude | quote.new_uids
        assume_bases = assume_bases | quote.new_base_ids
    return quotes, exclude, assume_bases


def stack(regions: list[Box]) -> tuple[np.ndarray, np.ndarray]:
    """``quote_blocks``' ``(low, high)`` form of a list of boxes."""
    ndim = regions[0].ndim if regions else 2
    return (
        np.array([r.low for r in regions]).reshape(-1, ndim),
        np.array([r.high for r in regions]).reshape(-1, ndim),
    )


def io_counters(server: Server) -> tuple[int, ...]:
    """Aggregate ``IOStats`` of every index the server's database walks."""
    db = server.database
    if isinstance(db, ShardedDatabase):
        snaps = [sl.packed_method().stats.snapshot() for sl in db.slices]
    else:
        snaps = [db.access_method.stats.snapshot()]
    return tuple(int(total) for total in np.sum(snaps, axis=0))


def assert_batch_matches_loop(
    make_server,
    regions: list[Box],
    w_min: float = 0.0,
    exclude=None,
    assume: frozenset[int] = frozenset(),
    *,
    client_id: int = 3,
    prepare=lambda server: None,
) -> list[BlockQuote]:
    """``quote_blocks`` == the loop: quotes, final sets, state, billed I/O.

    Each side prices on its own server from ``make_server`` (brought to
    the same history by ``prepare``), because frame-delta memos are warm
    state a second pricing pass would hit.
    """
    loop_server, batch_server = make_server(), make_server()
    prepare(loop_server)
    prepare(batch_server)
    before = io_counters(loop_server)
    want, want_exclude, want_bases = reference_quote_blocks(
        loop_server, client_id, regions, w_min, exclude, assume
    )
    loop_io = np.subtract(io_counters(loop_server), before)
    before = io_counters(batch_server)
    got, got_exclude, got_bases = batch_server.quote_blocks(
        client_id, stack(regions), w_min, exclude, assume_shipped_bases=assume
    )
    batch_io = np.subtract(io_counters(batch_server), before)
    assert len(got) == len(want) == len(regions)
    for mine, theirs in zip(got, want):
        assert mine.client_id == theirs.client_id == client_id
        assert mine.payload_bytes == theirs.payload_bytes
        assert type(mine.payload_bytes) is int
        assert mine.io_node_reads == theirs.io_node_reads
        assert type(mine.io_node_reads) is int
        assert np.array_equal(mine.new_uids.packed, theirs.new_uids.packed)
        assert mine.new_base_ids == theirs.new_base_ids
    assert np.array_equal(got_exclude.packed, want_exclude.packed)
    assert got_bases == want_bases
    assert loop_io.tolist() == batch_io.tolist()
    # Quoting commits nothing on either side.
    assert batch_server._shipped_bases == loop_server._shipped_bases
    return got


def scattered_blocks() -> list[Box]:
    """Every block of :data:`GRID`, interleaved so that neighbours are
    quoted far apart (contacts quote in priority, not grid, order)."""
    cells = list(GRID.cells())
    return [GRID.cell_box(c) for c in cells[::3] + cells[1::3] + cells[2::3]]


def split_footprint(server: Server, object_id: int) -> list[Box]:
    """One object's footprint cut into a left and a right block."""
    footprint = server.database.get_object(object_id).footprint
    middle = float(footprint.center[0])
    return [
        Box(footprint.low, (middle, footprint.high[1])),
        Box((middle, footprint.low[1]), footprint.high),
    ]


def random_contact(city, rng: np.random.Generator):
    """Blocks (repeats allowed), a resolution stop, delivered uids and
    assumed bases for one randomly drawn contact."""
    cells = rng.integers(0, GRID.shape[0], size=(int(rng.integers(1, 40)), 2))
    regions = [GRID.cell_box(tuple(c)) for c in cells.tolist()]
    uids = city.store.packed_uids
    exclude = UidSet(uids[rng.random(uids.size) < rng.choice([0.0, 0.3, 0.9])])
    ids = [obj.object_id for obj in city.objects]
    assume = frozenset(i for i in ids if rng.random() < 0.3)
    return regions, float(rng.choice([0.0, 0.25, 0.6, 1.0])), exclude, assume
