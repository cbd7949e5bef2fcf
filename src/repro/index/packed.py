"""Packed array-backed index traversal.

The object trees of :mod:`repro.index.rtree` answer a window query by
walking ``Node``/``Entry`` Python objects one entry at a time; at the
paper's database sizes that traversal is the server's hot path.  This
module compiles any *built* tree (Guttman :class:`~repro.index.rtree.RTree`,
:class:`~repro.index.rstar.RStarTree`, STR or Hilbert bulk loads) into a
:class:`PackedIndex`: level-ordered numpy arrays of entry bounds, child
ranges, and leaf payload rows.  A query then runs one vectorised
frontier intersection per level instead of one Python call per entry.

Layout.  Nodes of each level are numbered in the order their parent
entries appear, so the entry at slot ``i`` of level ``L`` *is* the
parent of node ``i`` at level ``L+1`` -- no explicit child pointers are
needed.  Per level the index stores::

    low, high    (E, ndim) float64   entry bounding boxes
    node_start   (N + 1,)  int64     entries of node i live in
                                     [node_start[i], node_start[i+1])

These three arrays are the one serialised form of a level; the batch
walk additionally derives per-axis contiguous columns from them on
first use (:attr:`PackedLevel.axis_columns`).

and, at the leaf level only, ``rows`` -- an ``int64`` array mapping leaf
entry slots to payload row ids (store rows for the access method below,
or positions in the compiled payload list for generic trees).

Accounting parity.  The frontier walk visits exactly the nodes the
object walk visits (a node is expanded iff its parent entry intersects
the query), and bills them through the same :class:`IOStats` counters
via :meth:`IOStats.record_level`, so node accesses, leaf reads, entries
scanned, and query counts are *identical* to
:meth:`RTree.search_entries` -- the paper-figure I/O numbers
(``bench_fig12/13``) are unchanged, only the wall-clock cost drops.

:class:`PackedAccessMethod` builds the paper's support-MBB x value
R*-tree over a :class:`~repro.store.columns.CoefficientStore` (same
boxes, same STR packing, hence the same tree shape as
:class:`~repro.index.access.MotionAwareAccessMethod`), compiles it, and
answers ``Q(R, w_min, w_max)`` as store row ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.index.access import AccessResult, _spatial_query_box
from repro.index.bulk import bulk_load
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.index.rtree import DEFAULT_NODE_CAPACITY, RTree
from repro.index.stats import IOStats
from repro.store.columns import CoefficientStore

__all__ = [
    "RowResult",
    "PackedLevel",
    "PackedCandidates",
    "PackedIndex",
    "PackedAccessMethod",
    "query_corner_box",
    "subquery_corners",
    "region_corners",
    "corners_query_batch",
]


@dataclass(frozen=True)
class RowResult:
    """Outcome of one row query: store row ids plus the I/O spent."""

    rows: np.ndarray
    io: IOStats


def query_corner_box(
    region: Box, w_min: float, w_max: float, spatial_dims: int
) -> Box:
    """The full index-space box of ``Q(region, w_min, w_max)``."""
    if not 0.0 <= w_min <= w_max <= 1.0:
        raise IndexError_(
            f"invalid value band [{w_min}, {w_max}]; need 0 <= min <= max <= 1"
        )
    spatial = _spatial_query_box(region, spatial_dims)
    return spatial.augment([w_min], [w_max])


def subquery_corners(
    subqueries: Sequence[tuple[Box, float, float]], spatial_dims: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lower ``(region, w_min, w_max)`` sub-queries to corner stacks.

    Returns the ``(Q, spatial_dims + 1)`` query-box corner matrices
    :meth:`PackedIndex.query_slots_many` consumes: row ``i`` holds the
    corners of :func:`query_corner_box` for sub-query ``i``, with the
    same band validation.  The one lowering step of the scatter path --
    the shard layer runs it once, in the parent, and plans, scatters
    and traverses over its output -- filled in place because it sits on
    the per-request planning path.
    """
    qlow = np.empty((len(subqueries), spatial_dims + 1))
    qhigh = np.empty((len(subqueries), spatial_dims + 1))
    for i, (region, w_min, w_max) in enumerate(subqueries):
        # Checked and projected inline, not through query_corner_box:
        # a call per sub-query is measurable on the planning path.
        if not 0.0 <= w_min <= w_max <= 1.0:
            raise IndexError_(
                f"invalid value band [{w_min}, {w_max}]; "
                f"need 0 <= min <= max <= 1"
            )
        spatial = (
            region
            if region.ndim == spatial_dims
            else _spatial_query_box(region, spatial_dims)
        )
        qlow[i, :spatial_dims] = spatial.low
        qhigh[i, :spatial_dims] = spatial.high
        qlow[i, spatial_dims] = w_min
        qhigh[i, spatial_dims] = w_max
    return qlow, qhigh


def region_corners(
    low: np.ndarray,
    high: np.ndarray,
    w_min: float,
    w_max: float,
    spatial_dims: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`subquery_corners` for ``(n, ndim)`` region stacks on one band.

    Row ``i`` equals the corners of ``(Box(low[i], high[i]), w_min,
    w_max)``: same band check, same 3-D -> 2-D projection and 2-D ->
    3-D lift, no :class:`Box` per region.
    """
    if not 0.0 <= w_min <= w_max <= 1.0:
        raise IndexError_(
            f"invalid value band [{w_min}, {w_max}]; need 0 <= min <= max <= 1"
        )
    n, ndim = low.shape
    if (ndim, spatial_dims) == (3, 2):
        low, high = low[:, :2], high[:, :2]
    elif (ndim, spatial_dims) == (2, 3):
        # Lift a 2-D window to all heights.
        low = np.column_stack([low, np.full(n, -1e12)])
        high = np.column_stack([high, np.full(n, 1e12)])
    elif ndim != spatial_dims:
        raise IndexError_(
            f"query region is {ndim}-D but the index is {spatial_dims}-D"
        )
    return (
        np.column_stack([low, np.full(n, w_min)]),
        np.column_stack([high, np.full(n, w_max)]),
    )


def corners_query_batch(
    packed: "PackedIndex", qlow: np.ndarray, qhigh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact batch answer over pre-lowered corners: ``(rows, counts, io)``.

    The scatter-gather currency, answered by one shared frontier walk:
    ``rows`` concatenates every sub-query's payload rows grouped by
    ascending sub-query index (sub-query ``q`` owns the slice of length
    ``counts[q]``) and ``io`` is the ``(Q, 3)`` per-sub-query
    ``(node_reads, leaf_reads, entries_scanned)`` matrix -- three flat
    arrays, no per-query Python objects.  The shard executor runs this
    same function on every slice's index, which is what keeps sharded
    answers bit-identical to the unsharded walk by construction.
    """
    slots, slot_qid, io = packed.query_slots_many(qlow, qhigh)
    counts = np.bincount(slot_qid, minlength=len(io)).astype(
        np.int64, copy=False
    )
    return packed.rows[slots], counts, io


@dataclass(frozen=True)
class PackedLevel:
    """One level of a packed tree: entry boxes plus node extents."""

    low: np.ndarray  # (E, ndim) entry box lower corners
    high: np.ndarray  # (E, ndim) entry box upper corners
    node_start: np.ndarray  # (N + 1,) entry offsets per node

    @property
    def node_count(self) -> int:
        return int(self.node_start.size - 1)

    @property
    def entry_count(self) -> int:
        return int(self.low.shape[0])

    @cached_property
    def axis_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ndim, E)`` transposes of ``low``/``high``, derived lazily.

        Row ``d`` is axis ``d``'s entry bounds as one contiguous 1-D
        column, the layout the batch walk's chained per-axis test
        gathers from.  Only :meth:`PackedIndex.query_slots_many` asks
        for it, once per level; ``low``/``high`` stay the form that is
        compiled, patched, published and compared.
        """
        return (
            np.ascontiguousarray(self.low.T),
            np.ascontiguousarray(self.high.T),
        )


@dataclass(frozen=True)
class PackedCandidates:
    """Leaf-level survivors of one frontier traversal.

    The incremental planner memoises these per client: ``rows`` answer
    the traversed box directly, while ``low``/``high``/``leaf_nodes``
    let later, *contained* queries be answered by one vectorised
    re-test of the candidates instead of a root traversal.
    """

    rows: np.ndarray  # (k,) payload row ids
    low: np.ndarray  # (k, ndim) candidate entry boxes
    high: np.ndarray  # (k, ndim)
    leaf_nodes: np.ndarray  # (k,) leaf node id of each candidate

    def __len__(self) -> int:
        return int(self.rows.size)


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.cumsum(counts) - counts
    return np.repeat(starts - shift, counts) + np.arange(total, dtype=np.int64)


class PackedIndex:
    """A flat, immutable compilation of a built R-tree family tree.

    Construct via :meth:`from_tree`.  Queries return leaf payload rows
    (:meth:`query_rows`) or the payload objects themselves
    (:meth:`search`, result-set-identical to :meth:`RTree.search`).
    The packed form is read-only; dynamic insert/delete workloads keep
    using the object tree and recompile when they need packed speed.
    """

    __slots__ = ("_levels", "_rows", "_payloads", "_ndim", "_size", "stats")

    def __init__(
        self,
        levels: Sequence[PackedLevel],
        rows: np.ndarray,
        payloads: Sequence[Any],
        *,
        ndim: int | None,
        stats: IOStats | None = None,
    ) -> None:
        self._levels = tuple(levels)
        self._rows = np.asarray(rows, dtype=np.int64)
        self._payloads = tuple(payloads)
        self._ndim = ndim
        self._size = int(self._rows.size)
        if self._levels and self._levels[-1].entry_count != self._size:
            raise IndexError_(
                f"leaf level holds {self._levels[-1].entry_count} entries "
                f"but {self._size} rows were supplied"
            )
        self.stats = stats if stats is not None else IOStats()

    # -- compilation ---------------------------------------------------------

    @classmethod
    def from_tree(
        cls,
        tree: RTree,
        *,
        leaf_row: Callable[[Any], int] | None = None,
        stats: IOStats | None = None,
    ) -> "PackedIndex":
        """Flatten a built tree into level-ordered arrays.

        ``leaf_row`` maps each leaf payload to its row id; by default
        rows are the positions in the compiled payload sequence (level
        order), which is what :meth:`search` uses to return payloads.
        """
        if len(tree) == 0:
            return cls((), np.empty(0, dtype=np.int64), (), ndim=None, stats=stats)
        levels: list[PackedLevel] = []
        payloads: list[Any] = []
        nodes: list[Node] = [tree.root]
        while True:
            children: list[Node] = []
            node_start = np.zeros(len(nodes) + 1, dtype=np.int64)
            low_rows: list[np.ndarray] = []
            high_rows: list[np.ndarray] = []
            is_leaf = nodes[0].is_leaf
            for i, node in enumerate(nodes):
                if node.is_leaf != is_leaf:
                    raise IndexError_("mixed leaf/internal nodes in one level")
                node_start[i + 1] = node_start[i] + len(node.entries)
                for entry in node.entries:
                    low_rows.append(entry.box.low)
                    high_rows.append(entry.box.high)
                    if is_leaf:
                        payloads.append(entry.payload)
                    else:
                        assert entry.child is not None
                        children.append(entry.child)
            low = np.ascontiguousarray(np.vstack(low_rows))
            high = np.ascontiguousarray(np.vstack(high_rows))
            low.setflags(write=False)
            high.setflags(write=False)
            node_start.setflags(write=False)
            levels.append(PackedLevel(low=low, high=high, node_start=node_start))
            if is_leaf:
                break
            nodes = children
        if leaf_row is None:
            rows = np.arange(len(payloads), dtype=np.int64)
        else:
            rows = np.fromiter(
                (leaf_row(p) for p in payloads), dtype=np.int64, count=len(payloads)
            )
        rows.setflags(write=False)
        return cls(levels, rows, payloads, ndim=tree.ndim, stats=stats)

    # -- accessors -----------------------------------------------------------

    @property
    def ndim(self) -> int | None:
        """Dimensionality, or None for an empty compilation."""
        return self._ndim

    @property
    def height(self) -> int:
        """Number of levels (0 when empty)."""
        return len(self._levels)

    @property
    def node_count(self) -> int:
        return sum(level.node_count for level in self._levels)

    @property
    def levels(self) -> tuple[PackedLevel, ...]:
        return self._levels

    @property
    def rows(self) -> np.ndarray:
        """Leaf-slot -> payload row mapping (level order)."""
        return self._rows

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"PackedIndex(size={self._size}, height={self.height}, "
            f"nodes={self.node_count})"
        )

    # -- queries -------------------------------------------------------------

    def _check_query(self, box: Box) -> None:
        if self._ndim is not None and box.ndim != self._ndim:
            raise IndexError_(
                f"box dimension {box.ndim} does not match index "
                f"dimension {self._ndim}"
            )

    def _descend(self, box: Box) -> np.ndarray:
        """Leaf entry slots intersecting ``box`` (bills node accesses)."""
        qlow = box.low
        qhigh = box.high
        frontier = np.zeros(1, dtype=np.int64)
        last = len(self._levels) - 1
        for depth, level in enumerate(self._levels):
            starts = level.node_start[frontier]
            counts = level.node_start[frontier + 1] - starts
            self.stats.record_level(
                nodes=int(frontier.size),
                entries=int(counts.sum()),
                is_leaf=depth == last,
            )
            slots = _expand_ranges(starts, counts)
            low = level.low[slots]
            high = level.high[slots]
            hit = slots[
                np.all((low <= qhigh) & (high >= qlow), axis=1)
            ]
            if depth == last or hit.size == 0:
                return hit if depth == last else np.empty(0, dtype=np.int64)
            # Entry slot i at this level parents node i one level down.
            frontier = hit
        return np.empty(0, dtype=np.int64)

    def query_slots(self, box: Box) -> np.ndarray:
        """Leaf entry slots whose boxes intersect ``box``."""
        self.stats.record_query()
        if not self._levels:
            return np.empty(0, dtype=np.int64)
        self._check_query(box)
        return self._descend(box)

    def query_slots_many(
        self, qlow: np.ndarray, qhigh: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One shared frontier walk answering many queries at once.

        ``qlow``/``qhigh`` are ``(Q, ndim)`` stacked query-box corners.
        Returns ``(slots, slot_qid, io)``: the surviving leaf entry
        slots, the query index each slot answers (grouped by ascending
        query index, slots ascending within a query -- exactly the
        order :meth:`query_slots` yields per query), and a ``(Q, 3)``
        int64 matrix of per-query ``(node_reads, leaf_reads,
        entries_scanned)``.

        Per query the walk visits exactly the nodes a solo
        :meth:`query_slots` call would (a node is expanded iff its
        parent entry intersects *that* query), and the per-query
        accounting matches it; the aggregate is billed to
        :attr:`stats` as ``Q`` queries.  Sharing the per-level numpy
        work across queries is what makes a scatter batch cheap: the
        fixed per-level call overhead is paid once for the whole batch
        instead of once per query.

        The hit test runs one axis at a time over
        :attr:`PackedLevel.axis_columns`, dropping the (slot, query)
        pairs an axis rejects before the next axis looks at them: 1-D
        gathers over a shrinking survivor list.
        """
        qlow = np.asarray(qlow, dtype=np.float64)
        qhigh = np.asarray(qhigh, dtype=np.float64)
        if qlow.shape != qhigh.shape or qlow.ndim != 2:
            raise IndexError_(
                f"query corners must be matching (Q, ndim) stacks, got "
                f"{qlow.shape} and {qhigh.shape}"
            )
        nq = int(qlow.shape[0])
        io = np.zeros((nq, 3), dtype=np.int64)
        self.stats.queries += nq
        empty = np.empty(0, dtype=np.int64)
        if nq == 0 or not self._levels:
            return empty, empty, io
        if self._ndim is not None and qlow.shape[1] != self._ndim:
            raise IndexError_(
                f"box dimension {qlow.shape[1]} does not match index "
                f"dimension {self._ndim}"
            )
        # The frontier is a (node, query) pair list kept sorted by
        # (query, node); root node 0 seeds every query.
        frontier = np.zeros(nq, dtype=np.int64)
        qid = np.arange(nq, dtype=np.int64)
        qlow_cols = np.ascontiguousarray(qlow.T)
        qhigh_cols = np.ascontiguousarray(qhigh.T)
        last = len(self._levels) - 1
        for depth, level in enumerate(self._levels):
            starts = level.node_start[frontier]
            counts = level.node_start[frontier + 1] - starts
            nodes_per_q = np.bincount(qid, minlength=nq)
            entries_per_q = np.bincount(qid, weights=counts, minlength=nq)
            io[:, 0] += nodes_per_q
            if depth == last:
                io[:, 1] += nodes_per_q
            io[:, 2] += entries_per_q.astype(np.int64)
            self.stats.record_level(
                nodes=int(frontier.size),
                entries=int(counts.sum()),
                is_leaf=depth == last,
            )
            slots = _expand_ranges(starts, counts)
            slot_qid = np.repeat(qid, counts)
            for low_d, high_d, qlow_d, qhigh_d in zip(
                *level.axis_columns, qlow_cols, qhigh_cols, strict=True
            ):
                keep = low_d[slots] <= qhigh_d[slot_qid]
                keep &= high_d[slots] >= qlow_d[slot_qid]
                slots = slots[keep]
                slot_qid = slot_qid[keep]
            if depth == last:
                return slots, slot_qid, io
            if slots.size == 0:
                return empty, empty, io
            frontier = slots
            qid = slot_qid
        return empty, empty, io

    def query_rows(self, box: Box) -> np.ndarray:
        """Payload row ids whose boxes intersect ``box``."""
        return self._rows[self.query_slots(box)]

    def search(self, box: Box) -> list[Any]:
        """Payload objects intersecting ``box``.

        The result *set* matches :meth:`RTree.search` on the source
        tree exactly; the order is level order rather than the object
        walk's stack order.
        """
        return [self._payloads[int(slot)] for slot in self.query_slots(box)]

    def count(self, box: Box) -> int:
        """Number of intersecting entries."""
        return int(self.query_slots(box).size)

    def candidates(self, box: Box) -> PackedCandidates:
        """Traverse for ``box`` and keep the surviving leaf entries.

        Same accounting as :meth:`query_rows`; additionally returns the
        candidates' boxes and owning leaf nodes so a caller can answer
        any query *contained* in ``box`` by re-testing them.
        """
        slots = self.query_slots(box)
        if not self._levels:
            empty = np.empty(0, dtype=np.int64)
            return PackedCandidates(
                rows=empty,
                low=np.empty((0, 0)),
                high=np.empty((0, 0)),
                leaf_nodes=empty,
            )
        leaf = self._levels[-1]
        leaf_nodes = (
            np.searchsorted(leaf.node_start, slots, side="right") - 1
        ).astype(np.int64)
        return PackedCandidates(
            rows=self._rows[slots],
            low=leaf.low[slots],
            high=leaf.high[slots],
            leaf_nodes=leaf_nodes,
        )


class _PackedQuerySurface:
    """The packed ``Q(R, w_min, w_max)`` query surface.

    Expressed against :attr:`store` / :attr:`packed` /
    :attr:`spatial_dims` / ``self.stats``.  Three access methods derive
    from it: the static :class:`PackedAccessMethod`, the pinned
    :class:`~repro.index.dynamic.EpochView` (one retained epoch's
    compilation) -- both plain holders of the three fields -- and the
    live :class:`~repro.index.dynamic.DynamicAccessMethod`, which
    overrides :attr:`store` and :attr:`packed` to follow its index as
    the arrays step forward per epoch.
    """

    _store: CoefficientStore
    _packed: PackedIndex
    _spatial_dims: int
    stats: IOStats

    @property
    def store(self) -> CoefficientStore:
        return self._store

    @property
    def packed(self) -> PackedIndex:
        return self._packed

    @property
    def spatial_dims(self) -> int:
        return self._spatial_dims

    def __len__(self) -> int:
        return len(self.store)

    def query_box(self, region: Box, w_min: float, w_max: float) -> Box:
        """The full index-space box of ``Q(region, w_min, w_max)``."""
        return query_corner_box(region, w_min, w_max, self.spatial_dims)

    def query_rows(
        self,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        half_open: bool = False,
    ) -> RowResult:
        """One frontier walk: store rows answering the query."""
        box = self.query_box(region, w_min, w_max)
        self.stats.push()
        rows = self.packed.query_rows(box)
        io = self.stats.pop_delta()
        if half_open and rows.size:
            rows = rows[self.store.values[rows] < w_max]
        return RowResult(rows=rows, io=io)

    def query(self, region: Box, w_min: float, w_max: float) -> AccessResult:
        """Tree-compatible query surface (materialises record views)."""
        result = self.query_rows(region, w_min, w_max)
        records = list(self.store.records(result.rows))
        return AccessResult(
            records=records,
            io=result.io,
            retrieved_with_duplicates=len(records),
        )

    def candidates(self, box: Box) -> PackedCandidates:
        """Raw-box traversal keeping survivors (the planner's refresh)."""
        self.stats.push()
        cand = self.packed.candidates(box)
        self.stats.pop_delta()
        return cand


class PackedAccessMethod(_PackedQuerySurface):
    """Support-MBB x value index compiled to packed arrays (Section VI-B).

    Builds the same STR-packed R*-tree as
    :class:`~repro.index.access.MotionAwareAccessMethod` -- identical
    entry boxes in identical input order, hence an identical tree shape
    and identical per-query node accesses -- then compiles it once and
    answers every query with the vectorised frontier walk, returning
    row ids into ``store``.

    Parameters
    ----------
    store:
        The database-level columnar store the leaf rows index into.
    spatial_dims:
        2 for the paper's ``(x, y, w)`` index, 3 for ``(x, y, z, w)``.
    max_entries / tree_class:
        Construction parameters of the compiled tree.
    """

    def __init__(
        self,
        store: CoefficientStore,
        *,
        spatial_dims: int = 2,
        max_entries: int = DEFAULT_NODE_CAPACITY,
        tree_class: Callable[..., RTree] = RStarTree,
    ) -> None:
        if spatial_dims not in (2, 3):
            raise IndexError_(f"spatial_dims must be 2 or 3, got {spatial_dims}")
        if len(store) == 0:
            raise IndexError_("cannot index an empty store")
        self._store = store
        self._spatial_dims = spatial_dims
        self.stats = IOStats()
        low = np.concatenate(
            [store.support_low[:, :spatial_dims], store.values[:, None]], axis=1
        )
        high = np.concatenate(
            [store.support_high[:, :spatial_dims], store.values[:, None]], axis=1
        )
        items = [
            (Box(low[i], high[i]), int(i)) for i in range(len(store))
        ]
        self._tree = bulk_load(items, max_entries=max_entries, tree_class=tree_class)
        self._packed = PackedIndex.from_tree(
            self._tree, leaf_row=_row_payload, stats=self.stats
        )

    @property
    def tree(self) -> RTree:
        """The source object tree (kept for dynamic workloads and tests)."""
        return self._tree


def _row_payload(payload: Any) -> int:
    """Leaf payloads of the access method's tree are the rows themselves."""
    return int(payload)
