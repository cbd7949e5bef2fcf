"""Incrementally maintainable packed index for epoch-versioned scenes.

:class:`~repro.index.packed.PackedIndex` is a *compilation*: its arrays
are frozen at build time and the only way to absorb a geometry change
is to rebuild the source tree and recompile -- a cost proportional to
the whole database, paid even when one object moved.  This module adds
the dynamic counterpart used by epoch-versioned scenes
(:class:`~repro.store.scene.SceneStore`).

Canonical structure
-------------------

Patching an STR-packed R*-tree in place can never reproduce what a
fresh build would produce: bulk loading re-sorts *every* entry, so one
moved object reshuffles node membership globally and the node-access
counts of a patched tree drift away from a rebuilt one.  Instead the
dynamic index derives its shape from a **fixed spatial grid**, making
the packed arrays a pure function of ``(row set, build parameters)``:

* every store row is assigned to the grid cell containing its support
  MBB centre (clamped to the grid);
* leaf entries are ordered by ``(cell, packed uid)`` -- cells in
  row-major order, rows within a cell in ascending uid order -- and
  chunked into leaf nodes of at most ``max_entries`` entries;
* each upper level takes one entry (the union box) per node below, in
  node order, again chunked into ``max_entries``-ary nodes, up to a
  single root node.

Because the layout never depends on *how* the current row set was
reached, applying an epoch delta incrementally and rebuilding from
scratch at that epoch yield **bit-identical arrays** -- identical
rows, identical uids, and identical node-access counts, which is the
parity contract the epoch tests pin down.

Incremental application
-----------------------

:meth:`DynamicPackedIndex.apply` consumes the
:class:`~repro.store.scene.FootprintDelta` of one epoch.  The common
continuous-motion case -- the same rows moved *within* their grid
cells -- changes neither membership nor leaf order, so the patch
overwrites only the changed slots' boxes and re-reduces the upper
levels over the unchanged node chunking.  When membership does change,
rows of unchanged objects keep their cells and their relative leaf
order, so the patch re-sorts only the members of *dirty* cells and
stitches them back between the untouched runs; one ``searchsorted``
against the new store's uid column re-bases leaf slots onto the new
row ids.  When
an epoch dirties more than ``drift_budget`` of the occupied cells the
segment bookkeeping stops paying and the index falls back to one
vectorised full recompile -- the result is identical either way, only
the cost differs (``patches`` / ``rebuilds`` count the choices).
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_
from repro.index.packed import (
    PackedIndex,
    PackedLevel,
    _PackedQuerySurface,
)
from repro.index.rtree import DEFAULT_NODE_CAPACITY
from repro.index.stats import IOStats
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta
from repro.store.uids import sorted_unique, uid_span

__all__ = [
    "GridSpec",
    "DynamicPackedIndex",
    "DynamicAccessMethod",
    "EpochView",
]

#: Default drift budget: patch while at most this fraction of occupied
#: cells is dirty, recompile beyond it.
DEFAULT_DRIFT_BUDGET = 0.25


def _expand_runs(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, e)`` over aligned run bounds."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = starts - np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
    )
    return np.repeat(offsets, counts) + np.arange(total, dtype=np.int64)


class GridSpec:
    """The frozen grid the dynamic index hangs its structure on.

    ``low``/``high`` bound the indexed space (rows outside are clamped
    to the border cells -- grouping only, correctness is unaffected);
    ``shape`` is the per-axis cell count.  The spec never changes after
    construction: epoch parity requires incremental and from-scratch
    builds to agree on it.
    """

    __slots__ = ("low", "high", "shape", "_cell_size")

    def __init__(
        self, low: np.ndarray, high: np.ndarray, shape: tuple[int, ...]
    ) -> None:
        self.low = np.asarray(low, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)
        if self.low.shape != self.high.shape or self.low.ndim != 1:
            raise IndexError_("grid corners must be matching 1-D vectors")
        if len(shape) != self.low.size:
            raise IndexError_(
                f"grid shape {shape} does not match {self.low.size}-D space"
            )
        if any(n < 1 for n in shape):
            raise IndexError_(f"grid shape must be positive, got {shape}")
        if bool(np.any(self.high <= self.low)):
            raise IndexError_("grid space must have positive extent")
        self.shape = tuple(int(n) for n in shape)
        self._cell_size = (self.high - self.low) / np.asarray(
            self.shape, dtype=np.float64
        )

    @property
    def ndim(self) -> int:
        return int(self.low.size)

    @property
    def cell_count(self) -> int:
        return int(np.prod(np.asarray(self.shape, dtype=np.int64)))

    def cells_for(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Row-major cell ids of the boxes' centres (clamped)."""
        centers = (
            np.asarray(low, dtype=np.float64) + np.asarray(high, np.float64)
        ) / 2.0
        coords = np.floor((centers - self.low) / self._cell_size).astype(
            np.int64
        )
        limits = np.asarray(self.shape, dtype=np.int64) - 1
        coords = np.clip(coords, 0, limits)
        cell = coords[:, 0]
        for axis in range(1, self.ndim):
            cell = cell * self.shape[axis] + coords[:, axis]
        return np.asarray(cell, dtype=np.int64)

    @classmethod
    def fit(
        cls,
        store: CoefficientStore,
        *,
        spatial_dims: int,
        max_entries: int,
        margin: float = 0.5,
    ) -> "GridSpec":
        """Size a grid to a seed store: ~``max_entries`` rows per cell.

        The space is the seed's support extent inflated by ``margin``
        of its span per side, so moderate motion stays inside the grid;
        the per-axis resolution targets an average occupancy of one
        leaf node per cell at seed scale.
        """
        if len(store) == 0:
            low = np.zeros(spatial_dims)
            high = np.ones(spatial_dims)
        else:
            low = store.support_low[:, :spatial_dims].min(axis=0)
            high = store.support_high[:, :spatial_dims].max(axis=0)
        span = np.maximum(high - low, 1e-9)
        low = low - margin * span
        high = high + margin * span
        cells = max(
            1,
            int(
                np.ceil(
                    (max(len(store), 1) / max_entries) ** (1.0 / spatial_dims)
                )
            ),
        )
        return cls(low, high, (cells,) * spatial_dims)


class DynamicPackedIndex:
    """A packed support-MBB x value index that absorbs epoch deltas.

    Query surface and I/O accounting are those of
    :class:`~repro.index.packed.PackedIndex` -- the compiled arrays are
    traversed by exactly the same frontier walk -- but the arrays can
    be *re-derived* after a scene epoch via :meth:`apply` at a cost
    proportional to the dirty cells rather than the database.
    """

    __slots__ = (
        "_grid",
        "_spatial_dims",
        "_max_entries",
        "_drift_budget",
        "_store",
        "_cells",
        "_leaf_uids",
        "_leaf_cells",
        "_leaf_boxes",
        "_occupied",
        "_packed",
        "stats",
        "patches",
        "rebuilds",
    )

    def __init__(
        self,
        store: CoefficientStore,
        *,
        spatial_dims: int = 2,
        max_entries: int = DEFAULT_NODE_CAPACITY,
        grid: GridSpec | None = None,
        drift_budget: float = DEFAULT_DRIFT_BUDGET,
        stats: IOStats | None = None,
    ) -> None:
        if spatial_dims not in (2, 3):
            raise IndexError_(
                f"spatial_dims must be 2 or 3, got {spatial_dims}"
            )
        if max_entries < 2:
            raise IndexError_(f"max_entries must be >= 2, got {max_entries}")
        if not 0.0 <= drift_budget <= 1.0:
            raise IndexError_(
                f"drift_budget must lie in [0, 1], got {drift_budget}"
            )
        self._spatial_dims = spatial_dims
        self._max_entries = int(max_entries)
        self._drift_budget = float(drift_budget)
        if grid is None:
            grid = GridSpec.fit(
                store, spatial_dims=spatial_dims, max_entries=max_entries
            )
        if grid.ndim != spatial_dims:
            raise IndexError_(
                f"grid is {grid.ndim}-D but spatial_dims is {spatial_dims}"
            )
        self._grid = grid
        self.stats = stats if stats is not None else IOStats()
        self.patches = 0
        self.rebuilds = 0
        self._load(store)

    # -- construction ------------------------------------------------------

    def _load(self, store: CoefficientStore) -> None:
        """Derive every array from scratch for ``store``."""
        uids = store.packed_uids
        if uids.size and not bool(np.all(uids[:-1] < uids[1:])):
            raise IndexError_(
                "dynamic index requires ascending-uid store rows "
                "(SceneStore views are; raw stores may need canonicalising)"
            )
        d = self._spatial_dims
        cells = self._grid.cells_for(
            store.support_low[:, :d], store.support_high[:, :d]
        )
        order = np.argsort(cells, kind="stable")  # (cell, uid) order
        self._store = store
        self._cells = cells
        self._leaf_uids = uids[order]
        self._leaf_cells = cells[order]
        self._compile(order)

    def _compile(self, leaf_rows: np.ndarray) -> None:
        """Derive the leaf boxes from the store, then assemble levels.

        The patch path skips this: it splices the previous epoch's leaf
        box array (unchanged rows keep identical columns, hence
        identical boxes) and goes straight to :meth:`_assemble`.
        """
        self._leaf_boxes = self._store_boxes(self._store, leaf_rows)
        self._assemble(leaf_rows)

    def _store_boxes(
        self, store: CoefficientStore, rows_idx: np.ndarray
    ) -> np.ndarray:
        """Fused ``[low | high]`` leaf boxes for the given store rows.

        One ``(k, 2 * (d + 1))`` row per store row -- low corner in the
        left half, high corner in the right, the value ``w`` as the
        last column of each.  Keeping both corners in one array makes
        the patch path's survivor move a single gather.
        """
        d = self._spatial_dims
        d1 = d + 1
        out = np.empty((rows_idx.size, 2 * d1))
        out[:, :d] = store.support_low[rows_idx, :d]
        out[:, d1 : d1 + d] = store.support_high[rows_idx, :d]
        out[:, d] = out[:, d1 + d] = store.values[rows_idx]
        return out

    def _assemble(self, leaf_rows: np.ndarray) -> None:
        """Chunk the leaf arrays into packed levels (pure layout)."""
        n = int(leaf_rows.size)
        d = self._spatial_dims
        if n == 0:
            self._occupied = 0
            self._packed = PackedIndex(
                (), np.empty(0, dtype=np.int64), (), ndim=d + 1,
                stats=self.stats,
            )
            return
        cap = self._max_entries
        # Leaf nodes: per-cell runs chunked into <= cap entries.  The
        # leaf cells are sorted, so run lengths come from the breaks.
        breaks = np.flatnonzero(self._leaf_cells[1:] != self._leaf_cells[:-1])
        ends = np.concatenate([breaks + 1, [n]])
        counts = np.diff(np.concatenate([[0], ends]))
        self._occupied = int(counts.size)
        chunks = -(-counts // cap)  # ceil division
        sizes = np.full(int(chunks.sum()), cap, dtype=np.int64)
        sizes[np.cumsum(chunks) - 1] = counts - (chunks - 1) * cap
        node_start = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)]
        )
        self._assemble_levels(leaf_rows, node_start)

    def _assemble_levels(
        self, leaf_rows: np.ndarray, node_start: np.ndarray
    ) -> None:
        """Build the upper levels over a fixed leaf chunking."""
        cap = self._max_entries
        d1 = self._spatial_dims + 1
        boxes = self._leaf_boxes
        levels = [
            self._frozen_level(boxes[:, :d1], boxes[:, d1:], node_start)
        ]
        while levels[-1].node_count > 1:
            child = levels[-1]
            starts = child.node_start[:-1]
            up_low = np.minimum.reduceat(child.low, starts, axis=0)
            up_high = np.maximum.reduceat(child.high, starts, axis=0)
            count = child.node_count
            node_start = np.arange(
                0, count + cap, cap, dtype=np.int64
            ).clip(max=count)
            node_start = sorted_unique(node_start)
            levels.append(self._frozen_level(up_low, up_high, node_start))
        levels.reverse()
        self._packed = PackedIndex(
            levels,
            leaf_rows,
            (),
            ndim=self._spatial_dims + 1,
            stats=self.stats,
        )

    @staticmethod
    def _frozen_level(
        low: np.ndarray, high: np.ndarray, node_start: np.ndarray
    ) -> PackedLevel:
        low = np.ascontiguousarray(low)
        high = np.ascontiguousarray(high)
        node_start = np.ascontiguousarray(node_start)
        low.setflags(write=False)
        high.setflags(write=False)
        node_start.setflags(write=False)
        return PackedLevel(low=low, high=high, node_start=node_start)

    # -- epoch application -------------------------------------------------

    def apply(
        self, store: CoefficientStore, footprint: FootprintDelta
    ) -> None:
        """Absorb one epoch: re-derive the arrays for ``store``.

        ``store`` is the *new* epoch view; ``footprint`` summarises how
        it differs from the view the index currently holds.  The
        resulting arrays are bit-identical to a from-scratch build over
        ``store`` with the same grid and capacity.
        """
        if footprint.is_empty:
            self._store = store  # pure epoch tick: same rows, same arrays
            return
        old_uids = self._store.packed_uids
        new_uids = store.packed_uids
        # Packing keeps each object's uids contiguous in sorted order,
        # so the changed rows are per-object span probes rather than a
        # full-column unpack-and-match.
        span_low, span_high = uid_span(footprint.changed_ids)
        ch_old = _expand_runs(
            np.searchsorted(old_uids, span_low, side="left"),
            np.searchsorted(old_uids, span_high, side="right"),
        )
        ins = _expand_runs(
            np.searchsorted(new_uids, span_low, side="left"),
            np.searchsorted(new_uids, span_high, side="right"),
        )
        if old_uids.size - ch_old.size != new_uids.size - ins.size:
            raise IndexError_(
                "footprint delta does not explain the store change"
            )
        d = self._spatial_dims
        ins_cells = self._grid.cells_for(
            store.support_low[ins, :d], store.support_high[ins, :d]
        )
        dirty = sorted_unique(np.concatenate([self._cells[ch_old], ins_cells]))
        if dirty.size > self._drift_budget * max(self._occupied, 1):
            self.rebuilds += 1
            self._load(store)
            return
        self.patches += 1

        # Split the changed rows into in-cell movers (same uid, same
        # cell: the continuous-motion common case) and membership
        # changes (rows inserted, removed, or crossing cells).
        old_ch_uids = old_uids[ch_old]
        if old_ch_uids.size:
            at = np.minimum(
                np.searchsorted(old_ch_uids, new_uids[ins]),
                old_ch_uids.size - 1,
            )
            matched = old_ch_uids[at] == new_uids[ins]
            partner = ch_old[at]  # old row of each matched changed uid
            mover = matched & (ins_cells == self._cells[partner])
        else:
            at = np.zeros(ins.size, dtype=np.int64)
            partner = np.zeros(ins.size, dtype=np.int64)
            mover = np.zeros(ins.size, dtype=bool)
        claimed = np.zeros(ch_old.size, dtype=bool)
        claimed[at[mover]] = True
        gone = ch_old[~claimed]  # old rows leaving the index
        mig = ins[~mover]  # new rows entering (or re-entering) it
        mig_cells = ins_cells[~mover]

        rows = self._packed.rows  # leaf slot -> old store row
        inv = np.empty(old_uids.size, dtype=np.int64)
        inv[rows] = np.arange(rows.size, dtype=np.int64)
        m_new = ins[mover]
        self._store = store
        if gone.size == 0 and mig.size == 0:
            # Pure in-cell motion: membership, leaf order, cells, row
            # ids and node chunking are all unchanged -- only the
            # changed slots' boxes differ, so overwrite them and
            # re-reduce the upper levels over the same chunking.
            boxes = self._leaf_boxes.copy()
            if m_new.size:
                boxes[inv[partner[mover]]] = self._store_boxes(store, m_new)
            self._leaf_boxes = boxes
            if rows.size:
                self._assemble_levels(
                    rows, self._packed.levels[-1].node_start
                )
            return

        # Membership changed: drop the vacated slots, then place each
        # entering row at its (cell, uid) position among the survivors
        # (whose relative leaf order is already correct).
        del_slots = np.sort(inv[gone])
        keep = np.ones(rows.size, dtype=bool)
        keep[del_slots] = False
        keep = np.flatnonzero(keep)
        surv_uids = np.take(self._leaf_uids, keep)
        surv_cells = np.take(self._leaf_cells, keep)
        order = np.lexsort((new_uids[mig], mig_cells))
        mig = mig[order]
        mig_cells = mig_cells[order]
        mig_uids = new_uids[mig]
        pos = np.searchsorted(surv_cells, mig_cells, side="left")
        if mig.size:
            end = np.searchsorted(surv_cells, mig_cells, side="right")
            # Within each target cell's survivor run, order by uid.
            breaks = np.flatnonzero(mig_cells[1:] != mig_cells[:-1]) + 1
            starts = np.concatenate([np.zeros(1, dtype=np.int64), breaks])
            stops = np.concatenate(
                [breaks, np.asarray([mig.size], dtype=np.int64)]
            )
            for a, b in zip(starts, stops):
                offs = np.searchsorted(
                    surv_uids[pos[a] : end[a]], mig_uids[a:b]
                )
                pos[a:b] += offs
        # One shared slot layout splices every leaf array: migrants
        # land on ``mig_slots``, survivors fill the rest in order.
        # ``src`` maps every new slot to the old slot it copies from
        # (migrant slots read a placeholder and are overwritten), so
        # each array moves with a single ``np.take`` gather instead of
        # a gather-plus-scatter pair.
        total = surv_uids.size + mig.size
        mig_slots = pos + np.arange(pos.size, dtype=np.int64)
        surv_slots = np.ones(total, dtype=bool)
        surv_slots[mig_slots] = False
        surv_slots = np.flatnonzero(surv_slots)
        if keep.size:
            src = np.zeros(total, dtype=np.int64)
            src[surv_slots] = keep
            leaf_uids = np.take(self._leaf_uids, src)
            leaf_cells = np.take(self._leaf_cells, src)
            boxes = np.take(self._leaf_boxes, src, axis=0)
            slot_old_rows = np.take(rows, src)
        else:
            leaf_uids = np.empty(total, dtype=np.int64)
            leaf_cells = np.empty(total, dtype=np.int64)
            boxes = np.empty((total, 2 * (d + 1)))
            slot_old_rows = np.zeros(total, dtype=np.int64)
        leaf_uids[mig_slots] = mig_uids
        leaf_cells[mig_slots] = mig_cells
        boxes[mig_slots] = self._store_boxes(store, mig)
        if m_new.size:
            # Movers survived the splice with stale boxes: overwrite
            # them at their final slots (old slot, shifted down by the
            # deletions before it and up by the insertions before it).
            s = inv[partner[mover]]
            at_surv = s - np.searchsorted(del_slots, s)
            final = at_surv + np.searchsorted(pos, at_surv, side="right")
            boxes[final] = self._store_boxes(store, m_new)
        # Re-base leaf slots onto new store rows without a full-column
        # searchsorted: uid order is preserved among survivors, so the
        # k-th surviving old row *is* the k-th non-entering new row.
        entering = np.zeros(new_uids.size, dtype=bool)
        entering[mig] = True
        keep_rows = np.ones(old_uids.size, dtype=bool)
        keep_rows[gone] = False
        old_surv_rows = np.flatnonzero(keep_rows)
        new_surv_rows = np.flatnonzero(~entering)
        row_map = np.zeros(max(old_uids.size, 1), dtype=np.int64)
        row_map[old_surv_rows] = new_surv_rows
        leaf_rows = np.take(row_map, slot_old_rows)
        leaf_rows[mig_slots] = mig
        cells = np.empty(new_uids.size, dtype=np.int64)
        cells[new_surv_rows] = np.take(self._cells, old_surv_rows)
        cells[mig] = mig_cells
        self._cells = cells
        self._leaf_uids = leaf_uids
        self._leaf_cells = leaf_cells
        self._leaf_boxes = boxes
        self._assemble(leaf_rows)

    # -- accessors ---------------------------------------------------------

    @property
    def store(self) -> CoefficientStore:
        return self._store

    @property
    def grid(self) -> GridSpec:
        return self._grid

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def packed(self) -> PackedIndex:
        """The compiled arrays for the current epoch view."""
        return self._packed

    def __len__(self) -> int:
        return len(self._store)


class DynamicAccessMethod(_PackedQuerySurface):
    """Drop-in access method over a :class:`DynamicPackedIndex`.

    Call-compatible with
    :class:`~repro.index.packed.PackedAccessMethod` -- the same query
    surface class, hence ``query_rows``, ``candidates`` and the
    ``stats`` counter behave identically -- plus :meth:`apply` to step
    the underlying index to the next epoch view and :meth:`pin` to
    retain the *current* epoch's compiled arrays as a frozen
    :class:`EpochView` for as-of-epoch answering.
    """

    def __init__(
        self,
        store: CoefficientStore,
        *,
        spatial_dims: int = 2,
        max_entries: int = DEFAULT_NODE_CAPACITY,
        grid: GridSpec | None = None,
        drift_budget: float = DEFAULT_DRIFT_BUDGET,
    ) -> None:
        self.stats = IOStats()
        self._index = DynamicPackedIndex(
            store,
            spatial_dims=spatial_dims,
            max_entries=max_entries,
            grid=grid,
            drift_budget=drift_budget,
            stats=self.stats,
        )
        self._spatial_dims = spatial_dims

    # -- epoch stepping ----------------------------------------------------

    def apply(
        self, store: CoefficientStore, footprint: FootprintDelta
    ) -> None:
        """Advance to the next epoch view (see
        :meth:`DynamicPackedIndex.apply`)."""
        self._index.apply(store, footprint)

    def pin(self) -> "EpochView":
        """Freeze the current epoch's arrays as a pinned query surface.

        The returned view stays valid (and cheap: no copies) after
        later :meth:`apply` calls, because each epoch step compiles a
        *new* :class:`~repro.index.packed.PackedIndex` rather than
        mutating the previous one.  I/O is billed to the same
        :attr:`stats` counter as the live surface.
        """
        return EpochView(
            store=self._index.store,
            packed=self._index.packed,
            spatial_dims=self._spatial_dims,
            stats=self.stats,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def store(self) -> CoefficientStore:
        return self._index.store

    @property
    def index(self) -> DynamicPackedIndex:
        return self._index

    @property
    def packed(self) -> PackedIndex:
        return self._index.packed


class EpochView(_PackedQuerySurface):
    """One retained epoch's compiled arrays behind the query surface."""

    def __init__(
        self,
        *,
        store: CoefficientStore,
        packed: PackedIndex,
        spatial_dims: int,
        stats: IOStats,
    ) -> None:
        self._store = store
        self._packed = packed
        self._spatial_dims = spatial_dims
        self.stats = stats
