"""Epoch-versioned scenes over the columnar store.

The serving stack was built around a "build once, query forever"
invariant: a :class:`~repro.store.columns.CoefficientStore` is frozen at
construction and every layer above caches derived state (packed index
arrays, planner memos, per-client shipped uids) without any way to
invalidate it.  This module introduces the *scene epoch* abstraction
that lets geometry change while keeping every view consistent:

* :class:`SceneDelta` -- one epoch's worth of column-wise changes:
  whole-object **add** (new coefficient rows), **remove** (drop every
  row of an object), **move** (rigid translation applied to the support
  MBB / position columns, and to the payload of base rows, whose wire
  payload *is* the base position), and **re-mesh** (replace every row
  of an existing object with a fresh decomposition's rows).
* :class:`SceneStore` -- the version chain.  ``apply(delta)`` advances
  the scene one epoch and returns a :class:`FootprintDelta`;
  ``at_epoch(e)`` returns an immutable, fully consistent
  :class:`CoefficientStore` snapshot for any recorded epoch whose view
  has not been released (``release(e)``).
* :class:`FootprintDelta` -- the change summary consumed upstream: the
  object ids whose footprints changed plus their dirty spatial bounds
  (the union of the before and after support boxes), which is exactly
  what the index patcher, the planner memo invalidation and the
  per-client shipped-uid invalidation need.

Canonical row order
-------------------

Every epoch view orders its rows by ascending packed uid.  Uid packing
is order-preserving (see :mod:`repro.store.uids`), so one object's rows
form one contiguous, internally ordered block and object blocks appear
in ascending object-id order.  The order is therefore a pure function
of the *set* of rows -- independent of the sequence of deltas that
produced it -- which is what makes "apply deltas incrementally" and
"rebuild from scratch" land on bit-identical columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StoreError
from repro.store.columns import COEFF_DTYPE, CoefficientStore
from repro.store.uids import (
    pack_uid_arrays,
    sorted_isin,
    sorted_unique,
    unpack_uid_arrays,
)

__all__ = ["SceneDelta", "FootprintDelta", "SceneStore"]


def _as_ids(ids: np.ndarray | None) -> np.ndarray:
    arr = (
        np.empty(0, dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    if arr.ndim != 1:
        raise StoreError(f"object ids must be 1-D, got shape {arr.shape}")
    return arr


def _as_rows(rows: np.ndarray | None) -> np.ndarray:
    arr = np.empty(0, dtype=COEFF_DTYPE) if rows is None else np.asarray(rows)
    if arr.dtype != COEFF_DTYPE:
        raise StoreError(f"delta rows must have COEFF_DTYPE, got {arr.dtype}")
    if arr.ndim != 1:
        raise StoreError(f"delta rows must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SceneDelta:
    """One epoch's column-wise scene changes.

    Application order within the epoch is **remove, re-mesh, move,
    add**.  The same object id may appear in ``remove_ids`` and in
    ``add_rows`` (remove the old incarnation, then add a fresh one --
    equivalent to a re-mesh), but no id may be named by two *other*
    operations at once: moving a removed object, or re-meshing a moved
    one, has no well-defined meaning and raises at validation.
    """

    add_rows: np.ndarray = field(default_factory=lambda: _as_rows(None))
    remove_ids: np.ndarray = field(default_factory=lambda: _as_ids(None))
    move_ids: np.ndarray = field(default_factory=lambda: _as_ids(None))
    move_offsets: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.float64)
    )
    remesh_rows: np.ndarray = field(default_factory=lambda: _as_rows(None))

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_rows", _as_rows(self.add_rows))
        object.__setattr__(self, "remove_ids", _as_ids(self.remove_ids))
        object.__setattr__(self, "move_ids", _as_ids(self.move_ids))
        object.__setattr__(self, "remesh_rows", _as_rows(self.remesh_rows))
        offsets = np.asarray(self.move_offsets, dtype=np.float64)
        if offsets.ndim != 2 or offsets.shape[1] != 3:
            raise StoreError(
                f"move offsets must have shape (n, 3), got {offsets.shape}"
            )
        object.__setattr__(self, "move_offsets", offsets)
        if self.move_ids.size != offsets.shape[0]:
            raise StoreError(
                f"{self.move_ids.size} move ids but {offsets.shape[0]} offsets"
            )
        for name in ("remove_ids", "move_ids"):
            ids = getattr(self, name)
            if sorted_unique(ids).size != ids.size:
                raise StoreError(f"duplicate object id in {name}")
        moved = set(int(i) for i in self.move_ids)
        removed = set(int(i) for i in self.remove_ids)
        remeshed = set(sorted_unique(self.remesh_rows["object_id"]).tolist())
        if moved & removed:
            raise StoreError("an object cannot be both moved and removed")
        if moved & remeshed:
            raise StoreError("an object cannot be both moved and re-meshed")
        if removed & remeshed:
            raise StoreError(
                "re-mesh replaces an object's rows; do not also remove it"
            )

    @property
    def is_empty(self) -> bool:
        """True when the epoch changes nothing (a pure epoch tick)."""
        return (
            self.add_rows.size == 0
            and self.remove_ids.size == 0
            and self.move_ids.size == 0
            and self.remesh_rows.size == 0
        )

    @property
    def touched_ids(self) -> np.ndarray:
        """Sorted unique object ids named by any operation."""
        return sorted_unique(
            np.concatenate(
                [
                    self.add_rows["object_id"],
                    self.remove_ids,
                    self.move_ids,
                    self.remesh_rows["object_id"],
                ]
            )
        )


@dataclass(frozen=True)
class FootprintDelta:
    """What one epoch changed, as seen by the index and cache layers.

    ``changed_ids`` are the objects whose rows differ between epoch
    ``epoch - 1`` and ``epoch``; ``region_low``/``region_high`` are the
    per-object dirty bounds -- the union of the object's support extent
    before and after the change -- aligned with ``changed_ids``.  An
    empty delta (pure epoch tick) has zero changed objects.
    """

    epoch: int
    changed_ids: np.ndarray
    region_low: np.ndarray
    region_high: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "changed_ids", np.asarray(self.changed_ids, dtype=np.int64)
        )
        low = np.asarray(self.region_low, dtype=np.float64)
        high = np.asarray(self.region_high, dtype=np.float64)
        k = self.changed_ids.size
        if low.shape != (k, 3) or high.shape != (k, 3):
            raise StoreError(
                "dirty bounds must align with changed_ids: expected "
                f"({k}, 3), got {low.shape} / {high.shape}"
            )
        object.__setattr__(self, "region_low", low)
        object.__setattr__(self, "region_high", high)

    @property
    def is_empty(self) -> bool:
        return self.changed_ids.size == 0

    def mask_uids(self, packed: np.ndarray) -> np.ndarray:
        """Boolean mask of packed uids belonging to a changed object."""
        object_ids, _, _ = unpack_uid_arrays(packed)
        return sorted_isin(object_ids, self.changed_ids)

    def intersects(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Which of the (n, d) query boxes touch any dirty region.

        The comparison runs over the leading ``d`` axes of the stored
        3-D bounds, so 2-D planner windows test against the spatial
        projection of the dirty footprints.
        """
        qlow = np.atleast_2d(np.asarray(low, dtype=np.float64))
        qhigh = np.atleast_2d(np.asarray(high, dtype=np.float64))
        n, d = qlow.shape
        if self.changed_ids.size == 0:
            return np.zeros(n, dtype=bool)
        rlow = self.region_low[:, :d]
        rhigh = self.region_high[:, :d]
        hits = np.logical_and(
            (qlow[:, None, :] <= rhigh[None, :, :]).all(axis=2),
            (rlow[None, :, :] <= qhigh[:, None, :]).all(axis=2),
        )
        return hits.any(axis=1)

    def restricted(self, object_ids: np.ndarray) -> "FootprintDelta":
        """The delta as seen by a shard owning ``object_ids`` only."""
        keep = sorted_isin(self.changed_ids, sorted_unique(object_ids))
        return FootprintDelta(
            epoch=self.epoch,
            changed_ids=self.changed_ids[keep],
            region_low=self.region_low[keep],
            region_high=self.region_high[keep],
        )


def _object_bounds(
    data: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-object support extents ``(k, 3)`` aligned with sorted ``ids``."""
    low = np.full((ids.size, 3), np.inf)
    high = np.full((ids.size, 3), -np.inf)
    if data.size and ids.size:
        pos = np.searchsorted(ids, data["object_id"])
        pos = np.minimum(pos, ids.size - 1)
        hit = ids[pos] == data["object_id"]
        rows = np.flatnonzero(hit)
        for axis in range(3):
            np.minimum.at(low[:, axis], pos[rows], data["sup_low"][rows, axis])
            np.maximum.at(
                high[:, axis], pos[rows], data["sup_high"][rows, axis]
            )
    return low, high


class SceneStore:
    """An epoch-versioned coefficient store.

    Epoch 0 is the seed snapshot; each :meth:`apply` records one
    :class:`SceneDelta` and materialises the next epoch's columns.  A
    recorded epoch stays addressable through :meth:`at_epoch` until its
    owner releases it (:meth:`release`) -- views are immutable
    :class:`CoefficientStore` instances, so everything built for a
    static store (indexes, access methods, servers) runs unchanged
    against a pinned epoch.  The store never releases a view by itself:
    a standalone scene keeps every epoch, and an owner that only
    answers a window of recent epochs (a
    :class:`~repro.server.scene.SceneDatabase`) releases the rest.  The
    seed and the latest view always stay, and so does the delta log, so
    :meth:`rebuilt_at` can replay any epoch.
    """

    __slots__ = ("_views", "_deltas")

    def __init__(self, base: CoefficientStore) -> None:
        # epoch -> view, ascending; released epochs are absent.
        self._views: dict[int, CoefficientStore] = {0: _canonical_store(base)}
        self._deltas: list[SceneDelta] = []

    # -- accessors ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The latest recorded epoch (0 for a fresh scene)."""
        return len(self._deltas)

    @property
    def latest(self) -> CoefficientStore:
        return self._views[self.epoch]

    def at_epoch(self, epoch: int) -> CoefficientStore:
        """The consistent columnar view as of ``epoch``."""
        if not 0 <= epoch <= self.epoch:
            raise StoreError(
                f"epoch {epoch} outside recorded range [0, {self.epoch}]"
            )
        view = self._views.get(epoch)
        if view is None:
            raise StoreError(
                f"epoch {epoch} was released; retained epochs are "
                f"{list(self._views)}"
            )
        return view

    def release(self, epoch: int) -> None:
        """Drop the view of ``epoch``; later :meth:`at_epoch` calls raise.

        The seed view is kept (it is :meth:`rebuilt_at`'s starting
        point), so releasing epoch 0 is a no-op, as is releasing an
        epoch twice.  The latest view cannot be released.
        """
        if not 0 <= epoch < self.epoch:
            raise StoreError(
                f"cannot release epoch {epoch}: releasable range is "
                f"[0, {self.epoch - 1}]"
            )
        if epoch:
            self._views.pop(epoch, None)

    # -- epoch application -------------------------------------------------

    def apply(self, delta: SceneDelta) -> FootprintDelta:
        """Advance one epoch; returns the footprint change summary."""
        prev = self.latest
        data = prev.data
        present = sorted_unique(data["object_id"])
        self._validate_against(present, delta)

        drop_ids = sorted_unique(
            np.concatenate([delta.remove_ids, delta.remesh_rows["object_id"]])
        )
        kept = data[~sorted_isin(data["object_id"], drop_ids)]

        if delta.move_ids.size and kept.size:
            order = np.argsort(delta.move_ids, kind="stable")
            move_ids = delta.move_ids[order]
            offsets = delta.move_offsets[order]
            pos = np.searchsorted(move_ids, kept["object_id"])
            pos = np.minimum(pos, move_ids.size - 1)
            hit = move_ids[pos] == kept["object_id"]
            rows = np.flatnonzero(hit)
            shift = offsets[pos[rows]]
            kept["sup_low"][rows] += shift
            kept["sup_high"][rows] += shift
            kept["position"][rows] += shift
            # Detail payloads are displacements -- translation-invariant.
            # Base payloads carry the base position itself, so they move.
            base = rows[kept["level"][rows] == -1]
            kept["payload"][base] += offsets[pos[base]]

        fresh = np.concatenate([kept, delta.remesh_rows, delta.add_rows])
        uids = pack_uid_arrays(fresh["object_id"], fresh["level"], fresh["index"])
        order = np.argsort(uids)
        ranked = uids[order]
        if bool((ranked[1:] == ranked[:-1]).any()):
            raise StoreError("delta application produced duplicate uids")
        view = CoefficientStore(np.ascontiguousarray(fresh[order]))

        epoch = self.epoch + 1
        footprint = self._footprint(epoch, prev.data, view.data, delta)
        self._views[epoch] = view
        self._deltas.append(delta)
        return footprint

    @staticmethod
    def _validate_against(present: np.ndarray, delta: SceneDelta) -> None:
        for name, ids in (
            ("remove_ids", delta.remove_ids),
            ("move_ids", delta.move_ids),
            ("re-mesh", delta.remesh_rows["object_id"]),
        ):
            ids = sorted_unique(ids)
            missing = ids[~sorted_isin(ids, present)]
            if missing.size:
                raise StoreError(
                    f"{name} names absent objects {missing.tolist()}"
                )
        add_ids = sorted_unique(delta.add_rows["object_id"])
        # Adding over a same-epoch removal re-creates the object; adding
        # over a still-present object would collide.
        colliding = add_ids[
            sorted_isin(add_ids, present)
            & ~sorted_isin(add_ids, sorted_unique(delta.remove_ids))
        ]
        if colliding.size:
            raise StoreError(
                f"add_rows re-uses live object ids {colliding.tolist()}"
            )

    @staticmethod
    def _footprint(
        epoch: int, before: np.ndarray, after: np.ndarray, delta: SceneDelta
    ) -> FootprintDelta:
        changed = delta.touched_ids
        # An object both removed and re-added may land in exactly the
        # same rows; it still counts as changed (its identity was cut).
        old_low, old_high = _object_bounds(before, changed)
        new_low, new_high = _object_bounds(after, changed)
        low = np.minimum(old_low, new_low)
        high = np.maximum(old_high, new_high)
        # Objects absent on one side contribute only the side they are
        # on; the min/max against +-inf handles that, but an id absent
        # from both sides (degenerate empty add) would stay infinite.
        finite = np.isfinite(low).all(axis=1) & np.isfinite(high).all(axis=1)
        return FootprintDelta(
            epoch=epoch,
            changed_ids=changed[finite],
            region_low=low[finite],
            region_high=high[finite],
        )

    # -- whole-scene helpers ----------------------------------------------

    def rebuilt_at(self, epoch: int) -> CoefficientStore:
        """Replay every delta from scratch up to ``epoch``.

        Reference implementation for the round-trip property: the
        result must equal :meth:`at_epoch` bit for bit.
        """
        replay = SceneStore(self._views[0])
        for delta in self._deltas[:epoch]:
            replay.apply(delta)
        return replay.at_epoch(epoch)

    def __repr__(self) -> str:
        return (
            f"SceneStore(epoch={self.epoch}, rows={len(self.latest)})"
        )


def _canonical_store(store: CoefficientStore) -> CoefficientStore:
    """Reorder a store's rows into ascending packed-uid order."""
    uids = store.packed_uids
    if uids.size < 2 or bool((uids[1:] > uids[:-1]).all()):
        return store
    order = np.argsort(uids)
    ranked = uids[order]
    if bool((ranked[1:] == ranked[:-1]).any()):
        raise StoreError("scene seed store contains duplicate uids")
    return CoefficientStore(np.ascontiguousarray(store.data[order]))
