"""Epoch-versioned spatial sharding.

:class:`ShardedSceneDatabase` keeps the scatter-gather contract of
:class:`~repro.shard.database.ShardedDatabase` while the scene moves:
every slice is its own :class:`~repro.server.scene.SceneDatabase`, and
:meth:`advance_epoch` steps the global scene *and* each slice in
lockstep -- each shard applies the delta restricted to its member
objects, patching its dynamic index incrementally.  Shard membership is
fixed by the epoch-0 shard map: an object that moves keeps its shard
(the per-shard bounds are recomputed each epoch, so planning stays
exact), an object removed and re-added returns to its original shard,
and a delta introducing a brand-new object id is rejected -- no shard
owns it.

Parity: per shard, the incrementally patched slice equals a slice
rebuilt from scratch at that epoch bit for bit (the dynamic index
invariant), and the gather stage sorts the union into canonical
ascending-uid order -- so responses are identical across shard counts
at every epoch, exactly as in the static case.

Bookkeeping per step: slice-local row ids are re-based into the new
global row space (one ``searchsorted`` per shard -- both sides are
uid-sorted), the per-shard planning bounds are recomputed from the new
columns, and the executor is re-bound to the re-based slices.

As-of-epoch queries bypass the scatter entirely and answer from the
global scene database's retained epoch views.  A slice therefore keeps
no as-of history: it pins only its current epoch, so each step releases
the slice's previous store view and a slice holds one epoch (plus its
seed) however long the scene runs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ShardError
from repro.geometry.box import Box
from repro.index.packed import RowResult
from repro.server.database import ObjectDatabase, StoredObject
from repro.server.scene import SceneDatabase
from repro.shard.database import ShardedDatabase
from repro.shard.mapping import ShardMap
from repro.shard.parallel import ShardSlice
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta, SceneDelta
from repro.store.uids import sorted_isin, sorted_unique
from repro.wavelets.analysis import WaveletDecomposition
from repro.wavelets.encoding import DEFAULT_ENCODING, EncodingModel

__all__ = ["ShardedSceneDatabase"]


def _restrict_delta(delta: SceneDelta, member_ids: np.ndarray) -> SceneDelta:
    """The delta as one shard sees it (``member_ids`` ascending)."""
    keep_moves = sorted_isin(delta.move_ids, member_ids)
    return SceneDelta(
        add_rows=delta.add_rows[
            sorted_isin(delta.add_rows["object_id"], member_ids)
        ],
        remove_ids=delta.remove_ids[sorted_isin(delta.remove_ids, member_ids)],
        move_ids=delta.move_ids[keep_moves],
        move_offsets=delta.move_offsets[keep_moves],
        remesh_rows=delta.remesh_rows[
            sorted_isin(delta.remesh_rows["object_id"], member_ids)
        ],
    )


class _SliceSceneDatabase(SceneDatabase):
    """A shard's scene database: it answers the current epoch only.

    Past epochs are answered by the global source, never by a slice,
    so a slice retains a single epoch.
    """

    def __init__(
        self,
        *,
        encoding: EncodingModel = DEFAULT_ENCODING,
        spatial_dims: int = 2,
    ) -> None:
        super().__init__(
            encoding=encoding, spatial_dims=spatial_dims, retained_epochs=1
        )


class ShardedSceneDatabase(ShardedDatabase):
    """Scatter-gather over per-shard scene databases, stepped in lockstep."""

    def __init__(
        self,
        source: SceneDatabase,
        shard_map: ShardMap,
    ) -> None:
        if not isinstance(source, SceneDatabase):
            raise ShardError(
                "ShardedSceneDatabase requires a SceneDatabase source"
            )
        self._source = source
        super().__init__(source, shard_map)
        # Membership is frozen at epoch 0: restricted deltas and
        # re-adds route by these sets forever.
        self._member_ids = tuple(
            self.member_ids(shard) for shard in range(shard_map.shard_count)
        )
        # The base constructor derived row maps from the source's
        # insertion-order concatenation; a scene store is canonically
        # uid-ordered instead, so re-derive them (and the planning
        # bounds that were computed from them).
        self._refresh_row_maps()
        self._refresh_bounds()
        self._executor.bind(self._slices)
        self._uid_steps: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _slice_database(
        self, objects: "Iterable[StoredObject]"
    ) -> ObjectDatabase:
        return _SliceSceneDatabase.from_objects(
            objects, encoding=self._encoding, spatial_dims=self._spatial_dims
        )

    # -- derived state ------------------------------------------------------

    @property
    def source(self) -> SceneDatabase:
        return self._source

    @property
    def store(self) -> CoefficientStore:
        """The current epoch's global view (canonical uid order)."""
        return self._source.store

    def _refresh_row_maps(self) -> None:
        """Re-base slice-local rows into the current global row space.

        Both the global view and every slice view are sorted by packed
        uid and every slice uid is present globally, so the map is one
        ``searchsorted`` per shard.
        """
        global_uids = self.store.packed_uids
        slices: list[ShardSlice] = []
        for shard_slice in self._slices:
            slice_uids = shard_slice.db.store.packed_uids
            row_map = np.searchsorted(global_uids, slice_uids)
            row_map.setflags(write=False)
            slices.append(
                ShardSlice(
                    shard=shard_slice.shard,
                    db=shard_slice.db,
                    row_map=row_map,
                )
            )
        self._slices = tuple(slices)

    # -- the epoch surface --------------------------------------------------

    @property
    def current_epoch(self) -> int:
        return self._source.current_epoch

    def store_at(self, epoch: int) -> CoefficientStore:
        return self._source.store_at(epoch)

    def query_region_rows_at(
        self, epoch: int, region: Box, w_min: float, w_max: float
    ) -> RowResult:
        """As-of-epoch answering from the global retained views.

        Pinned epochs skip the scatter: the global scene database kept
        the whole compiled index of each retained epoch, so a serial
        traversal there is both simpler and I/O-identical to what the
        monolithic server reports for the same epoch.
        """
        if epoch == self.current_epoch:
            return self.query_region_rows(region, w_min, w_max)
        return self._source.query_region_rows_at(epoch, region, w_min, w_max)

    def get_object(self, object_id: int) -> StoredObject:
        # Post-seal incarnations register on the source; delegate so
        # base-mesh shipping serves the latest mesh.
        return self._source.get_object(object_id)

    def register_epoch_object(
        self, object_id: int, decomposition: WaveletDecomposition
    ) -> np.ndarray:
        """Stage an incarnation for a delta (see :class:`SceneDatabase`).

        Only existing member objects may be staged -- a brand-new id
        has no owning shard.
        """
        owned = any(
            bool(sorted_isin(object_id, members)) for members in self._member_ids
        )
        if not owned:
            raise ShardError(
                f"object {object_id} belongs to no shard; adding new "
                "objects to a sharded scene is not supported"
            )
        return self._source.register_epoch_object(object_id, decomposition)

    def advance_epoch(self, delta: SceneDelta) -> FootprintDelta:
        """Step the global scene and every slice one epoch, in lockstep."""
        all_members = sorted_unique(np.concatenate(self._member_ids))
        add_ids = sorted_unique(delta.add_rows["object_id"])
        new_ids = add_ids[~sorted_isin(add_ids, all_members)]
        if new_ids.size:
            raise ShardError(
                f"delta adds unowned objects {new_ids.tolist()}; shard "
                "membership is fixed at epoch 0"
            )
        old_uids = {
            sl.shard: sl.db.store.packed_uids for sl in self._slices
        }
        footprint = self._source.advance_epoch(delta)
        for shard_slice in self._slices:
            shard_slice.db.advance_epoch(
                _restrict_delta(delta, self._member_ids[shard_slice.shard])
            )
        self._refresh_row_maps()
        self._refresh_bounds()
        self._executor.bind(self._slices)
        self._uid_steps = {
            sl.shard: (old_uids[sl.shard], sl.db.store.packed_uids)
            for sl in self._slices
        }
        self._block_cache.clear()
        return footprint

    def slice_uid_step(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        if shard not in self._uid_steps:
            raise ShardError(
                f"no epoch step recorded for shard {shard} (advance_epoch "
                "has not run)"
            )
        return self._uid_steps[shard]
