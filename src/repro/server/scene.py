"""The epoch-versioned server database.

:class:`SceneDatabase` is an :class:`~repro.server.database.ObjectDatabase`
whose contents may change after it is built.  Construction works like
the static database (``add_object`` per object); the first query *seals*
the scene: the concatenated columnar store becomes epoch 0 of a
:class:`~repro.store.scene.SceneStore` and the index becomes the
incrementally patchable
:class:`~repro.index.dynamic.DynamicAccessMethod`.  From then on the
only mutation is :meth:`advance_epoch`, which applies one
:class:`~repro.store.scene.SceneDelta`, patches the index in place, and
returns the :class:`~repro.store.scene.FootprintDelta` the cache layers
above consume.

As-of-epoch answering
---------------------

Every epoch step pins the new compilation as an
:class:`~repro.index.dynamic.EpochView` (the dynamic index compiles a
fresh :class:`~repro.index.packed.PackedIndex` per epoch rather than
mutating the previous one, so a pin is a couple of references, not a
copy).  The most recent ``retained_epochs`` views stay addressable:
:meth:`query_region_rows_at` answers a pinned epoch with *zero*
recompute, billing I/O against the same counter as live queries.  Row
ids returned for a pinned epoch index into :meth:`store_at` of that
epoch.

The pins are also what bounds memory.  Every epoch's store view is a
full copy of the scene's rows, so when a pin is evicted the database
releases that epoch's view from its :class:`~repro.store.scene.SceneStore`
as well: a long-running scene holds ``retained_epochs`` views (plus
the seed, which replays keep), not one per epoch ever applied.
:meth:`store_at` and :meth:`query_region_rows_at` answer the same
epochs -- the current one and the pinned ones -- and raise the same
:class:`~repro.errors.WorkloadError` for any other.

Objects that change after sealing register their new decomposition via
:meth:`register_epoch_object`, which returns the coefficient rows to
put in the delta; the object table keeps every incarnation's base mesh
so base shipping works for past epochs too.  Known limitation: a moved
object's *stored* base mesh stays at its original position -- the wire
payload columns (which the scene store does translate) are the
authoritative positions.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import WorkloadError
from repro.geometry.box import Box
from repro.index.dynamic import (
    DEFAULT_DRIFT_BUDGET,
    DynamicAccessMethod,
    EpochView,
)
from repro.index.packed import RowResult
from repro.index.rtree import DEFAULT_NODE_CAPACITY
from repro.server.database import ObjectDatabase, StoredObject
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta, SceneDelta, SceneStore
from repro.wavelets.analysis import WaveletDecomposition
from repro.wavelets.encoding import DEFAULT_ENCODING, EncodingModel

__all__ = ["SceneDatabase", "DEFAULT_RETAINED_EPOCHS"]

#: How many trailing epochs a scene database keeps answerable by
#: default: their pinned index views and their store views.
DEFAULT_RETAINED_EPOCHS = 16


class SceneDatabase(ObjectDatabase):
    """An object database over an epoch-versioned scene.

    Parameters
    ----------
    retained_epochs:
        How many trailing epochs stay queryable through
        :meth:`query_region_rows_at` and :meth:`store_at`; older pins
        are evicted and their store views released.
    max_entries / drift_budget:
        Forwarded to the dynamic index (node capacity; the fraction of
        occupied grid cells a patch may dirty before the index falls
        back to a full recompile).
    """

    def __init__(
        self,
        *,
        encoding: EncodingModel = DEFAULT_ENCODING,
        spatial_dims: int = 2,
        max_entries: int = DEFAULT_NODE_CAPACITY,
        drift_budget: float = DEFAULT_DRIFT_BUDGET,
        retained_epochs: int = DEFAULT_RETAINED_EPOCHS,
    ) -> None:
        if retained_epochs < 1:
            raise WorkloadError(
                f"retained_epochs must be >= 1, got {retained_epochs}"
            )
        super().__init__(encoding=encoding, spatial_dims=spatial_dims)
        self._max_entries = max_entries
        self._drift_budget = drift_budget
        self._retained_epochs = retained_epochs
        self._scene: SceneStore | None = None
        self._dynamic: DynamicAccessMethod | None = None
        # epoch -> pinned view, oldest first; bounded by retained_epochs.
        self._pinned: OrderedDict[int, EpochView] = OrderedDict()

    # -- sealing ------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """True once the scene store exists (no more ``add_object``)."""
        return self._scene is not None

    @property
    def scene(self) -> SceneStore:
        """The epoch chain; building it seals the database."""
        if self._scene is None:
            if not self._objects:
                raise WorkloadError("cannot version an empty database")
            self._scene = SceneStore(
                CoefficientStore.concat(
                    obj.store for obj in self._objects.values()
                )
            )
            self._store = self._scene.latest
        return self._scene

    @property
    def store(self) -> CoefficientStore:
        """The *current-epoch* columnar view (canonical uid order)."""
        return self.scene.latest

    def add_object(
        self, object_id: int, decomposition: WaveletDecomposition
    ) -> None:
        if self._scene is not None:
            raise WorkloadError(
                "the scene is sealed; changes go through advance_epoch "
                "(register_epoch_object + SceneDelta.add_rows)"
            )
        super().add_object(object_id, decomposition)

    def register_epoch_object(
        self, object_id: int, decomposition: WaveletDecomposition
    ) -> np.ndarray:
        """Stage an object incarnation for a delta; returns its rows.

        Registers the decomposition in the object table (replacing any
        previous incarnation, so base-mesh shipping serves the new
        mesh) without touching the scene: the caller puts the returned
        ``COEFF_DTYPE`` rows into a :class:`SceneDelta` -- ``add_rows``
        for a new object, ``remesh_rows`` for a replacement -- and
        applies it through :meth:`advance_epoch`.
        """
        store = decomposition.column_store(object_id, self._encoding)
        base_bytes = self._encoding.base_mesh_bytes(
            decomposition.base.vertex_count, decomposition.base.face_count
        )
        self._objects[object_id] = StoredObject(
            object_id=object_id,
            decomposition=decomposition,
            store=store,
            base_bytes=base_bytes,
        )
        return store.data.copy()

    # -- the access method --------------------------------------------------

    @property
    def access_method(self) -> DynamicAccessMethod:
        """The (lazily built) dynamic packed index over the scene.

        The grid layout is fitted once, at build time, and reused for
        every later epoch -- index structure is a pure function of
        ``(row set, grid, max_entries)``, which is what makes the
        incrementally patched arrays bit-identical to a scratch build
        at any epoch.
        """
        if self._dynamic is None:
            self._dynamic = DynamicAccessMethod(
                self.store,
                spatial_dims=self._spatial_dims,
                max_entries=self._max_entries,
                drift_budget=self._drift_budget,
            )
            self._method = self._dynamic
            self._pin(self.scene.epoch)
        return self._dynamic

    def _pin(self, epoch: int) -> None:
        assert self._dynamic is not None
        self._pinned[epoch] = self._dynamic.pin()
        while len(self._pinned) > self._retained_epochs:
            evicted, _ = self._pinned.popitem(last=False)
            self.scene.release(evicted)

    @property
    def dynamic_index(self) -> DynamicAccessMethod:
        """The live dynamic index (building it if needed)."""
        return self.access_method

    @property
    def pinned_epochs(self) -> tuple[int, ...]:
        """Epochs currently answerable as-of (ascending)."""
        return tuple(self._pinned)

    # -- the epoch surface --------------------------------------------------

    @property
    def current_epoch(self) -> int:
        return self._scene.epoch if self._scene is not None else 0

    def store_at(self, epoch: int) -> CoefficientStore:
        if epoch != self.current_epoch:
            self._pinned_view(epoch)  # raises unless still answerable
        return self.scene.at_epoch(epoch)

    def query_region_rows_at(
        self, epoch: int, region: Box, w_min: float, w_max: float
    ) -> RowResult:
        if epoch == self.current_epoch:
            return self.query_region_rows(region, w_min, w_max)
        return self._pinned_view(epoch).query_rows(region, w_min, w_max)

    def _pinned_view(self, epoch: int) -> EpochView:
        """The pin of a past ``epoch``, or the error naming why not."""
        if not 0 <= epoch < self.current_epoch:
            raise WorkloadError(
                f"epoch {epoch} outside recorded range "
                f"[0, {self.current_epoch}]"
            )
        view = self._pinned.get(epoch)
        if view is None:
            raise WorkloadError(
                f"epoch {epoch} is no longer retained (keeping the last "
                f"{self._retained_epochs})"
            )
        return view

    def advance_epoch(self, delta: SceneDelta) -> FootprintDelta:
        """Apply one delta: store, index, caches, pin -- one step.

        The dynamic index is patched in place (dirty grid cells only,
        falling back to a full recompile past the drift budget), the
        new compilation is pinned for as-of-epoch answering, and the
        block-row memo cache -- keyed by spatial cell, hence stale the
        moment geometry moves -- is dropped.
        """
        method = self.dynamic_index
        footprint = self.scene.apply(delta)
        method.apply(self.scene.latest, footprint)
        self._store = self.scene.latest
        self._pin(self.scene.epoch)
        self._block_cache.clear()
        return footprint
