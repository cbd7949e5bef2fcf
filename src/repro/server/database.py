"""The server-side 3-D object database.

Stores a set of wavelet-decomposed objects in one columnar
:class:`~repro.store.columns.CoefficientStore` (built at decomposition
time, concatenated lazily across objects) and builds the packed
support-region index over it.  Exposes the query surfaces the rest of
the system needs:

* :meth:`ObjectDatabase.query_region_rows` -- the multi-resolution
  window query ``Q(R, w_max, w_min)`` returning *row ids* into the
  store (the vectorised currency of the serving stack);
* :meth:`ObjectDatabase.query_region` -- the same query materialised as
  per-record views, for the per-record reference path;
* :meth:`ObjectDatabase.block_rows_fn` / :meth:`ObjectDatabase.block_bytes_fn`
  -- one buffer block (grid cell x resolution) as rows / wire bytes,
  as callables bound to a grid, used by the buffer managers.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from repro.errors import StoreError, WorkloadError
from repro.geometry.box import Box
from repro.geometry.grid import CellId, Grid
from repro.index.access import AccessResult
from repro.index.dynamic import DynamicAccessMethod
from repro.index.packed import PackedAccessMethod, RowResult
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta, SceneDelta
from repro.wavelets.analysis import WaveletDecomposition
from repro.wavelets.coefficients import CoefficientRecord
from repro.wavelets.encoding import DEFAULT_ENCODING, EncodingModel

__all__ = ["StoredObject", "ObjectDatabase"]

AnyAccessMethod = PackedAccessMethod | DynamicAccessMethod


class StoredObject:
    """One object as stored on the server: decomposition + column rows."""

    def __init__(
        self,
        object_id: int,
        decomposition: WaveletDecomposition,
        store: CoefficientStore,
        base_bytes: int,
    ) -> None:
        self.object_id = object_id
        self.decomposition = decomposition
        self.store = store
        self.base_bytes = base_bytes

    @cached_property
    def records(self) -> tuple[CoefficientRecord, ...]:
        """Per-record views of this object's rows (built on first use)."""
        return self.store.records()

    @property
    def footprint(self) -> Box:
        """2-D (x, y) bounding box of the object's base mesh."""
        bb = self.decomposition.base.bounding_box()
        return bb.project((0, 1))

    @property
    def total_bytes(self) -> int:
        detail = ~self.store.base_mask
        return self.base_bytes + int(self.store.sizes[detail].sum())

    def __repr__(self) -> str:
        return (
            f"StoredObject(id={self.object_id}, rows={len(self.store)}, "
            f"base_bytes={self.base_bytes})"
        )


class ObjectDatabase:
    """A collection of wavelet-decomposed 3-D objects plus their index.

    The index is the paper's support-region R*-tree (Section VI)
    compiled to flat arrays: a :class:`~repro.index.packed.PackedAccessMethod`,
    traversed one vectorised level at a time, with the object tree's
    result sets and node-access counts.  The object-tree walks of
    :mod:`repro.index.access` are built directly where a figure compares
    them.

    Parameters
    ----------
    encoding:
        Byte accounting model for all wire sizes.
    spatial_dims:
        2 for the paper's ``(x, y, w)`` index; 3 for ``(x, y, z, w)``.
    """

    def __init__(
        self,
        *,
        encoding: EncodingModel = DEFAULT_ENCODING,
        spatial_dims: int = 2,
    ):
        self._encoding = encoding
        self._spatial_dims = spatial_dims
        self._objects: dict[int, StoredObject] = {}
        self._method: AnyAccessMethod | None = None
        self._store: CoefficientStore | None = None
        self._block_cache: dict[tuple, np.ndarray] = {}

    # -- construction ---------------------------------------------------------------

    @property
    def encoding(self) -> EncodingModel:
        return self._encoding

    @property
    def spatial_dims(self) -> int:
        """2 for the paper's ``(x, y, w)`` index; 3 for ``(x, y, z, w)``."""
        return self._spatial_dims

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def objects(self) -> list[StoredObject]:
        return list(self._objects.values())

    def add_object(self, object_id: int, decomposition: WaveletDecomposition) -> None:
        """Store one decomposed object (invalidates the index)."""
        if object_id in self._objects:
            raise WorkloadError(f"object id {object_id} already stored")
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
        self._method = None
        self._store = None
        self._block_cache.clear()

    def get_object(self, object_id: int) -> StoredObject:
        if object_id not in self._objects:
            raise WorkloadError(f"no object with id {object_id}")
        return self._objects[object_id]

    @classmethod
    def from_objects(
        cls,
        objects: "Iterable[StoredObject]",
        *,
        encoding: EncodingModel = DEFAULT_ENCODING,
        spatial_dims: int = 2,
    ) -> "ObjectDatabase":
        """A database over already-stored objects, sharing their stores.

        The objects are registered in iteration order (which fixes the
        concatenated store's row order) without re-running any
        decomposition work; this is how shard slices are built.
        """
        db = cls(encoding=encoding, spatial_dims=spatial_dims)
        for obj in objects:
            if obj.object_id in db._objects:
                raise WorkloadError(
                    f"object id {obj.object_id} already stored"
                )
            db._objects[obj.object_id] = obj
        return db

    @property
    def store(self) -> CoefficientStore:
        """The database-level columnar store (lazy concatenation)."""
        if self._store is None:
            self._store = CoefficientStore.concat(
                obj.store for obj in self._objects.values()
            )
        return self._store

    def displacement(self, uid: tuple[int, int, int]) -> np.ndarray:
        """Raw payload vector of a record (detail displacement / base position)."""
        try:
            row = self.store.row_for_uid(uid)
        except StoreError as exc:
            raise WorkloadError(f"unknown record uid {uid}") from exc
        return np.asarray(self.store.payloads[row], dtype=float)

    @property
    def total_bytes(self) -> int:
        """Full-resolution dataset size (the paper's 20-80 MB axis)."""
        return sum(obj.total_bytes for obj in self._objects.values())

    @property
    def record_count(self) -> int:
        return sum(len(obj.store) for obj in self._objects.values())

    def all_records(self) -> list[CoefficientRecord]:
        out: list[CoefficientRecord] = []
        for obj in self._objects.values():
            out.extend(obj.records)
        return out

    # -- the access method ---------------------------------------------------------

    @property
    def access_method(self) -> AnyAccessMethod:
        """The (lazily built) packed index over all records."""
        if self._method is None:
            if not self._objects:
                raise WorkloadError("cannot index an empty database")
            self._method = PackedAccessMethod(
                self.store, spatial_dims=self._spatial_dims
            )
        return self._method

    def packed_access_method(self) -> AnyAccessMethod | None:
        """The live packed index, or None when this database has none.

        The server's frame-delta planner keys its memos off this hook
        instead of :attr:`access_method` so alternative backends (a
        sharded database has *many* packed indexes, none global) can
        opt out without forcing an index build.  A scene database
        returns its epoch-stepping dynamic index, which exposes the
        same traversal surface.
        """
        if not self._objects:
            return None
        return self.access_method

    # -- the epoch surface ---------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The scene version queries run against by default.

        A static database only ever has one version, epoch 0; the
        epoch-versioned :class:`~repro.server.scene.SceneDatabase`
        overrides this with its live epoch.
        """
        return 0

    def store_at(self, epoch: int) -> CoefficientStore:
        """The consistent columnar view as of ``epoch``."""
        if epoch != 0:
            raise WorkloadError(
                f"static database has only epoch 0, not {epoch}"
            )
        return self.store

    def query_region_rows_at(
        self, epoch: int, region: Box, w_min: float, w_max: float
    ) -> RowResult:
        """The window query answered as of ``epoch``.

        Row ids index into :meth:`store_at` for the same epoch, *not*
        into the live :attr:`store`.
        """
        if epoch != 0:
            raise WorkloadError(
                f"static database has only epoch 0, not {epoch}"
            )
        return self.query_region_rows(region, w_min, w_max)

    def advance_epoch(self, delta: SceneDelta) -> FootprintDelta:
        """Apply one scene delta (scene databases only)."""
        raise WorkloadError(
            "a static ObjectDatabase cannot advance epochs; build a "
            "SceneDatabase for dynamic scenes"
        )

    def query_region(
        self, region: Box, w_min: float, w_max: float
    ) -> AccessResult:
        """Multi-resolution window query as per-record views."""
        return self.access_method.query(region, w_min, w_max)

    def query_region_rows(
        self, region: Box, w_min: float, w_max: float
    ) -> RowResult:
        """The same window query returning row ids into :attr:`store`."""
        return self.access_method.query_rows(region, w_min, w_max)

    # -- block interface for the buffer layer ------------------------------------------

    def block_rows_fn(self, grid: Grid):
        """A ``(cell, w_min) -> row ids`` callable bound to ``grid``.

        One buffer block: all records answering the cell.  Memoised per
        (cell, resolution, grid) because the buffer managers ask
        repeatedly; the query runs without I/O side effects on the
        cached path.  The grid enters the key by value (computed once
        here, not per call), so every client gridding the space the
        same way shares one entry (and a collected grid's recycled
        ``id`` can never alias another's rows).
        """
        grid_key = (
            grid.shape,
            grid.space.low.tobytes() + grid.space.high.tobytes(),
        )

        def fn(cell: CellId, w_min: float) -> np.ndarray:
            key = (cell, round(w_min, 6), *grid_key)
            rows = self._block_cache.get(key)
            if rows is None:
                rows = self.query_region_rows(
                    grid.cell_box(cell), w_min, 1.0
                ).rows
                self._block_cache[key] = rows
            return rows

        return fn

    def block_bytes_fn(self, grid: Grid):
        """A ``(cell, w_min) -> bytes`` callable bound to ``grid``."""
        rows_fn = self.block_rows_fn(grid)

        def fn(cell: CellId, w_min: float) -> int:
            return self.store.payload_bytes(rows_fn(cell, w_min))

        return fn
