"""The columnar coefficient store.

One :class:`CoefficientStore` holds every indexable coefficient of one
or more objects as aligned numpy columns (a structured array), built
once at decomposition time.  All hot-path consumers -- the access
methods, the server's query answering, the no-reship filter, the block
sizing used by the buffer managers -- operate on *row-id arrays* into
this store; :class:`~repro.wavelets.coefficients.CoefficientRecord`
dataclasses are materialised only at compatibility boundaries (mesh
integration, experiment reports, tests).

Row layout (``COEFF_DTYPE``)::

    object_id  int64     owning object
    level      int64     -1 for base vertices, 0..J-1 for details
    index      int64     position within the level
    w          float64   normalised coefficient value in [0, 1]
    sup_low    float64x3 support-region MBB lower corner
    sup_high   float64x3 support-region MBB upper corner
    position   float64x3 vertex position (deformed / base)
    payload    float64x3 raw wire payload (displacement / base position)
    size_bytes int64     wire size under the encoding model

Rows of one object are ordered base-first then level-major, matching
:meth:`WaveletDecomposition.records`; a database-level store is the
concatenation of per-object stores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import StoreError
from repro.geometry.box import Box
from repro.store.uids import UidSet, pack_uid, pack_uid_arrays, sorted_unique
from repro.wavelets.coefficients import (
    CoefficientKey,
    CoefficientKind,
    CoefficientRecord,
)
from repro.wavelets.encoding import DEFAULT_ENCODING, EncodingModel
from repro.wavelets.support import base_vertex_support_box

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wavelets.analysis import WaveletDecomposition

__all__ = ["COEFF_DTYPE", "CoefficientStore"]

#: Structured row layout of the columnar store.
COEFF_DTYPE = np.dtype(
    [
        ("object_id", np.int64),
        ("level", np.int64),
        ("index", np.int64),
        ("w", np.float64),
        ("sup_low", np.float64, (3,)),
        ("sup_high", np.float64, (3,)),
        ("position", np.float64, (3,)),
        ("payload", np.float64, (3,)),
        ("size_bytes", np.int64),
    ]
)


def _boxes_to_bounds(boxes: Sequence[Box]) -> tuple[np.ndarray, np.ndarray]:
    """Stack 3-D box corners into ``(n, 3)`` low/high arrays."""
    n = len(boxes)
    low = np.empty((n, 3))
    high = np.empty((n, 3))
    for i, box in enumerate(boxes):
        if box.ndim != 3:
            raise StoreError(f"support box must be 3-D, got {box.ndim}-D")
        low[i] = box.low
        high[i] = box.high
    return low, high


class CoefficientStore:
    """Columnar storage for wavelet coefficient records.

    Construct via :meth:`from_decomposition` (one object) or
    :meth:`concat` (a database).  The store is immutable; every query
    returns row ids (``int64`` arrays) that index its columns.
    """

    __slots__ = (
        "_data",
        "_uids",
        "_uid_order",
        "_uid_rank",
        "_uids_sorted",
        "_object_ids",
        "_levels",
        "_w",
        "_sup_low",
        "_sup_high",
        "_payloads",
        "_sizes",
    )

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data)
        if arr.dtype != COEFF_DTYPE:
            raise StoreError(
                f"store rows must have COEFF_DTYPE, got {arr.dtype}"
            )
        if arr.ndim != 1:
            raise StoreError(f"store rows must be 1-D, got shape {arr.shape}")
        self._data = arr
        # Hot columns are cached contiguously: field views of a structured
        # array are strided (one row = 136 bytes), which defeats simd on
        # the whole-column scans of filter_rows / payload_bytes.
        self._object_ids = self._frozen(arr["object_id"])
        self._levels = self._frozen(arr["level"])
        self._w = self._frozen(arr["w"])
        self._sup_low = self._frozen(arr["sup_low"])
        self._sup_high = self._frozen(arr["sup_high"])
        self._payloads = self._frozen(arr["payload"])
        self._sizes = self._frozen(arr["size_bytes"])
        self._uids = pack_uid_arrays(
            self._object_ids, self._levels, arr["index"]
        )
        self._uids.setflags(write=False)
        self._uid_order: np.ndarray | None = None
        self._uid_rank: np.ndarray | None = None
        self._uids_sorted: np.ndarray | None = None

    @staticmethod
    def _frozen(column: np.ndarray) -> np.ndarray:
        contiguous = np.ascontiguousarray(column)
        contiguous.setflags(write=False)
        return contiguous

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "CoefficientStore":
        return cls(np.empty(0, dtype=COEFF_DTYPE))

    @classmethod
    def from_decomposition(
        cls,
        object_id: int,
        decomposition: "WaveletDecomposition",
        encoding: EncodingModel = DEFAULT_ENCODING,
    ) -> "CoefficientStore":
        """Flatten one decomposition into columns (base first).

        Row order matches :meth:`WaveletDecomposition.records`, so row
        ``i`` of this store is record ``i`` of the per-record path.
        """
        base = decomposition.base
        counts = [base.vertex_count] + [
            level.count for level in decomposition.levels
        ]
        total = int(sum(counts))
        data = np.zeros(total, dtype=COEFF_DTYPE)
        nb = base.vertex_count
        data["object_id"] = object_id
        data["level"][:nb] = -1
        data["index"][:nb] = np.arange(nb)
        data["w"][:nb] = 1.0
        data["position"][:nb] = base.vertices
        data["payload"][:nb] = base.vertices
        data["size_bytes"][:nb] = encoding.base_vertex_bytes()
        base_low, base_high = _boxes_to_bounds(
            [base_vertex_support_box(base, vi) for vi in range(nb)]
        )
        data["sup_low"][:nb] = base_low
        data["sup_high"][:nb] = base_high
        offset = nb
        for j, level in enumerate(decomposition.levels):
            n = level.count
            rows = slice(offset, offset + n)
            data["level"][rows] = j
            data["index"][rows] = np.arange(n)
            data["w"][rows] = level.values
            data["position"][rows] = level.positions
            data["payload"][rows] = level.displacements
            data["size_bytes"][rows] = encoding.coefficient_bytes()
            low, high = _boxes_to_bounds(level.support_boxes)
            data["sup_low"][rows] = low
            data["sup_high"][rows] = high
            offset += n
        return cls(data)

    @classmethod
    def concat(cls, stores: Iterable["CoefficientStore"]) -> "CoefficientStore":
        """Stack several per-object stores into one database store."""
        arrays = [s._data for s in stores]
        if not arrays:
            return cls.empty()
        return cls(np.concatenate(arrays))

    # -- columns -----------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The raw structured rows (treat as read-only)."""
        return self._data

    def __len__(self) -> int:
        return int(self._data.size)

    @property
    def object_ids(self) -> np.ndarray:
        return self._object_ids

    @property
    def levels(self) -> np.ndarray:
        return self._levels

    @property
    def indices(self) -> np.ndarray:
        return self._data["index"]

    @property
    def values(self) -> np.ndarray:
        """The normalised coefficient values ``w``."""
        return self._w

    @property
    def support_low(self) -> np.ndarray:
        return self._sup_low

    @property
    def support_high(self) -> np.ndarray:
        return self._sup_high

    @property
    def positions(self) -> np.ndarray:
        return self._data["position"]

    @property
    def payloads(self) -> np.ndarray:
        """Raw wire payloads (displacements; base positions for base rows)."""
        return self._payloads

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def packed_uids(self) -> np.ndarray:
        """Per-row packed ``(object_id, level, index)`` keys."""
        return self._uids

    @property
    def uid_order(self) -> np.ndarray:
        """Row ids in ascending packed-uid order (stable; cached)."""
        if self._uid_order is None:
            order = np.argsort(self._uids, kind="stable")
            order.setflags(write=False)
            self._uid_order = order
        return self._uid_order

    @property
    def uid_rank(self) -> np.ndarray:
        """Each row's position in :attr:`uid_order` (its inverse; cached).

        ``uid_rank[row]`` is a dense ``[0, n)`` stand-in for the row's
        packed uid that sorts identically, so a composite integer key
        can carry it where the 63-bit uid itself would not fit.
        """
        if self._uid_rank is None:
            order = self.uid_order
            rank = np.empty(order.size, dtype=np.int64)
            rank[order] = np.arange(order.size, dtype=np.int64)
            rank.setflags(write=False)
            self._uid_rank = rank
        return self._uid_rank

    @property
    def base_mask(self) -> np.ndarray:
        """Boolean mask of base-vertex rows (``level == -1``)."""
        return self._levels == -1

    # -- batch queries -----------------------------------------------------

    def filter_rows(
        self,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        spatial_dims: int = 2,
        half_open: bool = False,
    ) -> np.ndarray:
        """Row ids answering ``Q(region, w_min, w_max)``, one vector pass.

        The predicate is exactly the motion-aware access method's: the
        support-region MBB (projected onto the first ``spatial_dims``
        axes) intersects ``region`` and ``w`` lies in the band --
        ``[w_min, w_max]`` closed, or ``[w_min, w_max)`` when
        ``half_open`` marks an incremental band.
        """
        if spatial_dims not in (2, 3):
            raise StoreError(
                f"spatial_dims must be 2 or 3, got {spatial_dims}"
            )
        if not 0.0 <= w_min <= w_max <= 1.0:
            raise StoreError(
                f"invalid value band [{w_min}, {w_max}]; need 0 <= min <= max <= 1"
            )
        w = self._w
        mask = (w >= w_min) & ((w < w_max) if half_open else (w <= w_max))
        low = self._sup_low
        high = self._sup_high
        axes = min(region.ndim, spatial_dims)
        for axis in range(axes):
            mask &= low[:, axis] <= region.high[axis]
            mask &= region.low[axis] <= high[:, axis]
        # A 2-D region against a 3-D index spans all heights (the lifted
        # query of the access methods), so the z axis is unconstrained.
        return np.flatnonzero(mask).astype(np.int64)

    def payload_bytes(self, rows: np.ndarray) -> int:
        """Wire size of a row slice, by column reduction."""
        return int(self._sizes[rows].sum())

    def uid_set(self, rows: np.ndarray) -> UidSet:
        """The uids of a row slice as a :class:`UidSet`."""
        return UidSet.from_packed(self._uids[rows])

    def rows_for_packed(self, keys: np.ndarray) -> np.ndarray:
        """Map packed uids back to row ids (vectorised lookup).

        Raises :class:`StoreError` when any key is not present.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if self._uids_sorted is None:
            self._uids_sorted = self._uids[self.uid_order]
        pos = np.searchsorted(self._uids_sorted, keys)
        if keys.size:
            if int(pos.max(initial=0)) >= self._uids_sorted.size:
                raise StoreError("unknown uid in lookup")
            if not bool(np.all(self._uids_sorted[pos] == keys)):
                raise StoreError("unknown uid in lookup")
        return self.uid_order[pos]

    def row_for_uid(self, uid: tuple[int, int, int]) -> int:
        """Row id of one ``(object_id, level, index)`` triple."""
        key = pack_uid(uid[0], uid[1], uid[2])
        return int(self.rows_for_packed(np.asarray([key]))[0])

    # -- record views ------------------------------------------------------

    def record(self, row: int) -> CoefficientRecord:
        """Materialise one row as a compatibility record view."""
        if not 0 <= row < self._data.size:
            raise StoreError(f"row {row} out of range [0, {self._data.size})")
        r = self._data[row]
        level = int(r["level"])
        return CoefficientRecord(
            object_id=int(r["object_id"]),
            key=CoefficientKey(level, int(r["index"])),
            kind=CoefficientKind.BASE if level == -1 else CoefficientKind.DETAIL,
            position=np.array(r["position"]),
            value=float(r["w"]),
            support_box=Box(np.array(r["sup_low"]), np.array(r["sup_high"])),
            size_bytes=int(r["size_bytes"]),
        )

    def records(self, rows: np.ndarray | None = None) -> tuple[CoefficientRecord, ...]:
        """Materialise a row slice (default: all rows) as record views."""
        if rows is None:
            rows = np.arange(self._data.size, dtype=np.int64)
        return tuple(self.record(int(row)) for row in np.asarray(rows))

    def __repr__(self) -> str:
        objects = int(sorted_unique(self._data["object_id"]).size)
        return f"CoefficientStore({len(self)} rows, {objects} objects)"
