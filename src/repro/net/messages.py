"""Client/server protocol messages.

The simulated protocol mirrors Section IV: a request carries one or more
``(region, w_min, w_max)`` triples plus the set-difference context the
server needs to filter already-delivered data; a response carries the
coefficient records (and base meshes) with their wire sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProtocolError
from repro.geometry.box import Box
from repro.mesh.trimesh import TriMesh
from repro.store.columns import CoefficientStore
from repro.store.uids import EMPTY_UIDS, UidSet, sorted_isin, unpack_uid_arrays
from repro.wavelets.coefficients import CoefficientRecord

__all__ = [
    "RegionRequest",
    "RetrieveRequest",
    "BaseMeshPayload",
    "CoefficientBatch",
    "RetrieveResponse",
    "RetrieveBatchResponse",
    "InvalidationFrame",
    "LATEST_EPOCH",
]

#: Sentinel epoch: "answer at whatever the server's current epoch is".
LATEST_EPOCH = -1


@dataclass(frozen=True)
class RegionRequest:
    """One ``(region, w_min, w_max)`` element of a Retrieve call.

    This is exactly the parameter group of the paper's ``Retrieve``
    function in Algorithm 1: a region with lower and upper resolution
    limits.  Note the algorithm passes resolutions; resolution ``r``
    maps to the coefficient band ``[r, 1.0]``, and an *incremental*
    band (raising resolution from ``r_prev`` to ``r``) is
    ``[r, r_prev)`` -- the ``half_open`` flag marks the latter so the
    server can exclude the upper bound and avoid resending data.
    """

    region: Box
    w_min: float
    w_max: float
    half_open: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.w_min <= self.w_max <= 1.0:
            raise ProtocolError(
                f"invalid band [{self.w_min}, {self.w_max}] in region request"
            )


@dataclass(frozen=True)
class RetrieveRequest:
    """A batch of region requests issued at one timestamp.

    ``exclude_uids`` is the delivered-data context: a sorted packed-uid
    array (:class:`~repro.store.uids.UidSet`) the client maintains
    incrementally, so building a request is O(1) instead of re-hashing
    every delivered uid per frame.  Legacy callers may still pass a
    ``frozenset`` of ``(object_id, level, index)`` triples; it is
    coerced on construction.

    ``epoch`` pins the scene version the query should be answered
    against: :data:`LATEST_EPOCH` (the default) means "the server's
    current epoch"; a non-negative value demands a consistent
    as-of-epoch answer and fails if the server no longer retains that
    version.  Static databases treat every request as epoch 0.
    """

    timestamp: float
    client_id: int
    regions: tuple[RegionRequest, ...]
    exclude_uids: UidSet = EMPTY_UIDS
    epoch: int = LATEST_EPOCH

    def __post_init__(self) -> None:
        if not self.regions:
            raise ProtocolError("a retrieve request needs at least one region")
        if self.epoch < LATEST_EPOCH:
            raise ProtocolError(
                f"request epoch must be >= {LATEST_EPOCH}, got {self.epoch}"
            )
        if not isinstance(self.exclude_uids, UidSet):
            object.__setattr__(
                self, "exclude_uids", UidSet.coerce(self.exclude_uids)
            )


@dataclass(frozen=True)
class BaseMeshPayload:
    """A base mesh shipped to the client when an object first appears."""

    object_id: int
    mesh: TriMesh
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ProtocolError("base mesh payload must have positive size")


@dataclass(frozen=True)
class CoefficientBatch:
    """A batched coefficient payload: row ids into a columnar store.

    On the simulated wire a batch is the column slices themselves
    (uids, values, payload vectors, sizes); here it is represented as
    the shared server-side store plus the shipped row ids, which is the
    same information without a copy.  All wire accounting is a column
    reduction -- no per-record objects exist unless a consumer calls
    :meth:`records`.
    """

    store: CoefficientStore
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ProtocolError(f"batch rows must be 1-D, got shape {rows.shape}")
        if rows.size and (
            int(rows.min()) < 0 or int(rows.max()) >= len(self.store)
        ):
            raise ProtocolError("batch row id out of store range")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        """Content equality: the same rows on the wire.

        Two batches are equal when the *selected row data* matches,
        regardless of which store backs them or which row ids select
        it -- exactly what survives a serialisation round trip, where
        the receiver re-bases the batch onto a store holding only the
        shipped rows.
        """
        if not isinstance(other, CoefficientBatch):
            return NotImplemented
        if self.count != other.count:
            return False
        return bool(
            np.array_equal(
                self.store.data[self.rows], other.store.data[other.rows]
            )
        )

    def __hash__(self) -> int:
        return hash((self.count, self.store.data[self.rows].tobytes()))

    @property
    def count(self) -> int:
        return int(self.rows.size)

    @property
    def payload_bytes(self) -> int:
        """Wire size of the coefficient columns, by column reduction."""
        return self.store.payload_bytes(self.rows)

    @property
    def uids(self) -> UidSet:
        """The shipped uids as a packed set (for delivered-set algebra)."""
        return self.store.uid_set(self.rows)

    def records(self) -> tuple[CoefficientRecord, ...]:
        """Materialise per-record views (compatibility boundary only)."""
        return self.store.records(self.rows)

    def displacements(self) -> tuple[tuple[float, float, float], ...]:
        """Raw payload vectors in row order (legacy wire shape)."""
        payloads = self.store.payloads[self.rows]
        return tuple(
            (float(p[0]), float(p[1]), float(p[2])) for p in payloads
        )


@dataclass(frozen=True)
class RetrieveResponse:
    """The server's answer: base meshes, coefficients, and I/O spent."""

    request: RetrieveRequest
    base_meshes: tuple[BaseMeshPayload, ...]
    records: tuple[CoefficientRecord, ...]
    displacements: tuple[tuple[float, float, float], ...]
    io_node_reads: int
    filtered_out: int = 0

    def __post_init__(self) -> None:
        if len(self.records) != len(self.displacements):
            raise ProtocolError(
                f"{len(self.records)} records but {len(self.displacements)} payloads"
            )

    @property
    def payload_bytes(self) -> int:
        """Total bytes on the wire for this response."""
        return sum(b.size_bytes for b in self.base_meshes) + sum(
            r.size_bytes for r in self.records
        )

    @property
    def record_count(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RetrieveBatchResponse:
    """The server's columnar answer: base meshes plus one row batch.

    This is the native shape of the vectorised data path; call
    :meth:`to_response` to materialise the per-record
    :class:`RetrieveResponse` when a legacy consumer needs it.
    """

    request: RetrieveRequest
    base_meshes: tuple[BaseMeshPayload, ...]
    batch: CoefficientBatch
    io_node_reads: int
    filtered_out: int = 0
    #: The scene epoch this answer is consistent with (0 for static
    #: databases, which only ever have one version).
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ProtocolError(
                f"response epoch must be >= 0, got {self.epoch}"
            )

    @property
    def payload_bytes(self) -> int:
        """Total bytes on the wire for this response."""
        return sum(b.size_bytes for b in self.base_meshes) + self.batch.payload_bytes

    @property
    def record_count(self) -> int:
        return self.batch.count

    def to_response(self) -> RetrieveResponse:
        """Materialise the legacy per-record response (views on the store)."""
        return RetrieveResponse(
            request=self.request,
            base_meshes=self.base_meshes,
            records=self.batch.records(),
            displacements=self.batch.displacements(),
            io_node_reads=self.io_node_reads,
            filtered_out=self.filtered_out,
        )


@dataclass(frozen=True)
class InvalidationFrame:
    """A server-pushed notice that scene geometry changed.

    Broadcast to every connected client when the server advances to
    ``epoch``: cached data for the ``changed_ids`` objects is stale and
    must be dropped (and the uids removed from the delivered set so the
    next request re-fetches them).  ``region_low``/``region_high`` are
    the per-object dirty bounds -- the union of each object's footprint
    before and after the change -- letting a client that caches by
    spatial block invalidate only the touched slices.
    """

    epoch: int
    changed_ids: np.ndarray
    region_low: np.ndarray
    region_high: np.ndarray

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ProtocolError(
                f"invalidation epoch must be >= 0, got {self.epoch}"
            )
        ids = np.asarray(self.changed_ids, dtype=np.int64)
        low = np.asarray(self.region_low, dtype=np.float64)
        high = np.asarray(self.region_high, dtype=np.float64)
        if ids.ndim != 1:
            raise ProtocolError(
                f"changed ids must be 1-D, got shape {ids.shape}"
            )
        if low.shape != (ids.size, 3) or high.shape != (ids.size, 3):
            raise ProtocolError(
                "invalidation bounds must align with changed ids: expected "
                f"({ids.size}, 3), got {low.shape} / {high.shape}"
            )
        object.__setattr__(self, "changed_ids", ids)
        object.__setattr__(self, "region_low", low)
        object.__setattr__(self, "region_high", high)

    @property
    def count(self) -> int:
        return int(self.changed_ids.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvalidationFrame):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and bool(np.array_equal(self.changed_ids, other.changed_ids))
            and bool(np.array_equal(self.region_low, other.region_low))
            and bool(np.array_equal(self.region_high, other.region_high))
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.epoch,
                self.changed_ids.tobytes(),
                self.region_low.tobytes(),
                self.region_high.tobytes(),
            )
        )

    def mask_uids(self, packed: np.ndarray) -> np.ndarray:
        """Boolean mask of packed uids belonging to a changed object."""
        object_ids, _, _ = unpack_uid_arrays(packed)
        return sorted_isin(object_ids, np.sort(self.changed_ids))
