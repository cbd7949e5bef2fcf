"""Packed coefficient uids and sorted-array uid sets.

A coefficient's global identity is ``(object_id, level, index)``.  The
per-record path carries these as Python tuples inside ``frozenset``s,
which makes the no-reship filter -- executed for *every* record of
*every* frame -- a hash lookup per record and forces the client to
rebuild the set on every request.  The columnar path packs the triple
into one ``int64``::

    bits 62..42  object_id   (21 bits, < 2_097_152 objects)
    bits 41..32  level + 1   (10 bits, level in [-1, 1022])
    bits 31..0   index       (32 bits)

so a whole result set is one integer array and set algebra becomes
sorted-array merging.  Packing is order-preserving: sorting packed keys
sorts by (object, level, index).

:func:`sorted_unique`, :func:`sorted_isin` and :func:`sorted_union` are
the only value-only set algebra on ``int64`` ids: numpy 2.x answers a
value-only ``np.unique`` / ``np.union1d`` / ``np.isin`` through a hash
table, ~100x dearer on a sorted uid column than these sort-based passes.

:class:`UidSet` is the immutable delivered-set container used on the
wire (:class:`~repro.net.messages.RetrieveRequest.exclude_uids`) and by
the clients.  It compares equal to a ``frozenset`` of uid tuples so
existing call sites and tests keep working.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import StoreError

__all__ = [
    "OBJECT_ID_LIMIT",
    "LEVEL_LIMIT",
    "INDEX_LIMIT",
    "UidSet",
    "EMPTY_UIDS",
    "pack_uid",
    "pack_uid_arrays",
    "unpack_uid",
    "unpack_uid_arrays",
    "uid_span",
    "sorted_unique",
    "sorted_isin",
    "sorted_union",
]

_LEVEL_BITS = 10
_INDEX_BITS = 32
_OBJECT_BITS = 21

#: Exclusive upper bounds of the packable ranges.
OBJECT_ID_LIMIT = 1 << _OBJECT_BITS
LEVEL_LIMIT = (1 << _LEVEL_BITS) - 1  # level + 1 must fit in the field
INDEX_LIMIT = 1 << _INDEX_BITS

_LEVEL_SHIFT = _INDEX_BITS
_OBJECT_SHIFT = _INDEX_BITS + _LEVEL_BITS
_LEVEL_MASK = (1 << _LEVEL_BITS) - 1
_INDEX_MASK = (1 << _INDEX_BITS) - 1


def pack_uid(object_id: int, level: int, index: int) -> int:
    """Pack one ``(object_id, level, index)`` triple into an ``int64``."""
    if not 0 <= object_id < OBJECT_ID_LIMIT:
        raise StoreError(
            f"object_id {object_id} outside packable range [0, {OBJECT_ID_LIMIT})"
        )
    if not -1 <= level < LEVEL_LIMIT - 1:
        raise StoreError(
            f"level {level} outside packable range [-1, {LEVEL_LIMIT - 1})"
        )
    if not 0 <= index < INDEX_LIMIT:
        raise StoreError(
            f"index {index} outside packable range [0, {INDEX_LIMIT})"
        )
    return (object_id << _OBJECT_SHIFT) | ((level + 1) << _LEVEL_SHIFT) | index


def pack_uid_arrays(
    object_ids: np.ndarray, levels: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`pack_uid` over aligned columns."""
    oid = np.asarray(object_ids, dtype=np.int64)
    lvl = np.asarray(levels, dtype=np.int64)
    idx = np.asarray(indices, dtype=np.int64)
    if oid.size and (
        int(oid.min()) < 0
        or int(oid.max()) >= OBJECT_ID_LIMIT
        or int(lvl.min()) < -1
        or int(lvl.max()) >= LEVEL_LIMIT - 1
        or int(idx.min()) < 0
        or int(idx.max()) >= INDEX_LIMIT
    ):
        raise StoreError("uid component outside packable range")
    return (oid << _OBJECT_SHIFT) | ((lvl + 1) << _LEVEL_SHIFT) | idx


def uid_span(object_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive packed-uid bounds ``[low, high]`` per object id.

    Packing is order-preserving with the object id in the top bits, so
    every uid of object ``g`` -- any level, any index -- satisfies
    ``low[i] <= uid <= high[i]``.  A sorted uid column therefore keeps
    each object's rows contiguous, and membership questions reduce to
    two ``searchsorted`` probes per object (``side="left"`` on ``low``,
    ``side="right"`` on ``high``) instead of a full-column unpack.
    """
    oid = np.asarray(object_ids, dtype=np.int64)
    if oid.size and (
        int(oid.min()) < 0 or int(oid.max()) >= OBJECT_ID_LIMIT
    ):
        raise StoreError("object id outside packable range")
    low = oid << _OBJECT_SHIFT
    return low, low + ((np.int64(1) << _OBJECT_SHIFT) - 1)


def sorted_unique(values: object) -> np.ndarray:
    """The distinct values of ``values``, ascending, as a fresh 1-D int64.

    Input that is already strictly increasing (the common case: uid
    columns arrive canonical) costs one O(n) check and a copy; anything
    else is sorted once and thinned by an adjacent-difference mask.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size < 2 or bool((arr[1:] > arr[:-1]).all()):
        return arr.copy()
    arr = np.sort(arr)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def sorted_isin(keys: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Boolean mask of ``keys`` found in the ascending array ``members``."""
    keys = np.asarray(keys, dtype=np.int64)
    if members.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(members, keys), members.size - 1)
    return members[pos] == keys


def sorted_union(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Merge sorted unique arrays (``base`` itself if ``extra`` adds none)."""
    new = extra[~sorted_isin(extra, base)]
    if new.size == 0:
        return base
    return np.insert(base, np.searchsorted(base, new), new)


def unpack_uid(packed: int) -> tuple[int, int, int]:
    """Invert :func:`pack_uid`."""
    packed = int(packed)
    if packed < 0:
        raise StoreError(f"packed uid must be non-negative, got {packed}")
    return (
        packed >> _OBJECT_SHIFT,
        ((packed >> _LEVEL_SHIFT) & _LEVEL_MASK) - 1,
        packed & _INDEX_MASK,
    )


def unpack_uid_arrays(
    packed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`unpack_uid`: ``(object_ids, levels, indices)``."""
    arr = np.asarray(packed, dtype=np.int64)
    return (
        arr >> _OBJECT_SHIFT,
        ((arr >> _LEVEL_SHIFT) & _LEVEL_MASK) - 1,
        arr & _INDEX_MASK,
    )


class UidSet:
    """An immutable set of coefficient uids as a sorted ``int64`` array.

    Membership of a whole column is one :func:`numpy.searchsorted` pass
    (:meth:`contains_packed`), union is a sorted merge, and the packed
    array travels on the wire as-is -- no per-record tuples or hashing.
    Equality (and iteration) is defined against plain tuple sets so the
    class is a drop-in for ``frozenset[tuple[int, int, int]]``.
    """

    __slots__ = ("_packed",)

    def __init__(
        self, packed: np.ndarray | None = None, *, _trusted: bool = False
    ) -> None:
        if packed is None:
            arr = np.empty(0, dtype=np.int64)
        elif _trusted:
            arr = packed
        else:
            arr = sorted_unique(packed)
            if arr.size and int(arr[0]) < 0:
                raise StoreError("packed uids must be non-negative")
        arr.setflags(write=False)
        self._packed = arr

    # -- construction ------------------------------------------------------

    @classmethod
    def from_packed(cls, packed: np.ndarray) -> "UidSet":
        """Build from packed keys (deduplicated and sorted here)."""
        return cls(packed)

    @classmethod
    def from_tuples(cls, uids: Iterable[tuple[int, int, int]]) -> "UidSet":
        """Build from ``(object_id, level, index)`` triples."""
        keys = [pack_uid(o, lv, ix) for (o, lv, ix) in uids]
        return cls(np.asarray(keys, dtype=np.int64))

    @classmethod
    def coerce(cls, value: object) -> "UidSet":
        """Normalise any legacy delivered-set representation.

        Accepts ``None`` (empty), an existing :class:`UidSet`, a numpy
        integer array of packed keys, or any iterable of uid triples
        (``frozenset``/``set``/``list``...).
        """
        if value is None:
            return EMPTY_UIDS
        if isinstance(value, cls):
            return value
        if isinstance(value, np.ndarray):
            return cls(value)
        if isinstance(value, Iterable):
            return cls.from_tuples(value)  # type: ignore[arg-type]
        raise StoreError(
            f"cannot build a UidSet from {type(value).__name__!r}"
        )

    # -- accessors ---------------------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """The sorted, unique packed keys (read-only)."""
        return self._packed

    def __len__(self) -> int:
        return int(self._packed.size)

    def __bool__(self) -> bool:
        return self._packed.size > 0

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for key in self._packed:
            yield unpack_uid(int(key))

    def __contains__(self, uid: object) -> bool:
        if isinstance(uid, tuple) and len(uid) == 3:
            key = pack_uid(int(uid[0]), int(uid[1]), int(uid[2]))
        elif isinstance(uid, (int, np.integer)):
            key = int(uid)
        else:
            return False
        pos = int(np.searchsorted(self._packed, key))
        return pos < self._packed.size and int(self._packed[pos]) == key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UidSet):
            return bool(np.array_equal(self._packed, other._packed))
        if isinstance(other, (set, frozenset)):
            return self.to_frozenset() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._packed.tobytes())

    def __repr__(self) -> str:
        return f"UidSet({self._packed.size} uids)"

    # -- set algebra -------------------------------------------------------

    def contains_packed(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised membership: boolean mask aligned with ``keys``."""
        return sorted_isin(keys, self._packed)

    def union(self, other: "UidSet | np.ndarray") -> "UidSet":
        """Sorted-merge union with another set or a packed-key array.

        Returns ``self`` when ``other`` adds nothing, and ``other``
        itself when this set is empty.
        """
        keys = other._packed if isinstance(other, UidSet) else sorted_unique(
            other
        )
        if self._packed.size == 0 and isinstance(other, UidSet):
            return other
        merged = sorted_union(self._packed, keys)
        if merged is self._packed:
            return self
        return UidSet(merged, _trusted=True)

    def difference(self, other: "UidSet | np.ndarray") -> "UidSet":
        """Members of this set absent from ``other``."""
        keys = other._packed if isinstance(other, UidSet) else sorted_unique(
            other
        )
        keep = ~sorted_isin(self._packed, keys)
        return UidSet(self._packed[keep], _trusted=True)

    def isdisjoint(self, other: "UidSet") -> bool:
        return not bool(self.contains_packed(other._packed).any())

    def __or__(self, other: object) -> "UidSet":
        if isinstance(other, UidSet):
            return self.union(other)
        if isinstance(other, (set, frozenset)):
            return self.union(UidSet.from_tuples(other))
        return NotImplemented

    def to_frozenset(self) -> frozenset[tuple[int, int, int]]:
        """Materialise the legacy tuple representation."""
        return frozenset(self)


#: The canonical empty delivered set (requests default to it).
EMPTY_UIDS = UidSet()
