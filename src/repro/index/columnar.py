"""Columnar access method: vectorised batch filtering over the store.

The tree access methods of :mod:`repro.index.access` answer one query
with a Python node-by-node traversal and return record *objects*.  The
columnar method answers the same multi-resolution window query
``Q(R, w_min, w_max)`` with one vectorised predicate over the
:class:`~repro.store.columns.CoefficientStore` columns and returns
*row-id arrays* -- the shape the refactored server, buffer, and wire
layers consume directly.

Result sets are identical to :class:`MotionAwareAccessMethod` (both
implement support-MBB x value intersection), so the two are
interchangeable for correctness; they differ only in cost model.  I/O is
accounted with a deterministic paged layout: rows live in store order on
4 KB pages, one query reads each page holding at least one match plus
one directory page -- mirroring how a real columnar segment scan would
bill page reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.index.access import AccessResult
from repro.index.stats import IOStats
from repro.store.columns import CoefficientStore
from repro.store.uids import sorted_unique

__all__ = ["RowResult", "ColumnarAccessMethod", "PAGE_BYTES"]

#: Page size of the simulated columnar layout (the paper's 4 KB pages).
PAGE_BYTES = 4096


@dataclass(frozen=True)
class RowResult:
    """Outcome of one batch row query: row ids plus the I/O spent."""

    rows: np.ndarray
    io: IOStats


class ColumnarAccessMethod:
    """Batch ``(box, w-band)`` filter over a coefficient store.

    Parameters
    ----------
    store:
        The database-level columnar store.
    spatial_dims:
        2 for the paper's ``(x, y, w)`` form, 3 for ``(x, y, z, w)``.
    """

    def __init__(self, store: CoefficientStore, *, spatial_dims: int = 2) -> None:
        if spatial_dims not in (2, 3):
            raise IndexError_(
                f"spatial_dims must be 2 or 3, got {spatial_dims}"
            )
        if len(store) == 0:
            raise IndexError_("cannot index an empty store")
        self._store = store
        self._spatial_dims = spatial_dims
        self._rows_per_page = max(PAGE_BYTES // store.data.dtype.itemsize, 1)
        self.stats = IOStats()

    @property
    def store(self) -> CoefficientStore:
        return self._store

    @property
    def spatial_dims(self) -> int:
        return self._spatial_dims

    def __len__(self) -> int:
        return len(self._store)

    def _charge_io(self, rows: np.ndarray) -> None:
        pages = int(sorted_unique(rows // self._rows_per_page).size)
        self.stats.record_node(is_leaf=False, entries=len(self._store))
        for _ in range(pages):
            self.stats.record_node(is_leaf=True, entries=self._rows_per_page)
        self.stats.record_query()

    def query_rows(
        self,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        half_open: bool = False,
    ) -> RowResult:
        """One vector pass: row ids whose support answers the query."""
        self.stats.push()
        rows = self._store.filter_rows(
            region,
            w_min,
            w_max,
            spatial_dims=self._spatial_dims,
            half_open=half_open,
        )
        self._charge_io(rows)
        return RowResult(rows=rows, io=self.stats.pop_delta())

    def query(self, region: Box, w_min: float, w_max: float) -> AccessResult:
        """Tree-compatible query surface (materialises record views)."""
        result = self.query_rows(region, w_min, w_max)
        records = list(self._store.records(result.rows))
        return AccessResult(
            records=records,
            io=result.io,
            retrieved_with_duplicates=len(records),
        )
